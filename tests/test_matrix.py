"""Campaign sweep: cell grid, comparison tables, failure isolation."""

import json

from cclab.config import load_config
from cclab.matrix import (CellResult, _cell_task, format_against_best,
                          render_table, run_matrix, write_matrix_outputs)
from cclab.runner import run_single, summary_dict

SMALL_MATRIX = """
[experiment]
seed = 42

[matrix]
variants = newreno,westwood+
flows = 1,2
scenarios = short:50
runs = 2
"""


def small_cells():
    cfg = load_config(text=SMALL_MATRIX)
    return cfg, run_matrix(cfg)


def test_best_value_renders_zero_percent_and_others_relative():
    assert format_against_best(377.0, 377.0) == "377 (0%)"
    assert format_against_best(383.0, 377.0) == "383 (+1.6%)"
    assert format_against_best(350.0, 377.0) == "350 (-7.2%)"


def test_zero_best_has_no_finite_relative_distance():
    # a timeout-free variant makes the row best 0; the others cannot be
    # expressed as a percentage of it
    assert format_against_best(0.0, 0.0) == "0 (0%)"
    assert format_against_best(1.5, 0.0) == "1.5 (n/a)"


def test_matrix_produces_exactly_the_grid(tmp_path):
    cfg, cells = small_cells()
    assert len(cells) == 2 * 2 * 1    # variants x flow counts x scenarios
    keys = [c.key for c in cells]
    assert keys == sorted(keys)
    assert all(c.ok for c in cells)
    assert all(len(c.runs) == 2 for c in cells)
    for cell in cells:
        for rep, run in enumerate(cell.runs):
            assert run.seed == cfg.seed + rep


def test_cell_means_cover_each_flow_of_each_run():
    _, cells = small_cells()
    cell = next(c for c in cells if c.flows == 2)
    per_flow = [fm.goodput_kbps for run in cell.runs for fm in run.flows]
    assert len(per_flow) == 4
    assert cell.mean("goodput_kbps") == sum(per_flow) / len(per_flow)


def test_render_table_shape_and_best_marking():
    cfg, cells = small_cells()
    text = render_table(cells, "goodput_kbps", "short50kb",
                        cfg.matrix_variants, cfg.matrix_flows)
    lines = text.strip().splitlines()
    assert lines[0].startswith("# per-flow goodput [Kbps], scenario short50kb")
    assert lines[1] == "flows,newreno,westwood+"
    assert len(lines) == 2 + len(cfg.matrix_flows)
    for row in lines[2:]:
        assert row.count("(0%)") >= 1    # one best entry per row


def test_failed_cell_is_isolated_and_reported():
    cfg = load_config(text=SMALL_MATRIX)
    cfg.link.queue_capacity = 0          # invalid once the run checks its config
    cell = _cell_task((cfg, "newreno", 1, "short:50"))
    assert not cell.ok
    assert "[link] queue_capacity" in cell.error
    assert cell.runs == []


def test_render_table_marks_failed_cells():
    cfg, cells = small_cells()
    broken = CellResult("newreno", 1, "short50kb", error="ValueError: boom")
    merged = [broken] + [c for c in cells if c.variant != "newreno" or c.flows != 1]
    text = render_table(merged, "timeouts", "short50kb",
                        cfg.matrix_variants, cfg.matrix_flows)
    row1 = next(l for l in text.splitlines() if l.startswith("1,"))
    assert row1.split(",")[1] == "failed"


def test_outputs_tables_cdfs_and_summary(tmp_path):
    cfg, cells = small_cells()
    write_matrix_outputs(str(tmp_path), cfg, cells)
    tables = sorted(p.name for p in (tmp_path / "tables").iterdir())
    assert tables == ["short50kb_goodput_kbps.csv", "short50kb_mean_rtt_ms.csv",
                      "short50kb_retx_percent.csv", "short50kb_timeouts.csv"]
    cdfs = sorted(p.name for p in (tmp_path / "cdf").iterdir())
    assert cdfs == ["short50kb_f1_newreno_rtt_ms.csv",
                    "short50kb_f1_westwoodplus_rtt_ms.csv",
                    "short50kb_f2_newreno_rtt_ms.csv",
                    "short50kb_f2_westwoodplus_rtt_ms.csv"]
    first_cdf = (tmp_path / "cdf" / cdfs[0]).read_text().splitlines()
    assert first_cdf[0] == "rtt_ms,fraction"
    assert first_cdf[-1].endswith("1.000000")

    doc = json.loads((tmp_path / "matrix_summary.json").read_text())
    assert doc["schema"] == "cclab-matrix-v1"
    assert doc["config_hash"] == cfg.config_hash()
    assert len(doc["cells"]) == 4
    for entry in doc["cells"]:
        assert entry["ok"]
        assert set(entry) >= {"scenario", "flows", "variant", "goodput_kbps",
                              "mean_rtt_ms", "jain_index", "representative_run_flow"}
        rep_run, rep_flow = entry["representative_run_flow"]
        assert 0 <= rep_run < 2
        assert 0 <= rep_flow < entry["flows"]


def test_a_cell_without_rtt_samples_writes_no_cdf(tmp_path):
    cfg, cells = small_cells()
    bare = next(c for c in cells if c.variant == "newreno" and c.flows == 1)
    for run in bare.runs:
        for fm in run.flows:
            fm.rtt_samples = []
    write_matrix_outputs(str(tmp_path), cfg, cells)
    cdfs = sorted(p.name for p in (tmp_path / "cdf").iterdir())
    assert cdfs == ["short50kb_f1_westwoodplus_rtt_ms.csv",
                    "short50kb_f2_newreno_rtt_ms.csv",
                    "short50kb_f2_westwoodplus_rtt_ms.csv"]
    doc = json.loads((tmp_path / "matrix_summary.json").read_text())
    assert [e["ok"] for e in doc["cells"]] == [True] * 4   # the cell itself is kept


def test_matrix_is_deterministic_across_calls():
    _, cells_a = small_cells()
    _, cells_b = small_cells()
    for a, b in zip(cells_a, cells_b):
        assert a.key == b.key
        assert a.mean("goodput_kbps") == b.mean("goodput_kbps")
        assert a.mean("mean_rtt_ms") == b.mean("mean_rtt_ms")


def _tree(root):
    return {p.relative_to(root): p.read_bytes() for p in root.rglob("*") if p.is_file()}


def test_parallel_workers_match_serial_results(tmp_path):
    campaigns = []
    for workers in (1, 2):
        cfg = load_config(text=SMALL_MATRIX.replace("seed = 42",
                                                    f"seed = 42\nworkers = {workers}"))
        campaigns.append(run_matrix(cfg))
        write_matrix_outputs(str(tmp_path / str(workers)), cfg, campaigns[-1])
    serial, parallel = campaigns
    assert [c.key for c in serial] == [c.key for c in parallel]
    for a, b in zip(serial, parallel):
        assert a.mean("goodput_kbps") == b.mean("goodput_kbps")
        assert a.mean_jain() == b.mean_jain()
    tree = _tree(tmp_path / "1")
    assert len(tree) == 4 + 4 + 1      # tables, CDFs, summary
    assert tree == _tree(tmp_path / "2")


def test_long_lived_cells_run_the_experiment_duration():
    cfg = load_config(text="[experiment]\nduration_s = 20\n\n[matrix]\n"
                           "variants = newreno\nflows = 1\nruns = 1\n")
    [cell] = run_matrix(cfg)
    assert cell.ok and cell.scenario_tag == "long20s"
    duration_us = cell.runs[0].flows[0].duration_us
    assert 18_000_000 < duration_us < 20_000_000


def test_each_pooled_run_is_the_serial_run_of_its_seed():
    # the acceptance campaigns in conftest.py read cell.runs as the runs of
    # seeds seed, seed + 1, ...: hold the pool to exactly those runs
    cfg = load_config(text="[experiment]\nseed = 42\nduration_s = 20\nworkers = 2\n"
                           "[matrix]\nvariants = newreno,cubic\nflows = 1,2\n"
                           "scenarios = long_lived,short:50\nruns = 2\n")
    cells = run_matrix(cfg)
    assert len(cells) == 2 * 2 * 2 and all(c.ok for c in cells)
    for token in cfg.matrix_scenarios:
        scenario = cfg.matrix_scenario(token)
        for cell in (c for c in cells if c.scenario_tag == scenario.tag):
            assert len(cell.runs) == cfg.matrix_runs
            for i, pooled in enumerate(cell.runs):
                serial = run_single(cfg, seed=cfg.seed + i, run_index=i,
                                    variant=cell.variant, flows=cell.flows,
                                    scenario=scenario)
                assert summary_dict(cfg, pooled) == summary_dict(cfg, serial)
                for a, b in zip(pooled.flows, serial.flows, strict=True):
                    assert a.rtt_samples == b.rtt_samples
                    assert a.decreases == b.decreases
