"""Self-test of the benchmark at a tiny size.

    python3 -m pytest bench/test_bench.py -q

Checks that the command prints every metric BENCHMARK.json names, with
its unit and the attempted/failed counts, for every workload; that the
correctness checks reject deliberately corrupted results; and that the
traced pass survives a wrapper target that has gone away.
"""

from __future__ import annotations

import copy
import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import checks  # noqa: E402
import tracer as tracer_mod  # noqa: E402
import workloads  # noqa: E402
from cclab import config as config_mod  # noqa: E402
from cclab import link as link_mod  # noqa: E402
from cclab import matrix as matrix_mod  # noqa: E402
from cclab import runner as runner_mod  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_is_printed(workload, trace):
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", workload, "--seed", "5",
         "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert result["failed"] == 0
    expected = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in expected}
    for metric in expected:
        printed = result["metrics"][metric["name"]]
        assert printed["unit"] == metric["unit"]
        assert isinstance(printed["value"], (int, float))


def test_nothing_is_printed_without_the_sources(tmp_path):
    os.makedirs(tmp_path / "bench")
    for name in os.listdir(HERE):
        if name.endswith(".py"):
            with open(os.path.join(HERE, name), encoding="utf-8") as src:
                (tmp_path / "bench" / name).write_text(src.read())
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "long_1flow",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert proc.stdout == ""


def _tiny_run():
    config = workloads.make("long_1flow", tiny=True).build(3)[0]
    return config, runner_mod.run_single(config, seed=config.seed, capture_timeseries=True)


def test_checks_reject_a_corrupted_run():
    config, result = _tiny_run()
    assert checks.check_run(config, result, config.scenario, 1) == []

    bad = copy.deepcopy(result)
    bad.flows[0].unique_bytes = bad.flows[0].bytes_sent + 1
    assert any("unique_bytes" in m for m in checks.check_run(config, bad, config.scenario, 1))

    bad = copy.deepcopy(result)
    bad.link_delivered += checks.in_flight_limit(config) + bad.link_offered
    assert any("conservation" in m for m in checks.check_run(config, bad, config.scenario, 1))

    bad = copy.deepcopy(result)
    bad.flows[0].goodput_bps *= 1.01
    assert any("goodput" in m for m in checks.check_run(config, bad, config.scenario, 1))

    bad = copy.deepcopy(result)
    bad.flows[0].unique_bytes //= 2
    bad.flows[0].goodput_bps /= 2
    bad.aggregate_goodput_bps /= 2
    assert any("below" in m for m in checks.check_run(config, bad, config.scenario, 1))


def test_checks_reject_corrupted_run_files(tmp_path):
    config, result = _tiny_run()
    runner_mod.write_run_outputs(str(tmp_path), config, result)
    assert checks.check_run_files(str(tmp_path), config, result) == []
    path = tmp_path / "summary.json"
    stored = json.loads(path.read_text())
    stored["flows"][0]["goodput_kbps"] += 1
    path.write_text(json.dumps(stored))
    assert any("goodput" in m for m in checks.check_run_files(str(tmp_path), config, result))


def test_checks_reject_corrupted_matrix_outputs(tmp_path):
    campaign = workloads.make("matrix_mix", tiny=True)
    config = campaign.build(4)
    config.workers = 1
    cells = matrix_mod.run_matrix(config)
    matrix_mod.write_matrix_outputs(str(tmp_path), config, cells)
    assert checks.check_matrix_outputs(str(tmp_path), config, cells, campaign.label) == {}

    table = tmp_path / "tables" / "short50kb_goodput_kbps.csv"
    lines = table.read_text().splitlines()
    row = lines[2].split(",")
    value, distance = row[1].split(" ", 1)
    row[1] = f"{float(value) * 1.1:.4g} {distance}"
    table.write_text("\n".join(lines[:2] + [",".join(row)] + lines[3:]) + "\n")
    cdf = next((tmp_path / "cdf").iterdir())
    cdf.write_text("\n".join(cdf.read_text().splitlines()[:-1]) + "\n")
    errors = checks.check_matrix_outputs(str(tmp_path), config, cells, campaign.label)
    messages = [m for found in errors.values() for m in found]
    assert any("short50kb_goodput_kbps" in m for m in messages)
    assert any(m.startswith("cdf") for m in messages)


def test_short_transfer_size_is_checked():
    config = config_mod.load_config(text="[experiment]\nscenario = short\nsize_kb = 50\n")
    result = runner_mod.run_single(config, seed=2)
    assert checks.check_run(config, result, config.scenario, 1) == []
    bad = copy.deepcopy(result)
    bad.flows[0].unique_bytes -= 1
    assert any("50 KB" in m for m in checks.check_run(config, bad, config.scenario, 1))


def test_repeat_comparison_finds_a_changed_field():
    config, result = _tiny_run()
    first = runner_mod.summary_dict(config, result)
    second = copy.deepcopy(first)
    assert checks.compare_summaries(first, second) == []
    second["flows"][0]["timeouts"] += 1
    assert checks.compare_summaries(first, second) == [
        f"repeat differs at .flows[0].timeouts: {first['flows'][0]['timeouts']!r} "
        f"vs {second['flows'][0]['timeouts']!r}"]


def test_tracer_skips_a_target_that_is_gone():
    renamed = tuple(("cclab.link:BottleneckLink.offer_packet", key, layer)
                    if key == "link.offer" else (target, key, layer)
                    for target, key, layer in tracer_mod.SPECS)
    original = link_mod.BottleneckLink.offer
    tracer = tracer_mod.Tracer(renamed).install()
    try:
        _tiny_run()
    finally:
        tracer.uninstall()
    assert link_mod.BottleneckLink.offer is original
    assert tracer.missing == {"link.offer"}
    metrics = tracer_mod.layer_metrics(tracer.snapshot(), tracer.missing, 1)
    assert "link.self_ns_per_pkt" not in metrics
    assert "engine.self_ns_per_event" not in metrics
    assert metrics["engine.events"][0] > 0
    assert metrics["link.offers"][0] > 0
