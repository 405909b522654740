"""End-to-end checks of the command line front end.

Most tests call main() in process so exit codes and stdout are easy to
assert; one smoke test goes through `python3 -m cclab` to prove the
installed entry point works.
"""

import json
import os
import subprocess
import sys

import pytest

from cclab.cc import VARIANTS
from cclab.cli import main
from cclab.config import load_config
from cclab.matrix import CellResult, run_matrix
from cclab.runner import SUMMARY_SCHEMA
from test_config import BAD_INPUTS
from test_golden import ARQ_LOSS_LINK


def run_cli(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


@pytest.fixture
def run_dir(tmp_path, capsys):
    """A completed short-transfer run directory."""
    out = tmp_path / "run"
    rc = main(["run", "--variant", "newreno", "--size", "50",
               "--seed", "11", "--out", str(out)])
    capsys.readouterr()
    assert rc == 0
    return out


def test_run_writes_outputs_and_reports(tmp_path, capsys):
    out = tmp_path / "out"
    rc, stdout, _ = run_cli(capsys, "run", "--variant", "cubic",
                            "--duration", "5", "--seed", "3", "--out", str(out))
    assert rc == 0
    assert (out / "summary.json").is_file()
    assert (out / "timeseries.csv").is_file()
    assert "flow 0 [cubic]:" in stdout
    assert "aggregate goodput" in stdout
    stored = json.loads((out / "summary.json").read_text())
    assert stored["variant"] == "cubic"
    assert stored["seed"] == 3


def test_run_short_transfer_moves_whole_payload(run_dir):
    stored = json.loads((run_dir / "summary.json").read_text())
    assert stored["flows"][0]["unique_bytes"] == 50 * 1024


# the configs of the runs of one type, each written by `cclab run`
WRITTEN_RUNS = {
    "long20s_every_variant": [f"[experiment]\nvariant = {variant}\nduration_s = 20\n"
                              for variant in VARIANTS],
    "short50_two_flows": ["[experiment]\nflows = 2\nscenario = short:50\nseed = 4\n"],
    "arq_loss_link": ["[experiment]\nflows = 2\nduration_s = 20\nseed = 5\n" + ARQ_LOSS_LINK],
}


@pytest.mark.parametrize("replay", [(), ("--replay",)], ids=["stored", "replay"])
@pytest.mark.parametrize("configs", WRITTEN_RUNS.values(), ids=WRITTEN_RUNS.keys())
def test_stats_verifies_untouched_summary(tmp_path, capsys, configs, replay):
    for i, text in enumerate(configs):
        ini, out = tmp_path / f"run{i}.ini", tmp_path / f"run{i}"
        ini.write_text(text)
        rc, _, _ = run_cli(capsys, "run", "--config", str(ini), "--out", str(out))
        assert rc == 0
        rc, stdout, _ = run_cli(capsys, "stats", str(out), *replay)
        assert rc == 0
        assert "verify ok" in stdout


# a field of summary.json, how it is tampered with, and the one mismatch `stats` names
TAMPERED_FIELDS = {
    "goodput_kbps": (("flows", 0, "goodput_kbps"), 1.0, "flow 0 goodput_kbps"),
    "throughput_kbps": (("flows", 0, "throughput_kbps"), 1.0, "flow 0 throughput_kbps"),
    "retx_ratio": (("flows", 0, "retx_ratio"), 0.001, "flow 0 retx_ratio"),
    "aggregate_goodput_kbps": (("aggregate", "goodput_kbps"), 1.0, "aggregate goodput_kbps"),
    "jain_index": (("aggregate", "jain_index"), -0.001, "aggregate jain_index"),
    "config_hash": (("config_hash",), "0" * 16, "config hash"),
}


@pytest.mark.parametrize("path, change, named", TAMPERED_FIELDS.values(),
                         ids=TAMPERED_FIELDS.keys())
def test_stats_detects_a_tampered_field(run_dir, capsys, path, change, named):
    summary = run_dir / "summary.json"
    stored = json.loads(summary.read_text())
    *parents, field = path
    owner = stored
    for step in parents:
        owner = owner[step]
    owner[field] = change if isinstance(change, str) else owner[field] + change
    summary.write_text(json.dumps(stored))

    rc, stdout, _ = run_cli(capsys, "stats", str(run_dir))
    assert rc == 1
    assert f"VERIFY FAILED: {named}\n" in stdout


# a header field of summary.json that the hashed config also holds, and a
# value the config does not: the run dir's config has seed 11 and newreno,
# and `cclab run` writes run index 0
TAMPERED_HEADERS = {
    "seed_not_a_number": ("seed", [11]),
    "another_seed": ("seed", 12),
    "seed_as_a_float": ("seed", 11.0),
    "another_variant": ("variant", "cubic"),
    "another_run_index": ("run_index", 7),
    "run_index_not_a_number": ("run_index", "x"),
    "run_index_as_false": ("run_index", False),
}


@pytest.mark.parametrize("replay", [(), ("--replay",)], ids=["stored", "replay"])
@pytest.mark.parametrize("field, value", TAMPERED_HEADERS.values(), ids=TAMPERED_HEADERS.keys())
def test_stats_checks_the_header_against_the_hashed_config(run_dir, capsys, field, value,
                                                           replay):
    # the replay runs the hashed config, so the figures still agree with it
    summary = run_dir / "summary.json"
    stored = json.loads(summary.read_text())
    stored[field] = value
    summary.write_text(json.dumps(stored))

    rc, stdout, stderr = run_cli(capsys, "stats", str(run_dir), *replay)
    assert rc == 1
    assert f"VERIFY FAILED: {field}\n" in stdout
    assert stderr == ""


def test_stats_replay_confirms_summary(run_dir, capsys):
    rc, stdout, _ = run_cli(capsys, "stats", str(run_dir), "--replay")
    assert rc == 0
    assert "fresh replay" in stdout


def test_stats_replay_confirms_a_two_flow_short_transfer(tmp_path, capsys):
    out = tmp_path / "short"
    rc, _, _ = run_cli(capsys, "run", "--variant", "cubic", "--flows", "2",
                       "--size", "50", "--seed", "4", "--out", str(out))
    assert rc == 0
    rc, stdout, _ = run_cli(capsys, "stats", str(out), "--replay")
    assert rc == 0
    assert "fresh replay" in stdout


def test_run_and_stats_print_the_same_figures(tmp_path, capsys):
    # flow 1's goodput is 523.55017 Kbps, stored as 523.55: both commands
    # print the stored figure (523.5), not the unrounded one (523.6)
    out = tmp_path / "run"
    rc, run_out, _ = run_cli(capsys, "run", "--size", "50", "--flows", "2", "--seed", "32",
                             "--variant", "newreno", "--out", str(out))
    assert rc == 0
    rc, stats_out, _ = run_cli(capsys, "stats", str(out))
    assert rc == 0

    def figures(text):
        return [line for line in text.splitlines() if line.startswith(("flow ", "aggregate "))]

    assert len(figures(run_out)) == 3
    assert figures(run_out) == figures(stats_out)


def test_replay_catches_tamper_that_arithmetic_misses(run_dir, capsys):
    # the timeout count is a raw counter, not derivable from the other
    # stored fields, so only a re-simulation can contradict it
    path = run_dir / "summary.json"
    stored = json.loads(path.read_text())
    stored["flows"][0]["timeouts"] += 1
    path.write_text(json.dumps(stored))

    rc, _, _ = run_cli(capsys, "stats", str(run_dir))
    assert rc == 0
    rc, stdout, _ = run_cli(capsys, "stats", str(run_dir), "--replay")
    assert rc == 1
    assert "replay flow 0 timeouts" in stdout


def test_replay_names_a_deleted_row(tmp_path, capsys):
    out = tmp_path / "short"
    rc, _, _ = run_cli(capsys, "run", "--flows", "2", "--size", "50", "--seed", "4",
                       "--out", str(out))
    assert rc == 0
    path = out / "summary.json"
    stored = json.loads(path.read_text())
    del stored["flows"][1]
    path.write_text(json.dumps(stored))

    rc, stdout, _ = run_cli(capsys, "stats", str(out), "--replay")
    assert rc == 1
    assert "replay flow count" in stdout


@pytest.mark.parametrize("case", ["list", "empty_object", "row_without_unique_bytes",
                                  "zero_duration"])
def test_an_unreadable_summary_is_a_usage_error(run_dir, capsys, case):
    path = run_dir / "summary.json"
    stored = json.loads(path.read_text())
    if case == "row_without_unique_bytes":
        del stored["flows"][0]["unique_bytes"]
    elif case == "zero_duration":
        stored["flows"][0]["duration_us"] = 0
    path.write_text(json.dumps({"list": [], "empty_object": {}}.get(case, stored)))

    rc, stdout, stderr = run_cli(capsys, "stats", str(run_dir))
    assert rc == 2
    assert stderr.startswith("error:")
    assert "Traceback" not in stderr
    assert "verify ok" not in stdout
    if case != "zero_duration":
        assert str(path) in stderr


def test_stats_refuses_another_schema(run_dir, capsys):
    path = run_dir / "summary.json"
    stored = json.loads(path.read_text())
    stored["schema"] = "cclab-summary-v2"
    path.write_text(json.dumps(stored))

    rc, stdout, stderr = run_cli(capsys, "stats", str(run_dir))
    assert rc == 2
    assert "cclab-summary-v2" in stderr and SUMMARY_SCHEMA in stderr
    assert "verify ok" not in stdout


def test_missing_run_dir_is_a_usage_error(tmp_path, capsys):
    rc, _, stderr = run_cli(capsys, "stats", str(tmp_path / "nowhere"))
    assert rc == 2
    assert "error:" in stderr


def test_a_short_run_that_no_flow_could_start_is_a_usage_error(tmp_path, capsys):
    ini = tmp_path / "late.ini"
    ini.write_text("[experiment]\nscenario = short:50\nstagger_s = 100000\n"
                   "[matrix]\nscenarios = short:50\n")
    rc, _, stderr = run_cli(capsys, "run", "--config", str(ini),
                            "--out", str(tmp_path / "out"))
    assert rc == 2
    assert stderr.startswith("error: ") and "stagger_s = 100000" in stderr
    assert not (tmp_path / "out").exists()


def test_invalid_config_is_a_usage_error(tmp_path, capsys):
    bad = tmp_path / "bad.ini"
    bad.write_text("[experiment]\nflows = 0\n")
    rc, _, stderr = run_cli(capsys, "run", "--config", str(bad),
                            "--out", str(tmp_path / "out"))
    assert rc == 2
    assert "error:" in stderr


def test_every_variant_name_the_config_accepts_runs(tmp_path, capsys):
    rc, stdout, _ = run_cli(capsys, "run", "--variant", "westwoodplus",
                            "--duration", "3", "--out", str(tmp_path / "out"))
    assert rc == 0
    assert "flow 0 [westwood+]:" in stdout


def test_run_takes_any_size_the_config_takes(tmp_path, capsys):
    out = tmp_path / "out"
    rc, _, _ = run_cli(capsys, "run", "--size", "200", "--out", str(out))
    assert rc == 0
    ini = tmp_path / "short200.ini"
    ini.write_text("[experiment]\nscenario = short:200\n")
    summary = json.loads((out / "summary.json").read_text())
    assert summary["config_hash"] == load_config(str(ini)).config_hash()


@pytest.mark.parametrize("args, message", [
    (("--variant", "vegas"), "error: unknown variant 'vegas'"),
    # the default stagger_s = 1 could start a flow after a 0.3 s run ends
    (("--duration", "0.3", "--seed", "4"), "error: duration_s = 0.3 must exceed stagger_s = 1"),
    (("--size", "0"), "error: short-transfer scenario needs a positive size"),
], ids=["unknown_variant", "run_shorter_than_stagger", "zero_size"])
def test_bad_run_arguments_are_usage_errors(tmp_path, capsys, args, message):
    rc, _, stderr = run_cli(capsys, "run", *args, "--out", str(tmp_path / "out"))
    assert rc == 2
    assert stderr.startswith(message)
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("text, message", [
    ("duration_s = 0.0000001\nstagger_s = 0\n",
     "error: duration_s = 1e-07 must exceed stagger_s = 0 in whole microseconds"),
    # the first ACK lands at 108 ms
    ("duration_s = 0.05\nstagger_s = 0\n",
     "error: no flow had data acknowledged within the run: duration_s = 0.05"),
], ids=["same_microsecond", "before_the_first_ack"])
def test_a_run_too_short_to_measure_is_a_usage_error(tmp_path, capsys, text, message):
    ini = tmp_path / "brief.ini"
    ini.write_text("[experiment]\n" + text)
    rc, _, stderr = run_cli(capsys, "run", "--config", str(ini), "--out", str(tmp_path / "out"))
    assert rc == 2
    assert stderr.startswith(message)
    assert "Traceback" not in stderr
    assert not (tmp_path / "out").exists()


def test_a_transfer_that_cannot_finish_is_a_usage_error(tmp_path, capsys):
    # every frame fails its one ARQ retry and is then lost: no byte arrives
    ini = tmp_path / "lost.ini"
    ini.write_text("[experiment]\nscenario = short:50\n[link]\narq_frame_error_prob = 1\n"
                   "arq_max_retx = 1\nresidual_loss_prob = 1\n")
    rc, _, stderr = run_cli(capsys, "run", "--config", str(ini), "--out", str(tmp_path / "out"))
    assert rc == 2
    assert stderr.startswith("error: flow 0 did not finish its 50 KB transfer within 3600 s: "
                             "scenario = short:50 ")
    assert "Traceback" not in stderr
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("section, key, value", BAD_INPUTS,
                         ids=[f"{s}.{k}={v}" for s, k, v in BAD_INPUTS])
def test_out_of_range_config_is_a_usage_error(tmp_path, capsys, section, key, value):
    bad = tmp_path / "bad.ini"
    bad.write_text(f"[{section}]\n{key} = {value}\n")
    rc, _, stderr = run_cli(capsys, "run", "--config", str(bad),
                            "--out", str(tmp_path / "out"))
    assert rc == 2
    assert stderr.startswith(f"error: [{section}] {key} = {value} must be ")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("text", [
    "seed = 3\n",                                   # no section header
    "[experiment]\nseed = 3\nseed = 4\n",          # a key set twice
], ids=["no_section_header", "duplicate_key"])
def test_unparsable_config_is_a_usage_error(tmp_path, capsys, text):
    bad = tmp_path / "bad.ini"
    bad.write_text(text)
    rc, _, stderr = run_cli(capsys, "run", "--config", str(bad),
                            "--out", str(tmp_path / "out"))
    assert rc == 2
    assert stderr.startswith("error:")
    assert "Traceback" not in stderr


SMOKE_MATRIX = ("[experiment]\nseed = 5\n"
                "[matrix]\nvariants = newreno, westwood+\nflows = 1\n"
                "scenarios = short:50\nruns = 1\n")


def test_matrix_smoke(tmp_path, capsys):
    ini = tmp_path / "matrix.ini"
    ini.write_text(SMOKE_MATRIX)
    out = tmp_path / "sweep"
    rc, stdout, _ = run_cli(capsys, "matrix", "--config", str(ini),
                            "--out", str(out))
    assert rc == 0
    assert "2/2 cells ok" in stdout
    assert (out / "tables" / "short50kb_goodput_kbps.csv").is_file()
    assert (out / "matrix_summary.json").is_file()


def _tree(root):
    return {p.relative_to(root): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


def test_matrix_workers_flag_overrides_the_config_and_keeps_every_byte(
        tmp_path, capsys, monkeypatch):
    ini = tmp_path / "matrix.ini"
    ini.write_text(SMOKE_MATRIX)
    real, seen = run_matrix, []
    monkeypatch.setattr("cclab.cli.run_matrix",
                        lambda config: seen.append(config.workers) or real(config))
    trees = []
    for workers in ("1", "2"):
        out = tmp_path / f"sweep{workers}"
        rc, stdout, _ = run_cli(capsys, "matrix", "--config", str(ini),
                                "--out", str(out), "--workers", workers)
        assert rc == 0
        assert "2/2 cells ok" in stdout
        trees.append(_tree(out))
    assert seen == [1, 2]
    assert trees[0] and trees[0] == trees[1]


def test_matrix_exit_code_reflects_failed_cells(tmp_path, capsys, monkeypatch):
    broken = CellResult("newreno", 1, "short50kb", runs=[], error="boom")
    monkeypatch.setattr("cclab.cli.run_matrix", lambda config: [broken])

    ini = tmp_path / "matrix.ini"
    ini.write_text(
        "[experiment]\nseed = 5\n"
        "[matrix]\nvariants = newreno\nflows = 1\nscenarios = short:50\nruns = 1\n")
    rc, stdout, _ = run_cli(capsys, "matrix", "--config", str(ini),
                            "--out", str(tmp_path / "sweep"))
    assert rc == 1
    assert "FAILED: boom" in stdout


@pytest.mark.parametrize("line", ["variants =", "flows =", "scenarios = ,"],
                         ids=["variants", "flows", "scenarios"])
def test_an_empty_matrix_list_is_a_usage_error(tmp_path, capsys, line):
    # it would run no cell, and still report every cell ok
    ini = tmp_path / "matrix.ini"
    ini.write_text(f"[matrix]\n{line}\n")
    rc, _, stderr = run_cli(capsys, "matrix", "--config", str(ini),
                            "--out", str(tmp_path / "sweep"))
    assert rc == 2
    key = line.split()[0]
    assert stderr.startswith(f"error: [matrix] {key} =  must be a non-empty comma-separated list")
    assert not (tmp_path / "sweep").exists()


def test_module_entry_point(tmp_path):
    # pytest's `pythonpath` setting reaches only its own process: hand the
    # child this checkout's src/ first on its path
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    out = tmp_path / "out"
    proc = subprocess.run(
        [sys.executable, "-m", "cclab", "run", "--size", "50",
         "--seed", "1", "--out", str(out)],
        capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert os.path.isfile(out / "summary.json")
