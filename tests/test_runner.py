"""Seeded runs: determinism, measurement windows, output files."""

import gc
import json
import os
import pickle
import random
import re
import subprocess
import sys
from bisect import bisect_left
from itertools import accumulate
from pathlib import Path

import pytest

import cclab.runner
from cclab.cc import Controller, make_controller
from cclab.config import ScenarioSpec, load_config
from cclab.engine import EventLoop, ms
from cclab.link import BottleneckLink, LinkConfig
from cclab.metrics import backlog_at
from cclab.runner import (TIMESERIES_COLUMNS, _FlowPipe, run_single, summary_dict,
                          write_run_outputs)
from cclab.transport import TcpSender, TransportConfig


def short_config(**experiment):
    lines = ["[experiment]"] + [f"{k} = {v}" for k, v in experiment.items()]
    return load_config(text="\n".join(lines) + "\n")


def test_same_config_and_seed_reproduce_every_output_byte(tmp_path):
    cfg = short_config(duration_s=20, flows=2, variant="cubic")
    a = run_single(cfg, seed=7, capture_timeseries=True)
    b = run_single(cfg, seed=7, capture_timeseries=True)
    dir_a, dir_b = tmp_path / "a", tmp_path / "b"
    write_run_outputs(str(dir_a), cfg, a)
    write_run_outputs(str(dir_b), cfg, b)
    assert (dir_a / "summary.json").read_bytes() == (dir_b / "summary.json").read_bytes()
    assert (dir_a / "timeseries.csv").read_bytes() == (dir_b / "timeseries.csv").read_bytes()


def test_different_seed_changes_the_trajectory():
    cfg = short_config(duration_s=30)
    a = run_single(cfg, seed=1)
    b = run_single(cfg, seed=2)
    assert a.flows[0].goodput_bps != b.flows[0].goodput_bps


def test_four_flow_run_shape():
    cfg = short_config(duration_s=20, flows=4)
    res = run_single(cfg, seed=3)
    assert len(res.flows) == 4
    assert [m.flow_id for m in res.flows] == [0, 1, 2, 3]
    assert 0.25 <= res.jain_index <= 1.0
    assert res.aggregate_goodput_bps == pytest.approx(sum(f.goodput_bps for f in res.flows))


def test_flow_starts_fall_inside_the_stagger_window():
    cfg = short_config(duration_s=20, flows=4)
    res = run_single(cfg, seed=11, capture_timeseries=True)
    for m in res.flows:
        assert m.duration_us > 19_000_000    # started within the first second
    assert res.flows[0].duration_us != res.flows[1].duration_us


def test_goodput_accounts_unique_bytes_over_the_flow_window():
    cfg = short_config(duration_s=30)
    res = run_single(cfg, seed=5)
    m = res.flows[0]
    assert m.goodput_bps == pytest.approx(m.unique_bytes * 8e6 / m.duration_us)
    assert m.goodput_bps <= m.throughput_bps
    assert 0.0 <= m.retx_ratio < 1.0


def test_short_transfer_reports_completion_time():
    cfg = short_config()
    res = run_single(cfg, seed=9, scenario=ScenarioSpec("short", size_kb=100))
    m = res.flows[0]
    assert m.unique_bytes == 100 * 1024
    assert m.duration_us < 5_000_000
    assert m.goodput_bps > 0


def test_variant_and_flow_overrides_bypass_the_config():
    cfg = short_config(duration_s=20)
    res = run_single(cfg, seed=4, variant="westwood+", flows=2)
    assert res.variant == "westwood+"
    assert len(res.flows) == 2
    assert all(m.variant == "westwood+" for m in res.flows)


def test_a_variant_alias_is_written_under_its_canonical_name(tmp_path):
    config = load_config(text="[experiment]\nduration_s = 5\n")
    res = run_single(config, 1, variant="westwood", capture_timeseries=True)
    assert res.variant == "westwood+"
    assert {m.variant for m in res.flows} == {"westwood+"}
    assert summary_dict(config, res)["variant"] == "westwood+"
    write_run_outputs(str(tmp_path), config, res)
    col = TIMESERIES_COLUMNS.index("variant")
    rows = (tmp_path / "timeseries.csv").read_text().splitlines()[2:]
    assert len(rows) == len(res.timeseries)
    assert {row.split(",")[col] for row in rows} == {"westwood+"}


def test_timeseries_rows_match_the_declared_columns(tmp_path):
    cfg = short_config(duration_s=10)
    res = run_single(cfg, seed=6, capture_timeseries=True)
    assert res.timeseries, "sampler produced no rows"
    # a stored row holds every column but the variant, which is the run's
    assert all(len(row) == len(TIMESERIES_COLUMNS) - 1 for row in res.timeseries)
    times = [row[0] for row in res.timeseries]
    assert times == sorted(times)
    write_run_outputs(str(tmp_path), cfg, res)
    lines = (tmp_path / "timeseries.csv").read_text().splitlines()
    assert lines[0] == "# cclab-timeseries-v1"
    assert lines[1] == ",".join(TIMESERIES_COLUMNS)
    assert len(lines) == 2 + len(res.timeseries)
    col = TIMESERIES_COLUMNS.index("variant")
    for line, row in zip(lines[2:], res.timeseries):
        fields = line.split(",")
        assert fields[col] == res.variant
        assert [int(fields[0]), int(fields[1])] == list(row[:2])
        assert [int(v) for v in fields[col + 3:]] == list(row[col + 2:])


def test_an_infinite_ssthresh_is_written_as_inf_until_the_first_decrease(tmp_path):
    cfg = load_config(text="[experiment]\nduration_s = 10\n"
                           "[transport]\ninitial_ssthresh = inf\n")
    res = run_single(cfg, seed=6, capture_timeseries=True)
    write_run_outputs(str(tmp_path), cfg, res)
    rows = [line.split(",") for line in
            (tmp_path / "timeseries.csv").read_text().splitlines()[2:]]
    col = TIMESERIES_COLUMNS.index("ssthresh_segments")
    first_cut_us = res.flows[0].decreases[0][0]
    # a row reads the state before any event at its own microsecond
    before = {row[col] for row in rows if int(row[0]) <= first_cut_us}
    after = [row[col] for row in rows if int(row[0]) > first_cut_us]
    assert before == {"inf"}
    assert after and all(len(v.partition(".")[2]) == 6 for v in after)


@pytest.mark.parametrize("variant", ["newreno", "westwood+", "bic", "cubic"])
def test_a_row_reads_the_state_before_any_event_at_its_microsecond(variant, monkeypatch):
    # seed 1510 starts its flow on the 4 ms grid, so at 80 ms sampling
    # many ACKs arrive at the very microsecond of a row
    senders = []

    class AckLog(TcpSender):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            self.acks = []
            senders.append(self)

        def on_ack(self, ack):
            self.acks.append((self.loop.now, ack))
            super().on_ack(ack)

    monkeypatch.setattr(cclab.runner, "TcpSender", AckLog)
    cfg = short_config(duration_s=20, sample_interval_ms=80)
    res = run_single(cfg, seed=1510, variant=variant, capture_timeseries=True)
    acks = senders[0].acks
    times = [at for at, _ in acks]
    highest = list(accumulate((ack for _, ack in acks), max, initial=0))
    assert len(res.timeseries) == 251
    ties = 0
    for t, _, _, _, _, _, acked, _, _ in res.timeseries:
        before = bisect_left(times, t)
        assert acked == highest[before], t
        ties += before < len(times) and times[before] == t
    assert ties > 0     # the rule decides some rows


def test_rows_stop_at_the_horizon():
    cfg = short_config(duration_s=7.05, flows=2)
    res = run_single(cfg, seed=9, capture_timeseries=True)
    for flow_id in (0, 1):
        times = [row[0] for row in res.timeseries if row[1] == flow_id]
        assert times == list(range(0, 7_000_001, 100_000))


def test_observing_a_run_changes_nothing_else(monkeypatch):
    loops = []

    class KeptLoop(EventLoop):
        def __init__(self):
            super().__init__()
            loops.append(self)

    monkeypatch.setattr(cclab.runner, "EventLoop", KeptLoop)
    cfg = short_config(duration_s=20, flows=2, sample_interval_ms=80)
    plain = run_single(cfg, seed=1510, variant="cubic")
    observed = run_single(cfg, seed=1510, variant="cubic", capture_timeseries=True)
    assert observed.timeseries and not plain.timeseries
    assert loops[0].processed == loops[1].processed > 0
    assert summary_dict(cfg, observed) == summary_dict(cfg, plain)


def test_summary_embeds_config_and_fixed_keys():
    cfg = short_config(duration_s=10)
    res = run_single(cfg, seed=8)
    doc = summary_dict(cfg, res)
    assert list(doc) == ["schema", "config_hash", "seed", "run_index", "variant",
                         "flows", "aggregate", "config"]
    assert doc["schema"] == "cclab-summary-v1"
    assert doc["config_hash"] == cfg.config_hash()
    assert doc["config"] == cfg.canonical_text()
    reloaded = load_config(text=doc["config"])
    assert reloaded.config_hash() == doc["config_hash"]


def test_summary_is_valid_json_on_disk(tmp_path):
    cfg = short_config(duration_s=10)
    res = run_single(cfg, seed=8)
    write_run_outputs(str(tmp_path), cfg, res)
    doc = json.loads((tmp_path / "summary.json").read_text())
    assert doc["seed"] == 8
    assert doc["flows"][0]["flow_id"] == 0


def test_link_accounting_reaches_the_summary():
    cfg = short_config(duration_s=30)
    res = run_single(cfg, seed=10)
    assert res.link_offered >= res.link_delivered
    assert res.link_offered - res.link_dropped >= res.link_delivered
    sent = sum(m.transmissions for m in res.flows)
    assert res.link_offered == sent


@pytest.mark.parametrize("override, message", [
    ({"flows": 0}, "[experiment] flows = 0 must be an integer >= 1"),
    ({"scenario": ScenarioSpec("short", size_kb=0)}, "short-transfer scenario needs a positive size"),
    ({"scenario": ScenarioSpec(duration_s=-1)}, "[experiment] duration_s = -1 must be"),
    ({"variant": "sideways"}, "unknown variant 'sideways'"),
], ids=["flows", "short_size", "duration", "variant"])
def test_run_arguments_are_checked_like_the_keys_they_stand_in_for(override, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        run_single(load_config(text=""), seed=1, **override)


def test_a_transfer_that_cannot_finish_fails_at_the_short_run_horizon():
    # every frame fails its one ARQ retry and is then lost: no byte arrives
    cfg = load_config(text="[experiment]\nscenario = short:50\n[link]\n"
                           "arq_frame_error_prob = 1\narq_max_retx = 1\n"
                           "residual_loss_prob = 1\n")
    with pytest.raises(ValueError,
                       match="flow 0 did not finish its 50 KB transfer within 3600 s"):
        run_single(cfg, seed=1)


def test_a_run_that_ends_before_the_first_ack_names_duration_s():
    # the first ACK lands at 108 ms: 8 ms to serialize, then the 100 ms
    # propagation RTT, so every goodput would be 0
    cfg = load_config(text="[experiment]\nflows = 2\nstagger_s = 0\nduration_s = 0.05\n")
    with pytest.raises(ValueError, match=re.escape(
            "no flow had data acknowledged within the run: duration_s = 0.05")):
        run_single(cfg, seed=1)


def test_backlog_probe_is_optional():
    cfg = short_config(duration_s=10)
    assert run_single(cfg, seed=2).backlog_probe is None
    probe = run_single(cfg, seed=2, keep_backlog_probe=True).backlog_probe
    assert probe is not None
    assert backlog_at(probe, 0) == 0


def test_a_kept_history_is_plain_data():
    cfg = short_config(duration_s=30, flows=2)
    result = run_single(cfg, seed=2, keep_backlog_probe=True)
    live = (BottleneckLink, EventLoop, TcpSender, Controller)
    reached, seen, stack = [], set(), [result]
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(obj, type):
            continue   # a class leads to modules, not to the run's objects
        seen.add(id(obj))
        if isinstance(obj, live):
            reached.append(type(obj).__name__)
        stack.extend(gc.get_referents(obj))
    assert reached == []

    assert any(flow.decreases for flow in result.flows)
    assert len(result.backlog_probe[0]) > 1
    again = pickle.loads(pickle.dumps(result))
    assert again.backlog_probe == result.backlog_probe
    assert [f.decreases for f in again.flows] == [f.decreases for f in result.flows]


@pytest.mark.parametrize("overrides", [
    dict(capture_timeseries=True),
    dict(flows=4),
    dict(flows=2, scenario=ScenarioSpec("short", size_kb=50)),
], ids=["timeseries", "four_flows", "short50"])
def test_finished_run_leaves_no_cyclic_garbage(overrides):
    cfg = short_config(duration_s=30)
    gc.collect()
    gc.disable()
    try:
        result = run_single(cfg, seed=3, **overrides)
        assert gc.collect() == 0
    finally:
        gc.enable()
    assert result.flows


def test_ack_reaches_the_sender_one_propagation_rtt_after_serialization():
    loop = EventLoop()
    link = BottleneckLink(loop, LinkConfig(arq_frame_error_prob=0.0), random.Random(1))
    config = TransportConfig()
    ctrl = make_controller("newreno", 2, 44.0, config.mss)
    acked_at = []

    class AckLog(TcpSender):
        def on_ack(self, ack):
            acked_at.append((self.loop.now, ack))
            super().on_ack(ack)

    sender = AckLog(loop, 0, config, ctrl, link, total_bytes=config.mss)
    link.register_sink(0, _FlowPipe().on_packet, sender.on_ack)
    sender.start(0)
    loop.run_until(ms(1000))
    # 1500 wire bytes at 1.5 Mbps serialize in 8 ms; the ACK then needs
    # the whole 100 ms propagation RTT
    assert acked_at == [(ms(108), config.mss)]
    assert sender.done_at == ms(108)


def test_zero_propagation_delay_run_accounts_every_packet(monkeypatch):
    links = []

    class KeptLink(BottleneckLink):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            links.append(self)

    monkeypatch.setattr(cclab.runner, "BottleneckLink", KeptLink)
    cfg = load_config(text="[experiment]\nflows = 2\nscenario = short:100\n"
                           "[link]\nprop_rtt_ms = 0\n")
    res = run_single(cfg, seed=3)
    assert [m.unique_bytes for m in res.flows] == [100 * 1024] * 2
    assert res.link_delivered == res.link_offered - res.link_dropped > 0
    assert links[0].quiescent_accounting_ok()


STARTUP_PROBE = """
import sys
import tempfile
import cclab
from cclab.config import load_config
from cclab.runner import run_single, write_run_outputs
config = load_config(text="[experiment]\\nduration_s = 5\\n")
result = run_single(config, seed=1, capture_timeseries=True)
with tempfile.TemporaryDirectory() as out_dir:
    write_run_outputs(out_dir, config, result)
print(",".join(m for m in ("concurrent.futures", "multiprocessing", "logging", "fractions")
               if m in sys.modules))
"""


def test_a_single_run_loads_neither_the_pool_nor_logging_nor_fractions():
    # only `matrix --workers N > 1` needs the process pool, and only parsing
    # beta keys needs Fraction (the config hash in summary.json does not);
    # a fresh interpreter shows what importing costs
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    proc = subprocess.run([sys.executable, "-c", STARTUP_PROBE], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == ""
