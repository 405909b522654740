"""Set up and execute one seeded run, then reduce it to metrics.

A run is fully determined by (configuration, seed): the link owns the
only RNG that shapes traffic, flow start offsets come from a second
generator derived from the seed, and all state lives on an integer
microsecond clock.  Rerunning the same pair must reproduce every
output byte.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass, field, replace
from itertools import chain

from .cc import make_controller
from .config import LabConfig, ScenarioSpec
from .engine import EventLoop, ms, seconds
from .history import Columns
from .link import BottleneckLink
from .metrics import (FlowMetrics, goodput_bps, jain_fairness, retx_ratio,
                      throughput_bps)
from .transport import TcpReceiver, TcpSender

TIMESERIES_SCHEMA = "cclab-timeseries-v1"
SUMMARY_SCHEMA = "cclab-summary-v1"
TIMESERIES_COLUMNS = ("t_us", "flow_id", "variant", "cwnd_segments",
                      "ssthresh_segments", "srtt_us", "rto_us",
                      "bytes_acked_cum", "retx_cum", "timeouts_cum")


class Timeseries(Columns):
    """The sampler's rows: `TIMESERIES_COLUMNS` but the variant, which is the run's."""

    __slots__ = ()
    TYPECODES = "qqddqqqqq"


@dataclass
class RunResult:
    run_index: int
    seed: int
    variant: str
    flows: list[FlowMetrics]
    jain_index: float
    aggregate_goodput_bps: float
    link_offered: int
    link_dropped: int
    link_delivered: int
    # the sampler's rows; no columns unless the run captured them
    timeseries: Timeseries = field(repr=False)
    # the link's (times, queue lengths) history, with keep_backlog_probe
    backlog_probe: tuple[list[int], list[int]] | None = field(repr=False, default=None)


class _FlowPipe:
    """Receiver side of one flow plus the ACK return path."""

    __slots__ = ("receiver", "link", "_on_ack")

    def __init__(self, link: BottleneckLink, sender: TcpSender):
        self.receiver = TcpReceiver()
        self.link = link
        self._on_ack = sender.on_ack   # filed as each ACK's action

    def on_packet(self, seq: int, payload_len: int) -> None:
        self.link.send_reverse(self._on_ack, self.receiver.on_segment(seq, payload_len))


def run_single(config: LabConfig, seed: int, run_index: int = 0,
               variant: str | None = None, flows: int | None = None,
               scenario: ScenarioSpec | None = None,
               capture_timeseries: bool = False,
               keep_backlog_probe: bool = False) -> RunResult:
    """Simulate one run and reduce it to per-flow metrics."""
    config.validate()   # a config changed in code after loading fails here too
    # and so do the arguments that stand in for its keys, read back from the
    # checked copy: it holds a variant alias under its canonical name
    run = replace(config, variant=variant or config.variant,
                  flows=flows if flows is not None else config.flows,
                  scenario=scenario or config.scenario)
    run.validate()
    variant, n_flows, scenario = run.variant, run.flows, run.scenario

    loop = EventLoop()
    link = BottleneckLink(loop, config.link, random.Random(seed),
                          record_backlog=keep_backlog_probe)
    stagger_rng = random.Random(f"{seed}/stagger")

    budget, end_us = scenario.size_bytes, seconds(scenario.end_s)

    senders: list[TcpSender] = []
    for flow_id in range(n_flows):
        controller = make_controller(
            variant, config.transport.initial_cwnd_segments,
            config.transport.initial_ssthresh_segments, config.transport.mss,
            config.params_for(variant))
        sender = TcpSender(loop, flow_id, config.transport, controller, link,
                           total_bytes=budget, app_stop_us=end_us)
        pipe = _FlowPipe(link, sender)
        link.register_sink(flow_id, pipe.on_packet)
        start_at = seconds(stagger_rng.uniform(0.0, config.stagger_s))
        sender.start(start_at)
        senders.append(sender)

    # A row at tick t reads the state before any event at t: the loop runs
    # to t - 1 only, and the clock is in whole microseconds.
    timeseries = Timeseries(None if capture_timeseries else ())
    try:
        if capture_timeseries:
            append = timeseries.append
            interval_us = max(1, ms(config.sample_interval_ms))
            for t in range(0, end_us + 1, interval_us):
                if t:
                    loop.run_until(t - 1)
                for s in senders:
                    c = s.controller
                    append(t, s.flow_id, c.cwnd_segments(), c.ssthresh_segments(), s.srtt_us(),
                           s.rto_current_us, s.snd_una, s.retransmissions, s.timeouts)
                if all(s.done_at is not None for s in senders):
                    break
        loop.run_until(end_us)
    finally:
        # Break the run's reference cycles (pending events -> actions ->
        # senders and link -> loop, link sinks <-> pipes) so that a finished
        # run is freed as soon as it is dropped, not when the cyclic
        # collector next gets to it.
        loop.clear()
        link.clear_sinks()

    flow_metrics = []
    for s in senders:
        if s.done_at is None and budget is not None:
            raise ValueError(
                f"flow {s.flow_id} did not finish its {scenario.size_kb} KB transfer within "
                f"{scenario.end_s:g} s: scenario = short:{scenario.size_kb} cannot complete "
                f"over this link")
        # a flow sends its first segment at its start, which validate puts before end_us
        flow_duration = (end_us if s.done_at is None else s.done_at) - s.started_at
        unique = s.snd_una
        _, rtts = s.rtt_samples.columns
        mean_rtt = sum(rtts) / len(rtts) if rtts else 0.0
        flow_metrics.append(FlowMetrics(
            flow_id=s.flow_id,
            variant=variant,
            duration_us=flow_duration,
            unique_bytes=unique,
            bytes_sent=s.bytes_sent,
            transmissions=s.transmissions,
            retransmissions=s.retransmissions,
            timeouts=s.timeouts,
            goodput_bps=goodput_bps(unique, flow_duration),
            throughput_bps=throughput_bps(s.bytes_sent, flow_duration),
            retx_ratio=retx_ratio(s.retransmissions, s.transmissions),
            mean_rtt_us=mean_rtt,
            rtt_samples=s.rtt_samples,
            retx_bursts=s.retx_bursts,
            decreases=s.decreases,
        ))

    goodputs = [m.goodput_bps for m in flow_metrics]
    if not any(goodputs):   # only a long-lived run gets here so: short ones finished
        raise ValueError(f"no flow had data acknowledged within the run: duration_s = "
                         f"{scenario.duration_s:g} ends before the first ACK")
    return RunResult(
        run_index=run_index,
        seed=seed,
        variant=variant,
        flows=flow_metrics,
        jain_index=jain_fairness(goodputs),
        aggregate_goodput_bps=sum(goodputs),
        link_offered=link.offered,
        link_dropped=link.dropped_tail + link.dropped_arq,
        link_delivered=link.delivered,
        timeseries=timeseries,
        backlog_probe=link.backlog_history,
    )


# output writers

def write_text(path: str, parts) -> None:
    """Write `parts` to `path`: every output file is UTF-8 with "\\n" line ends."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.writelines(parts)


# one row per TIMESERIES_COLUMNS, with the run's variant put in by
# `format`; the two window columns print with 6 decimals, and an
# infinite ssthresh as "inf"
_TIMESERIES_ROW = "%s,%s,{},%.6f,%.6f,%s,%s,%s,%s,%s\n"


def write_timeseries_csv(path: str, result: RunResult) -> None:
    row = _TIMESERIES_ROW.format(result.variant)
    write_text(path, chain((f"# {TIMESERIES_SCHEMA}\n", ",".join(TIMESERIES_COLUMNS) + "\n"),
                           (row % fields for fields in result.timeseries)))


# the counters of a summary.json flow row, in the order they are written
_FLOW_COUNTERS = ("flow_id", "duration_us", "unique_bytes", "bytes_sent", "transmissions",
                  "retransmissions", "timeouts")


def flow_figures(row: dict) -> dict:
    """A flow row's derived figures from its counters, rounded as summary.json stores them."""
    duration = row["duration_us"]
    return {"goodput_kbps": round(goodput_bps(row["unique_bytes"], duration) / 1000.0, 3),
            "throughput_kbps": round(throughput_bps(row["bytes_sent"], duration) / 1000.0, 3),
            "retx_ratio": round(retx_ratio(row["retransmissions"], row["transmissions"]), 6)}


def aggregate_figures(rows: list[dict]) -> dict:
    """The aggregate's derived figures from the flow rows' counters, rounded as stored."""
    goodputs = [goodput_bps(row["unique_bytes"], row["duration_us"]) for row in rows]
    return {"goodput_kbps": round(sum(goodputs) / 1000.0, 3),
            "jain_index": round(jain_fairness(goodputs), 6)}


def summary_dict(config: LabConfig, result: RunResult) -> dict:
    # key order is part of the format; insertion order is preserved on output
    rows = []
    for m in result.flows:
        row = {key: getattr(m, key) for key in _FLOW_COUNTERS}
        rows.append({**row, **flow_figures(row), "mean_rtt_ms": round(m.mean_rtt_ms, 3),
                     "rtt_sample_count": len(m.rtt_samples), "retx_bursts": m.retx_bursts})
    return {
        "schema": SUMMARY_SCHEMA,
        "config_hash": config.config_hash(),
        "seed": result.seed,
        "run_index": result.run_index,
        "variant": result.variant,
        "flows": rows,
        "aggregate": {**aggregate_figures(rows), "link_offered": result.link_offered,
                      "link_dropped": result.link_dropped,
                      "link_delivered": result.link_delivered},
        "config": config.canonical_text(),
    }


def write_summary(path: str, config: LabConfig, result: RunResult) -> None:
    write_text(path, (json.dumps(summary_dict(config, result), indent=2), "\n"))


def write_run_outputs(out_dir: str, config: LabConfig, result: RunResult) -> None:
    os.makedirs(out_dir, exist_ok=True)
    write_timeseries_csv(os.path.join(out_dir, "timeseries.csv"), result)
    write_summary(os.path.join(out_dir, "summary.json"), config, result)
