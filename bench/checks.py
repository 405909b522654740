"""Correctness checks on cclab's results, made apart from cclab.

Each check is a property of the method (link conservation, link
capacity, exact transfer sizes, determinism) or a figure recomputed here
from raw counters (goodput, Jain's index, the matrix table means and
their distance from the best variant, each RTT distribution).  None
compares with a stored copy of earlier output.  Every function returns
a list of messages, empty when the result passes.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import re

# share of the link rate the aggregate goodput of a long-lived run must
# reach: the paper finds "comparable goodputs" that fill the bottleneck
GOODPUT_FLOOR = 0.85

TIMESERIES_COLUMNS = ["t_us", "flow_id", "variant", "cwnd_segments",
                      "ssthresh_segments", "srtt_us", "rto_us",
                      "bytes_acked_cum", "retx_cum", "timeouts_cum"]

# table metric -> whether a larger value is better
TABLE_METRICS = {"goodput_kbps": True, "mean_rtt_ms": False,
                 "retx_percent": False, "timeouts": False}

_TABLE_CELL = re.compile(r"(\S+) \((0%|n/a|[+-]\d+\.\d%)\)")


def _close(a: float, b: float, rel: float = 1e-9) -> bool:
    return abs(a - b) <= rel * max(1.0, abs(b))


def _goodput_bps(fm) -> float:
    return fm.unique_bytes * 8 * 1_000_000 / fm.duration_us


def _mean_rtt_us(fm) -> float:
    samples = fm.rtt_samples
    return sum(r for _, r in samples) / len(samples) if samples else 0.0


def _jain(values: list[float]) -> float:
    return sum(values) ** 2 / (len(values) * sum(v * v for v in values))


def in_flight_limit(config) -> int:
    """Packets the link may hold at the end of a run: queue, server, propagation."""
    link = config.link
    serialization_us = config.transport.wire_len * 8 * 1_000_000 // link.rate_bps
    return link.queue_capacity + 1 + math.ceil(link.prop_rtt_us / 2 / serialization_us)


def check_run(config, result, scenario, flows: int) -> list[str]:
    """Properties every run must have, and its derived figures recomputed."""
    errors = []
    if len(result.flows) != flows:
        errors.append(f"{len(result.flows)} flows reported, {flows} run")
    residue = result.link_offered - result.link_dropped - result.link_delivered
    limit = in_flight_limit(config)
    if not 0 <= residue <= limit:
        errors.append(f"link conservation: offered - dropped - delivered = {residue}, "
                      f"outside [0, {limit}]")
    goodputs = []
    for fm in result.flows:
        tag = f"flow {fm.flow_id}"
        if fm.duration_us <= 0:
            errors.append(f"{tag}: duration {fm.duration_us} us")
            continue
        if fm.unique_bytes > fm.bytes_sent:
            errors.append(f"{tag}: unique_bytes {fm.unique_bytes} > bytes_sent {fm.bytes_sent}")
        if fm.retransmissions > fm.transmissions:
            errors.append(f"{tag}: retransmissions {fm.retransmissions} > "
                          f"transmissions {fm.transmissions}")
        goodput = _goodput_bps(fm)
        goodputs.append(goodput)
        if not _close(fm.goodput_bps, goodput):
            errors.append(f"{tag}: goodput {fm.goodput_bps} bps, recomputed {goodput}")
        if not _close(fm.mean_rtt_us, _mean_rtt_us(fm)):
            errors.append(f"{tag}: mean RTT {fm.mean_rtt_us} us, recomputed {_mean_rtt_us(fm)}")
        if scenario.kind != "long_lived" and fm.unique_bytes != scenario.size_kb * 1024:
            errors.append(f"{tag}: {fm.unique_bytes} unique bytes of a "
                          f"{scenario.size_kb} KB transfer")
    if not goodputs or not any(goodputs):
        return errors + ["no flow delivered any data"]
    if not _close(result.jain_index, _jain(goodputs)):
        errors.append(f"Jain index {result.jain_index}, recomputed {_jain(goodputs)}")
    if not _close(result.aggregate_goodput_bps, sum(goodputs)):
        errors.append(f"aggregate goodput {result.aggregate_goodput_bps}, "
                      f"recomputed {sum(goodputs)}")
    link, tr = config.link, config.transport
    if scenario.kind == "long_lived":
        span_us = round(scenario.duration_s * 1_000_000)
    else:
        # every flow starts within the stagger window and ends at its duration
        span_us = round(config.stagger_s * 1_000_000) + max(f.duration_us for f in result.flows)
    unique_bits = 8 * sum(f.unique_bytes for f in result.flows)
    if unique_bits * tr.wire_len * 1_000_000 > link.rate_bps * span_us * tr.mss:
        errors.append(f"capacity: {unique_bits} payload bits in {span_us} us exceed the link")
    if scenario.kind == "long_lived" and sum(goodputs) < GOODPUT_FLOOR * link.rate_bps:
        errors.append(f"aggregate goodput {sum(goodputs):.0f} bps below "
                      f"{GOODPUT_FLOOR} x {link.rate_bps} bps")
    return errors


def check_run_files(run_dir: str, config, result) -> list[str]:
    """summary.json and timeseries.csv written by write_run_outputs."""
    errors = []
    with open(os.path.join(run_dir, "summary.json"), encoding="utf-8") as fh:
        stored = json.load(fh)
    digest = hashlib.sha256(stored["config"].encode()).hexdigest()
    if not stored["config_hash"] or not digest.startswith(stored["config_hash"]):
        errors.append("summary: config_hash is not the SHA-256 of the embedded config")
    if stored["seed"] != result.seed:
        errors.append(f"summary: seed {stored['seed']}, run with {result.seed}")
    goodputs = []
    for fm, row in zip(result.flows, stored["flows"]):
        for key in ("duration_us", "unique_bytes", "bytes_sent", "transmissions",
                    "retransmissions", "timeouts"):
            if row[key] != getattr(fm, key):
                errors.append(f"summary flow {fm.flow_id}: {key} {row[key]}, "
                              f"run has {getattr(fm, key)}")
        goodput_kbps = _goodput_bps(fm) / 1000
        goodputs.append(goodput_kbps)
        if abs(row["goodput_kbps"] - goodput_kbps) > 0.0005 + 1e-9:
            errors.append(f"summary flow {fm.flow_id}: goodput {row['goodput_kbps']} kbps, "
                          f"recomputed {goodput_kbps}")
        if row["rtt_sample_count"] != len(fm.rtt_samples):
            errors.append(f"summary flow {fm.flow_id}: rtt_sample_count mismatch")
    if len(stored["flows"]) != len(result.flows):
        errors.append(f"summary: {len(stored['flows'])} flows, run has {len(result.flows)}")
    agg = stored["aggregate"]
    if abs(agg["goodput_kbps"] - sum(goodputs)) > 0.0005 + 1e-9:
        errors.append(f"summary: aggregate goodput {agg['goodput_kbps']}, "
                      f"recomputed {sum(goodputs)}")
    if goodputs and abs(agg["jain_index"] - _jain(goodputs)) > 5e-7 + 1e-12:
        errors.append(f"summary: Jain index {agg['jain_index']}, recomputed {_jain(goodputs)}")
    for key, value in (("link_offered", result.link_offered),
                       ("link_dropped", result.link_dropped),
                       ("link_delivered", result.link_delivered)):
        if agg[key] != value:
            errors.append(f"summary: {key} {agg[key]}, run has {value}")
    return errors + _check_timeseries(os.path.join(run_dir, "timeseries.csv"), config, result)


def _check_timeseries(path: str, config, result) -> list[str]:
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if len(lines) < 2 or not lines[0].startswith("# cclab-timeseries-v"):
        return ["timeseries: missing schema line"]
    if lines[1].split(",") != TIMESERIES_COLUMNS:
        return [f"timeseries: header {lines[1]!r}"]
    interval_us = round(config.sample_interval_ms * 1000)
    expected_rows = round(config.scenario.duration_s * 1_000_000) // interval_us + 1
    by_flow: dict[int, list[list[str]]] = {}
    for line in lines[2:]:
        row = line.split(",")
        by_flow.setdefault(int(row[1]), []).append(row)
    errors = []
    for fm in result.flows:
        rows = by_flow.get(fm.flow_id, [])
        if len(rows) != expected_rows:
            errors.append(f"timeseries flow {fm.flow_id}: {len(rows)} rows, "
                          f"sampling gives {expected_rows}")
            continue
        acked = [int(r[7]) for r in rows]
        retx = [int(r[8]) for r in rows]
        timeouts = [int(r[9]) for r in rows]
        if any(int(r[0]) != k * interval_us for k, r in enumerate(rows)):
            errors.append(f"timeseries flow {fm.flow_id}: sample times off the interval grid")
        for name, series, final in (("bytes_acked_cum", acked, fm.unique_bytes),
                                    ("retx_cum", retx, fm.retransmissions),
                                    ("timeouts_cum", timeouts, fm.timeouts)):
            if any(b < a for a, b in zip(series, series[1:])):
                errors.append(f"timeseries flow {fm.flow_id}: {name} decreases")
            if series[-1] > final:
                errors.append(f"timeseries flow {fm.flow_id}: {name} ends at {series[-1]}, "
                              f"above the run's {final}")
    return errors


def cell_means(cell) -> dict[str, float]:
    """The four table figures of one cell, from the raw per-flow counters."""
    flows = [fm for run in cell.runs for fm in run.flows]
    n = len(flows)
    return {
        "goodput_kbps": sum(_goodput_bps(fm) / 1000 for fm in flows) / n,
        "mean_rtt_ms": sum(_mean_rtt_us(fm) / 1000 for fm in flows) / n,
        "retx_percent": sum(100 * fm.retransmissions / fm.transmissions
                            if fm.transmissions else 0.0 for fm in flows) / n,
        "timeouts": sum(fm.timeouts for fm in flows) / n,
    }


def _check_table_cell(text: str, value: float, best: float) -> str:
    """Empty if `text` shows `value` to 4 digits and its distance from `best`."""
    match = _TABLE_CELL.fullmatch(text)
    if match is None:
        return f"unreadable cell {text!r}"
    shown = float(match.group(1))
    digits = 0.0 if value == 0 else 10 ** (math.floor(math.log10(abs(value))) - 3)
    if abs(shown - value) > 0.5 * digits * (1 + 1e-9) + 1e-12:
        return f"cell {text!r} shows {shown}, recomputed mean {value}"
    distance = match.group(2)
    if best == 0:
        expected = "0%" if value == 0 else "n/a"
        return "" if distance == expected else f"cell {text!r}, expected ({expected})"
    pct = (value - best) / best * 100
    if distance == "n/a":
        return f"cell {text!r}: n/a although the best is {best}"
    if distance == "0%":
        return "" if abs(pct) < 0.05 else f"cell {text!r} marked best, {pct:+.3f}% off"
    if abs(float(distance[:-1]) - pct) > 0.05 + 1e-6:
        return f"cell {text!r}, recomputed distance {pct:+.3f}%"
    return ""


def check_matrix_outputs(out_dir: str, config, cells, label) -> dict[str, list[str]]:
    """Tables, CDFs and matrix_summary.json against figures recomputed here.

    Returns messages keyed by the label of the cell they concern.
    """
    errors: dict[str, list[str]] = {}
    by_key = {(c.scenario_tag, c.flows, c.variant): c for c in cells if c.ok and c.runs}
    means = {key: cell_means(c) for key, c in by_key.items()}
    tags = sorted({key[0] for key in by_key})

    def fail(key, message):
        errors.setdefault(label(*key), []).append(message)

    for tag in tags:
        for metric, higher_better in TABLE_METRICS.items():
            path = os.path.join(out_dir, "tables", f"{tag}_{metric}.csv")
            with open(path, encoding="utf-8") as fh:
                lines = fh.read().splitlines()
            header = "flows," + ",".join(config.matrix_variants)
            rows = {line.split(",")[0]: line.split(",")[1:] for line in lines[2:]}
            for flows in config.matrix_flows:
                keys = [(tag, flows, v) for v in config.matrix_variants]
                present = [means[k][metric] for k in keys if k in means]
                if not present:
                    continue
                row = rows.get(str(flows))
                if lines[1:2] != [header] or row is None or len(row) != len(keys):
                    for key in keys:
                        fail(key, f"table {tag}_{metric}: no well-formed row for {flows} flows")
                    continue
                best = max(present) if higher_better else min(present)
                for key, text in zip(keys, row):
                    if key not in means:
                        continue
                    message = _check_table_cell(text, means[key][metric], best)
                    if message:
                        fail(key, f"table {tag}_{metric}: {message}")

    for key, cell in by_key.items():
        rtts = sorted(rtt for run in cell.runs for fm in run.flows for _, rtt in fm.rtt_samples)
        if not rtts:
            continue
        name = f"{key[0]}_f{key[1]}_{key[2].replace('+', 'plus')}_rtt_ms.csv"
        with open(os.path.join(out_dir, "cdf", name), encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        points = [tuple(map(float, line.split(","))) for line in lines[1:]]
        distinct = sorted(set(rtts))
        if lines[:1] != ["rtt_ms,fraction"] or len(points) != len(distinct):
            fail(key, f"cdf {name}: {len(points)} points for {len(distinct)} distinct RTTs")
            continue
        values = [v for v, _ in points]
        fractions = [f for _, f in points]
        if any(b < a for a, b in zip(fractions, fractions[1:])) or \
                any(b <= a for a, b in zip(values, values[1:])):
            fail(key, f"cdf {name}: not increasing")
        if fractions[-1] != 1.0:
            fail(key, f"cdf {name}: ends at {fractions[-1]}, not 1")
        n = len(rtts)
        below = 0
        for (value, fraction), rtt in zip(points, distinct):
            while below < n and rtts[below] <= rtt:
                below += 1
            if abs(value - rtt / 1000) > 0.0005 or abs(fraction - below / n) > 5e-7 + 1e-12:
                fail(key, f"cdf {name}: point ({value}, {fraction}), recomputed "
                          f"({rtt / 1000}, {below / n})")
                break

    with open(os.path.join(out_dir, "matrix_summary.json"), encoding="utf-8") as fh:
        summary = json.load(fh)
    listed = {(c["scenario"], c["flows"], c["variant"]): c for c in summary["cells"]}
    for key, cell in by_key.items():
        entry = listed.get(key)
        if entry is None or not entry["ok"]:
            fail(key, "matrix_summary.json: cell missing or marked failed")
            continue
        jain = sum(_jain([_goodput_bps(fm) for fm in run.flows]) for run in cell.runs)
        if abs(entry["goodput_kbps"] - means[key]["goodput_kbps"]) > 0.0005 + 1e-9 or \
                abs(entry["jain_index"] - jain / len(cell.runs)) > 5e-7 + 1e-12:
            fail(key, "matrix_summary.json: goodput or Jain index differs from recomputation")
    return errors


def compare_summaries(first, second, path: str = "") -> list[str]:
    """Field-by-field differences between two summary dicts."""
    if isinstance(first, dict) and isinstance(second, dict):
        diffs = []
        for key in sorted(set(first) | set(second), key=str):
            diffs += compare_summaries(first.get(key), second.get(key), f"{path}.{key}")
        return diffs
    if isinstance(first, list) and isinstance(second, list) and len(first) == len(second):
        diffs = []
        for i, (a, b) in enumerate(zip(first, second)):
            diffs += compare_summaries(a, b, f"{path}[{i}]")
        return diffs
    return [] if first == second else [f"repeat differs at {path or '.'}: {first!r} vs {second!r}"]
