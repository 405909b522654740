"""Experiment matrix: sweep variants, flow counts, and scenarios.

Each cell repeats a run over derived seeds, is reduced to mean metrics,
and lands in comparison tables formatted the way measurement papers
report them: the value plus its relative distance from the best variant
in the same row, for example "383 (+1.6%)".  Cells fail independently;
the campaign reports every failure and the CLI exits nonzero if any
cell failed.  Runs are independent, so they may execute on a process
pool; results are merged in cell-key order either way.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from itertools import chain
from operator import attrgetter

from .config import LabConfig
from .metrics import empirical_cdf, representative_flow
from .runner import RunResult, run_single, write_text

MATRIX_SCHEMA = "cclab-matrix-v1"

# metric key -> (pretty name, better direction, summary digits, per-flow getter);
# the tables and the summary report these, in this order
TABLE_METRICS = {
    "goodput_kbps": ("per-flow goodput [Kbps]", "max", 3, attrgetter("goodput_kbps")),
    "mean_rtt_ms": ("mean RTT [ms]", "min", 3, attrgetter("mean_rtt_ms")),
    "retx_percent": ("retransmitted segments [%]", "min", 4,
                     lambda fm: fm.retx_ratio * 100.0),
    "timeouts": ("timeouts per flow", "min", 3, lambda fm: float(fm.timeouts)),
}


@dataclass
class CellResult:
    variant: str
    flows: int
    scenario_tag: str
    runs: list[RunResult] = field(default_factory=list)
    error: str = ""

    @property
    def key(self) -> tuple[str, int, str]:
        return (self.scenario_tag, self.flows, self.variant)

    @property
    def ok(self) -> bool:
        return not self.error

    def mean(self, metric: str) -> float:
        *_, get = TABLE_METRICS[metric]
        values = [get(fm) for run in self.runs for fm in run.flows]
        return sum(values) / len(values)

    def mean_jain(self) -> float:
        return sum(r.jain_index for r in self.runs) / len(self.runs)

    def pooled_rtt_ms(self) -> list[float]:
        return [rtt / 1000.0 for run in self.runs
                for fm in run.flows for _, rtt in fm.rtt_samples]

    def representative(self) -> tuple[int, int]:
        """(run_index, flow_id) of the most typical connection in the cell."""
        vectors = []
        owners = []
        for run in self.runs:
            for fm in run.flows:
                vectors.append((fm.goodput_kbps, fm.mean_rtt_ms, float(fm.timeouts)))
                owners.append((run.run_index, fm.flow_id))
        return owners[representative_flow(vectors)]


def _cell_task(args) -> CellResult:
    config, variant, flows, scenario_token = args
    scenario = config.matrix_scenario(scenario_token)
    cell = CellResult(variant, flows, scenario.tag)
    try:
        for rep in range(config.matrix_runs):
            cell.runs.append(run_single(
                config, seed=config.seed + rep, run_index=rep,
                variant=variant, flows=flows, scenario=scenario))
    except Exception as exc:  # a cell failure must not sink the campaign
        cell.runs = []
        cell.error = f"{type(exc).__name__}: {exc}"
    return cell


def run_matrix(config: LabConfig) -> list[CellResult]:
    tasks = [(config, variant, flows, token)
             for token in config.matrix_scenarios
             for flows in config.matrix_flows
             for variant in config.matrix_variants]
    if config.workers > 1:
        # imported here: the pool pulls in multiprocessing and logging,
        # which a serial sweep or a single run never needs
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=config.workers) as pool:
            cells = list(pool.map(_cell_task, tasks))
    else:
        cells = [_cell_task(t) for t in tasks]
    cells.sort(key=attrgetter("key"))
    return cells


def format_against_best(value: float, best: float) -> str:
    shown = f"{value:.4g}"
    if value == best:
        return f"{shown} (0%)"
    if best == 0.0:
        return f"{shown} (n/a)"   # no finite distance from a zero best
    pct = (value - best) / best * 100.0
    return f"{shown} ({pct:+.1f}%)"


def render_table(cells: list[CellResult], metric: str, scenario_tag: str,
                 variants: tuple[str, ...], flow_counts: tuple[int, ...]) -> str:
    pretty, direction, _, _ = TABLE_METRICS[metric]
    by_key = {c.key: c for c in cells}
    lines = [f"# {pretty}, scenario {scenario_tag}; relative to the best variant per row",
             "flows," + ",".join(variants)]
    for flows in flow_counts:
        row_cells = [by_key.get((scenario_tag, flows, v)) for v in variants]
        values = [c.mean(metric) if c is not None and c.ok else None for c in row_cells]
        present = [v for v in values if v is not None]
        if not present:
            continue
        best = max(present) if direction == "max" else min(present)
        rendered = [format_against_best(v, best) if v is not None else "failed"
                    for v in values]
        lines.append(f"{flows}," + ",".join(rendered))
    return "\n".join(lines) + "\n"


def write_matrix_outputs(out_dir: str, config: LabConfig,
                         cells: list[CellResult]) -> None:
    tables_dir = os.path.join(out_dir, "tables")
    cdf_dir = os.path.join(out_dir, "cdf")
    os.makedirs(tables_dir, exist_ok=True)
    os.makedirs(cdf_dir, exist_ok=True)

    for tag in [config.matrix_scenario(token).tag for token in config.matrix_scenarios]:
        for metric in TABLE_METRICS:
            text = render_table(cells, metric, tag, config.matrix_variants,
                                config.matrix_flows)
            write_text(os.path.join(tables_dir, f"{tag}_{metric}.csv"), (text,))

    for cell in cells:
        if not cell.ok:
            continue
        samples = cell.pooled_rtt_ms()
        if not samples:
            continue
        points = empirical_cdf(samples)
        name = f"{cell.scenario_tag}_f{cell.flows}_{cell.variant.replace('+', 'plus')}_rtt_ms.csv"
        write_text(os.path.join(cdf_dir, name),
                   chain(("rtt_ms,fraction\n",),
                         (f"{value:.3f},{fraction:.6f}\n" for value, fraction in points)))

    summary = {
        "schema": MATRIX_SCHEMA,
        "config_hash": config.config_hash(),
        "seed": config.seed,
        "cells": [
            {
                "scenario": c.scenario_tag,
                "flows": c.flows,
                "variant": c.variant,
                "ok": c.ok,
                "error": c.error,
                **({
                    **{metric: round(c.mean(metric), digits)
                       for metric, (_, _, digits, _) in TABLE_METRICS.items()},
                    "jain_index": round(c.mean_jain(), 6),
                    "representative_run_flow": list(c.representative()),
                } if c.ok else {}),
            }
            for c in cells
        ],
    }
    write_text(os.path.join(out_dir, "matrix_summary.json"),
               (json.dumps(summary, indent=2), "\n"))
