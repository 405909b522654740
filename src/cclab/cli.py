"""Command line front end.

Three subcommands:

  run     one experiment (variant, flow count, scenario, seed) -> CSV + JSON
  matrix  full sweep over variants x flow counts x scenarios -> tables + CDFs
  stats   recompute summary figures from a run directory and verify them

All options have working defaults, so `cclab run` with no arguments
produces a complete single-flow trace in ./out.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .cc import VARIANTS
from .config import LabConfig, load_config, parse_scenario
from .matrix import run_matrix, write_matrix_outputs
from .runner import (SUMMARY_SCHEMA, aggregate_figures, flow_figures, run_single,
                     summary_dict, write_run_outputs)


def _load_base(args) -> LabConfig:
    config = load_config(args.config)
    if getattr(args, "seed", None) is not None:
        config.seed = args.seed
    if getattr(args, "out", None):
        config.out_dir = args.out
    if getattr(args, "workers", None) is not None:
        config.workers = args.workers
    return config


def _apply_run_overrides(config: LabConfig, args) -> None:
    if args.variant:
        config.variant = args.variant
    if args.flows is not None:
        config.flows = args.flows
    if args.size is not None:
        config.scenario = parse_scenario(f"short:{args.size}")
    elif args.duration is not None:
        config.scenario = parse_scenario("long_lived")
        config.scenario.duration_s = args.duration


def _print_summary(summary: dict) -> None:
    """The per-flow and aggregate lines, from the figures summary.json stores."""
    for fm in summary["flows"]:
        print(f"flow {fm['flow_id']} [{summary['variant']}]: "
              f"goodput {fm['goodput_kbps']:.1f} Kbps, "
              f"mean RTT {fm['mean_rtt_ms']:.1f} ms, "
              f"retx {fm['retx_ratio'] * 100:.2f}%, timeouts {fm['timeouts']}")
    agg = summary["aggregate"]
    print(f"aggregate goodput {agg['goodput_kbps']:.1f} Kbps, "
          f"fairness {agg['jain_index']:.4f}")


def cmd_run(args) -> int:
    config = _load_base(args)
    _apply_run_overrides(config, args)
    out_dir = config.out_dir or "out"
    result = run_single(config, seed=config.seed, capture_timeseries=True)
    write_run_outputs(out_dir, config, result)
    _print_summary(summary_dict(config, result))
    print(f"outputs in {out_dir}/")
    return 0


def cmd_matrix(args) -> int:
    config = _load_base(args)
    config.validate()
    out_dir = config.out_dir or "matrix_out"
    cells = run_matrix(config)
    write_matrix_outputs(out_dir, config, cells)
    failed = [c for c in cells if not c.ok]
    for cell in cells:
        status = "ok" if cell.ok else f"FAILED: {cell.error}"
        print(f"[{cell.scenario_tag} flows={cell.flows} {cell.variant}] {status}")
    print(f"{len(cells) - len(failed)}/{len(cells)} cells ok; outputs in {out_dir}/")
    return 1 if failed else 0


def _mismatches(derived: dict, stored: dict, prefix: str = "") -> list[str]:
    """Name each flow and aggregate field of `derived` that `stored` holds otherwise."""
    if len(derived["flows"]) != len(stored["flows"]):
        return [prefix + "flow count"]
    sections = [(f"flow {i}", row, stored["flows"][i]) for i, row in enumerate(derived["flows"])]
    sections.append(("aggregate", derived["aggregate"], stored["aggregate"]))
    return [f"{prefix}{name} {key}" for name, fields, held in sections
            for key, value in fields.items() if held.get(key) != value]


def cmd_stats(args) -> int:
    path = os.path.join(args.run_dir, "summary.json")
    with open(path, encoding="utf-8") as fh:
        stored = json.load(fh)
    try:
        if stored["schema"] != SUMMARY_SCHEMA:
            raise ValueError(f"{path} has schema {stored['schema']!r}, not {SUMMARY_SCHEMA!r}")
        rows = stored["flows"]
        mismatches = _mismatches({"flows": [flow_figures(row) for row in rows],
                                  "aggregate": aggregate_figures(rows)}, stored)
        config = load_config(text=stored["config"])
        if config.config_hash() != stored["config_hash"]:
            mismatches.append("config hash")
        # by type too: JSON's `true` and `1.0` both equal a seed of 1; and
        # `cclab run` writes run 0 only
        header = {"seed": config.seed, "variant": config.variant, "run_index": 0}
        mismatches += [key for key, value in header.items() if repr(stored[key]) != repr(value)]
        _print_summary(stored)
    except (AttributeError, KeyError, TypeError) as exc:
        raise ValueError(f"{path} is not a readable summary: {exc!r}") from exc
    if args.replay:
        # the hashed config alone decides the run, so the replay reads nothing else
        fresh = run_single(config, seed=config.seed)
        mismatches += _mismatches(summary_dict(config, fresh), stored, "replay ")
    if mismatches:
        print(f"VERIFY FAILED: {', '.join(mismatches)}")
        return 1
    print("verify ok: recomputed figures match the stored summary"
          + (" and a fresh replay" if args.replay else ""))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cclab",
        description="congestion control laboratory over a simulated cellular link")
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run one experiment")
    run_p.add_argument("--config", help="INI config file")
    run_p.add_argument("--seed", type=int, help="base RNG seed")
    run_p.add_argument("--variant",
                       help=f"congestion control variant: {', '.join(VARIANTS)}")
    run_p.add_argument("--flows", type=int, help="number of concurrent flows")
    run_p.add_argument("--duration", type=float,
                       help="long-lived scenario duration in seconds")
    run_p.add_argument("--size", type=int,
                       help="short transfer size in KB, any positive size; the paper's "
                            "are 50, 100, 500 and 1000 (overrides --duration)")
    run_p.add_argument("--out", help="output directory (default out)")
    run_p.set_defaults(func=cmd_run)

    matrix_p = sub.add_parser("matrix", help="run the full comparison sweep")
    matrix_p.add_argument("--config", help="INI config file")
    matrix_p.add_argument("--seed", type=int, help="base RNG seed")
    matrix_p.add_argument("--out", help="output directory (default matrix_out)")
    matrix_p.add_argument("--workers", type=int,
                          help="process pool size for independent cells")
    matrix_p.set_defaults(func=cmd_matrix)

    stats_p = sub.add_parser("stats", help="recompute and verify a run summary")
    stats_p.add_argument("run_dir", help="directory produced by `cclab run`")
    stats_p.add_argument("--replay", action="store_true",
                         help="also re-simulate from the embedded config and compare")
    stats_p.set_defaults(func=cmd_stats)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
