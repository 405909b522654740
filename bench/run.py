"""cclab benchmark: end-to-end metrics, or per-layer metrics of a traced pass.

    python3 bench/run.py --workload long_1flow|long_4flow|matrix_mix
                         --seed N --seconds S --trace 0|1 [--tiny]

Run from the root of a checkout; cclab is imported from its src/.  With
--trace 0 it reports the end-to-end metrics: set-up time (the median of
several fresh processes that import cclab and build the workload's
configuration) and, from a separate process running whole rounds of the
workload for S seconds, the median round time, simulated flow-seconds
and link packets per wall second, and peak resident memory.  With
--trace 1 it reports the per-layer metrics instead (see tracer.py).
Every operation's outputs are checked (see checks.py).  The last line of
standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {name: {"value", "unit"}}}

--tiny shrinks every workload for the self-test.  The exit status is
nonzero, and no result is printed, when the workload cannot be run.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_ROOT = os.path.join(ROOT, ".bench_out")
WORKLOADS = ("long_1flow", "long_4flow", "matrix_mix")
SETUP_PROBES = 15
DEADLINE_S = 170          # the whole command, set-up probes included


class Failed(Exception):
    """The workload could not be run; nothing is reported."""


def child(argv: list[str], timeout: float) -> str:
    """Run a helper to completion in its own process group; its last stdout line."""
    proc = subprocess.Popen([sys.executable, *argv], stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True, cwd=ROOT,
                            start_new_session=True)
    try:
        out, err = proc.communicate(timeout=max(1.0, timeout))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)   # pool workers too
        proc.communicate()
        raise Failed(f"{argv[0]} did not finish within {timeout:.0f} s")
    if proc.returncode != 0 or not out.strip():
        raise Failed(f"{argv[0]} exited with {proc.returncode}:\n{err.strip()}")
    return out.strip().splitlines()[-1]


def measure(args, deadline: float) -> dict:
    tiny = ["tiny"] if args.tiny else []
    metrics = {}
    if not args.trace:
        setups = [float(child([os.path.join(HERE, "setup_probe.py"), args.workload,
                               str(args.seed), *tiny], deadline - time.monotonic()))
                  for _ in range(SETUP_PROBES)]
        metrics["setup_s"] = (statistics.median(setups), "s")
    os.makedirs(OUT_ROOT, exist_ok=True)
    out_dir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT_ROOT)
    try:
        body = json.loads(child(
            [os.path.join(HERE, "body.py"), "--workload", args.workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace), "--out", os.path.join(out_dir, "out"),
             *(["--tiny"] if args.tiny else [])], deadline - time.monotonic()))
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    for message in body["messages"]:
        print(f"FAILED {message}")
    if args.trace:
        print("tracer targets not found: " + (", ".join(body["missing"]) or "none"))
        metrics.update({name: tuple(pair) for name, pair in body["per_layer"].items()})
    else:
        wall = body["wall_s"]
        metrics["wall_s"] = (wall, "s")
        metrics["sim_s_per_wall_s"] = (body["sim_s"] / wall, "1")
        metrics["pkts_per_s"] = (body["packets"] / wall, "pkt/s")
        metrics["peak_rss_mb"] = (body["peak_rss_mb"], "MB")
        print("unscaled round times: " + ", ".join(f"{t:.3f} s" for t in body["raw_walls"]))
    return {"correct": body["wrong"] == 0, "attempted": body["attempted"],
            "failed": body["failed"],
            "metrics": {name: {"value": value, "unit": unit}
                        for name, (value, unit) in metrics.items()}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="cclab benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "cclab", "__init__.py")):
        print(f"no cclab sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 1
    try:
        result = measure(args, time.monotonic() + DEADLINE_S)
    except Failed as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    for name, metric in result["metrics"].items():
        print(f"{args.workload} {name} = {metric['value']:.6g} {metric['unit']}")
    print(f"{args.workload} attempted {result['attempted']} failed {result['failed']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
