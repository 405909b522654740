"""The timed body of one workload, in a process of its own; run.py starts it.

    python3 bench/body.py --workload W --seed N --seconds S --trace 0|1 --out DIR [--tiny]

runs whole rounds of W for S seconds, checks every operation, and prints
the body's time, the work done, peak memory and, with --trace 1, the
per-layer metrics of a traced pass, as one JSON object on the last line.
"""

from __future__ import annotations

import argparse
import json
import os
import pickle
import resource
import shutil
import statistics
import sys
import time
from collections import defaultdict

import calibrate

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
MIN_ROUNDS = 3


def import_cclab():
    """Import cclab from this checkout's src/, never from anywhere else."""
    sys.path.insert(0, SRC)
    import cclab
    if os.path.dirname(os.path.dirname(os.path.abspath(cclab.__file__))) != SRC:
        raise SystemExit(f"cclab imported from {cclab.__file__}, not from {SRC}")


class Rounds:
    """The rounds of one pass: step times, work, failed operations.

    Each timed step (one run, or one whole matrix campaign) is scaled to
    the reference machine speed measured while it ran (see calibrate.py).
    The body's time is the sum over its steps of each step's median over
    the rounds.
    """

    def __init__(self, speedometer):
        self.speedometer = speedometer
        self.step_s: defaultdict[int, list[float]] = defaultdict(list)
        self.raw_walls: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.messages: list[str] = []
        self.sim_s = 0.0
        self.packets = 0

    def wall(self) -> float:
        return sum(statistics.median(times) for times in self.step_s.values())

    def run(self, workload, plan, out_dir: str, seconds: float, min_rounds: int,
            on_round=None):
        """Whole rounds until `seconds` have passed and `min_rounds` are done.

        Without `on_round`, returns the first round's reference for the
        determinism repeat.
        """
        reference = None
        started = time.perf_counter()
        while True:
            shutil.rmtree(out_dir, ignore_errors=True)
            os.makedirs(out_dir)
            results = []
            raw = 0.0
            for i, step in enumerate(workload.steps(plan, out_dir)):
                t0 = time.perf_counter()
                results.append(step())
                t1 = time.perf_counter()
                self.step_s[i].append(self.speedometer.scaled(t0, t1))
                raw += t1 - t0
            self.raw_walls.append(raw)
            if on_round is not None:
                on_round(results)
            elif reference is None:
                reference = workload.reference(plan, results)
            outcome = workload.check_round(plan, results, out_dir)
            results = None   # freed before the next round, so memory peaks stay per round
            self.attempted += workload.operations(plan)
            self.failed += len(set(outcome.raised) | set(outcome.wrong))
            self.wrong += len(outcome.wrong)
            self.sim_s, self.packets = outcome.sim_s, outcome.packets
            for label, text in outcome.raised.items():
                self.messages.append(f"{label}: raised {text}")
            for label, errors in outcome.wrong.items():
                self.messages += [f"{label}: {e}" for e in errors]
            if len(self.raw_walls) >= min_rounds and \
                    time.perf_counter() - started >= seconds:
                return reference

    def check_repeat(self, workload, plan, reference) -> None:
        if reference is None:
            return
        label, diffs = workload.repeat(plan, reference)
        if diffs and not any(m.startswith(f"{label}:") for m in self.messages):
            self.failed += 1
            self.wrong += 1
        self.messages += [f"{label}: {d}" for d in diffs]


def measure(args) -> dict:
    import_cclab()
    import workloads
    workload = workloads.make(args.workload, args.tiny)
    plan = workload.build(args.seed)
    speedometer = calibrate.Speedometer()
    try:
        return _measure(args, workload, plan, speedometer)
    finally:
        speedometer.close()


def _measure(args, workload, plan, speedometer) -> dict:
    rounds = Rounds(speedometer)
    # a traced pass takes two thirds of the time; one round of each pass is enough
    # there, since its counts repeat exactly and its times have no bound
    if args.trace:
        reference = rounds.run(workload, plan, args.out, args.seconds / 3, 1)
    else:
        reference = rounds.run(workload, plan, args.out, args.seconds, MIN_ROUNDS)
    rounds.check_repeat(workload, plan, reference)
    report = {"wall_s": rounds.wall(), "raw_walls": rounds.raw_walls}
    if args.trace:
        traced = Rounds(speedometer)
        report["per_layer"], report["missing"] = traced_pass(workload, args, traced)
        report["per_layer"]["trace.overhead"] = (traced.wall() / rounds.wall(), "1")
        for name in ("attempted", "failed", "wrong"):
            setattr(rounds, name, getattr(rounds, name) + getattr(traced, name))
        rounds.messages += traced.messages
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    workers = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    report.update(attempted=rounds.attempted, failed=rounds.failed, wrong=rounds.wrong,
                  messages=rounds.messages[:20], sim_s=rounds.sim_s,
                  packets=rounds.packets, peak_rss_mb=(own + workers) / 1024)
    return report


def traced_pass(workload, args, rounds: Rounds):
    """Rounds under the tracer; per-layer metrics are medians over them."""
    import tracer as tracer_mod
    import workloads
    tracer = tracer_mod.Tracer().install()
    try:
        plan = workload.build(args.seed)
        load_ms = tracer.span_ns.get("config.load", 0) / 1e6
        is_matrix = isinstance(workload, workloads.MatrixCampaign)
        workers = plan.workers if is_matrix else 1
        per_round: list[dict] = []

        def on_round(results):
            result_bytes = output_bytes = 0
            if is_matrix and not isinstance(results[0], Exception):
                tracer.absorb(results[0])
                result_bytes = len(pickle.dumps(results[0]))
                output_bytes = sum(os.path.getsize(os.path.join(d, f))
                                   for d, _, files in os.walk(args.out) for f in files)
            metrics = tracer_mod.layer_metrics(tracer.snapshot(), tracer.missing, workers)
            metrics["matrix.result_bytes"] = (result_bytes, "B")
            metrics["matrix.output_bytes"] = (output_bytes, "B")
            if "config.load" not in tracer.missing:
                metrics["config.load_ms"] = (load_ms, "ms")
            per_round.append(metrics)
            tracer.reset()

        tracer.reset()
        rounds.run(workload, plan, args.out, args.seconds * 2 / 3, 1, on_round)
    finally:
        tracer.uninstall()
    merged = {name: (statistics.median_low(m[name][0] for m in per_round), unit)
              for name, (_, unit) in per_round[0].items()}
    return merged, sorted(tracer.missing)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", required=True)
    parser.add_argument("--tiny", action="store_true")
    args = parser.parse_args(argv)
    print(json.dumps(measure(args)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
