"""Byte-identity sweep: run fixed points in two source trees and compare.

Each point is one `run_single` with timeseries capture, written out the
way `cclab run` writes it.  Per point the sweep compares the SHA-256 of
`summary.json` followed by `timeseries.csv`, and `link_delivered`, and
it requires `cclab stats` to verify the written directory in both trees
(`stats_ok`).  It compares the SHA-256 of every flow's stored history,
its `rtt_samples` rows and its `decreases`, each as a list of tuples
(`history_sha256`), so a sample that moves is found even where the
sample count and the mean RTT hold.  The point then runs again with
`keep_backlog_probe=True`, and the sweep compares the SHA-256 of the
kept queue history too.  It reports `EventLoop.processed` apart: a
change may move the number of dispatched events on purpose without
moving any output byte.  One more point runs a `cclab matrix` campaign
at 1 and at 2 workers in each tree; all four output trees must be
byte-equal.

Every point runs in its own subprocess with the tree's `src/` first on
`sys.path`, so two trees never share an import; each tree gets 2 workers.

    python3 tools/identity_sweep.py --parent REV [--quick]

compares the tree holding this script with commit REV, whose `src/` is
extracted with `git archive` into a temporary directory and removed
afterwards.  `--quick` takes the first seed of each row.  The sweep
prints one JSON line per point, a summary on stderr, and exits 1 if any
output differs.  The summary also gives each tree's `src/` size, in
lines of Python and in code lines (non-blank lines outside comments and
docstrings), so a change that keeps every output shows what it added or
removed, and a change that only folds comments is not counted as less
code.
"""

from __future__ import annotations

import argparse
import ast
import hashlib
import io
import json
import os
import pathlib
import subprocess
import sys
import tempfile
import time
import tokenize
from concurrent.futures import ThreadPoolExecutor

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
VARIANTS = ("newreno", "westwood+", "bic", "cubic")

ARQ_LOSS = ("link.arq_frame_error_prob=0.05", "link.arq_max_retx=2",
            "link.residual_loss_prob=0.5")
LOSSY_SHORT = ("link.arq_frame_error_prob=0.3", "link.arq_max_retx=1",
               "link.residual_loss_prob=0.5")

# (flows, scenario, seeds, settings): every variant runs at every seed.
# `--quick` takes the first seed of each row.
POINT_ROWS = (
    (1, "180s", (1, 2, 3), ()),
    (4, "600s", (7, 8), ()),
    (2, "short:50", (4,), ()),
    (2, "short:1000", (4,), ()),
    (1, "180s", (1510, 5016), ("experiment.sample_interval_ms=80",)),
    (3, "120s", (9,), ARQ_LOSS),
    (4, "300s", (11,), ("link.arq_frame_error_prob=0.2",)),
    (4, "300s", (12,), ("link.queue_capacity=8",)),
    (2, "short:500", (13,), ("link.queue_capacity=5", "link.arq_frame_error_prob=0.1",
                             "link.arq_max_retx=1", "link.residual_loss_prob=0.3")),
    (2, "120s", (14,), ("transport.initial_ssthresh=inf", "transport.dupack_threshold=2")),
    (6, "200s", (15,), ("experiment.stagger_s=0",)),
    (2, "short:50", tuple(range(1, 16)), LOSSY_SHORT),
    (2, "short:100", tuple(range(1, 16)), LOSSY_SHORT),
    (2, "120s", (16,), ("link.arq_max_retx=0", "link.arq_frame_error_prob=1.0")),
    (2, "120s", (17,), ("link.arq_frame_error_prob=0.3", "link.arq_max_retx=2",
                        "link.residual_loss_prob=0.5")),
    # an ARQ hold of 8 + 2 x 46 ms equals the propagation RTT: departures
    # and ACKs tie at one microsecond
    (3, "60s", (10,), ("link.arq_frame_error_prob=0.3", "link.arq_retx_delay_ms=46",
                       "experiment.stagger_s=0")),
    # frames still queued at the horizon that ARQ will abandon
    (1, "40s", (114,), ("link.rate_bps=3000000", "link.prop_rtt_ms=160",
                        "link.arq_retx_delay_ms=92", "link.arq_frame_error_prob=0.3",
                        "transport.rto_min_ms=96", "experiment.stagger_s=0.5",
                        "link.arq_max_retx=2", "link.residual_loss_prob=0.5")),
    # the first ACK lands at 108,000 us, the run's end: the stop test alone
    # decides whether new data goes out
    (2, "0.108s", (1,), ("experiment.stagger_s=0",)),
)

MATRIX_CONFIG = ("[experiment]\nduration_s = 30\n"
                 "[matrix]\nvariants = newreno, westwood+, bic, cubic\nflows = 1, 2\n"
                 "scenarios = long_lived, short:50, short:1000\nruns = 2\n")
MATRIX_WORKERS = (1, 2)
WORKERS_PER_TREE = 2

# argv: src dir, config text.  Prints one JSON object.
_RUN_POINT = r"""
import contextlib, hashlib, io, json, os, sys, tempfile
sys.path.insert(0, sys.argv[1])
import cclab.cli as cli
import cclab.runner as runner
from cclab.config import load_config

loops = []

class CountingLoop(runner.EventLoop):
    def __init__(self):
        super().__init__()
        loops.append(self)

runner.EventLoop = CountingLoop
config = load_config(text=sys.argv[2])
result = runner.run_single(config, seed=config.seed, capture_timeseries=True)
digest = hashlib.sha256()
with tempfile.TemporaryDirectory() as out:
    runner.write_run_outputs(out, config, result)
    for name in ("summary.json", "timeseries.csv"):
        with open(os.path.join(out, name), "rb") as fh:
            digest.update(fh.read())
    with contextlib.redirect_stdout(io.StringIO()):
        stats_ok = cli.main(["stats", out]) == 0
history = repr([(list(fm.rtt_samples), list(fm.decreases)) for fm in result.flows])
probe = runner.run_single(config, seed=config.seed, keep_backlog_probe=True).backlog_probe
print(json.dumps({"module": runner.__file__, "sha256": digest.hexdigest(),
                  "history_sha256": hashlib.sha256(history.encode()).hexdigest(),
                  "backlog_sha256": hashlib.sha256(json.dumps(probe).encode()).hexdigest(),
                  "link_delivered": result.link_delivered, "stats_ok": stats_ok,
                  "processed": loops[0].processed}))
"""

# argv: src dir, config path, workers.  Prints the SHA-256 of the output tree.
_RUN_MATRIX = r"""
import hashlib, json, os, sys, tempfile
sys.path.insert(0, sys.argv[1])
import cclab.cli as cli

with tempfile.TemporaryDirectory() as out:
    if cli.main(["matrix", "--config", sys.argv[2], "--out", out,
                 "--workers", sys.argv[3]]) != 0:
        raise SystemExit("matrix failed")
    digest = hashlib.sha256()
    for here, dirs, files in sorted(os.walk(out)):
        dirs.sort()
        for name in sorted(files):
            path = os.path.join(here, name)
            digest.update(os.path.relpath(path, out).encode() + b"\0")
            with open(path, "rb") as fh:
                digest.update(fh.read() + b"\0")
print(json.dumps({"module": cli.__file__, "sha256": digest.hexdigest()}))
"""


def config_text(variant: str, flows: int, scenario: str, seed: int,
                settings: tuple[str, ...]) -> str:
    sections = {"experiment": [f"variant = {variant}", f"flows = {flows}", f"seed = {seed}"]}
    if scenario.startswith("short:"):
        sections["experiment"] += ["scenario = short", f"size_kb = {scenario[6:]}"]
    else:
        sections["experiment"].append(f"duration_s = {scenario.rstrip('s')}")
    for setting in settings:
        dotted, _, value = setting.partition("=")
        section, _, key = dotted.partition(".")
        sections.setdefault(section, []).append(f"{key} = {value}")
    return "".join(f"[{name}]\n" + "".join(line + "\n" for line in lines)
                   for name, lines in sections.items())


def points(quick: bool = False) -> list[tuple[str, str]]:
    """(name, config text) for every point, in a fixed order."""
    out = []
    for flows, scenario, seeds, settings in POINT_ROWS:
        for seed in seeds[:1] if quick else seeds:
            for variant in VARIANTS:
                name = "/".join((variant, f"{flows}x{scenario}", f"seed{seed}", *settings))
                out.append((name, config_text(variant, flows, scenario, seed, settings)))
    return out


def _run(code: str, src: str, *args: str) -> dict:
    # -I: no environment or user site can reach the import; -B: no
    # bytecode is left in the tree, where it would speed up later imports
    proc = subprocess.run([sys.executable, "-I", "-B", "-c", code, src, *args],
                          capture_output=True, text=True)
    if proc.returncode != 0:
        return {"error": (proc.stderr.strip().splitlines() or [f"exit {proc.returncode}"])[-1]}
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    module = os.path.realpath(result.pop("module"))
    if not module.startswith(os.path.realpath(src) + os.sep):
        return {"error": f"cclab imported from {module}, not from {src}"}
    return result


def _compare(name: str, base: dict, tree: dict) -> dict:
    line = {"point": name}
    if "error" in base or "error" in tree:
        line.update(outputs_equal=False, error=[base.get("error"), tree.get("error")])
        return line
    keys = ("sha256", "history_sha256", "backlog_sha256", "link_delivered", "stats_ok",
            "processed")
    for key in keys:
        line[key] = base[key] if base[key] == tree[key] else [base[key], tree[key]]
    line["outputs_equal"] = (all(base[key] == tree[key] for key in keys[:-1])
                             and base["stats_ok"] and tree["stats_ok"])
    line["processed_equal"] = base["processed"] == tree["processed"]
    return line


def src_lines(src: str) -> int:
    """Lines in the `.py` files under `src`, as `wc -l` counts them."""
    return sum(path.read_bytes().count(b"\n") for path in pathlib.Path(src).rglob("*.py"))


# tokens that carry no code: comments, line ends and indentation
_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
             tokenize.ENCODING, tokenize.ENDMARKER}


def code_lines(text: str) -> int:
    """Lines of `text` that hold a token of code, outside every docstring."""
    docstrings = set()
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) \
                and ast.get_docstring(node, clean=False) is not None:
            docstrings.update(range(node.body[0].lineno, node.body[0].end_lineno + 1))
    lines = set()
    for token in tokenize.generate_tokens(io.StringIO(text).readline):
        if token.type not in _NOT_CODE:
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - docstrings)


def src_code_lines(src: str) -> int:
    """Code lines in the `.py` files under `src`."""
    return sum(code_lines(path.read_text(encoding="utf-8"))
               for path in pathlib.Path(src).rglob("*.py"))


def sweep(trees: tuple[str, str], point_list: list[tuple[str, str]], matrix: bool = True,
          emit=print) -> bool:
    """Run every point in (base, tree); emit one JSON line each.  True if all equal.

    A value that differs is shown as the pair [base, tree].
    """
    srcs = [os.path.join(tree, "src") for tree in trees]
    lines = []
    with tempfile.TemporaryDirectory() as scratch, \
            ThreadPoolExecutor(max_workers=WORKERS_PER_TREE * len(trees)) as pool:
        # the matrix campaign is the longest job: file it first
        if matrix:
            ini = os.path.join(scratch, "matrix.ini")
            with open(ini, "w", encoding="utf-8") as fh:
                fh.write(MATRIX_CONFIG)
            matrix_jobs = [pool.submit(_run, _RUN_MATRIX, src, ini, str(w))
                           for src in srcs for w in MATRIX_WORKERS]
        jobs = [(name, [pool.submit(_run, _RUN_POINT, src, text) for src in srcs])
                for name, text in point_list]
        for name, futures in jobs:
            lines.append(_compare(name, *(f.result() for f in futures)))
            emit(json.dumps(lines[-1]))
        if matrix:
            results = [f.result() for f in matrix_jobs]
            hashes = [r.get("sha256", r.get("error")) for r in results]
            equal = all("sha256" in r for r in results) and len(set(hashes)) == 1
            labels = [f"{side}@workers={w}" for side in ("base", "tree") for w in MATRIX_WORKERS]
            lines.append({"point": "matrix", "outputs_equal": equal,
                          "sha256": hashes[0] if equal else dict(zip(labels, hashes))})
            emit(json.dumps(lines[-1]))
    equal = sum(line["outputs_equal"] for line in lines)
    processed = sum(line.get("processed_equal", False) for line in lines)
    print(f"{equal}/{len(lines)} points with equal outputs, "
          f"{processed}/{len(point_list)} with equal EventLoop.processed", file=sys.stderr)
    base_lines, tree_lines = map(src_lines, srcs)
    base_code, tree_code = map(src_code_lines, srcs)
    print(f"src/ lines: {base_lines} base, {tree_lines} tree ({tree_lines - base_lines:+d}); "
          f"code lines: {base_code} base, {tree_code} tree ({tree_code - base_code:+d})",
          file=sys.stderr)
    return equal == len(lines)


def _extract(rev: str, into: str) -> None:
    archive = subprocess.run(["git", "-C", ROOT, "archive", rev, "src"],
                             capture_output=True, check=True).stdout
    subprocess.run(["tar", "-x", "-C", into], input=archive, check=True)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", metavar="REV", required=True,
                        help="the commit to compare this tree against")
    parser.add_argument("--quick", action="store_true",
                        help="first seed of each row only, for development")
    args = parser.parse_args(argv)
    start = time.perf_counter()
    with tempfile.TemporaryDirectory() as parent:
        _extract(args.parent, parent)
        ok = sweep((parent, ROOT), points(args.quick))
    print(f"wall {time.perf_counter() - start:.1f} s", file=sys.stderr)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
