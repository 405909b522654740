"""Every demo script runs to completion against the library in src/ and
prints exactly its pinned bytes.

A demo that ran but printed wrong numbers, say a column read from the
wrong field of a row, would pass a check for a zero exit alone.  The
SHA-256 of each demo's stdout pins it as `tests/test_golden.py` pins a
run's outputs; a change that moves a demo's output on purpose updates
its hash here.
"""

import hashlib
import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))

# demo file name -> sha256 of its stdout
STDOUT_SHA256 = {
    "controller_trajectories.py":
        "dd805fad622c8cbb9ca0e25d69dcbf86a7b259cc8e4755b4dd000f258b8439d8",
    "metrics_tour.py":
        "3b8086e14d1d23ae913d541ccf193e6a1d3682f59b1471f36ac02f8671895200",
    "queue_dynamics.py":
        "538a1745f3ad1aa283c9641cc49b00391eded8fbd0bf2af4a0ec74a025b62dd1",
    "single_run.py":
        "b8c778c533a72eb1c8eadeb6b54523857922c0c98a456054b54b357ee534cd91",
    "variant_comparison.py":
        "21fed9ce5ec3db542f498d9f6457997a86d1d28764859c38228f9db95fc246e7",
}


def test_demos_are_found():
    assert DEMOS
    assert sorted(p.name for p in DEMOS) == sorted(STDOUT_SHA256)


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_runs(demo, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, str(demo)], cwd=tmp_path, env=env,
                          capture_output=True, timeout=300)
    assert proc.returncode == 0, proc.stderr.decode(errors="replace")
    assert proc.stdout
    assert hashlib.sha256(proc.stdout).hexdigest() == STDOUT_SHA256[demo.name], (
        proc.stdout.decode(errors="replace"))
