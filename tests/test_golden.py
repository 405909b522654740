"""Golden outputs: fixed (variant, flows, seed, duration) points must keep
their exact bytes.

Each point is one `run_single` with timeseries capture, written out the
way `cclab run` writes it; the SHA-256 covers `summary.json` followed by
`timeseries.csv`.  The determinism criterion compares two runs of the
same build, so it cannot see a change that alters results the same way
twice.  These hashes pin the bytes across builds: a refactor or a
speed-up that moves a single event changes them.  The 4-flow points see
dozens of timeouts and fast retransmits, so the timer and recovery
paths are covered.
"""

import hashlib

import pytest

from cclab.config import load_config
from cclab.runner import run_single, write_run_outputs

# (variant, flows, seed, duration_s or None, size_kb or None) -> sha256
GOLDEN = {
    ("newreno", 1, 3, 60, None):
        "c9aa26c3c682771a7131f693a570bfbb742e6b22cfe1e0b1031c5033ea9708a6",
    ("westwood+", 1, 3, 60, None):
        "1181ba1a2eb9f53963394556dc4e3cb3c3b0b4a85cc8f3d1c7ea1d5c3f6a8abc",
    ("bic", 1, 3, 60, None):
        "505f7b8cd771115ac1342da52f548e911ab1296ed04ae2d5e95074f235cbfea4",
    ("cubic", 1, 3, 60, None):
        "c69df0165a2f91914fdbc4202c13a302a51ed942d56dbe89d85362e164d52665",
    ("newreno", 4, 2, 90, None):
        "4872996bf5634c7095aa45a3781d1c59b5a46ae7d0a3a5b5b5bdacf5ac818d7d",
    ("westwood+", 4, 2, 90, None):
        "6259ff47fb004c4ac2b4546bc8634400f81930588a26f959f36dd177e8bc5142",
    ("bic", 4, 2, 90, None):
        "246daf97ce34e9ea8f50a390f0f8ebd02a16509f22d811104d88db04cd8f5324",
    ("cubic", 4, 2, 90, None):
        "3d637e30e43213c011e8cfaf03ba03727c8adf94a799b7a30fb4bd64a17f4a38",
    ("cubic", 2, 4, None, 50):
        "9c0488a798dfb2235d2bb2bb91860e2c63fb795aa42bd79b07c31f629f32b100",
}


def _config_text(variant, flows, seed, duration_s, size_kb):
    text = f"[experiment]\nvariant = {variant}\nflows = {flows}\nseed = {seed}\n"
    if size_kb is None:
        return text + f"duration_s = {duration_s}\n"
    return text + f"scenario = short\nsize_kb = {size_kb}\n"


@pytest.mark.parametrize("point", list(GOLDEN), ids=lambda p: "-".join(map(str, p)))
def test_outputs_match_golden_hash(point, tmp_path):
    cfg = load_config(text=_config_text(*point))
    result = run_single(cfg, seed=cfg.seed, capture_timeseries=True)
    write_run_outputs(str(tmp_path), cfg, result)
    digest = hashlib.sha256()
    for name in ("summary.json", "timeseries.csv"):
        digest.update((tmp_path / name).read_bytes())
    assert digest.hexdigest() == GOLDEN[point]
