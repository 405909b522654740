"""Golden outputs: fixed (variant, flows, seed, duration) points must keep
their exact bytes.

Each point is one `run_single` with timeseries capture, written out the
way `cclab run` writes it; the SHA-256 covers `summary.json` followed by
`timeseries.csv`.  The determinism criterion compares two runs of the
same build, so it cannot see a change that alters results the same way
twice.  These hashes pin the bytes across builds: a refactor or a
speed-up that moves a single event changes them.  The 4-flow points see
dozens of timeouts and fast retransmits, so the timer and recovery
paths are covered.  The ARQ-loss points make frames that exhaust their
link-layer retransmissions get abandoned, which no default run does:
they drop packets at the server and time out on every flow.  The
lossy short points lose the final, short segment of a transfer: it is
resent at its own length (once for newreno, twice for cubic), and Karn's
rule voids the timing of the resent probes.  The sampled points pin the
rule that a row reads the state before any event at its microsecond.
"""

import hashlib

import pytest

from cclab.config import load_config
from cclab.runner import run_single, write_run_outputs

# (variant, flows, seed, duration_s or None, size_kb or None) -> sha256
GOLDEN = {
    ("newreno", 1, 3, 60, None):
        "5560e393f06d855c886508f3672cde4b0c4f44063b6a9b3327f0b0acf0097951",
    ("westwood+", 1, 3, 60, None):
        "8f8a0f0fc3af7cf043bee887cf9a61ec2e6d3f0c7d504909db957166ba23c092",
    ("bic", 1, 3, 60, None):
        "c4ef5e49b7ea67d5c0d835f26cf654b269f6bdfbfe22fb72596f2681a31c1f98",
    ("cubic", 1, 3, 60, None):
        "f7226ed8bc66afcb854d031f6fff3bb2593e2f2576f7fa688b66e0bcc526add6",
    ("newreno", 4, 2, 90, None):
        "faa8be50612144a69b44e2503482d20b0beee6d46dcae750c5994332935f200f",
    ("westwood+", 4, 2, 90, None):
        "b5c3cc9fea817d48a86a9908a1713fc2705362f54e0856c081d6b21e98b94156",
    ("bic", 4, 2, 90, None):
        "a7f5ba916864e3b365192cc3a3a901874d71b2c42d421751f62bb6a42c24c2d3",
    ("cubic", 4, 2, 90, None):
        "fe31353bef69f7d5d3bc5a1edf1710d5487b83e742bcbffc7706042d251aa49b",
    ("cubic", 2, 4, None, 50):
        "51493746356229b840d3e90b65507c7cab059c22465929ba414e7c04cc40c0cb",
}


# the same points run with ARQ_LOSS_LINK appended to their config
GOLDEN_ARQ_LOSS = {
    ("newreno", 2, 5, 60, None):
        "7a70f81bb79de840a3e85cb087b67bdf5582cf070865716c59034dd66bba4ba4",
    ("cubic", 2, 5, 60, None):
        "5298418e9802b5fd39c436058b1106f02f0ccbe5fe755d187018beb1e149c0b1",
}

ARQ_LOSS_LINK = ("[link]\narq_frame_error_prob = 0.05\narq_max_retx = 2\n"
                 "residual_loss_prob = 0.5\n")

# the same points run with LOSSY_SHORT_LINK appended to their config
GOLDEN_LOSSY_SHORT = {
    ("newreno", 2, 2, None, 50):
        "bfc17a4588c571602c18e4f7642d55cb7f183e4871acf447ae5314b7387fec27",
    ("cubic", 2, 2, None, 50):
        "a411fd26c71f674d4d4ef820853f60ecf8b65fb55bc28dc7bbda8fc040172fa2",
}

LOSSY_SHORT_LINK = ("[link]\narq_frame_error_prob = 0.3\narq_max_retx = 1\n"
                    "residual_loss_prob = 0.5\n")


# the same points sampled every SAMPLED_MS: seed 1510 starts its flow on the
# 4 ms grid, so many ACKs arrive at the very microsecond of a row, which
# reads the state before them
GOLDEN_SAMPLED = {
    ("newreno", 1, 1510, 60, None):
        "857e859b5f64c3c360312a2f30d271abf8817c9f3769c0ced0e443230f1d0d84",
    ("cubic", 1, 1510, 60, None):
        "8487710f9dc5f67ad5b68c58d2ce7c815fd987422bc83103e901eb8329f1c232",
}

SAMPLED_MS = 80


def _config_text(variant, flows, seed, duration_s, size_kb):
    text = f"[experiment]\nvariant = {variant}\nflows = {flows}\nseed = {seed}\n"
    if size_kb is None:
        return text + f"duration_s = {duration_s}\n"
    return text + f"scenario = short\nsize_kb = {size_kb}\n"


def _output_hash(text, tmp_path):
    cfg = load_config(text=text)
    result = run_single(cfg, seed=cfg.seed, capture_timeseries=True)
    write_run_outputs(str(tmp_path), cfg, result)
    digest = hashlib.sha256()
    for name in ("summary.json", "timeseries.csv"):
        digest.update((tmp_path / name).read_bytes())
    return digest.hexdigest()


@pytest.mark.parametrize("point", list(GOLDEN), ids=lambda p: "-".join(map(str, p)))
def test_outputs_match_golden_hash(point, tmp_path):
    assert _output_hash(_config_text(*point), tmp_path) == GOLDEN[point]


@pytest.mark.parametrize("point", list(GOLDEN_ARQ_LOSS),
                         ids=lambda p: "-".join(map(str, p)))
def test_arq_loss_outputs_match_golden_hash(point, tmp_path):
    text = _config_text(*point) + ARQ_LOSS_LINK
    assert _output_hash(text, tmp_path) == GOLDEN_ARQ_LOSS[point]


@pytest.mark.parametrize("point", list(GOLDEN_LOSSY_SHORT),
                         ids=lambda p: "-".join(map(str, p)))
def test_lossy_short_outputs_match_golden_hash(point, tmp_path):
    text = _config_text(*point) + LOSSY_SHORT_LINK
    assert _output_hash(text, tmp_path) == GOLDEN_LOSSY_SHORT[point]


@pytest.mark.parametrize("point", list(GOLDEN_SAMPLED), ids=lambda p: "-".join(map(str, p)))
def test_sampled_outputs_match_golden_hash(point, tmp_path):
    text = _config_text(*point) + f"sample_interval_ms = {SAMPLED_MS}\n"
    assert _output_hash(text, tmp_path) == GOLDEN_SAMPLED[point]
