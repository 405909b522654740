"""Shared fixtures for the acceptance suite.

The comparison campaigns are the expensive part: dozens of seeded runs
per variant.  Each is one `[matrix]` sweep that `run_matrix` runs on 2
workers; it is computed once per session and shared by every criterion
that reads it.
"""

import pytest

from cclab.cc import Cubic
from cclab.config import LabConfig, load_config
from cclab.link import arq_error_count
from cclab.matrix import run_matrix
from cclab.runner import run_single

VARIANTS = ("newreno", "westwood+", "bic", "cubic")

PROBE_SEEDS = (1, 2, 3)


def arq_penalty(rng, error_prob, retx_delay_us, max_retx):
    """Server hold that link-layer retransmissions add to one packet."""
    return arq_error_count(rng, error_prob, max_retx) * retx_delay_us


class RecordingCubic(Cubic):
    """Cubic that logs (now_us, epoch_start_us, max_win, k_seconds, cwnd)
    after every growth ACK the curve drives: outside slow start, with an
    epoch anchored by a fast retransmit.  The trajectory can then be
    replayed against the closed form.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.curve_samples: list[tuple[int, int, float, float, float]] = []

    def on_ack_growth(self, now_us: int) -> None:
        on_curve = self.epoch_valid and self.cwnd >= self.ssthresh
        super().on_ack_growth(now_us)
        if on_curve:
            self.curve_samples.append((now_us, self.epoch_start_us, self.max_win,
                                       self.k_seconds, self.cwnd_segments()))


def _campaign(text: str):
    """Run one `[matrix]` campaign on 2 workers.

    Returns the config and (scenario tag, flows, variant) -> the cell's
    runs, whose seeds are seed, seed + 1, ...  Raises on any failed cell.
    """
    config = load_config(text="[experiment]\nworkers = 2\n" + text)
    cells = run_matrix(config)
    errors = [f"{cell.key}: {cell.error}" for cell in cells if not cell.ok]
    if errors:
        raise RuntimeError("campaign cells failed:\n" + "\n".join(errors))
    return config, {cell.key: cell.runs for cell in cells}


@pytest.fixture(scope="session")
def single_flow_campaign():
    """variant -> list of 180 s single-flow RunResult over 20 seeds."""
    config, runs = _campaign("[matrix]\nflows = 1\nruns = 20\n")
    tag = config.matrix_scenario("long_lived").tag
    return {variant: runs[(tag, 1, variant)] for variant in VARIANTS}


@pytest.fixture(scope="session")
def multi_flow_campaign():
    """(variant, flows) -> list of 600 s homogeneous RunResult over 5 seeds."""
    config, runs = _campaign("duration_s = 600\n[matrix]\nflows = 2,3,4\nruns = 5\n")
    tag = config.matrix_scenario("long_lived").tag
    return {(variant, flows): runs[(tag, flows, variant)]
            for variant in VARIANTS for flows in config.matrix_flows}


@pytest.fixture(scope="session")
def short_transfer_campaign():
    """(variant, size_kb) -> list of short-transfer RunResult over 10 seeds."""
    config, runs = _campaign("[matrix]\nflows = 1\n"
                             "scenarios = short:50,short:500,short:1000\nruns = 10\n")
    specs = [config.matrix_scenario(token) for token in config.matrix_scenarios]
    return {(variant, spec.size_kb): runs[(spec.tag, 1, variant)]
            for variant in VARIANTS for spec in specs}


@pytest.fixture(scope="session")
def backlog_probe_runs():
    """variant -> single-flow runs that kept the queue history for replay."""
    config = LabConfig()
    return {
        variant: [run_single(config, seed=seed, variant=variant,
                             keep_backlog_probe=True)
                  for seed in PROBE_SEEDS]
        for variant in ("westwood+", "newreno")
    }
