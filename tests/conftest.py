"""Shared fixtures for the acceptance suite.

The comparison campaigns are the expensive part: dozens of seeded runs
per variant.  They are computed once per session and shared by every
criterion that reads them.
"""

import pytest

from cclab.cc import Cubic
from cclab.config import LabConfig, parse_scenario
from cclab.link import arq_error_count
from cclab.runner import run_single

VARIANTS = ("newreno", "westwood+", "bic", "cubic")

SINGLE_FLOW_SEEDS = tuple(range(1, 21))
MULTI_FLOW_SEEDS = tuple(range(1, 6))
SHORT_SEEDS = tuple(range(1, 11))
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
        on_curve = self.epoch_valid and not self.in_slow_start()
        super().on_ack_growth(now_us)
        if on_curve:
            self.curve_samples.append((now_us, self.epoch_start_us, self.max_win,
                                       self.k_seconds, self.cwnd_segments()))


@pytest.fixture(scope="session")
def single_flow_campaign():
    """variant -> list of 180 s single-flow RunResult over 20 seeds."""
    config = LabConfig()
    return {
        variant: [run_single(config, seed=seed, variant=variant)
                  for seed in SINGLE_FLOW_SEEDS]
        for variant in VARIANTS
    }


@pytest.fixture(scope="session")
def multi_flow_campaign():
    """(variant, flows) -> list of 600 s homogeneous RunResult over 5 seeds."""
    config = LabConfig()
    config.scenario = parse_scenario("long_lived")
    config.scenario.duration_s = 600.0
    return {
        (variant, flows): [run_single(config, seed=seed, variant=variant,
                                      flows=flows)
                           for seed in MULTI_FLOW_SEEDS]
        for variant in VARIANTS for flows in (2, 3, 4)
    }


@pytest.fixture(scope="session")
def short_transfer_campaign():
    """(variant, size_kb) -> list of short-transfer RunResult over 10 seeds."""
    config = LabConfig()
    out = {}
    for variant in VARIANTS:
        for size_kb in (50, 500, 1000):
            scenario = parse_scenario(f"short:{size_kb}")
            out[(variant, size_kb)] = [
                run_single(config, seed=seed, variant=variant, scenario=scenario)
                for seed in SHORT_SEEDS
            ]
    return out


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
