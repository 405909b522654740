"""Bandwidth-estimating controller: filter, intervals, BWE-driven decrease."""

import pytest
from hypothesis import given, strategies as st

from cclab.cc import WestwoodPlus
from cclab.cc.params import SCALE

MSS = 1460


def make(cwnd=10, ssthresh=44.0):
    return WestwoodPlus(cwnd, ssthresh, MSS)


def test_filter_step_from_zero_prior():
    ctrl = make()
    ctrl.bwe_bytes_per_s = 0.0
    ctrl._push_sample(125_000.0)
    assert ctrl.bwe_bytes_per_s == pytest.approx(12_500.0)


def test_first_sample_seeds_the_filter():
    ctrl = make()
    assert ctrl.bwe_bytes_per_s is None
    ctrl._push_sample(125_000.0)
    assert ctrl.bwe_bytes_per_s == 125_000.0


def test_constant_rate_is_a_filter_fixed_point():
    ctrl = make()
    ctrl._push_sample(125_000.0)
    for _ in range(50):
        ctrl._push_sample(125_000.0)
    assert ctrl.bwe_bytes_per_s == pytest.approx(125_000.0)


def test_filter_converges_from_a_cold_start():
    ctrl = make()
    ctrl.bwe_bytes_per_s = 0.0
    for _ in range(200):
        ctrl._push_sample(125_000.0)
    assert ctrl.bwe_bytes_per_s == pytest.approx(125_000.0, rel=1e-6)


def test_sample_interval_floor_is_50ms_before_any_rtt():
    ctrl = make()
    assert ctrl.interval_us == 50_000


def test_sample_interval_tracks_min_rtt_when_longer():
    ctrl = make()
    ctrl.on_rtt_sample(0, 200_000)
    assert ctrl.interval_us == 200_000
    ctrl.on_rtt_sample(0, 30_000)
    assert ctrl.interval_us == 50_000


@given(st.lists(st.integers(min_value=1_000, max_value=300_000), min_size=1))
def test_sample_interval_follows_each_new_min_rtt_down_to_the_floor(samples):
    ctrl = make()
    for i, s in enumerate(samples):
        before = ctrl.interval_us
        ctrl.on_rtt_sample(0, s)
        low = min(samples[: i + 1])
        assert ctrl.interval_us == max(low, 50_000)
        if i and s >= min(samples[:i]):   # no new minimum: the interval stands
            assert ctrl.interval_us == before


def test_a_sample_above_the_minimum_leaves_the_interval_unchanged():
    ctrl = make()
    ctrl.on_rtt_sample(0, 120_000)
    for s in (120_000, 130_000, 2_000_000):
        ctrl.on_rtt_sample(0, s)
        assert (ctrl.rtt_min_us, ctrl.interval_us) == (120_000, 120_000)
    ctrl.on_rtt_sample(0, 40_000)
    assert (ctrl.rtt_min_us, ctrl.interval_us) == (40_000, 50_000)
    ctrl.on_rtt_sample(0, 45_000)
    assert (ctrl.rtt_min_us, ctrl.interval_us) == (40_000, 50_000)


def test_ack_counting_produces_rate_samples():
    ctrl = make()
    ctrl.on_ack_observed(0, 6_250, False)
    assert ctrl.bwe_bytes_per_s is None      # interval still open
    ctrl.on_ack_observed(50_000, 6_250, False)
    assert ctrl.bwe_bytes_per_s == pytest.approx(125_000.0)


def test_empty_intervals_decay_the_estimate():
    ctrl = make()
    ctrl.on_ack_observed(0, 6_250, False)
    ctrl.on_ack_observed(50_000, 6_250, False)     # closes [0, 50): seeds 125000
    ctrl.on_ack_observed(200_000, 0, False)
    # [50,100) carried bytes, [100,150) and [150,200) were silent
    assert ctrl.bwe_bytes_per_s == pytest.approx(125_000.0 * 0.9 * 0.9)


def test_duplicate_ack_counts_as_one_segment():
    ctrl = make()
    ctrl.on_ack_observed(0, 0, True)
    for _ in range(2):
        ctrl.on_ack_observed(10_000, 0, True)
    ctrl.on_ack_observed(50_000, 0, False)
    assert ctrl.bwe_bytes_per_s == pytest.approx(3 * MSS * 1_000_000 / 50_000)


def test_decrease_sets_window_to_bwe_times_min_rtt():
    ctrl = make(cwnd=40)
    ctrl.bwe_bytes_per_s = 100.0 * MSS     # 100 segments per second
    ctrl.on_rtt_sample(0, 100_000)
    ctrl.on_3dupack(0)
    assert ctrl.cwnd_segments() == 10.0
    assert ctrl.ssthresh_segments() == 10.0


def test_decrease_clamps_at_one_segment():
    ctrl = make(cwnd=40)
    ctrl.bwe_bytes_per_s = 1.0
    ctrl.on_rtt_sample(0, 100_000)
    ctrl.on_3dupack(0)
    assert ctrl.cwnd_segments() == 1.0


def test_decrease_before_any_sample_falls_back_to_halving():
    ctrl = make(cwnd=20)
    ctrl.on_3dupack(0)
    assert ctrl.cwnd_segments() == 10.0


def test_target_above_preloss_window_is_applied_not_clamped():
    ctrl = make(cwnd=5)
    ctrl.bwe_bytes_per_s = 100.0 * MSS
    ctrl.on_rtt_sample(0, 100_000)
    ctrl.on_3dupack(0)
    assert ctrl.cwnd_segments() == 10.0    # applied as computed


def test_timeout_sets_ssthresh_from_estimate_and_cwnd_to_one():
    ctrl = make(cwnd=40)
    ctrl.bwe_bytes_per_s = 100.0 * MSS
    ctrl.on_rtt_sample(0, 100_000)
    ctrl.on_timeout(0)
    assert ctrl.ssthresh_segments() == 10.0
    assert ctrl.cwnd_segments() == 1.0


def test_timeout_before_any_sample_halves_ssthresh():
    ctrl = make(cwnd=16)
    ctrl.on_timeout(0)
    assert ctrl.ssthresh_segments() == 8.0
    assert ctrl.cwnd_segments() == 1.0


@given(st.lists(st.integers(min_value=1_000, max_value=2_000_000), min_size=1))
def test_rtt_min_tracks_the_running_minimum(samples):
    ctrl = make()
    lows = []
    for s in samples:
        ctrl.on_rtt_sample(0, s)
        lows.append(ctrl.rtt_min_us)
    assert lows == [min(samples[: i + 1]) for i in range(len(samples))]
    assert all(b <= a for a, b in zip(lows, lows[1:]))
