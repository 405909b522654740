"""Cubic-curve controller: closed form, concave/convex regimes, shadow."""

import math

import pytest

from cclab.cc import Cubic
from cclab.cc.params import CubicParams

from conftest import RecordingCubic


def make_after_loss(pre=100.0, now_us=0, cls=Cubic, **params):
    ctrl = cls(2, 1.0, CubicParams(**params))
    ctrl.cwnd = pre
    ctrl.ssthresh = 1.0
    ctrl.on_3dupack(now_us)
    return ctrl


def test_k_for_max_win_100_is_cube_root_of_50():
    ctrl = make_after_loss(100.0, tcp_friendly=False, fast_convergence=False)
    assert ctrl.k_seconds == pytest.approx((100.0 * 0.2 / 0.4) ** (1 / 3), abs=1e-12)
    assert ctrl.k_seconds == pytest.approx(3.6840314986403866, abs=1e-12)


def test_curve_starts_at_the_reduced_window():
    ctrl = make_after_loss(100.0)
    assert ctrl.cwnd_segments() == pytest.approx(80.0)
    assert ctrl.window_at(0.0) == pytest.approx(80.0, abs=1e-9)


def test_curve_reaches_max_win_exactly_at_k():
    ctrl = make_after_loss(100.0)
    assert ctrl.window_at(ctrl.k_seconds) == 100.0


def test_growth_follows_the_closed_form():
    ctrl = make_after_loss(100.0, now_us=0, tcp_friendly=False, fast_convergence=False)
    for t_us in range(100_000, 8_000_000, 100_000):
        ctrl.on_ack_growth(t_us)
        expected = 0.4 * (t_us / 1e6 - ctrl.k_seconds) ** 3 + 100.0
        assert ctrl.cwnd_segments() == pytest.approx(expected, abs=1e-9)


def test_concave_then_convex_with_minimum_increment_at_k():
    ctrl = make_after_loss(100.0, tcp_friendly=False, fast_convergence=False)
    k_us = int(ctrl.k_seconds * 1e6)
    times = list(range(50_000, 2 * k_us, 50_000))
    values = []
    for t_us in times:
        ctrl.on_ack_growth(t_us)
        values.append(ctrl.cwnd_segments())
    deltas = [b - a for a, b in zip(values, values[1:])]
    pivot = min(range(len(deltas)), key=lambda i: deltas[i])
    # increments shrink while approaching K and accelerate past it
    assert abs(times[pivot] - k_us) <= 100_000
    assert all(b <= a for a, b in zip(deltas[:pivot], deltas[1:pivot]))
    assert all(b >= a for a, b in zip(deltas[pivot:], deltas[pivot + 1:]))


def test_derivative_decreases_on_the_concave_side():
    ctrl = make_after_loss(100.0)
    k = ctrl.k_seconds
    grid = [k * i / 10 for i in range(10)]
    slopes = [3 * 0.4 * (t - k) ** 2 for t in grid]
    assert all(b < a for a, b in zip(slopes, slopes[1:]))


def test_b_to_zero_limit_means_no_reduction_and_zero_k():
    ctrl = make_after_loss(100.0, b=1e-12, tcp_friendly=False, fast_convergence=False)
    assert ctrl.cwnd_segments() == pytest.approx(100.0, rel=1e-9)
    assert ctrl.k_seconds == pytest.approx(0.0, abs=1e-3)
    assert ctrl.window_at(0.0) == pytest.approx(100.0, rel=1e-9)


def test_window_never_moves_backward_during_an_epoch():
    ctrl = make_after_loss(100.0)
    prev = ctrl.cwnd_segments()
    for t_us in range(100_000, 10_000_000, 100_000):
        ctrl.on_ack_growth(t_us)
        assert ctrl.cwnd_segments() >= prev
        prev = ctrl.cwnd_segments()


def test_tcp_friendly_shadow_lifts_growth_when_curve_stalls():
    plain = make_after_loss(100.0, tcp_friendly=False, fast_convergence=False)
    friendly = make_after_loss(100.0, tcp_friendly=True, fast_convergence=False)
    # hold curve time still: the raw curve target is frozen while the
    # AIMD shadow keeps growing per ACK and eventually takes over
    for _ in range(1000):
        plain.on_ack_growth(100_000)
        friendly.on_ack_growth(100_000)
    assert friendly.cwnd_segments() > plain.cwnd_segments()
    assert friendly.cwnd_segments() == pytest.approx(friendly._w_est)


def test_loss_reduces_by_one_minus_b():
    ctrl = make_after_loss(100.0)
    assert ctrl.cwnd_segments() == pytest.approx(80.0)
    assert ctrl.ssthresh_segments() == pytest.approx(80.0)
    assert ctrl.max_win == pytest.approx(100.0)


def test_fast_convergence_deflates_the_target_when_below_old_max():
    ctrl = make_after_loss(100.0)          # max_win 100, cwnd 80
    ctrl.cwnd = 90.0                      # loss strikes before regaining 100
    ctrl.on_3dupack(1_000_000)
    assert ctrl.max_win == pytest.approx(90.0 * (2.0 - 0.2) / 2.0)
    assert ctrl.cwnd_segments() == pytest.approx(72.0)


def test_fast_convergence_off_anchors_at_the_loss_point():
    ctrl = make_after_loss(100.0, fast_convergence=False)
    ctrl.cwnd = 90.0
    ctrl.on_3dupack(1_000_000)
    assert ctrl.max_win == pytest.approx(90.0)


def test_reduction_floors_at_one_segment():
    ctrl = Cubic(2, 44.0)
    ctrl.cwnd = 1.0
    ctrl.ssthresh = 1.0
    ctrl.on_3dupack(0)
    assert ctrl.cwnd_segments() == 1.0


def test_a_loss_from_one_segment_waits_at_one_until_the_curve_passes_it():
    # the new curve starts at (1 - b) * w_max = 0.8 segment, below the
    # one-segment floor of the loss response; it reaches w_max = 1 at K
    ctrl = make_after_loss(1.0, tcp_friendly=False, fast_convergence=False)
    assert ctrl.window_at(0.0) == pytest.approx(0.8)
    k_us = int(ctrl.k_seconds * 1e6)
    for t_us in range(0, k_us, 10_000):
        ctrl.on_ack_growth(t_us)
        assert ctrl.cwnd_segments() == 1.0
    ctrl.on_ack_growth(2 * k_us)
    assert ctrl.cwnd_segments() == pytest.approx(1.2)   # 0.4 * K^3 + 1, K^3 = 0.5


def test_timeout_collapses_to_one_and_discards_the_curve():
    ctrl = make_after_loss(100.0)
    ctrl.on_timeout(2_000_000)
    assert ctrl.cwnd_segments() == 1.0
    assert ctrl.ssthresh_segments() == pytest.approx(64.0)
    assert not ctrl.epoch_valid
    # the old curve is forgotten: regrown past ssthresh to below its
    # maximum, the next loss anchors the curve a fresh controller would,
    # with no deflated maximum, and growth follows it the same
    now_us = 2_000_000
    while ctrl.cwnd < 70.0:
        now_us += 10_000
        ctrl.on_ack_growth(now_us)
    fresh = Cubic(2, 1.0, CubicParams())
    fresh.cwnd, fresh.ssthresh = ctrl.cwnd, ctrl.ssthresh
    ctrl.on_3dupack(now_us)
    fresh.on_3dupack(now_us)
    state = lambda c: (c.cwnd, c.ssthresh, c.max_win, c.k_seconds, c.epoch_start_us,
                       c.epoch_valid)
    assert state(ctrl) == state(fresh)
    assert ctrl.max_win >= 70.0
    for t_us in range(now_us, now_us + 5_000_000, 100_000):
        ctrl.on_ack_growth(t_us)
        fresh.on_ack_growth(t_us)
        assert ctrl.cwnd == fresh.cwnd


def test_growth_without_an_epoch_is_plain_aimd():
    ctrl = Cubic(10, 1.0)
    ctrl.on_ack_growth(0)
    assert ctrl.cwnd_segments() == pytest.approx(10.1)


def test_slow_start_adds_one_segment():
    ctrl = Cubic(2, 44.0)
    ctrl.on_ack_growth(0)
    assert ctrl.cwnd_segments() == 3.0


def test_curve_samples_record_the_epoch_geometry():
    ctrl = make_after_loss(100.0, now_us=500_000, cls=RecordingCubic,
                           tcp_friendly=False, fast_convergence=False)
    ctrl.on_ack_growth(600_000)
    ctrl.on_ack_growth(700_000)
    assert len(ctrl.curve_samples) == 2
    for now_us, epoch_start, max_win, k, cwnd in ctrl.curve_samples:
        assert epoch_start == 500_000
        assert max_win == pytest.approx(100.0)
        assert k == ctrl.k_seconds
        assert cwnd == pytest.approx(
            ctrl.window_at((now_us - epoch_start) / 1e6), abs=1e-12)


def test_the_float_window_is_the_only_representation():
    ctrl = Cubic(2, 44.0)
    assert type(ctrl.cwnd) is float and type(ctrl.ssthresh) is float
    for old in ("_cwnd", "_ssthresh", "cwnd_fp", "ssthresh_fp"):
        assert not hasattr(ctrl, old)


def test_k_shrinks_with_smaller_b():
    deep = make_after_loss(100.0, b=0.5)
    shallow = make_after_loss(100.0, b=0.1)
    assert shallow.k_seconds < deep.k_seconds


def test_cube_root_identity_holds_for_various_maxima():
    for max_win in (10.0, 50.0, 100.0, 400.0):
        ctrl = make_after_loss(max_win)
        assert ctrl.k_seconds == pytest.approx(
            math.pow(max_win * 0.2 / 0.4, 1 / 3))
        assert ctrl.window_at(ctrl.k_seconds) == max_win
