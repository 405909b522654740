"""Binary-increase controller: search rounds, probing, decreases."""

from fractions import Fraction

import pytest

from cclab.cc import Bic, NewReno
from cclab.cc.params import SCALE, BicParams


def make_epoch(cwnd, cmin, cmax, **params):
    """Controller in congestion avoidance with a seeded search interval."""
    ctrl = Bic(2, 1.0, BicParams(**params))
    ctrl.cwnd = int(round(cwnd * SCALE))
    ctrl.ssthresh = SCALE
    ctrl.epoch_valid = True
    ctrl.cwnd_min_fp = int(round(cmin * SCALE))
    ctrl.cwnd_max_fp = int(round(cmax * SCALE))
    return ctrl


def advance_round(ctrl):
    """Feed one window's worth of ACKs; returns the round-end cwnd in fp."""
    ctrl.on_ack_growth(0)
    while ctrl._round_left > 0:
        ctrl.on_ack_growth(0)
    return ctrl.cwnd


def oracle_rounds(cmin, cmax, s_max, s_min):
    """Exact-rational replay of the search: one target per window of ACKs."""
    cwnd = Fraction(cmin)
    cmax = Fraction(cmax)
    targets = []
    while True:
        midpoint = (cwnd + cmax) / 2
        if midpoint - cwnd <= Fraction(str(s_min)):
            targets.append(cmax)          # converged: snap to the old maximum
            return targets
        cwnd += min(midpoint - cwnd, Fraction(str(s_max)))
        targets.append(cwnd)


def test_near_target_jumps_to_midpoint():
    ctrl = make_epoch(80, 80, 100)
    assert advance_round(ctrl) == 90 * SCALE


def test_far_target_moves_by_s_max():
    ctrl = make_epoch(320, 320, 400)
    assert advance_round(ctrl) == 352 * SCALE


def test_search_matches_rational_oracle_round_for_round():
    expected = oracle_rounds(80, 100, 32.0, 0.01)
    ctrl = make_epoch(80, 80, 100)
    for target in expected[:-1]:
        got = advance_round(ctrl)
        # integer fixed point floors midpoints; one quantum per halving
        assert abs(got - target * SCALE) <= 2
        assert not ctrl.max_probing
    final = advance_round(ctrl)
    assert ctrl.max_probing
    # the convergence round snaps to the old maximum, then takes the
    # first mirrored probe step beyond it
    assert ctrl.cwnd_max_fp == 100 * SCALE
    assert abs(final - (100 * SCALE + 10_000)) <= 2


def test_search_increments_halve_monotonically():
    ctrl = make_epoch(80, 80, 100)
    ends = [advance_round(ctrl) for _ in range(9)]
    steps = [b - a for a, b in zip([80 * SCALE] + ends, ends)]
    assert all(b <= a for a, b in zip(steps, steps[1:]))
    assert all(s > 0 for s in steps)


def test_max_probing_gap_doubles_each_round():
    ctrl = make_epoch(80, 80, 100)
    while not ctrl.max_probing:
        advance_round(ctrl)
    ends = [advance_round(ctrl) for _ in range(3)]
    base = 100 * SCALE
    assert [e - base for e in ends] == [20_000, 40_000, 80_000]


def test_deep_probing_is_capped_at_s_max_per_round():
    ctrl = make_epoch(80, 80, 100, s_max=32.0)
    while not ctrl.max_probing:
        advance_round(ctrl)
    prev = ctrl.cwnd
    for _ in range(16):
        cur = advance_round(ctrl)
        assert cur - prev <= 32 * SCALE + 2
        prev = cur
    # by now the doubling gap has hit the linear regime
    assert advance_round(ctrl) - cur == 32 * SCALE


def test_growth_without_an_epoch_is_plain_aimd():
    ctrl = Bic(10, 1.0)
    assert not ctrl.epoch_valid
    ctrl.on_ack_growth(0)
    assert ctrl.cwnd == 10 * SCALE + SCALE // 10


def test_growth_below_low_window_is_plain_aimd():
    ctrl = make_epoch(10, 10, 100, low_window=14.0)
    ctrl.on_ack_growth(0)
    assert ctrl.cwnd == 10 * SCALE + SCALE // 10


def test_loss_while_probing_reduces_by_beta_and_records_max():
    ctrl = make_epoch(100, 80, 100)
    ctrl.max_probing = True
    ctrl.on_3dupack(0)
    assert ctrl.cwnd_segments() == 80.0
    assert ctrl.ssthresh_segments() == 80.0
    assert ctrl.cwnd_max_fp == 100 * SCALE
    assert ctrl.cwnd_min_fp == 80 * SCALE
    assert not ctrl.max_probing
    assert ctrl.epoch_valid


def test_loss_before_reaching_old_max_deflates_the_target():
    ctrl = make_epoch(100, 80, 200)
    ctrl.on_3dupack(0)
    # fast convergence: the remembered ceiling drops below the loss point
    assert ctrl.cwnd_max_fp == 90 * SCALE
    assert ctrl.cwnd_segments() == 80.0


def test_fast_convergence_off_keeps_loss_point_as_max():
    ctrl = make_epoch(100, 80, 200, fast_convergence=False)
    ctrl.on_3dupack(0)
    assert ctrl.cwnd_max_fp == 100 * SCALE
    assert ctrl.cwnd_segments() == 80.0


def test_repeated_losses_shrink_the_remembered_max():
    ctrl = make_epoch(100, 80, 120)
    maxes = []
    for _ in range(6):
        ctrl.on_3dupack(0)
        maxes.append(ctrl.cwnd_max_fp)
        ctrl.cwnd = min(ctrl.cwnd + 2 * SCALE, ctrl.cwnd_max_fp - SCALE)
    assert all(b <= a for a, b in zip(maxes, maxes[1:]))


def test_loss_below_low_window_halves_like_newreno():
    ctrl = make_epoch(10, 5, 100)
    ctrl.on_3dupack(0)
    assert ctrl.cwnd_segments() == 5.0


@pytest.mark.parametrize("pre", [2.0, 7.5, 14.0, 20.0, 77.25, 500.0])
def test_half_beta_decrease_matches_newreno(pre):
    bic = Bic(2, 44.0, BicParams(b=(1, 2)))
    reno = NewReno(2, 44.0)
    bic.cwnd = reno.cwnd = int(round(pre * SCALE))
    bic.on_3dupack(0)
    reno.on_3dupack(0)
    assert bic.cwnd == reno.cwnd


def test_decrease_never_goes_below_one_segment():
    ctrl = Bic(1, 44.0)
    ctrl.on_3dupack(0)
    assert ctrl.cwnd_segments() == 1.0


def test_timeout_collapses_and_invalidates_the_epoch():
    ctrl = make_epoch(100, 80, 100)
    ctrl.on_timeout(0)
    assert ctrl.cwnd_segments() == 1.0
    assert ctrl.ssthresh_segments() == 80.0
    assert not ctrl.epoch_valid
    # the old (80, 100) pair is forgotten: regrown past ssthresh to below
    # the old maximum, the next loss seeds the epoch a fresh controller
    # would, with no deflated maximum, and the search runs the same
    while ctrl.cwnd < 85 * SCALE:
        ctrl.on_ack_growth(0)
    fresh = Bic(2, 1.0, BicParams())
    fresh.cwnd, fresh.ssthresh = ctrl.cwnd, ctrl.ssthresh
    ctrl.on_3dupack(0)
    fresh.on_3dupack(0)
    state = lambda c: (c.cwnd, c.ssthresh, c.cwnd_max_fp, c.cwnd_min_fp, c.epoch_valid)
    assert state(ctrl) == state(fresh)
    assert ctrl.cwnd_max_fp >= 85 * SCALE
    assert [advance_round(ctrl) for _ in range(4)] == [advance_round(fresh) for _ in range(4)]


def test_rounds_to_converge_scale_logarithmically():
    def rounds_to_probe(span):
        ctrl = make_epoch(100, 100, 100 + span)
        n = 0
        while not ctrl.max_probing:
            advance_round(ctrl)
            n += 1
        return n

    # doubling the gap costs one extra halving round
    assert rounds_to_probe(20) == rounds_to_probe(10) + 1
    assert rounds_to_probe(40) == rounds_to_probe(20) + 1
