"""AIMD controller: reciprocal growth, multiplicative decrease.

The slow-start tests and the last test hold every law to the slow start
and the loss response they share.
"""

import pytest
from hypothesis import given, strategies as st

from cclab.cc import VARIANTS, NewReno, make_controller
from cclab.cc.params import SCALE

MSS = 1460


@pytest.mark.parametrize("law", VARIANTS)
def test_slow_start_adds_one_segment_per_ack(law):
    ctrl = make_controller(law, 2, 44.0, MSS)
    assert ctrl.cwnd < ctrl.ssthresh
    ctrl.on_ack_growth(0)
    assert ctrl.cwnd_segments() == 3.0


def test_avoidance_adds_reciprocal_of_window():
    ctrl = NewReno(50, 10.0)
    assert ctrl.cwnd >= ctrl.ssthresh
    ctrl.on_ack_growth(0)
    assert ctrl.cwnd == 50 * SCALE + 20_000    # exactly +0.02 segments


def test_avoidance_at_one_segment_adds_a_full_segment():
    ctrl = NewReno(1, 1.0)
    assert ctrl.cwnd >= ctrl.ssthresh
    ctrl.on_ack_growth(0)
    assert ctrl.cwnd_segments() == 2.0


@pytest.mark.parametrize("ssthresh", [float("inf"), 1e13], ids=["inf", "1e13"])
@pytest.mark.parametrize("law", VARIANTS)
def test_infinite_ssthresh_keeps_slow_start(law, ssthresh):
    # 1e13 segments is finite, but above 2**62 micro-segments
    ctrl = make_controller(law, 2, ssthresh, MSS)
    assert ctrl.ssthresh_segments() == ssthresh
    for _ in range(100):
        ctrl.on_ack_growth(0)
    assert ctrl.cwnd < ctrl.ssthresh
    assert ctrl.cwnd_segments() == 102.0


def test_3dupack_halves_window_and_ssthresh():
    ctrl = NewReno(20, 44.0)
    ctrl.on_3dupack(0)
    assert ctrl.cwnd_segments() == 10.0
    assert ctrl.ssthresh_segments() == 10.0


def test_3dupack_never_goes_below_one_segment():
    ctrl = NewReno(1, 44.0)
    ctrl.on_3dupack(0)
    assert ctrl.cwnd_segments() == 1.0


def test_timeout_halves_ssthresh_and_collapses_to_one():
    ctrl = NewReno(16, 44.0)
    ctrl.on_timeout(0)
    assert ctrl.cwnd_segments() == 1.0
    assert ctrl.ssthresh_segments() == 8.0


@given(st.integers(min_value=2 * SCALE, max_value=1000 * SCALE))
def test_decrease_ratio_is_exact_integer_halving(pre_fp):
    ctrl = NewReno(2, 44.0)
    ctrl.cwnd = pre_fp
    ctrl.on_3dupack(0)
    assert ctrl.cwnd == pre_fp // 2
    # one fixed-point quantum of the ideal ratio
    assert abs(ctrl.cwnd - pre_fp * 0.5) <= 1


@given(st.integers(min_value=1, max_value=80), st.integers(min_value=1, max_value=500))
def test_avoidance_growth_telescopes_exactly(start_segments, n_acks):
    ctrl = NewReno(start_segments, 1.0)
    expected = start_segments * SCALE
    for _ in range(n_acks):
        expected += SCALE * SCALE // expected
    for _ in range(n_acks):
        ctrl.on_ack_growth(0)
    assert ctrl.cwnd == expected


def _in_state(law, cwnd_fp, ssthresh_fp, epoch, cwnd_max_fp, sample):
    """A controller of `law` with this window, ssthresh and loss history."""
    ctrl = make_controller(law, 2, 44.0, MSS)
    if law == "cubic":
        ctrl.cwnd, ctrl.ssthresh = cwnd_fp / SCALE, ssthresh_fp / SCALE
        if epoch:
            ctrl._start_epoch(0, cwnd_max_fp / SCALE)
        ctrl.epoch_valid = epoch
        return ctrl
    ctrl.cwnd, ctrl.ssthresh = cwnd_fp, ssthresh_fp
    if law == "bic":
        ctrl.epoch_valid, ctrl.cwnd_max_fp = epoch, cwnd_max_fp
    if law == "westwood+" and sample is not None:
        ctrl.bwe_bytes_per_s = sample[0]
        ctrl.on_rtt_sample(0, sample[1])
    return ctrl


@given(law=st.sampled_from(VARIANTS),
       cwnd_fp=st.integers(min_value=SCALE, max_value=1000 * SCALE),
       ssthresh_fp=st.integers(min_value=SCALE, max_value=1000 * SCALE),
       epoch=st.booleans(),
       cwnd_max_fp=st.integers(min_value=SCALE, max_value=1000 * SCALE),
       sample=st.none() | st.tuples(st.floats(min_value=1.0, max_value=1e7),
                                    st.integers(min_value=1_000, max_value=2_000_000)))
def test_every_law_keeps_one_loss_window_after_a_fast_retransmit_or_a_timeout(
        law, cwnd_fp, ssthresh_fp, epoch, cwnd_max_fp, sample):
    state = (law, cwnd_fp, ssthresh_fp, epoch, cwnd_max_fp, sample)
    dupack, timeout = _in_state(*state), _in_state(*state)
    dupack.on_3dupack(1_000_000)
    timeout.on_timeout(1_000_000)
    assert dupack.cwnd_segments() == dupack.ssthresh_segments()
    assert dupack.cwnd_segments() >= 1.0
    assert timeout.cwnd_segments() == 1.0
    assert timeout.ssthresh_segments() >= 1.0
    assert timeout.ssthresh_segments() == dupack.ssthresh_segments()
