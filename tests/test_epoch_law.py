"""BIC and CUBIC start each epoch by one rule, with fast convergence on or off.

At a third duplicate ACK the new maximum is the window at the loss,
`pre`, unless fast convergence is on, the epoch is valid and `pre` is
below the old maximum: then it is `pre * (1 + kept) / 2`, where `kept`
is the fraction of the window a loss keeps (`b` for BIC, `1 - b` for
CUBIC).  The model below states that rule apart from the code, each law
in its own arithmetic: BIC's fixed point floors an exact fraction, and
CUBIC's float window takes the float product.
"""

import math
from fractions import Fraction

import pytest
from hypothesis import example, given, strategies as st

from cclab.cc import Bic, Cubic
from cclab.cc.params import SCALE, BicParams, CubicParams

WINDOW_FP = st.integers(min_value=SCALE, max_value=1000 * SCALE)
WINDOW = st.floats(min_value=1.0, max_value=1000.0)
BIC_B = st.integers(1, 9).flatmap(lambda num: st.tuples(st.just(num), st.integers(num + 1, 10)))
CUBIC_B = st.floats(min_value=0.01, max_value=0.99)


def bic(pre, old_max, epoch_valid, b, fast_convergence):
    ctrl = Bic(2, 1.0, BicParams(b=b, fast_convergence=fast_convergence))
    ctrl.cwnd, ctrl.cwnd_max_fp, ctrl.epoch_valid = pre, old_max, epoch_valid
    return ctrl


def cubic(pre, old_max, epoch_valid, b, fast_convergence):
    ctrl = Cubic(2, 1.0, CubicParams(b=b, fast_convergence=fast_convergence))
    ctrl.cwnd, ctrl.max_win, ctrl.epoch_valid = pre, old_max, epoch_valid
    return ctrl


def expected_max(law, pre, old_max, epoch_valid, b, fast_convergence):
    if not (fast_convergence and epoch_valid and pre < old_max):
        return pre
    if law is bic:
        kept = Fraction(*b)
        return math.floor(pre * (1 + kept) / 2)
    # 1 + kept is 2 - b, rounded once, as the law computes it: forming
    # 1 - b first and adding 1 rounds twice and misses by an ulp for a few
    # percent of b
    return pre * (2.0 - b) / 2.0


def new_max(ctrl):
    return ctrl.cwnd_max_fp if isinstance(ctrl, Bic) else ctrl.max_win


def check_epoch_rule(law, pre, old_max, epoch_valid, b, fast_convergence):
    ctrl = law(pre, old_max, epoch_valid, b, fast_convergence)
    ctrl.on_3dupack(1_000_000)
    assert new_max(ctrl) == expected_max(law, pre, old_max, epoch_valid, b, fast_convergence)
    assert ctrl.epoch_valid is True
    ctrl.on_timeout(2_000_000)
    assert ctrl.epoch_valid is False


@pytest.mark.parametrize("fast_convergence", [True, False])
@given(pre=WINDOW_FP, old_max=WINDOW_FP, epoch_valid=st.booleans(), b=BIC_B)
# a loss below the old maximum: only a valid epoch deflates it; and a loss at it
@example(pre=80 * SCALE, old_max=100 * SCALE, epoch_valid=True, b=(4, 5))
@example(pre=80 * SCALE, old_max=100 * SCALE, epoch_valid=False, b=(4, 5))
@example(pre=100 * SCALE, old_max=100 * SCALE, epoch_valid=True, b=(4, 5))
def test_bic_starts_its_epoch_by_the_shared_rule(fast_convergence, pre, old_max, epoch_valid, b):
    check_epoch_rule(bic, pre, old_max, epoch_valid, b, fast_convergence)


@pytest.mark.parametrize("fast_convergence", [True, False])
@given(pre=WINDOW, old_max=WINDOW, epoch_valid=st.booleans(), b=CUBIC_B)
@example(pre=80.0, old_max=100.0, epoch_valid=True, b=0.2)
@example(pre=80.0, old_max=100.0, epoch_valid=False, b=0.2)
@example(pre=100.0, old_max=100.0, epoch_valid=True, b=0.2)
# 1 + (1 - b) and 2 - b round apart here
@example(pre=1.0, old_max=2.0, epoch_valid=True, b=0.20654153792180527)
def test_cubic_starts_its_epoch_by_the_shared_rule(fast_convergence, pre, old_max, epoch_valid,
                                                   b):
    check_epoch_rule(cubic, pre, old_max, epoch_valid, b, fast_convergence)
