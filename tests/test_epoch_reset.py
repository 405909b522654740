"""A timeout forgets BIC's search interval and CUBIC's curve.

After an RTO both laws grow like NewReno until the next fast retransmit
starts a new epoch, so nothing of the old epoch may reach the window:
from the timeout on, the controller must move exactly as a fresh one
with the same parameters, put at the same cwnd and ssthresh.
"""

import pytest
from hypothesis import given, settings, strategies as st

from cclab.cc import Bic, Cubic
from cclab.cc.params import BicParams, CubicParams

# each step: `gap_us` on, `acks` growth ACKs at that time, then a third
# duplicate ACK, a timeout or nothing
STEPS = st.lists(st.tuples(st.integers(0, 400_000), st.integers(0, 80),
                           st.sampled_from(["", "dup", "rto"])),
                 max_size=40)


@pytest.mark.parametrize("fast_convergence", [True, False])
@pytest.mark.parametrize("law, params", [(Bic, BicParams), (Cubic, CubicParams)],
                         ids=["bic", "cubic"])
@settings(max_examples=150, deadline=None)
@given(initial_cwnd=st.integers(2, 64), initial_ssthresh=st.integers(2, 64), steps=STEPS)
def test_after_a_timeout_the_law_moves_like_a_fresh_one(law, params, fast_convergence,
                                                        initial_cwnd, initial_ssthresh, steps):
    ctrl = law(initial_cwnd, float(initial_ssthresh), params(fast_convergence=fast_convergence))
    twins = []   # a fresh controller born at each timeout
    now_us = 0
    for gap_us, acks, loss in steps:
        now_us += gap_us
        for each in (ctrl, *twins):
            for _ in range(acks):
                each.on_ack_growth(now_us)
            if loss == "dup":
                each.on_3dupack(now_us)
            elif loss == "rto":
                each.on_timeout(now_us)
        if loss == "rto":
            twin = law(2, 1.0, ctrl.params)
            twin.cwnd, twin.ssthresh = ctrl.cwnd, ctrl.ssthresh
            twins.append(twin)
        for twin in twins:
            assert twin.cwnd_segments() == ctrl.cwnd_segments()
            assert twin.ssthresh_segments() == ctrl.ssthresh_segments()
