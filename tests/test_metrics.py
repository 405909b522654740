"""Statistics layer: rates, fairness, CDFs, representative runs."""

import math

import pytest
from hypothesis import given, strategies as st

from cclab import metrics
from cclab.metrics import empirical_cdf, jain_fairness, representative_flow

positive_floats = st.floats(min_value=1e-3, max_value=1e9,
                            allow_nan=False, allow_infinity=False)


# --- rates -----------------------------------------------------------------


def test_goodput_and_throughput_unit_conversion():
    assert metrics.goodput_bps(1_250_000, 1_000_000) == 10_000_000.0
    assert metrics.throughput_bps(1_250_000, 2_000_000) == 5_000_000.0


def test_rates_reject_nonpositive_duration():
    with pytest.raises(ValueError):
        metrics.goodput_bps(1, 0)
    with pytest.raises(ValueError):
        metrics.throughput_bps(1, -5)


def test_retx_ratio_zero_for_no_transmissions():
    assert metrics.retx_ratio(0, 0) == 0.0
    assert metrics.retx_ratio(3, 100) == 0.03


# --- Jain fairness ---------------------------------------------------------


def test_jain_equal_inputs_is_exactly_one():
    assert jain_fairness([1000.0, 1000.0, 1000.0]) == 1.0


def test_jain_one_three_is_exactly_point_eight():
    assert jain_fairness([1.0, 3.0]) == 0.8


def test_jain_rejects_bad_inputs():
    with pytest.raises(ValueError):
        jain_fairness([])
    with pytest.raises(ValueError):
        jain_fairness([0.0, 0.0])
    with pytest.raises(ValueError):
        jain_fairness([5.0, -1.0])


@pytest.mark.parametrize("scale", [1e-200, 1e200], ids=["underflow", "overflow"])
def test_jain_rescales_values_whose_squares_leave_the_float_range(scale):
    assert scale * scale in (0.0, math.inf)
    assert jain_fairness([scale, 3 * scale]) == pytest.approx(0.8)
    assert jain_fairness([scale, 0.0]) == 0.5


@given(st.lists(st.floats(min_value=0, max_value=1e9, allow_nan=False), min_size=1)
       .filter(lambda v: sum(x * x for x in v) > 0))
def test_jain_bounds(values):
    jfi = jain_fairness(values)
    n = len(values)
    assert 1.0 / n - 1e-12 <= jfi <= 1.0 + 1e-12


@given(st.lists(positive_floats, min_size=1, max_size=8),
       st.floats(min_value=1e-3, max_value=1e3))
def test_jain_scale_invariance(values, c):
    scaled = [c * v for v in values]
    assert jain_fairness(scaled) == pytest.approx(jain_fairness(values), rel=1e-9)


# --- empirical CDF ---------------------------------------------------------


def test_cdf_singleton():
    assert empirical_cdf([377.0]) == [(377.0, 1.0)]


def test_cdf_four_values():
    points = empirical_cdf([1.0, 2.0, 3.0, 4.0])
    assert points == [(1.0, 0.25), (2.0, 0.5), (3.0, 0.75), (4.0, 1.0)]


def test_cdf_ties_keep_the_last_index():
    points = empirical_cdf([1.0, 2.0, 2.0, 3.0])
    assert points == [(1.0, 0.25), (2.0, 0.75), (3.0, 1.0)]


def test_cdf_rejects_empty():
    with pytest.raises(ValueError):
        empirical_cdf([])


@given(st.lists(st.floats(min_value=-1e9, max_value=1e9, allow_nan=False),
                min_size=1))
def test_cdf_fractions_increase_and_end_at_one(samples):
    points = empirical_cdf(samples)
    values = [v for v, _ in points]
    fracs = [f for _, f in points]
    assert values == sorted(set(values))
    assert all(b > a for a, b in zip(fracs, fracs[1:]))
    assert fracs[-1] == 1.0


# --- representative selection ----------------------------------------------


def test_representative_identical_runs_tie_breaks_low():
    assert representative_flow([(5.0, 5.0), (5.0, 5.0), (5.0, 5.0)]) == 0


def test_representative_single_run():
    assert representative_flow([(10.0, 100.0, 1.0)]) == 0


def test_representative_worked_example():
    runs = [(10.0, 100.0, 1.0), (20.0, 200.0, 3.0), (12.0, 110.0, 1.0)]
    means = [sum(v[d] for v in runs) / 3 for d in range(3)]
    assert means == pytest.approx([14.0, 136.666666, 1.666666], rel=1e-6)
    dists = [math.dist(v, means) for v in runs]
    assert dists == pytest.approx([36.9, 63.6, 26.8], abs=0.06)
    assert representative_flow(runs) == 2


def test_representative_rejects_mixed_dimensions():
    with pytest.raises(ValueError):
        representative_flow([(1.0, 2.0), (1.0,)])
    with pytest.raises(ValueError):
        representative_flow([])


def test_representative_normalized_mode_rebalances_units():
    # no normalizing: the second component numerically dominates the raw
    # distance, as it does for the matrix's representative run
    runs = [(1.0, 1000.0), (3.0, 1001.0), (2.04, 900.0)]
    assert representative_flow(runs) == 0


@given(st.lists(st.tuples(positive_floats, positive_floats, positive_floats),
                min_size=1, max_size=40))
def test_representative_matches_brute_force(vectors):
    means = [sum(v[d] for v in vectors) / len(vectors) for d in range(3)]
    dists = [sum((v[d] - means[d]) ** 2 for d in range(3)) for v in vectors]
    best = min(range(len(vectors)), key=lambda i: (dists[i], i))
    assert representative_flow(vectors) == best
