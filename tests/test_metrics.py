"""Statistics layer: fairness, CDFs, box summaries, representative runs."""

import math
import statistics

import pytest
from hypothesis import assume, given, strategies as st

from cclab import metrics
from cclab.metrics import (box_whisker, cdf_percentile, empirical_cdf,
                           jain_fairness, representative_flow)

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


def test_85th_percentile_of_20_values_is_17th_order_statistic():
    samples = [float(10 * k) for k in range(1, 21)]   # 20 equally spaced
    assert cdf_percentile(samples, 0.85) == sorted(samples)[16]


def test_cdf_percentile_validates_q():
    with pytest.raises(ValueError, match="empty"):
        cdf_percentile([], 0.5)
    with pytest.raises(ValueError):
        cdf_percentile([1.0], 0.0)
    with pytest.raises(ValueError):
        cdf_percentile([1.0], 1.5)


@given(st.lists(st.floats(min_value=-1e9, max_value=1e9, allow_nan=False),
                min_size=1))
def test_cdf_fractions_increase_and_end_at_one(samples):
    points = empirical_cdf(samples)
    values = [v for v, _ in points]
    fracs = [f for _, f in points]
    assert values == sorted(set(values))
    assert all(b > a for a, b in zip(fracs, fracs[1:]))
    assert fracs[-1] == 1.0


@given(st.lists(st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
                min_size=1), st.floats(min_value=0.01, max_value=1.0))
def test_cdf_percentile_matches_sort_oracle(samples, q):
    n = len(samples)
    # stay away from exact rank boundaries, where float rounding of q*n
    # legitimately tips the answer to either neighbor
    assume(abs(q * n - round(q * n)) > 1e-6)
    ordered = sorted(samples)
    oracle = next(v for i, v in enumerate(ordered) if (i + 1) / n >= q)
    assert cdf_percentile(samples, q) == oracle


# --- box and whisker -------------------------------------------------------


def test_box_singleton_collapses():
    box = box_whisker([5.0])
    assert (box.q1, box.median, box.q3) == (5.0, 5.0, 5.0)
    assert (box.whisker_lo, box.whisker_hi) == (5.0, 5.0)
    assert box.mean == 5.0 and box.n == 1


def test_box_median_of_one_through_eight():
    box = box_whisker([float(v) for v in range(1, 9)])
    assert box.median == 4.5


def test_box_whisker_excludes_far_outlier():
    box = box_whisker([1.0, 2.0, 3.0, 100.0])
    # q3 + 1.5 IQR is far below 100, so the whisker stops at 3
    assert box.q3 + 1.5 * (box.q3 - box.q1) < 100.0
    assert box.whisker_hi == 3.0
    assert box.whisker_lo == 1.0


def test_box_rejects_empty():
    with pytest.raises(ValueError):
        box_whisker([])


@given(st.lists(st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
                min_size=2, max_size=200))
def test_box_quartiles_match_statistics_module(samples):
    box = box_whisker(samples)
    q1, med, q3 = statistics.quantiles(samples, n=4, method="inclusive")
    assert box.q1 == pytest.approx(q1, rel=1e-9, abs=1e-9)
    assert box.median == pytest.approx(med, rel=1e-9, abs=1e-9)
    assert box.q3 == pytest.approx(q3, rel=1e-9, abs=1e-9)
    assert box.median == pytest.approx(statistics.median(samples), rel=1e-9, abs=1e-9)


@given(st.lists(st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
                min_size=1, max_size=200))
def test_box_whiskers_are_samples_inside_the_reach(samples):
    box = box_whisker(samples)
    reach = 1.5 * (box.q3 - box.q1)
    inside = [v for v in samples if box.q1 - reach <= v <= box.q3 + reach]
    assert box.whisker_lo == min(inside)
    assert box.whisker_hi == max(inside)


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
