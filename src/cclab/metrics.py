"""Figure-style metrics computed from finished runs.

Everything here is a pure function of recorded numbers; nothing touches
the simulator.  Two percentile conventions are used on purpose: CDF
percentiles are order statistics (smallest value whose cumulative
fraction reaches the target), while box-and-whisker percentiles use
linear interpolation between order statistics.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field

from .engine import US_PER_S
from .history import RttSamples


def _bit_rate(what: str, n_bytes: int, duration_us: int) -> float:
    if duration_us <= 0:
        raise ValueError(f"{what} needs a positive duration")
    return n_bytes * 8 * US_PER_S / duration_us


def goodput_bps(unique_bytes: int, duration_us: int) -> float:
    """Application bytes delivered once, over the measured window."""
    return _bit_rate("goodput", unique_bytes, duration_us)


def throughput_bps(total_bytes_sent: int, duration_us: int) -> float:
    """All payload bytes sent, retransmissions included."""
    return _bit_rate("throughput", total_bytes_sent, duration_us)


def retx_ratio(retransmissions: int, transmissions: int) -> float:
    if transmissions <= 0:
        return 0.0
    return retransmissions / transmissions


def jain_fairness(values: list[float]) -> float:
    """(sum x)^2 / (n * sum x^2); 1 is perfect equality, 1/n total skew."""
    if not values:
        raise ValueError("fairness index of an empty set")
    if any(v < 0 for v in values):
        raise ValueError("fairness index needs nonnegative inputs")
    peak = max(values)
    if peak == 0:
        raise ValueError("fairness index undefined when every value is zero")
    if not 1e-100 <= peak <= 1e100:
        # keep the squares that matter clear of underflow and overflow
        values = [v / peak for v in values]
    square_sum = sum(v * v for v in values)
    total = sum(values)
    return (total * total) / (len(values) * square_sum)


def empirical_cdf(samples: list[float]) -> list[tuple[float, float]]:
    """Right-continuous step CDF as (value, fraction <= value) points."""
    if not samples:
        raise ValueError("empirical cdf of an empty sample set")
    ordered = sorted(samples)
    n = len(ordered)
    points: list[tuple[float, float]] = []
    for i, v in enumerate(ordered):
        if i + 1 < n and ordered[i + 1] == v:
            continue  # keep only the last index of a tie
        points.append((v, (i + 1) / n))
    return points


def cdf_percentile(samples: list[float], q: float) -> float:
    """Smallest sample whose cumulative fraction reaches q (0 < q <= 1)."""
    if not samples:
        raise ValueError("percentile of an empty sample set")
    if not 0.0 < q <= 1.0:
        raise ValueError("q must be in (0, 1]")
    ordered = sorted(samples)
    rank = math.ceil(q * len(ordered))
    return ordered[rank - 1]


def _interp_percentile(ordered: list[float], q: float) -> float:
    # linear interpolation between closest order statistics
    pos = q * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    frac = pos - lo
    return ordered[lo] + (ordered[hi] - ordered[lo]) * frac


@dataclass
class BoxWhisker:
    q1: float
    median: float
    q3: float
    whisker_lo: float
    whisker_hi: float
    mean: float
    n: int


def box_whisker(samples: list[float]) -> BoxWhisker:
    """Quartile box with whiskers at the farthest samples within 1.5 IQR."""
    if not samples:
        raise ValueError("box summary of an empty sample set")
    ordered = sorted(samples)
    q1 = _interp_percentile(ordered, 0.25)
    median = _interp_percentile(ordered, 0.5)
    q3 = _interp_percentile(ordered, 0.75)
    reach = 1.5 * (q3 - q1)
    lo_limit = q1 - reach
    hi_limit = q3 + reach
    whisker_lo = min(v for v in ordered if v >= lo_limit)
    whisker_hi = max(v for v in ordered if v <= hi_limit)
    return BoxWhisker(q1, median, q3, whisker_lo, whisker_hi,
                      sum(ordered) / len(ordered), len(ordered))


def backlog_at(history: tuple[list[int], list[int]] | None, t: int) -> int:
    """Queue occupancy at virtual time t from a link's (times, counts) history."""
    if history is None:
        raise ValueError("backlog history is kept only with record_backlog=True")
    times, counts = history
    i = bisect_right(times, t) - 1
    return counts[i] if i >= 0 else 0


def representative_flow(vectors: list[tuple[float, ...]]) -> int:
    """Index of the run closest (euclidean) to the componentwise mean.

    Ties go to the lowest index.
    """
    if not vectors:
        raise ValueError("representative flow of an empty set")
    dims = len(vectors[0])
    if any(len(v) != dims for v in vectors):
        raise ValueError("vectors must share a dimension")
    n = len(vectors)
    means = [sum(v[d] for v in vectors) / n for d in range(dims)]
    best_idx = 0
    best_dist = math.inf
    for i, v in enumerate(vectors):
        dist = sum((v[d] - means[d]) ** 2 for d in range(dims))
        if dist < best_dist:
            best_dist = dist
            best_idx = i
    return best_idx


@dataclass
class FlowMetrics:
    flow_id: int
    variant: str
    duration_us: int
    unique_bytes: int
    bytes_sent: int
    transmissions: int
    retransmissions: int
    timeouts: int
    goodput_bps: float
    throughput_bps: float
    retx_ratio: float
    mean_rtt_us: float
    rtt_samples: RttSamples = field(repr=False, default_factory=RttSamples)
    retx_bursts: list[int] = field(default_factory=list)
    # (t_us, kind, cwnd before, cwnd after, ssthresh after) per window decrease
    decreases: list[tuple] = field(repr=False, default_factory=list)

    @property
    def goodput_kbps(self) -> float:
        return self.goodput_bps / 1000.0

    @property
    def mean_rtt_ms(self) -> float:
        return self.mean_rtt_us / 1000.0
