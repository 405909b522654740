"""The reduction pipeline on real run data.

Repeats a two-flow NewReno experiment over five seeds and walks the
numbers through the reduction steps: fairness, the RTT distribution
with its percentiles read off the empirical CDF, a box summary from the
standard library's quartiles, and the representative-run pick used for
plots.
"""

import statistics

from cclab.config import LabConfig
from cclab.metrics import empirical_cdf, jain_fairness, representative_flow
from cclab.runner import run_single

config = LabConfig()
config.scenario.duration_s = 60.0

runs = [run_single(config, seed=seed, variant="newreno", flows=2)
        for seed in range(1, 6)]

print("per-seed fairness (two NewReno flows, 60 s)")
for run in runs:
    goodputs = [f.goodput_bps / 1000 for f in run.flows]
    print(f"  seed {run.seed}: goodputs "
        + " / ".join(f"{g:.0f}" for g in goodputs)
        + f" Kbps, JFI {jain_fairness(goodputs):.4f}")

rtt_ms = [sample / 1000 for run in runs
          for (_t, sample) in run.flows[0].rtt_samples]
points = empirical_cdf(rtt_ms)


def percentile(q):
    """The smallest sample whose cumulative fraction reaches q."""
    return next(v for v, fraction in points if fraction >= q)


print(f"\nflow-0 RTT distribution pooled over seeds ({len(rtt_ms)} samples)")
print(f"  median {percentile(0.5):.0f} ms, "
      f"95th percentile {percentile(0.95):.0f} ms")
# quartiles interpolated between order statistics; whiskers at the
# farthest samples within 1.5 IQR of the box
q1, median, q3 = statistics.quantiles(rtt_ms, n=4, method="inclusive")
reach = 1.5 * (q3 - q1)
whisker_lo = min(v for v in rtt_ms if v >= q1 - reach)
whisker_hi = max(v for v in rtt_ms if v <= q3 + reach)
print(f"  box: [{whisker_lo:.0f} | {q1:.0f} {median:.0f} "
      f"{q3:.0f} | {whisker_hi:.0f}] ms, mean {statistics.fmean(rtt_ms):.0f}")

print("  CDF spot checks: " + ", ".join(
    f"P(rtt<={v:.0f})={f:.2f}" for v, f in points[:: len(points) // 4][:4]))

vectors = [(run.flows[0].goodput_bps / 1000,
            run.flows[0].mean_rtt_us / 1000,
            float(run.flows[0].timeouts)) for run in runs]
pick = representative_flow(vectors)
print(f"\nrepresentative seed for plotting: {runs[pick].seed} "
      f"(closest to the cross-seed mean, as `cclab matrix` picks)")
