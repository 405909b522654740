"""The reduction pipeline on real run data.

Repeats a two-flow NewReno experiment over five seeds and walks the
numbers through the statistics helpers: fairness, RTT distribution,
box summary, and the representative-run pick used for plots.
"""

from cclab.config import LabConfig
from cclab.metrics import (box_whisker, cdf_percentile, empirical_cdf,
                          jain_fairness, representative_flow)
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
print(f"\nflow-0 RTT distribution pooled over seeds ({len(rtt_ms)} samples)")
print(f"  median {cdf_percentile(rtt_ms, 0.5):.0f} ms, "
      f"95th percentile {cdf_percentile(rtt_ms, 0.95):.0f} ms")
box = box_whisker(rtt_ms)
print(f"  box: [{box.whisker_lo:.0f} | {box.q1:.0f} {box.median:.0f} "
      f"{box.q3:.0f} | {box.whisker_hi:.0f}] ms, mean {box.mean:.0f}")

points = empirical_cdf(rtt_ms)
print("  CDF spot checks: " + ", ".join(
    f"P(rtt<={v:.0f})={f:.2f}" for v, f in points[:: len(points) // 4][:4]))

vectors = [(run.flows[0].goodput_bps / 1000,
            run.flows[0].mean_rtt_us / 1000,
            float(run.flows[0].timeouts)) for run in runs]
pick = representative_flow(vectors)
print(f"\nrepresentative seed for plotting: {runs[pick].seed} "
      f"(closest to the cross-seed mean, as `cclab matrix` picks)")
