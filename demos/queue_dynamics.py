"""Why the bandwidth-estimating decrease keeps the buffer short.

Runs the same 180 s single-flow experiment under Westwood+ and under
NewReno, keeping the bottleneck queue's history so it can be replayed.  After every fast-retransmit decrease we read the queue
occupancy one RTT later: the BDP-sized decrease drains the buffer
almost completely, the blind halving leaves a standing backlog.
"""

import statistics
from bisect import bisect_right

from cclab.config import LabConfig
from cclab.metrics import backlog_at
from cclab.runner import run_single

config = LabConfig()
capacity = config.link.queue_capacity

for variant in ("westwood+", "newreno"):
    residuals = []
    for seed in (1, 2, 3):
        result = run_single(config, seed=seed, variant=variant,
                            keep_backlog_probe=True)
        flow = result.flows[0]
        sample_times, rtts = flow.rtt_samples.columns
        for (t, kind, pre, post, _ss) in flow.decreases:
            if kind != "3dupack":
                continue
            # the last RTT sample at or before the decrease
            i = bisect_right(sample_times, t)
            if not i:
                continue
            residuals.append(backlog_at(result.backlog_probe, t + rtts[i - 1]))
    print(f"{variant}: {len(residuals)} decreases over 3 seeds")
    print(f"  queue one RTT after the decrease: min {min(residuals)}, "
          f"max {max(residuals)}, mean {statistics.mean(residuals):.1f} "
          f"of {capacity} packets")
