"""One seeded experiment from the library API, start to finish.

Runs a single Cubic flow for 60 seconds over the default 1.5 Mbps
cellular-style bottleneck, then prints the flow summary and a short
excerpt of the captured window trajectory.
"""

from cclab.config import LabConfig
from cclab.runner import run_single

config = LabConfig()
config.variant = "cubic"
config.scenario.duration_s = 60.0

result = run_single(config, seed=42, capture_timeseries=True)

flow = result.flows[0]
print("flow summary")
print(f"  goodput      {flow.goodput_bps / 1000:8.1f} Kbps")
print(f"  throughput   {flow.throughput_bps / 1000:8.1f} Kbps")
print(f"  mean RTT     {flow.mean_rtt_us / 1000:8.1f} ms")
print(f"  retx ratio   {flow.retx_ratio * 100:8.2f} %")
print(f"  timeouts     {flow.timeouts:8d}")
print(f"  retx bursts  {flow.retx_bursts}")

print()
print("window trajectory, one sample every 10 s")
print(f"  {'t [s]':>6} {'cwnd':>8} {'ssthresh':>9} {'srtt [ms]':>10}")
for row in result.timeseries:
    t_us, _fid, cwnd, ssthresh, srtt = row[:5]
    if t_us % 10_000_000 == 0:
        ss = "inf" if ssthresh == float("inf") else f"{ssthresh:.1f}"
        print(f"  {t_us / 1e6:6.0f} {cwnd:8.2f} {ss:>9} {srtt / 1000:10.1f}")

print()
print("loss responses seen by the sender")
for (t_us, kind, pre, post, _ss) in flow.decreases:
    print(f"  t={t_us / 1e6:6.2f} s  {kind:9s} cwnd {pre:6.2f} -> {post:6.2f}")
