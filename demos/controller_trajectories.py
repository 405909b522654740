"""Open-loop window laws, no network attached.

Drives the BIC and Cubic controllers directly with a scripted ACK
clock so their window laws are visible in isolation: BIC's binary
search between the last safe window and the last loss window, and
Cubic's concave-then-convex sweep through the old maximum.
"""

from cclab.cc.bic import Bic
from cclab.cc.cubic import Cubic
from cclab.cc.params import SCALE, BicParams, CubicParams

print("BIC: binary search from cwnd 80 toward the loss point 100")
bic = Bic(2, 1.0, BicParams())
bic.cwnd = 80 * SCALE
bic.ssthresh = SCALE
bic.epoch_valid = True
bic.cwnd_min_fp = 80 * SCALE
bic.cwnd_max_fp = 100 * SCALE

for round_no in range(1, 13):
    bic.on_ack_growth(0)
    while bic._round_left > 0:
        bic.on_ack_growth(0)
    marker = "  <- probing past the old maximum" if bic.max_probing else ""
    print(f"  round {round_no:2d}: cwnd {bic.cwnd / SCALE:10.6f}{marker}")

print()
print("Cubic: trajectory after losing at cwnd 100 (b=0.2, c=0.4)")
cubic = Cubic(2, 200.0, CubicParams(tcp_friendly=False))
cubic.cwnd = 100.0
cubic.ssthresh = 1.0
cubic.on_3dupack(0)
print(f"  loss at 100 -> restart from {cubic.cwnd:.1f}, "
      f"plateau at t=K={cubic.k_seconds:.2f} s")
for tenths in range(0, 2 * round(10 * cubic.k_seconds) + 1, 5):
    t = tenths / 10
    w = cubic.window_at(t)
    bar = "#" * round(w - 75)
    print(f"  t={t:5.1f} s  w={w:7.2f}  {bar}")
print("  concave into the old maximum, convex past it")
