"""Westwood+: set the window from estimated bandwidth times minimum RTT.

The sender counts returning ACKs (duplicates stand in for one delivered
segment) and closes a sample interval no shorter than max(RTT_min,
50 ms).  Each sample feeds a low-pass filter; empty intervals decay the
estimate.  On congestion the window collapses to BWE * RTT_min, which
is just enough to keep the pipe full with the bottleneck queue empty.
"""

from __future__ import annotations

from ..engine import US_PER_S
from .base import Controller
from .params import WestwoodParams, fp_from_segments


class WestwoodPlus(Controller):
    __slots__ = ("mss", "bwe_bytes_per_s", "rtt_min_us", "interval_us",
                 "_interval_start_us", "_acked_in_interval")

    PARAMS = WestwoodParams

    def __init__(self, initial_cwnd: int, initial_ssthresh: float, mss: int,
                 params: WestwoodParams | None = None):
        super().__init__(initial_cwnd, initial_ssthresh, params)
        self.mss = mss
        self.bwe_bytes_per_s: float | None = None
        self.rtt_min_us: int | None = None
        # the sample interval, max(RTT_min, floor): moves only with RTT_min
        self.interval_us = self.params.min_interval_us
        self._interval_start_us: int | None = None
        self._acked_in_interval = 0

    # bandwidth estimation

    def _push_sample(self, sample: float) -> None:
        gain = self.params.filter_gain
        if self.bwe_bytes_per_s is None:
            self.bwe_bytes_per_s = sample
        else:
            self.bwe_bytes_per_s = gain * self.bwe_bytes_per_s + (1.0 - gain) * sample

    def on_ack_observed(self, now_us: int, acked_bytes: int, is_dupack: bool) -> None:
        if self._interval_start_us is None:
            self._interval_start_us = now_us
        interval = self.interval_us
        # close every elapsed interval first; gaps contribute zero samples
        while now_us - self._interval_start_us >= interval:
            sample = self._acked_in_interval * US_PER_S / interval
            self._push_sample(sample)
            self._acked_in_interval = 0
            self._interval_start_us += interval
        if is_dupack:
            # a duplicate ACK still means one segment left the network
            self._acked_in_interval += self.mss
        else:
            self._acked_in_interval += acked_bytes

    def on_rtt_sample(self, now_us: int, rtt_us: int) -> None:
        if self.rtt_min_us is None or rtt_us < self.rtt_min_us:
            self.rtt_min_us = rtt_us
            self.interval_us = max(rtt_us, self.params.min_interval_us)

    # the loss window

    def _loss_window(self) -> int:
        if self.bwe_bytes_per_s is None or self.rtt_min_us is None:
            # no bandwidth sample yet: fall back to a fixed factor
            return self._kept_fraction(self.params.fallback_b)
        # BWE * RTT_min is kept as computed, even above the pre-loss window
        segments = self.bwe_bytes_per_s * (self.rtt_min_us / US_PER_S) / self.mss
        return fp_from_segments(segments)
