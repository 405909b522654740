"""Congestion controller base: shared slow start and window representation.

The window lives in decimal fixed point (units of 1e-6 segment).  True
rational arithmetic is not usable here: chaining cwnd += 1/cwnd squares
the denominator on every ACK, so the exact fraction outgrows memory
within a few dozen ACKs.  Integer micro-segments keep every update
exact to one quantum, free of float drift, and printable as a short
decimal.  Cubic does not use it: its trajectory is a closed-form
curve, so it keeps a float window and nothing else.
"""

from __future__ import annotations

from .params import SCALE, INF_FP, fp_from_segments, fp_to_segments


class Controller:
    """Uniform interface the transport drives.

    on_ack_growth   new-data cumulative ACK outside loss recovery
    on_ack_observed every ACK including duplicates (bandwidth bookkeeping)
    on_rtt_sample   valid (Karn-filtered) RTT measurement
    on_3dupack      third duplicate ACK: cwnd = ssthresh = the loss window
    on_timeout      retransmission timer expiry: ssthresh = the loss window,
                    cwnd = one segment

    That loss response is RFC 5681's, shared by every fixed-point law and
    stated here once.  A law gives two hooks: `_avoidance_growth`, its
    growth past ssthresh, and `_loss_window_fp`, the window it keeps
    after a congestion episode, computed from the window at the loss.
    """

    def __init__(self, initial_cwnd_segments: int, initial_ssthresh_segments: float):
        self.cwnd_fp = initial_cwnd_segments * SCALE
        if initial_ssthresh_segments == float("inf"):
            self.ssthresh_fp = INF_FP
        else:
            self.ssthresh_fp = fp_from_segments(initial_ssthresh_segments)

    # representation

    def cwnd_segments(self) -> float:
        return fp_to_segments(self.cwnd_fp)

    def cwnd_floor(self) -> int:
        return self.cwnd_fp // SCALE

    def ssthresh_segments(self) -> float:
        if self.ssthresh_fp >= INF_FP:
            return float("inf")
        return fp_to_segments(self.ssthresh_fp)

    def in_slow_start(self) -> bool:
        return self.cwnd_fp < self.ssthresh_fp

    # events

    def on_ack_growth(self, now_us: int) -> None:
        if self.cwnd_fp < self.ssthresh_fp:   # in_slow_start(), inlined
            self.cwnd_fp += SCALE
        else:
            self._avoidance_growth(now_us)

    def on_ack_observed(self, now_us: int, acked_bytes: int, is_dupack: bool) -> None:
        pass

    def on_rtt_sample(self, now_us: int, rtt_us: int) -> None:
        pass

    def on_3dupack(self, now_us: int) -> None:
        self.cwnd_fp = self.ssthresh_fp = self._loss_window_fp()

    def on_timeout(self, now_us: int) -> None:
        self.ssthresh_fp = self._loss_window_fp()
        self.cwnd_fp = SCALE

    # subclass hooks

    def _avoidance_growth(self, now_us: int) -> None:
        # classic AIMD probe: one segment per window of ACKs
        self.cwnd_fp += SCALE * SCALE // self.cwnd_fp

    def _loss_window_fp(self) -> int:
        raise NotImplementedError
