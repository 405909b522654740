"""Congestion controller base: shared slow start, loss response and read-outs.

A law keeps its window in units of `ONE` segment.  The fixed-point laws
use decimal fixed point, `ONE = SCALE` (units of 1e-6 segment).  True
rational arithmetic is not usable here: chaining cwnd += 1/cwnd squares
the denominator on every ACK, so the exact fraction outgrows memory
within a few dozen ACKs.  Integer micro-segments keep every update
exact to one quantum, free of float drift, and printable as a short
decimal.  Cubic's trajectory is a closed-form curve, so it keeps a
float window in segments, `ONE = 1.0`, and nothing else.
"""

from __future__ import annotations

import math

from .params import SCALE, fp_from_segments


class Controller:
    """Uniform interface the transport drives.

    on_ack_growth   new-data cumulative ACK outside loss recovery
    on_ack_observed every ACK including duplicates (bandwidth bookkeeping)
    on_rtt_sample   valid (Karn-filtered) RTT measurement
    on_3dupack      third duplicate ACK: cwnd = ssthresh = the loss window
    on_timeout      retransmission timer expiry: ssthresh = the loss window,
                    cwnd = one segment

    Slow start, that loss response and its floor of one segment are RFC
    5681's, shared by every law and stated here once.  So is building a
    law: `params` defaults to its `PARAMS()`, and both windows pass
    through its `_window_from_segments`.  A law gives two hooks:
    `_avoidance_growth`, its growth past ssthresh, and `_loss_window`,
    the window it keeps after a congestion episode, by default Reno's
    kept fraction `params.b` of the window at the loss.
    """

    __slots__ = ("cwnd", "ssthresh", "params")

    ONE = SCALE   # one segment, in the window's units

    def __init__(self, initial_cwnd: int, initial_ssthresh: float, params=None):
        self.params = params or self.PARAMS()
        self.cwnd = self._window_from_segments(initial_cwnd)
        self.ssthresh = self._window_from_segments(initial_ssthresh)

    @staticmethod
    def _window_from_segments(segments: float) -> int | float:
        # an unbounded ssthresh, math.inf, has no fixed-point value: keep it
        return segments if segments == math.inf else fp_from_segments(segments)

    # representation

    def cwnd_segments(self) -> float:
        return self.cwnd / self.ONE

    def cwnd_floor(self) -> int:
        return self.cwnd // SCALE

    def ssthresh_segments(self) -> float:
        return self.ssthresh / self.ONE

    # events

    def on_ack_growth(self, now_us: int) -> None:
        if self.cwnd < self.ssthresh:
            self.cwnd += self.ONE
        else:
            self._avoidance_growth(now_us)

    def on_ack_observed(self, now_us: int, acked_bytes: int, is_dupack: bool) -> None:
        pass

    def on_rtt_sample(self, now_us: int, rtt_us: int) -> None:
        pass

    def on_3dupack(self, now_us: int) -> None:
        self.cwnd = self.ssthresh = max(self.ONE, self._loss_window())

    def on_timeout(self, now_us: int) -> None:
        self.ssthresh = max(self.ONE, self._loss_window())
        self.cwnd = self.ONE

    # subclass hooks

    def _avoidance_growth(self, now_us: int) -> None:
        # classic AIMD probe: one segment per window of ACKs
        self.cwnd += SCALE * SCALE // self.cwnd

    def _loss_window(self) -> int:
        return self._kept_fraction(self.params.b)

    def _kept_fraction(self, b: tuple[int, int]) -> int:
        num, den = b
        return self.cwnd * num // den


class EpochLaw(Controller):
    """A law whose epoch starts at each fast retransmit: BIC and CUBIC.

    With fast convergence, a loss below the last maximum (`_epoch_max`)
    sets the next one to (1 + kept)/2 of the window at the loss (`_deflated`),
    so a flow losing ground releases share; `_start_epoch` sets the rest.
    A timeout ends the epoch, whose maximum predates the stall: the law grows
    like Reno until the next fast retransmit, and nothing reads the old epoch.
    """

    __slots__ = ("epoch_valid",)

    def __init__(self, initial_cwnd: int, initial_ssthresh: float, params=None):
        super().__init__(initial_cwnd, initial_ssthresh, params)
        self.epoch_valid = False

    def on_3dupack(self, now_us: int) -> None:
        pre = self.cwnd
        converging = self.params.fast_convergence and self.epoch_valid and pre < self._epoch_max()
        super().on_3dupack(now_us)
        self._start_epoch(now_us, self._deflated(pre) if converging else pre)
        self.epoch_valid = True

    def on_timeout(self, now_us: int) -> None:
        super().on_timeout(now_us)
        self.epoch_valid = False
