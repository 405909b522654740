"""Cubic window growth: concave toward the last maximum, then convex.

The window follows w(t) = C * (t - K)^3 + w_max in real time since the
last reduction, with K chosen so the curve starts from the post-loss
window and crosses w_max with zero slope at t = K.  An optional AIMD
shadow window keeps growth at least as fast as a plain TCP flow would
manage (the TCP-friendly region).  The window is a float number of
segments (`ONE = 1.0`, and `float` converts the initial windows), the
controller's only representation of it; construction, slow start, the
loss response and the read-outs are `Controller`'s.  Each curve is an
`EpochLaw` epoch: fast convergence and timeouts are there.
"""

from __future__ import annotations

from ..engine import US_PER_S
from .base import EpochLaw
from .params import CubicParams


class Cubic(EpochLaw):
    __slots__ = ("max_win", "k_seconds", "epoch_start_us", "_w_est")

    ONE = 1.0
    PARAMS = CubicParams
    _window_from_segments = float

    def __init__(self, initial_cwnd: int, initial_ssthresh: float,
                 params: CubicParams | None = None):
        super().__init__(initial_cwnd, initial_ssthresh, params)
        self.max_win = 0.0
        self.k_seconds = 0.0
        self.epoch_start_us = 0

    def cwnd_floor(self) -> int:
        return int(self.cwnd)

    def window_at(self, elapsed_seconds: float) -> float:
        """Closed-form window this many seconds after the last reduction."""
        p = self.params
        return p.c * (elapsed_seconds - self.k_seconds) ** 3 + self.max_win

    def _avoidance_growth(self, now_us: int) -> None:
        if not self.epoch_valid:
            self.cwnd += 1.0 / self.cwnd  # plain AIMD until the first loss
            return
        elapsed = (now_us - self.epoch_start_us) / US_PER_S
        target = self.window_at(elapsed)   # below cwnd (one segment or more) it moves nothing
        if self.params.tcp_friendly:
            b = self.params.b
            self._w_est += (3.0 * b / (2.0 - b)) / self.cwnd
            if self._w_est > target:
                target = self._w_est
        if target > self.cwnd:
            self.cwnd = target

    def _loss_window(self) -> float:
        return (1.0 - self.params.b) * self.cwnd

    def _epoch_max(self) -> float:
        return self.max_win

    def _deflated(self, pre: float) -> float:
        return pre * (2.0 - self.params.b) / 2.0

    def _start_epoch(self, now_us: int, max_win: float) -> None:
        self.max_win = max_win
        self.k_seconds = (max_win * self.params.b / self.params.c) ** (1.0 / 3.0)
        self.epoch_start_us = now_us
        self._w_est = self.cwnd   # the shadow AIMD window starts from the decrease
