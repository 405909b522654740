"""Binary increase congestion control.

After a loss the window binary-searches between the reduced window and
the pre-loss maximum: jump to the midpoint when it is near, move by
S_max when it is far, and declare convergence once the step would fall
under S_min.  Past the old maximum the search turns around (max
probing): first a small step, then doubling, then linear at S_max.
Below a low-window threshold the variant degrades to plain AIMD.  Each
search is an `EpochLaw` epoch: fast convergence and timeouts are there.
"""

from __future__ import annotations

from .base import EpochLaw
from .params import SCALE, BicParams, fp_from_segments


class Bic(EpochLaw):
    __slots__ = ("_s_max_fp", "_s_min_fp", "_low_window_fp", "_probe_start_fp",
                 "cwnd_max_fp", "cwnd_min_fp", "max_probing",
                 "_probe_gap_fp", "_round_left", "_round_target_fp", "_per_ack_fp")

    PARAMS = BicParams

    def __init__(self, initial_cwnd: int, initial_ssthresh: float,
                 params: BicParams | None = None):
        super().__init__(initial_cwnd, initial_ssthresh, params)
        p = self.params
        self._s_max_fp = fp_from_segments(p.s_max)
        self._s_min_fp = fp_from_segments(p.s_min)
        self._low_window_fp = fp_from_segments(p.low_window)
        self._probe_start_fp = fp_from_segments(p.probe_start)
        self.cwnd_max_fp = 0
        self.cwnd_min_fp = 0
        self.max_probing = False
        self._probe_gap_fp = self._probe_start_fp
        self._round_left = 0   # _begin_round sets the target and the step

    # growth

    def _avoidance_growth(self, now_us: int) -> None:
        if not self.epoch_valid or self.cwnd < self._low_window_fp:
            self.cwnd += SCALE * SCALE // self.cwnd
            return
        if self._round_left == 0:
            self._begin_round()
        self.cwnd += self._per_ack_fp
        self._round_left -= 1
        if self._round_left == 0:
            self._finish_round()

    def _begin_round(self) -> None:
        if not self.max_probing:
            midpoint = (self.cwnd_min_fp + self.cwnd_max_fp) // 2
            if midpoint - self.cwnd <= self._s_min_fp:
                # binary search has converged; turn the search around
                self.cwnd = self.cwnd_max_fp
                self.max_probing = True
                self._probe_gap_fp = self._probe_start_fp
            elif midpoint - self.cwnd <= self._s_max_fp:
                self._round_target_fp = midpoint
            else:
                self._round_target_fp = self.cwnd + self._s_max_fp
        if self.max_probing:
            self._round_target_fp = min(self.cwnd_max_fp + self._probe_gap_fp,
                                        self.cwnd + self._s_max_fp)
        self._round_left = max(1, self.cwnd // SCALE)
        step = self._round_target_fp - self.cwnd
        self._per_ack_fp = step // self._round_left if step > 0 else 0

    def _finish_round(self) -> None:
        if self._round_target_fp > self.cwnd:
            self.cwnd = self._round_target_fp  # absorb integer-division residue
        if self.max_probing:
            self._probe_gap_fp *= 2
        self.cwnd_min_fp = self.cwnd  # the reached window becomes the new minimum

    # decreases

    def _loss_window(self) -> int:
        if self.cwnd < self._low_window_fp:
            return self._kept_fraction((1, 2))
        return super()._loss_window()

    def _epoch_max(self) -> int:
        return self.cwnd_max_fp

    def _deflated(self, pre: int) -> int:
        num, den = self.params.b
        return pre * (num + den) // (2 * den)

    def _start_epoch(self, now_us: int, max_fp: int) -> None:
        self.cwnd_max_fp = max_fp   # when probing, the reached window is the new max
        self.cwnd_min_fp = self.cwnd
        self.max_probing = False
        self._round_left = 0
