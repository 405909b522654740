"""NewReno-style AIMD: halve on congestion, probe one segment per RTT."""

from __future__ import annotations

from .base import Controller
from .params import NewRenoParams


class NewReno(Controller):
    __slots__ = ("params",)

    def __init__(self, initial_cwnd: int, initial_ssthresh: float,
                 params: NewRenoParams | None = None):
        super().__init__(initial_cwnd, initial_ssthresh)
        self.params = params or NewRenoParams()

    def _loss_window(self) -> int:
        num, den = self.params.b
        return self.cwnd * num // den
