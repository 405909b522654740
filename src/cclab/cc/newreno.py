"""NewReno-style AIMD, all `Controller`'s: probe one segment per RTT, keep b on loss."""

from __future__ import annotations

from .base import Controller
from .params import NewRenoParams


class NewReno(Controller):
    __slots__ = ()

    PARAMS = NewRenoParams
