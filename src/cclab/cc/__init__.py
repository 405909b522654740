"""Congestion control variants behind one controller interface."""

from __future__ import annotations

from .base import Controller
from .bic import Bic
from .cubic import Cubic
from .newreno import NewReno
from .params import (BicParams, CubicParams, NewRenoParams, WestwoodParams,
                     SCALE, fp_from_segments)
from .westwood import WestwoodPlus

# each canonical variant name and its law, in table order
LAWS = {"newreno": NewReno, "westwood+": WestwoodPlus, "bic": Bic, "cubic": Cubic}
VARIANTS = tuple(LAWS)

_ALIASES = {"westwood": "westwood+", "westwoodplus": "westwood+"}


def canonical_variant(name: str) -> str:
    key = name.strip().lower()
    key = _ALIASES.get(key, key)
    if key not in VARIANTS:
        raise ValueError(f"unknown variant {name!r}; expected one of {', '.join(VARIANTS)}")
    return key


def make_controller(variant: str, initial_cwnd: int, initial_ssthresh: float,
                    mss: int, params=None) -> Controller:
    law = LAWS[canonical_variant(variant)]
    if law is WestwoodPlus:     # its bandwidth estimate is in bytes, its window in segments
        return law(initial_cwnd, initial_ssthresh, mss, params)
    return law(initial_cwnd, initial_ssthresh, params)


__all__ = [
    "Controller", "NewReno", "WestwoodPlus", "Bic", "Cubic",
    "NewRenoParams", "WestwoodParams", "BicParams", "CubicParams",
    "LAWS", "VARIANTS", "canonical_variant", "make_controller",
    "SCALE", "fp_from_segments",
]
