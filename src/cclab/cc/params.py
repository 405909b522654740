"""Per-variant tuning knobs and fixed-point helpers."""

from __future__ import annotations

from dataclasses import dataclass

SCALE = 1_000_000          # fixed-point quanta per segment


def fp_from_segments(segments: float) -> int:
    return round(segments * SCALE)


@dataclass
class NewRenoParams:
    b: tuple[int, int] = (1, 2)     # multiplicative decrease, (num, den)


@dataclass
class WestwoodParams:
    filter_gain: float = 0.9        # weight kept by the old estimate
    min_interval_us: int = 50_000   # BWE sampling floor
    fallback_b: tuple[int, int] = (1, 2)  # used before the first bandwidth sample


@dataclass
class BicParams:
    b: tuple[int, int] = (4, 5)     # 0.8
    s_max: float = 32.0     # segments per RTT, linear-increase clamp
    s_min: float = 0.01     # segments, binary-search convergence threshold
    low_window: float = 14.0
    probe_start: float = 0.01  # first step beyond cwnd_max, mirrors the S_min finish
    fast_convergence: bool = True


@dataclass
class CubicParams:
    c: float = 0.4
    b: float = 0.2          # fraction of the window given up on loss
    tcp_friendly: bool = True
    fast_convergence: bool = True
