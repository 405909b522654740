"""Deterministic laboratory for TCP congestion control over a cellular-style link.

The package simulates a shared bottleneck with link-layer retransmission
and drives several congestion control variants over it under identical,
reproducible conditions.  Entry points:

  run_single   one experiment -> per-flow metrics
  run_matrix   sweep variants x flow counts x scenarios
  cclab        console script wrapping both plus a verification command
"""

from .config import LabConfig, ScenarioSpec, load_config, parse_scenario
from .cc import VARIANTS, make_controller
from .engine import EventLoop, ms, seconds
from .link import BottleneckLink, LinkConfig
from .matrix import run_matrix
from .metrics import (
    FlowMetrics,
    empirical_cdf,
    jain_fairness,
    representative_flow,
)
from .runner import RunResult, run_single
from .transport import TcpReceiver, TcpSender, TransportConfig

__version__ = "0.1.0"

__all__ = [
    "BottleneckLink",
    "EventLoop",
    "FlowMetrics",
    "LabConfig",
    "LinkConfig",
    "RunResult",
    "ScenarioSpec",
    "TcpReceiver",
    "TcpSender",
    "TransportConfig",
    "VARIANTS",
    "empirical_cdf",
    "jain_fairness",
    "load_config",
    "make_controller",
    "ms",
    "parse_scenario",
    "representative_flow",
    "run_matrix",
    "run_single",
    "seconds",
    "__version__",
]
