"""Deterministic simulator for low-latency (L4S) real-time media transport.

Building blocks: a dual-queue coupled AQM with ECN marking, a bottleneck
link emulator with capacity patterns and delay jitter, media endpoints with
playout/stall accounting, and four feedback-driven rate controllers, plus a
harness that reproduces the standard comparison cases.
"""

from .aqm import DropTail, DropTailConfig, DualPi2, DualPi2Config
from .cc import (
    ControllerKind,
    GccController,
    GccParams,
    L4sCcController,
    L4sGccController,
    RateBounds,
    ScalableParams,
    ce_fraction,
    trendline_slope,
)
from .core import EcnCodepoint, FeedbackReport, Packet, SimTime, apply_ce_mark
from .harness import (
    MetricsReport,
    compute_metrics,
    preset_scenario,
    run_comparison,
    scenario_from_dict,
)
from .media import MediaSource, Receiver, SourceConfig
from .netem import (
    CapacityPattern,
    Constant,
    ForwardLink,
    JitterProfile,
    SquareWave,
    TracePattern,
    capacity_at,
    normalize_trace,
    sample_jitter,
)
from .sim import Scenario, TimelineLog, run_scenario

__version__ = "0.1.0"
