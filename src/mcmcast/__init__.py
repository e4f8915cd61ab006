"""Multi-connectivity multicast PRB allocation: allocation kernels, channel
model, seven-cell scenario builder, trace-driven traffic, and simulation
engine."""

from .channel import DEFAULT_RATE_TABLE, ChannelParams, path_loss, snr
from .coverage import (
    EXACT_DEFAULT_CAP,
    GREEDY_BOUND,
    CapExceededError,
    random_instance,
)
from .engine import (
    POLICIES,
    Metrics,
    RunOutput,
    SimConfig,
    compare_policies,
    log_to_csv,
    paired_one_sided_pvalue,
    summary_dict,
    sweep,
    sweep_to_csv,
)
from .topology import NetworkScenario, build_hex7
from .traffic import (
    TraceParseError,
    parse_trace,
    schedule_constant,
    schedule_from_trace,
    write_synthetic_trace,
)

__version__ = "0.1.0"

__all__ = [
    "CapExceededError",
    "ChannelParams",
    "DEFAULT_RATE_TABLE",
    "EXACT_DEFAULT_CAP",
    "GREEDY_BOUND",
    "Metrics",
    "NetworkScenario",
    "POLICIES",
    "RunOutput",
    "SimConfig",
    "TraceParseError",
    "build_hex7",
    "compare_policies",
    "log_to_csv",
    "paired_one_sided_pvalue",
    "parse_trace",
    "path_loss",
    "random_instance",
    "schedule_constant",
    "schedule_from_trace",
    "snr",
    "summary_dict",
    "sweep",
    "sweep_to_csv",
    "write_synthetic_trace",
]
