"""The public surface: the package's __all__ and the names the benchmark
harness in perfbench/ looks up.

The harness wraps names on mcmcast.engine and mcmcast.cli to time each
layer and silently skips a name it cannot find, so a rename or removal
here would zero a per-layer metric without failing anything else.
"""

import mcmcast
import mcmcast.cli
import mcmcast.engine

PUBLIC = {
    "Allocation",
    "CapExceededError",
    "ChannelModel",
    "ChannelParams",
    "CoverageInstance",
    "CoverageResult",
    "DEFAULT_RATE_TABLE",
    "EXACT_DEFAULT_CAP",
    "GREEDY_BOUND",
    "McpInstance",
    "Metrics",
    "NetworkScenario",
    "POLICIES",
    "RunOutput",
    "SimConfig",
    "TraceParseError",
    "TraceSchedule",
    "build_hex7",
    "compare_policies",
    "evaluate",
    "log_to_csv",
    "map_solution",
    "metrics_from_log",
    "paired_one_sided_pvalue",
    "parse_trace",
    "path_loss",
    "random_instance",
    "rate_from_snr",
    "reduce_mcp",
    "schedule_constant",
    "schedule_from_trace",
    "snr",
    "solve_cga",
    "solve_cga_trace",
    "solve_dga",
    "solve_exact",
    "solve_mbsfn",
    "solve_sc",
    "summary_dict",
    "sweep",
    "sweep_to_csv",
    "write_synthetic_trace",
}

# What perfbench/ reaches, per owner.
BENCHMARK_NAMES = {
    mcmcast: (
        "POLICIES", "SimConfig", "compare_policies", "write_synthetic_trace",
        "parse_trace", "schedule_from_trace", "schedule_constant",
    ),
    mcmcast.engine: (
        "build_hex7", "ChannelModel", "solve_cga", "solve_dga", "solve_sc",
        "solve_mbsfn", "solve_exact", "parse_trace", "schedule_constant",
        "schedule_from_trace",
    ),
    mcmcast.engine.ChannelModel: ("__init__", "draw_shadowing"),
    mcmcast.cli: (
        "main", "build_parser", "write_synthetic_trace", "compare_policies",
        "log_to_csv", "summary_to_json", "_write",
    ),
}


def test_all_is_pinned_and_every_name_resolves():
    assert len(mcmcast.__all__) == len(PUBLIC)
    assert set(mcmcast.__all__) == PUBLIC
    for name in mcmcast.__all__:
        assert getattr(mcmcast, name) is not None, name


def test_names_the_benchmark_harness_needs_exist():
    for owner, names in BENCHMARK_NAMES.items():
        missing = [name for name in names if not hasattr(owner, name)]
        assert not missing, (owner.__name__, missing)
