"""The public surface: the package's __all__, the names deleted from it,
the names the benchmark harness in perfbench/ looks up, and a check that
src/mcmcast holds no unused import, private name or public name.

The harness wraps names on mcmcast.engine and mcmcast.cli to time each
layer and silently skips a name it cannot find, so a rename or removal
here would zero a per-layer metric without failing anything else.
"""

import ast
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import mcmcast
import mcmcast.cli
import mcmcast.engine
from mcmcast import channel, cli, coverage, engine, topology, traffic

PUBLIC = {
    "CapExceededError",
    "ChannelModel",
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
    "metrics_from_log",
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
}

# The single-instance solver layer and the test-only oracles, which live
# in tests/oracles.py; the (B, C, N, M) kernels are the allocation API.
DELETED = (
    "CoverageInstance", "CoverageResult", "evaluate", "_result",
    "solve_cga", "solve_cga_trace", "solve_dga", "solve_sc", "solve_mbsfn",
    "solve_exact", "McpInstance", "reduce_mcp", "map_solution",
    "rate_from_snr", "snr_subframe", "TraceSchedule",
)

# What perfbench/ reaches, per owner.  The solver names on mcmcast.engine
# are the block kernels the engine calls; the tracer's solve_* spans read
# zero samples until it wraps these.
BENCHMARK_NAMES = {
    mcmcast: (
        "POLICIES", "SimConfig", "compare_policies", "write_synthetic_trace",
        "parse_trace", "schedule_from_trace", "schedule_constant",
    ),
    mcmcast.engine: (
        "build_hex7", "ChannelModel", "cga_block", "dga_block", "mbsfn_block",
        "exact_block", "served_block", "parse_trace", "schedule_constant",
        "schedule_from_trace",
    ),
    mcmcast.engine.ChannelModel: ("__init__", "draw_shadowing"),
    mcmcast.cli: (
        "main", "build_parser", "write_synthetic_trace", "compare_policies",
        "log_to_csv", "summary_to_json", "_write",
    ),
}


def test_all_is_pinned_and_every_name_resolves():
    assert len(mcmcast.__all__) == len(PUBLIC) == 27
    assert set(mcmcast.__all__) == PUBLIC
    for name in mcmcast.__all__:
        assert getattr(mcmcast, name) is not None, name


def test_policies_are_pinned_in_order():
    # The CLI's --policy choices and the harness's per-layer names follow
    # this order.
    assert mcmcast.POLICIES == ("cga", "dga", "sc", "mbsfn", "exact")


@pytest.mark.parametrize(
    "owner", [mcmcast, coverage, channel, channel.ChannelModel, traffic],
    ids=lambda owner: owner.__name__,
)
def test_deleted_names_are_gone(owner):
    assert [name for name in DELETED if hasattr(owner, name)] == []


def test_names_the_benchmark_harness_needs_exist():
    for owner, names in BENCHMARK_NAMES.items():
        missing = [name for name in names if not hasattr(owner, name)]
        assert not missing, (owner.__name__, missing)


@pytest.mark.parametrize(
    "module", [channel, coverage, topology, traffic, engine, cli],
    ids=lambda module: module.__name__,
)
def test_every_submodule_all_name_resolves(module):
    assert len(set(module.__all__)) == len(module.__all__)
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert not missing, missing


# Runs in a fresh interpreter, since this test process has long since
# imported scipy.  PYTHONPATH comes from conftest.
LAZY_SCIPY_CHILD = textwrap.dedent("""
    import math, sys
    import mcmcast, mcmcast.cli
    from mcmcast import SimConfig, compare_policies, summary_dict

    def scipy_loaded():
        return sorted(m for m in sys.modules
                      if m == "scipy" or m.startswith("scipy."))

    mcmcast.cli.build_parser().parse_args(
        ["run", "--preset", "fig4_dist_vs_central", "--out", "o"])
    assert not scipy_loaded(), scipy_loaded()[:3]
    # A wide radius leaves users unserved, so the statistics are not the
    # early returns for identical policies.
    config = SimConfig(ues_per_cell=4, radius_m=800.0, horizon=10,
                       num_drops=2, seed=3)
    output = compare_policies(config, ("cga", "mbsfn"))
    assert not scipy_loaded(), scipy_loaded()[:3]

    summary = summary_dict(output)
    assert "scipy.special" in sys.modules
    assert "scipy.stats" not in sys.modules
    for metrics in summary["metrics"].values():
        assert math.isfinite(metrics["ci95_halfwidth"]), summary
        assert metrics["ci95_halfwidth"] > 0, summary
    assert summary["paired_pvalues"], summary
    for pvalue in summary["paired_pvalues"].values():
        assert math.isfinite(pvalue) and 0 <= pvalue < 1, summary
""")


def test_scipy_is_loaded_only_for_a_summary_statistic():
    proc = subprocess.run([sys.executable, "-c", LAZY_SCIPY_CHILD],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def _read_names(tree: ast.AST) -> set[str]:
    """Every name a tree reads, bare or as an attribute."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def _all_of(tree: ast.Module) -> set[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            return set(ast.literal_eval(node.value))
    return set()


def _module_defs(tree: ast.Module) -> set[str]:
    """The functions, classes and assigned names at a module's top level,
    dunders aside."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names |= {t.id for t in targets if isinstance(t, ast.Name)}
    return {n for n in names if not (n.startswith("__") and n.endswith("__"))}


def _parsed(directory: Path) -> dict[str, ast.Module]:
    return {path.name: ast.parse(path.read_text(encoding="utf-8"))
            for path in sorted(directory.glob("*.py"))}


def test_no_unused_import_or_private_name():
    """A stand-in for a linter: every module-level import is used in its
    module, every module-level _private name is read somewhere in
    src/mcmcast, and every public function, class or constant is read
    somewhere in src/mcmcast, tests/ or perfbench/, so dead code cannot
    come back unnoticed."""
    trees = _parsed(Path(mcmcast.__file__).parent)
    read_anywhere = set().union(*map(_read_names, trees.values()))
    root = Path(__file__).resolve().parents[1]
    read_by_anyone = read_anywhere.union(*(
        _read_names(tree) for folder in ("tests", "perfbench")
        for tree in _parsed(root / folder).values()))
    dead = []
    for module, tree in trees.items():
        used = _read_names(tree) | _all_of(tree)
        for node in tree.body:
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    bound = alias.asname or alias.name.split(".")[0]
                    if bound not in used:
                        dead.append(f"{module}: import {bound}")
        for name in _module_defs(tree):
            if name not in (read_anywhere if name.startswith("_") else read_by_anyone):
                dead.append(f"{module}: {name}")
    assert not dead, dead
