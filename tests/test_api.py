"""The public surface: the package's __all__, the names deleted from it,
the names the benchmark harness in perfbench/ looks up, and a check that
src/mcmcast holds no unused import, private name, public name, parameter
or parameter default.

The harness wraps names on mcmcast.engine and mcmcast.cli to time each
layer and silently skips a name it cannot find, so a rename or removal
here would zero a per-layer metric without failing anything else.  The
test below reads the harness's own list of names, so it fails instead.
"""

import ast
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import mcmcast
from mcmcast import channel, cli, coverage, engine, topology, traffic

PUBLIC = {
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
}

# The single-instance solver layer and the test-only oracles, which live
# in tests/oracles.py; the (B, C, N, M) kernels are the allocation API.
# No program read the raw log back (metrics_from_log) or drew SNRs in dB
# (snr_block); the tests parse the log and evaluate the dB expression.
# A drop's channel is three functions of channel, not a ChannelModel, and
# its association is topology.associate of its distances, not a mode's
# eligibility mask.
DELETED = (
    "CoverageInstance", "CoverageResult", "evaluate", "_result",
    "solve_cga", "solve_cga_trace", "solve_dga", "solve_sc", "solve_mbsfn",
    "solve_exact", "McpInstance", "reduce_mcp", "map_solution",
    "rate_from_snr", "snr_subframe", "TraceSchedule",
    "metrics_from_log", "snr_block", "ChannelModel", "eligibility",
)

ROOT = Path(__file__).resolve().parents[1]
HARNESS = ROOT / "perfbench" / "harness.py"

# What perfbench/workloads.py, harness.py and setup_probe.py call on the
# root package.
BENCHMARK_ROOT_NAMES = (
    "POLICIES", "SimConfig", "compare_policies", "write_synthetic_trace",
    "parse_trace", "schedule_from_trace", "schedule_constant",
)

# The (owner, attribute) pairs of the harness's _TARGETS that it wraps:
# the layers it times.
WRAPPED = {
    ("engine", "build_hex7"),
    ("engine", "parse_trace"),
    ("engine", "schedule_constant"),
    ("engine", "schedule_from_trace"),
    ("cli", "write_synthetic_trace"),
    ("cli", "compare_policies"),
    ("cli", "log_to_csv"),
    ("cli", "summary_to_json"),
    ("cli", "_write"),
}

# The pairs that name what earlier refactors removed, so the harness skips
# them and their per-layer metrics read zero (ROADMAP item 1).
UNWRAPPED = {
    ("engine", "connectivity_mode"),
    ("engine.ChannelModel", "__init__"),
    ("engine.ChannelModel", "draw_shadowing"),
    ("engine.ChannelModel", "sample_subframe"),
    ("engine", "build_instance"),
    ("engine", "solve_cga"),
    ("engine", "solve_dga"),
    ("engine", "solve_sc"),
    ("engine", "solve_mbsfn"),
    ("engine", "solve_exact"),
}


def test_all_is_pinned_and_every_name_resolves():
    assert len(mcmcast.__all__) == len(PUBLIC) == 25
    assert set(mcmcast.__all__) == PUBLIC
    for name in mcmcast.__all__:
        assert getattr(mcmcast, name) is not None, name


def test_policies_are_pinned_in_order():
    # The CLI's --policy choices and the harness's per-layer names follow
    # this order.
    assert mcmcast.POLICIES == ("cga", "dga", "sc", "mbsfn", "exact")


@pytest.mark.parametrize(
    "owner", [mcmcast, coverage, channel, topology, traffic, engine],
    ids=lambda owner: owner.__name__,
)
def test_deleted_names_are_gone(owner):
    assert [name for name in DELETED if hasattr(owner, name)] == []


def _wrapped(owner_path: str, attr: str) -> bool:
    """Whether the harness wraps attr: its owner is looked up as
    harness._owner looks it up, and the Tracer skips a missing one."""
    owner = {"engine": engine, "cli": cli}[owner_path.split(".")[0]]
    for part in owner_path.split(".")[1:]:
        owner = getattr(owner, part, None)
    return owner is not None and getattr(owner, attr, None) is not None


def test_names_the_benchmark_harness_needs_exist():
    missing = [name for name in BENCHMARK_ROOT_NAMES if not hasattr(mcmcast, name)]
    assert not missing, missing
    # Read from the file rather than imported: the harness imports its
    # sibling modules, which only perfbench's own sys.path finds.
    targets = _literal(ast.parse(HARNESS.read_text(encoding="utf-8")), "_TARGETS")
    pairs = {(owner, attr) for owner, attr, _ in targets}
    assert len(pairs) == len(targets) == len(WRAPPED) + len(UNWRAPPED) == 19
    assert {pair for pair in pairs if _wrapped(*pair)} == WRAPPED
    assert {pair for pair in pairs if not _wrapped(*pair)} == UNWRAPPED


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
NO_SCIPY_CHILD = textwrap.dedent("""
    import json, math, sys
    import mcmcast.cli
    from mcmcast import SimConfig, compare_policies, summary_dict

    def scipy_loaded():
        return sorted(m for m in sys.modules
                      if m == "scipy" or m.startswith("scipy."))

    assert mcmcast.cli.main(
        ["run", "--preset", "fig4_dist_vs_central", "--drops", "2",
         "--subframes", "20", "--out", "o"]) == 0
    with open("o/summary.json", encoding="utf-8") as f:
        assert "paired_pvalues" in json.load(f)
    assert not scipy_loaded(), scipy_loaded()[:3]
    # A wide radius leaves users unserved, so the statistics are not the
    # early returns for identical policies or a single drop.
    config = SimConfig(ues_per_cell=4, radius_m=800.0, horizon=10,
                       num_drops=2, seed=3)
    summary = summary_dict(compare_policies(config, ("cga", "mbsfn")))
    assert not scipy_loaded(), scipy_loaded()[:3]
    for metrics in summary["metrics"].values():
        assert math.isfinite(metrics["ci95_halfwidth"]), summary
        assert metrics["ci95_halfwidth"] > 0, summary
    assert summary["paired_pvalues"], summary
    for pvalue in summary["paired_pvalues"].values():
        assert math.isfinite(pvalue) and 0 < pvalue < 1, summary
""")


def test_no_run_or_summary_loads_scipy(tmp_path):
    proc = subprocess.run([sys.executable, "-c", NO_SCIPY_CHILD], cwd=tmp_path,
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


def _literal(tree: ast.Module, name: str):
    """The literal value a module assigns to name at its top level, or
    None."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == name for t in node.targets):
            return ast.literal_eval(node.value)
    return None


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
    somewhere in src/mcmcast or perfbench/, the programs, so dead code
    cannot come back unnoticed.  A read from tests/ does not count: code
    only its own tests run is dead code."""
    trees = _parsed(Path(mcmcast.__file__).parent)
    read_anywhere = set().union(*map(_read_names, trees.values()))
    read_by_programs = read_anywhere.union(
        *map(_read_names, _parsed(ROOT / "perfbench").values()))
    dead = []
    for module, tree in trees.items():
        used = _read_names(tree) | set(_literal(tree, "__all__") or ())
        for node in tree.body:
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    bound = alias.asname or alias.name.split(".")[0]
                    if bound not in used:
                        dead.append(f"{module}: import {bound}")
        for name in _module_defs(tree):
            readers = read_anywhere if name.startswith("_") else read_by_programs
            if name not in readers:
                dead.append(f"{module}: {name}")
    assert not dead, dead


# schedule_constant's subframe_s is passed by perfbench/setup_probe.py, a
# file of the benchmark, so it stays until the benchmark's own change
# (ROADMAP item 1) stops passing it.
UNREAD_PARAMETERS = {("traffic.py", "schedule_constant", "subframe_s")}


def test_every_parameter_is_read():
    """The stand-in linter's other half: every parameter of every function
    or lambda in src/mcmcast is read by its body, nested functions
    included, so an argument no code needs cannot linger."""
    unread = set()
    for module, tree in _parsed(Path(mcmcast.__file__).parent).items():
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            args = node.args
            params = args.posonlyargs + args.args + args.kwonlyargs + [
                arg for arg in (args.vararg, args.kwarg) if arg]
            body = [node.body] if isinstance(node, ast.Lambda) else node.body
            read = {n.id for stmt in body for n in ast.walk(stmt)
                    if isinstance(n, ast.Name) and not isinstance(n.ctx, ast.Store)}
            unread |= {(module, getattr(node, "name", "<lambda>"), p.arg)
                       for p in params if p.arg not in read}
    assert unread == UNREAD_PARAMETERS


# The parameter defaults of src/mcmcast, each with the program call that
# omits it.  Every other setting is passed by its caller, and its default
# is declared once: on SimConfig, on ChannelParams or in the CLI parser.
DEFAULTS = {
    ("cli.py", "main", "argv"): "the console script calls main()",
    ("coverage.py", "check_exact_cap", "cap"): "oracle-check relies on it",
    ("coverage.py", "exact_block", "cap"): "oracle-check relies on it",
    ("traffic.py", "schedule_from_trace", "length"):
        "perfbench/setup_probe.py omits it until ROADMAP item 1",
}


def test_every_default_serves_a_program():
    """The stand-in linter's third part: a parameter default in
    src/mcmcast that no program call relies on repeats a setting declared
    elsewhere or hides a branch, so the defaults are pinned to DEFAULTS."""
    found = set()
    for module, tree in _parsed(Path(mcmcast.__file__).parent).items():
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            args = node.args
            positional = args.posonlyargs + args.args
            with_default = positional[len(positional) - len(args.defaults):] + [
                arg for arg, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
            found |= {(module, getattr(node, "name", "<lambda>"), arg.arg)
                      for arg in with_default}
    assert found == set(DEFAULTS)
