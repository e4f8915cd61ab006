"""Command-line entry point: named experiment presets, a sweep preset's
grid run by one engine.sweep call, plus a brute-force oracle self-check.

Exit codes: 0 success, 1 oracle-check bound violated, 2 bad configuration,
3 trace parse failure, 4 exact-search cap exceeded.
"""

from __future__ import annotations

import argparse
import functools
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from .channel import typed_fields
from .coverage import (
    GREEDY_BOUND, CapExceededError, cga_block, check_exact_cap, exact_block, pack,
    random_instance, served_block)
from .engine import (
    DGA_COUNTS, POLICIES, SimConfig, _plan, compare_policies, log_to_csv,
    summary_to_json, sweep, sweep_to_csv)
from .traffic import TraceParseError, read_lines, write_synthetic_trace

__all__ = ["main", "build_parser", "PRESETS"]

# Each preset bundles default overrides; explicit flags still win.  A sweep
# preset runs its grid, axis -> values; any other compares its policies.
PRESETS: dict[str, dict] = {
    "fig4_dist_vs_central": {
        "policies": ("cga", "dga"),
        "overrides": {"radius_m": 500.0, "horizon": 1000, "num_drops": 5},
    },
    "fig5_packets_sweep": {
        "sweep": {"users_per_cell": (5, 10, 20, 40),
                  "radius": (250.0, 500.0, 750.0, 1000.0)},
        "policies": ("cga", "sc"),
        "overrides": {"radius_m": 1000.0, "horizon": 500, "num_drops": 3},
    },
    "fig7_trace_mc_vs_sc": {
        "policies": ("cga", "sc"),
        "overrides": {"radius_m": 1000.0, "horizon": 1000, "num_drops": 3},
        "synthetic_trace": True,
    },
    "fig8_mbsfn_vs_mc": {
        "policies": ("cga", "mbsfn"),
        "overrides": {"radius_m": 1000.0, "horizon": 1000, "num_drops": 3},
    },
    "custom": {},
}
# Fig. 6 reads the unserved-per-cell column of the same sweeps as Fig. 5.
PRESETS["fig6_unserved_sweep"] = PRESETS["fig5_packets_sweep"]

# The SimConfig-backed `run` settings, each both a flag (--key with dashes)
# and a --config key: key -> (SimConfig field, add_argument extras).  A
# setting parses as its field's annotated int, float or bool, else as a str.
_FIELDS: dict[str, tuple[str, dict]] = {
    "policy": ("policy", {"choices": POLICIES}),
    "seed": ("seed", {}),
    "ues": ("ues_per_cell", {"help": "UEs per cell"}),
    "radius": ("radius_m", {"help": "cell radius in meters"}),
    "subframes": ("horizon", {"help": "horizon in sub-frames"}),
    "trace": ("trace_path", {"help": "video trace file path"}),
    "fps": ("fps", {}),
    "rate": ("rate_bits", {"help": "constant bits per sub-frame"}),
    "edge_threshold": ("edge_threshold", {}),
    "dga_count": ("dga_count", {"choices": DGA_COUNTS}),
    "drops": ("num_drops", {"help": "independent UE placements"}),
    "prbs": ("num_prbs", {"help": "PRBs per cell"}),
    "burst": ("burst", {"help": "deliver each video frame in its first sub-frame"}),
}


@functools.cache  # parse_args leaves the parser as it was
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mcmcast",
        description="Multi-connectivity multicast allocation experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run an experiment preset")
    run.add_argument("--preset", default="custom", choices=sorted(PRESETS))
    for key, (field, extras) in _FIELDS.items():
        flag, typ = "--" + key.replace("_", "-"), typed_fields(SimConfig).get(field, str)
        if typ is bool:  # a bare switch; None leaves the lower layers' value
            run.add_argument(flag, action="store_true", default=None, **extras)
        else:
            run.add_argument(flag, type=typ, **extras)
    run.add_argument("--out", default="out", help="output directory")
    run.add_argument("--config", help="flat key=value config file")

    oracle = sub.add_parser("oracle-check",
                            help="greedy-vs-exact bound self-check")
    oracle.add_argument("--instances", type=int, default=200)
    oracle.add_argument("--max-users", type=int, default=12)
    oracle.add_argument("--max-cells", type=int, default=4)
    oracle.add_argument("--max-prbs", type=int, default=4)
    oracle.add_argument("--seed", type=int, default=1)
    return parser


def _parse_config_file(path: str) -> dict[str, str]:
    pairs: dict[str, str] = {}
    for lineno, raw in enumerate(read_lines(path, ValueError), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise ValueError(f"{path}:{lineno}: expected key=value, got {line!r}")
        pairs[key.strip().replace("-", "_")] = value.strip()
    return pairs


def _coerce(key: str, value: str):
    field, _ = _FIELDS[key]
    typ = typed_fields(SimConfig).get(field, str)
    if typ is bool:
        if value.lower() in ("1", "true", "yes", "on"):
            return field, True
        if value.lower() in ("0", "false", "no", "off"):
            return field, False
        raise ValueError(f"bad boolean for {key}: {value!r}")
    try:
        return field, typ(value)
    except ValueError:  # int or float; a str field takes any value
        kind = "integer" if typ is int else "real number"
        raise ValueError(f"bad {kind} for {key}: {value!r}") from None


def _build_config(
    args: argparse.Namespace,
) -> tuple[SimConfig, dict, tuple[str, ...]]:
    """Defaults < preset < config file < flags.  The policies are the
    preset's own list unless the file or a flag names a policy."""
    preset = PRESETS[args.preset]
    overrides: dict = dict(preset.get("overrides", {}))
    if args.config:
        for key, value in _parse_config_file(args.config).items():
            if key not in _FIELDS:
                raise ValueError(f"unknown config key {key!r}")
            field, parsed = _coerce(key, value)
            overrides[field] = parsed
    for key, (field, *_) in _FIELDS.items():
        value = getattr(args, key, None)
        if value is not None:
            overrides[field] = value
    config = SimConfig(**overrides)
    if "policy" in overrides:
        return config, preset, (config.policy,)
    return config, preset, preset.get("policies", (config.policy,))


def _write(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text, encoding="utf-8")


def _cmd_run(args: argparse.Namespace) -> int:
    config, preset, policies = _build_config(args)
    out = Path(args.out)
    grid = preset.get("sweep")
    # A run that cannot start writes nothing.  Every run plans, and so
    # checks, before it simulates, and artifacts are written once it has
    # run, so a plain run and a sweep are their own checks.  A synthesized
    # trace is written before its run, so that run is planned first
    if preset.get("synthetic_trace") and config.trace_path is None:
        _plan(config, policies)
        out.mkdir(parents=True, exist_ok=True)
        trace = write_synthetic_trace(str(out / "trace.txt"), seed=config.seed)
        config = replace(config, trace_path=trace)

    if grid:
        tables = sweep(config, grid, policies)
        # Each axis's CSV and printed name is its first word: sweep_users.csv
        names = {axis: axis.split("_")[0] for axis in grid}
        for axis, table in tables.items():
            _write(out / f"sweep_{names[axis]}.csv", sweep_to_csv(axis, table))
        _write(out / "summary.json", summary_to_json(tables["users_per_cell"][-1][1]))
        print(f"{args.preset}: policies={','.join(policies)} "
              + " ".join(f"{names[a]}={[int(v) for v in grid[a]]}" for a in grid)
              + " -> " + ", ".join(f"{out}/sweep_{n}.csv" for n in names.values()))
        return 0

    output = compare_policies(config, policies)
    for policy in policies:
        _write(out / f"log_{policy}.csv", log_to_csv(output, (policy,)))
    _write(out / "summary.json", summary_to_json(output))
    means = " ".join(
        f"{p}={output.metrics[p].avg_packets_delivered:.2f}" for p in policies
    )
    print(f"{args.preset}: seed={config.seed} drops={config.num_drops} "
          f"T={config.horizon} mean_served {means} -> {out}/")
    return 0


def _cmd_oracle_check(args: argparse.Namespace) -> int:
    for key in ("instances", "max_users", "max_cells", "max_prbs"):
        if getattr(args, key) < 1:
            raise ValueError(f"--{key.replace('_', '-')} must be >= 1")
    if args.seed < 0:
        raise ValueError("--seed must be >= 0")
    # The largest search space a draw may reach is refused before any draw.
    check_exact_cap(args.max_cells, args.max_prbs)
    rng = np.random.default_rng(args.seed)
    worst = np.inf
    for _ in range(args.instances):
        words = pack(random_instance(
            rng, max_users=args.max_users, max_cells=args.max_cells,
            max_prbs=args.max_prbs,
        )[None])
        opt = int(np.bitwise_count(served_block(words, exact_block(words))).sum())
        greedy = int(np.bitwise_count(served_block(words, cga_block(words))).sum())
        if opt:
            worst = min(worst, greedy / opt)
    ok = worst >= GREEDY_BOUND
    print(f"oracle-check: instances={args.instances} "
          f"min_ratio={worst:.4f} bound={GREEDY_BOUND:.4f} "
          f"{'PASS' if ok else 'FAIL'}")
    return 0 if ok else 1


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        if args.command == "run":
            return _cmd_run(args)
        return _cmd_oracle_check(args)
    except TraceParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except CapExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
