"""Command-line entry point: named experiment presets plus a brute-force
oracle self-check.

Exit codes: 0 success, 1 oracle-check bound violated, 2 bad configuration,
3 trace parse failure, 4 exact-search cap exceeded.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from .coverage import (
    GREEDY_BOUND,
    CapExceededError,
    cga_block,
    check_exact_cap,
    exact_block,
    random_instance,
    served_block,
)
from .engine import (
    POLICIES,
    SimConfig,
    _validate,
    compare_policies,
    log_to_csv,
    summary_to_json,
    sweep,
    sweep_to_csv,
)
from .traffic import TraceParseError, parse_trace, write_synthetic_trace

__all__ = ["main", "build_parser", "PRESETS"]

USER_SWEEP = (5, 10, 20, 40)
RADIUS_SWEEP = (250.0, 500.0, 750.0, 1000.0)

# Each preset bundles default overrides; explicit flags still win.  A
# sweep preset runs both sweeps; every other preset compares its policies.
PRESETS: dict[str, dict] = {
    "fig4_dist_vs_central": {
        "policies": ("cga", "dga"),
        "overrides": {"radius_m": 500.0, "horizon": 1000, "num_drops": 5},
    },
    "fig5_packets_sweep": {
        "sweep": True,
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
# and a --config key: key -> (SimConfig field, type, add_argument extras)
_FIELDS: dict[str, tuple[str, type, dict]] = {
    "policy": ("policy", str, {"choices": POLICIES}),
    "seed": ("seed", int, {}),
    "ues": ("ues_per_cell", int, {"help": "UEs per cell"}),
    "radius": ("radius_m", float, {"help": "cell radius in meters"}),
    "subframes": ("horizon", int, {"help": "horizon in sub-frames"}),
    "trace": ("trace_path", str, {"help": "video trace file path"}),
    "fps": ("fps", float, {}),
    "rate": ("rate_bits", float, {"help": "constant bits per sub-frame"}),
    "edge_threshold": ("edge_threshold", float, {}),
    "dga_count": ("dga_count", str, {"choices": ("connected", "primary")}),
    "drops": ("num_drops", int, {"help": "independent UE placements"}),
    "prbs": ("num_prbs", int, {"help": "PRBs per cell"}),
    "burst": ("burst", bool,
              {"help": "deliver each video frame in its first sub-frame"}),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mcmcast",
        description="Multi-connectivity multicast allocation experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run an experiment preset")
    run.add_argument("--preset", default="custom", choices=sorted(PRESETS))
    for key, (_, typ, extras) in _FIELDS.items():
        flag = "--" + key.replace("_", "-")
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
    text = Path(path).read_text(encoding="utf-8")
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise ValueError(f"{path}:{lineno}: expected key=value, got {line!r}")
        pairs[key.strip().replace("-", "_")] = value.strip()
    return pairs


def _coerce(key: str, value: str):
    field, typ, _ = _FIELDS[key]
    if typ is bool:
        if value.lower() in ("1", "true", "yes", "on"):
            return field, True
        if value.lower() in ("0", "false", "no", "off"):
            return field, False
        raise ValueError(f"bad boolean for {key}: {value!r}")
    return field, typ(value)


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
    config = replace(SimConfig(), **overrides)
    if "policy" in overrides:
        return config, preset, (config.policy,)
    return config, preset, preset.get("policies", (config.policy,))


def _write(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text, encoding="utf-8")


def _cmd_run(args: argparse.Namespace) -> int:
    config, preset, policies = _build_config(args)
    _validate(config, policies)  # a bad configuration writes nothing,
    if config.trace_path is not None:
        parse_trace(config.trace_path)  # and neither does an unreadable trace
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    if preset.get("synthetic_trace") and config.trace_path is None:
        trace = write_synthetic_trace(str(out / "trace.txt"), seed=config.seed)
        config = replace(config, trace_path=trace)

    if preset.get("sweep"):
        users_table = sweep(config, "users_per_cell", list(USER_SWEEP), policies)
        radius_table = sweep(config, "radius", list(RADIUS_SWEEP), policies)
        _write(out / "sweep_users.csv",
               sweep_to_csv("users_per_cell", users_table))
        _write(out / "sweep_radius.csv", sweep_to_csv("radius", radius_table))
        _write(out / "summary.json", summary_to_json(users_table[-1][1]))
        print(f"{args.preset}: policies={','.join(policies)} "
              f"users={list(USER_SWEEP)} radius={[int(r) for r in RADIUS_SWEEP]} "
              f"-> {out}/sweep_users.csv, {out}/sweep_radius.csv")
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
        cover = random_instance(
            rng, max_users=args.max_users, max_cells=args.max_cells,
            max_prbs=args.max_prbs,
        )[None]
        opt = int(served_block(cover, exact_block(cover)).sum())
        greedy = int(served_block(cover, cga_block(cover)).sum())
        if opt:
            worst = min(worst, greedy / opt)
    ok = worst >= GREEDY_BOUND
    print(f"oracle-check: instances={args.instances} "
          f"min_ratio={worst:.4f} bound={GREEDY_BOUND:.4f} "
          f"{'PASS' if ok else 'FAIL'}")
    return 0 if ok else 1


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
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
