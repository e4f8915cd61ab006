"""The benchmark's workloads and the inputs each one hands the program.

A run is a sequence of chunks.  Each chunk is one call into the public API
(`mcmcast.cli.main` or `mcmcast.compare_policies`) with its own simulation
seed, drawn from a fixed pool of POOL_SIZE seeds whose outputs are pinned in
reference.json.  The benchmark seed only picks the order in which the pool is
visited, so every chunk of every run is checked against a pinned digest.

This module imports nothing from mcmcast at module level: setup_probe.py
times that import in a fresh interpreter.
"""

from __future__ import annotations

import random
import sys
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
POOL_SIZE = 64


@dataclass(frozen=True)
class Workload:
    name: str
    entry: str                  # "cli": mcmcast.cli.main; "api": compare_policies
    policies: tuple[str, ...]
    ues_per_cell: int
    radius_m: float
    horizon: int                # sub-frames per drop
    num_drops: int              # drops per chunk
    num_prbs: int = 10
    rate_bits: float = 400.0
    synthetic_trace: bool = False   # traffic from write_synthetic_trace
    preset: str = "custom"

    @property
    def steps(self) -> int:
        """(drop, sub-frame) steps one chunk simulates."""
        return self.horizon * self.num_drops

    def cli_argv(self, seed: int, out_dir: Path) -> list[str]:
        return [
            "run", "--preset", self.preset, "--seed", str(seed),
            "--ues", str(self.ues_per_cell), "--radius", repr(self.radius_m),
            "--subframes", str(self.horizon), "--drops", str(self.num_drops),
            "--prbs", str(self.num_prbs), "--rate", repr(self.rate_bits),
            "--out", str(out_dir),
        ]

    def config(self, mcmcast, seed: int, trace_path: str | None = None):
        return mcmcast.SimConfig(
            ues_per_cell=self.ues_per_cell, radius_m=self.radius_m,
            num_prbs=self.num_prbs, rate_bits=self.rate_bits,
            horizon=self.horizon, num_drops=self.num_drops, seed=seed,
            trace_path=trace_path,
        )


# Why each workload is here is recorded in BENCHMARK.json.
WORKLOADS = {
    wl.name: wl for wl in (
        # Fig. 4 as a user runs it, artifacts included; cga and dga share
        # one connectivity mode; small instances, long drops.
        Workload("fig4_m70_cli", "cli", ("cga", "dga"), ues_per_cell=10,
                 radius_m=500.0, horizon=1000, num_drops=1,
                 preset="fig4_dist_vs_central"),
        # Large instances, two connectivity modes, a rate that changes every
        # sub-frame, and short drops so per-drop set-up repeats often.
        Workload("fig7_m280_trace", "api", ("cga", "sc", "mbsfn"),
                 ues_per_cell=40, radius_m=1000.0, horizon=100, num_drops=2,
                 synthetic_trace=True),
        # The only workload where the exhaustive oracle runs: 4^7 allocations.
        Workload("exact_n4", "api", ("cga", "exact"), ues_per_cell=5,
                 radius_m=1000.0, horizon=100, num_drops=1, num_prbs=4),
    )
}


def chunk_seeds(bench_seed: int) -> list[int]:
    """The pool of simulation seeds, in the order bench_seed visits them."""
    return random.Random(bench_seed).sample(range(1, POOL_SIZE + 1), POOL_SIZE)


def use_source_tree() -> bool:
    """Put the checkout's src/ first on sys.path; False if it holds no mcmcast."""
    if not (SRC / "mcmcast" / "__init__.py").is_file():
        return False
    sys.path.insert(0, str(SRC))
    return True
