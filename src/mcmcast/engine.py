"""Sub-frame simulation loop and experiment drivers.

Each drop places UEs afresh and draws its own shadowing; within a drop
the loop steps through blocks of sub-frames: draw per-PRB SNRs for the
block → threshold each sub-frame at the SNR its required rate needs → one
(B, C, N, M) stack of coverage instances per connectivity mode in use →
run each allocation policy once on the stack → record who was served.
The block size only groups the work: the RNG stream and every result are
those of one sub-frame at a time.  When several policies are compared
they see the *same* draws and share the instances of their mode (common
random numbers), so observed differences are policy-only.
"""

from __future__ import annotations

import csv
import io
import json
import math
import warnings
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from .channel import ChannelModel, ChannelParams, min_snr_db
from .coverage import (
    EXACT_DEFAULT_CAP,
    CapExceededError,
    cga_block,
    dga_block,
    exact_block,
    mbsfn_block,
    served_block,
)
from .topology import MC, NUM_CELLS, SC, _frozen, build_hex7, eligibility
from .traffic import parse_trace, schedule_constant, schedule_from_trace

__all__ = [
    "POLICIES", "SimConfig", "Metrics", "RunOutput",
    "compare_policies", "sweep",
    "paired_one_sided_pvalue", "log_to_csv", "metrics_from_log",
    "sweep_to_csv", "summary_dict",
]

POLICIES = ("cga", "dga", "sc", "mbsfn", "exact")

# Upper bound on the float64 SNR draws of one block of sub-frames (1 MiB):
# the loop draws and solves as many whole sub-frames at once as fit.  Larger
# blocks were no faster and cost peak memory; smaller ones pay per-call
# overhead more often.
_BLOCK_WORDS = 1 << 17


@dataclass(frozen=True)
class SimConfig:
    """Everything one experiment needs; immutable so runs are replayable."""

    ues_per_cell: int = 10
    radius_m: float = 250.0
    edge_threshold: float = 0.8
    num_prbs: int = 10
    policy: str = "cga"
    rate_bits: float = 400.0
    horizon: int = 1000
    trace_path: str | None = None
    fps: float = 30.0
    burst: bool = False
    seed: int = 1
    num_drops: int = 10
    dga_count: str = "connected"
    channel: ChannelParams = field(default_factory=ChannelParams)
    exact_cap: int = EXACT_DEFAULT_CAP
    log_served_ids: bool = False


def _validate(config: SimConfig, policies: tuple[str, ...]) -> None:
    if config.horizon < 1:
        raise ValueError("horizon must be >= 1")
    if config.seed < 0:
        raise ValueError("seed must be >= 0")
    if config.num_drops < 1:
        raise ValueError("num_drops must be >= 1")
    if config.ues_per_cell < 1:
        raise ValueError("ues_per_cell must be >= 1")
    if config.num_prbs < 1:
        raise ValueError("num_prbs must be >= 1")
    if not (math.isfinite(config.radius_m) and config.radius_m > 0):
        raise ValueError("radius_m must be finite and > 0")
    if not (math.isfinite(config.edge_threshold) and config.edge_threshold >= 0):
        raise ValueError("edge_threshold must be finite and >= 0")
    if not (math.isfinite(config.rate_bits) and config.rate_bits >= 0):
        raise ValueError("rate_bits must be finite and >= 0")
    if not (math.isfinite(config.fps) and config.fps > 0):
        raise ValueError("fps must be finite and > 0")
    if config.dga_count not in ("connected", "primary"):
        raise ValueError(f"unknown dga_count {config.dga_count!r}")
    if not policies:
        raise ValueError("need at least one policy")
    if len(set(policies)) != len(policies):
        raise ValueError(f"repeated policy in {policies!r}")
    for policy in policies:
        if policy not in POLICIES:
            raise ValueError(f"unknown policy {policy!r}")
    if "exact" in policies and config.num_prbs ** NUM_CELLS > config.exact_cap:
        raise CapExceededError(
            f"exact search space {config.num_prbs}^{NUM_CELLS} exceeds cap "
            f"{config.exact_cap}"
        )


@dataclass(frozen=True)
class Metrics:
    """Aggregates over a (num_drops, T) grid of per-sub-frame served counts."""

    policy: str
    served_counts: np.ndarray     # (num_drops, T) int
    num_users: int
    num_cells: int

    @property
    def avg_packets_delivered(self) -> float:
        return float(self.served_counts.mean())

    @property
    def per_ue_service_ratio(self) -> float:
        return self.avg_packets_delivered / self.num_users

    @property
    def avg_unserved_per_cell(self) -> float:
        return (self.num_users - self.avg_packets_delivered) / self.num_cells

    @property
    def drop_means(self) -> np.ndarray:
        return self.served_counts.mean(axis=1)

    @property
    def ci95_halfwidth(self) -> float:
        d = len(self.drop_means)
        if d < 2:
            return 0.0
        from scipy import stats  # deferred: scipy.stats takes about 1 s to import
        sem = self.drop_means.std(ddof=1) / np.sqrt(d)
        return float(stats.t.ppf(0.975, d - 1) * sem)

    def to_dict(self) -> dict:
        return {
            "policy": self.policy,
            "num_users": self.num_users,
            "num_cells": self.num_cells,
            "avg_packets_delivered": round(self.avg_packets_delivered, 6),
            "per_ue_service_ratio": round(self.per_ue_service_ratio, 6),
            "avg_unserved_per_cell": round(self.avg_unserved_per_cell, 6),
            "ci95_halfwidth": round(self.ci95_halfwidth, 6),
            "num_drops": int(self.served_counts.shape[0]),
            "horizon": int(self.served_counts.shape[1]),
        }


@dataclass(frozen=True)
class RunOutput:
    config: SimConfig
    metrics: dict[str, Metrics]
    # policy -> (num_drops, T, M) bool mask of the users served in each
    # sub-frame; kept only when config.log_served_ids is set
    served_masks: dict[str, np.ndarray]


def _build_schedule(config: SimConfig) -> np.ndarray:
    """(T,) bits each sub-frame of the trace, or of the horizon, demands."""
    if config.trace_path:
        frames = parse_trace(config.trace_path)
        return schedule_from_trace(
            frames, config.fps, config.channel.subframe_s, config.burst
        )
    return schedule_constant(
        config.rate_bits, config.horizon, config.channel.subframe_s
    )


def _chosen(policy, covers, config, own) -> np.ndarray:
    """(B, C) PRBs `policy` picks on a (B, C, N, M) stack of instances."""
    if policy == "cga":
        return cga_block(covers)
    if policy == "dga":
        return dga_block(covers, own if config.dga_count == "primary" else None)
    if policy == "sc":
        return dga_block(covers)
    if policy == "mbsfn":
        return mbsfn_block(covers)
    if policy == "exact":
        return exact_block(covers, cap=config.exact_cap)
    raise ValueError(f"unknown policy {policy!r}")


def compare_policies(
    config: SimConfig, policies: tuple[str, ...] | list[str]
) -> RunOutput:
    """Evaluate every policy on the same channel realizations."""
    policies = tuple(policies)
    _validate(config, policies)
    schedule = _build_schedule(config)
    horizon = config.horizon
    if len(schedule) < horizon:
        warnings.warn(
            f"video trace of {len(schedule)} sub-frames is shorter than the "
            f"horizon of {horizon} sub-frames; it wraps around and is played "
            f"{math.ceil(horizon / len(schedule))} times",
            RuntimeWarning, stacklevel=2,
        )
    # (T,) SNR each sub-frame's demand needs; np.resize repeats a short trace
    threshold = min_snr_db(np.resize(schedule, horizon))

    seeds = np.random.SeedSequence(config.seed).spawn(config.num_drops)
    num_users = NUM_CELLS * config.ues_per_cell
    counts = {p: np.zeros((config.num_drops, horizon), dtype=int) for p in policies}
    served = {}
    if config.log_served_ids:
        shape = (config.num_drops, horizon, num_users)
        served = {p: np.zeros(shape, dtype=bool) for p in policies}

    modes = {p: SC if p == "sc" else MC for p in policies}
    # One (block, C, N, M) SNR buffer, reused by every block of every drop
    frame = (NUM_CELLS, config.num_prbs, num_users)
    block = max(1, min(horizon, _BLOCK_WORDS // math.prod(frame)))
    snr_buf = np.empty((block, *frame))

    for d, seed in enumerate(seeds):
        rng = np.random.default_rng(seed)
        scenario = build_hex7(
            config.radius_m, config.ues_per_cell, config.edge_threshold, rng
        )
        model = ChannelModel(config.channel, scenario, config.num_prbs)
        shadow = model.draw_shadowing(rng)
        own = eligibility(scenario, SC)  # whom DGA scores under dga_count "primary"
        # (1, C, 1, M) per mode, built once per drop
        eligible = {m: eligibility(scenario, m)[None, :, None, :]
                    for m in set(modes.values())}
        for t0 in range(0, horizon, block):
            t1 = min(t0 + block, horizon)
            snr_db = model.snr_block(shadow, rng, snr_buf[: t1 - t0])
            decodable = snr_db >= threshold[t0:t1, None, None, None]
            covers = {m: decodable & e for m, e in eligible.items()}
            for policy in policies:
                cover = covers[modes[policy]]
                mask = served_block(cover, _chosen(policy, cover, config, own))
                counts[policy][d, t0:t1] = mask.sum(axis=-1)
                if served:
                    served[policy][d, t0:t1] = mask

    metrics = {
        p: Metrics(
            policy=p, served_counts=_frozen(counts[p]),
            num_users=scenario.num_users, num_cells=scenario.num_cells,
        )
        for p in policies
    }
    served_masks = {p: _frozen(mask) for p, mask in served.items()}
    return RunOutput(config=config, metrics=metrics, served_masks=served_masks)


def sweep(
    config: SimConfig,
    axis: str,
    values: list[float] | list[int],
    policies: tuple[str, ...] | None = None,
) -> list[tuple[float, RunOutput]]:
    """Independent runs per value.  The base seed is reused so sweep points
    share underlying draws where shapes allow, smoothing the trend."""
    if axis not in ("users_per_cell", "radius"):
        raise ValueError(f"unknown sweep axis {axis!r}")
    if not values:
        raise ValueError("sweep needs at least one value")
    policies = (config.policy,) if policies is None else policies
    table = []
    for value in values:
        if axis == "users_per_cell":
            cfg = replace(config, ues_per_cell=int(value))
        else:
            cfg = replace(config, radius_m=float(value))
        table.append((float(value), compare_policies(cfg, policies)))
    return table


def paired_one_sided_pvalue(a: Metrics, b: Metrics) -> float:
    """P-value for mean(a) > mean(b) with (drop, sub-frame) cells paired."""
    x = a.served_counts.ravel().astype(float)
    y = b.served_counts.ravel().astype(float)
    if np.allclose(x, y):
        return 1.0
    from scipy import stats  # deferred: scipy.stats takes about 1 s to import
    return float(stats.ttest_rel(x, y, alternative="greater").pvalue)


# ---------------------------------------------------------------- artifacts

def log_to_csv(output: RunOutput, policies: tuple[str, ...] | None = None) -> str:
    """Raw log of `policies` (default: every policy of the run), one row
    per (drop, t, policy) in that order.  served_ids lists the served
    users when the run kept its served masks, and is empty otherwise."""
    policies = tuple(output.metrics) if policies is None else tuple(policies)
    counts = [output.metrics[p].served_counts.tolist() for p in policies]
    masks = [output.served_masks.get(p) for p in policies]
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["drop", "t", "policy", "served_count", "served_ids"])
    for d in range(output.config.num_drops):
        for t in range(output.config.horizon):
            for policy, count, mask in zip(policies, counts, masks):
                ids = ""
                if mask is not None:
                    ids = ";".join(map(str, np.flatnonzero(mask[d, t])))
                writer.writerow((d, t, policy, count[d][t], ids))
    return buf.getvalue()


def metrics_from_log(
    text: str, num_users: int, num_cells: int = NUM_CELLS
) -> dict[str, Metrics]:
    """Rebuild Metrics from a raw log CSV; must match the originals exactly.
    Raises ValueError when a policy's (drop, t) rows repeat or leave gaps,
    or when the policies' grids differ."""
    reader = csv.reader(io.StringIO(text))
    header = next(reader)
    if header[:4] != ["drop", "t", "policy", "served_count"]:
        raise ValueError(f"bad log header: {header!r}")
    cells: dict[str, dict[tuple[int, int], int]] = {}
    for row in reader:
        if not row:
            continue
        d, t, policy, count = int(row[0]), int(row[1]), row[2], int(row[3])
        grid = cells.setdefault(policy, {})
        if (d, t) in grid:
            raise ValueError(f"repeated log row (drop {d}, t {t}) for {policy!r}")
        grid[(d, t)] = count
    out = {}
    for policy, grid in cells.items():
        drops = 1 + max(d for d, _ in grid)
        horizon = 1 + max(t for _, t in grid)
        if len(grid) != drops * horizon or any(d < 0 or t < 0 for d, t in grid):
            raise ValueError(f"log rows for {policy!r} leave gaps in its grid")
        arr = np.zeros((drops, horizon), dtype=int)
        for (d, t), count in grid.items():
            arr[d, t] = count
        out[policy] = Metrics(
            policy=policy, served_counts=_frozen(arr),
            num_users=num_users, num_cells=num_cells,
        )
    if len({m.served_counts.shape for m in out.values()}) > 1:
        raise ValueError("the policies in the log cover different (drop, t) grids")
    return out


def sweep_to_csv(axis: str, table: list[tuple[float, RunOutput]]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow([
        axis, "policy", "avg_packets_delivered", "per_ue_service_ratio",
        "avg_unserved_per_cell", "ci95_halfwidth",
    ])
    for value, output in table:
        for policy in sorted(output.metrics):
            m = output.metrics[policy]
            writer.writerow([
                f"{value:.6f}", policy,
                f"{m.avg_packets_delivered:.6f}",
                f"{m.per_ue_service_ratio:.6f}",
                f"{m.avg_unserved_per_cell:.6f}",
                f"{m.ci95_halfwidth:.6f}",
            ])
    return buf.getvalue()


def summary_dict(output: RunOutput) -> dict:
    config = asdict(output.config)
    summary = {
        "config": config,
        "metrics": {p: m.to_dict() for p, m in sorted(output.metrics.items())},
    }
    policies = sorted(output.metrics)
    if len(policies) >= 2:
        pvals = {}
        for i, a in enumerate(policies):
            for b in policies[i + 1:]:
                key = f"{a}_gt_{b}"
                pvals[key] = round(
                    paired_one_sided_pvalue(
                        output.metrics[a], output.metrics[b]
                    ), 6,
                )
        summary["paired_pvalues"] = pvals
    return summary


def summary_to_json(output: RunOutput) -> str:
    return json.dumps(summary_dict(output), sort_keys=True, indent=2) + "\n"
