"""Sub-frame simulation loop and experiment drivers.

The loop, _blocks, only simulates.  Each drop places UEs afresh and draws
its own shadowing, which fixes every link budget for the drop, turned once
per drop into a table of cutoff fading powers per (SNR threshold the run's
demand needs, cell, UE); each connectivity mode packs its (C, M)
eligibility into words.  Within a drop the loop steps through kernel
blocks of K sub-frames, as many as fit one packed stack of
coverage.STACK_WORDS words, each drawn in fading blocks of at most 1 MiB
of powers: draw per-PRB fading powers → compare them with the cutoffs of
each sub-frame's threshold and pack the result into (K, C, N, W) words →
AND them with each mode's eligibility words and yield one packed stack of
instances per mode.  compare_policies only evaluates and records: on each
block it runs each policy's kernel on the stack it picks on, credits its
picks on the stack it is credited on (the _runs table) and counts the
served words, unpacked to users only when the run keeps its served masks.
The block sizes only group the work: the RNG stream and every result are
those of one sub-frame at a time.  Policies compared in one run see the
*same* draws and share their mode's instances (common random numbers),
so observed differences are policy-only.
"""

from __future__ import annotations

import csv
import io
import itertools
import json
import math
import os
import warnings
from dataclasses import asdict, dataclass, field, replace
from functools import partial

import numpy as np

from .channel import ChannelModel, ChannelParams, check_fields, min_snr_db
from .coverage import (
    EXACT_DEFAULT_CAP,
    STACK_WORDS,
    cga_block,
    check_exact_cap,
    dga_block,
    exact_block,
    mbsfn_block,
    num_words,
    pack,
    served_block,
    unpack,
)
from .topology import MC, NUM_CELLS, SC, _frozen, build_hex7, check_radius, eligibility
from .traffic import (
    frame_period, parse_trace, schedule_constant, schedule_from_trace)

__all__ = [
    "POLICIES", "SimConfig", "Metrics", "RunOutput",
    "compare_policies", "sweep",
    "paired_one_sided_pvalue", "log_to_csv", "sweep_to_csv", "summary_dict",
]

# Upper bound on the float64 fading powers of one fading block of sub-frames
# (1 MiB): the loop draws and compares as many whole sub-frames at once as
# fit, and no more than one kernel block holds.  Larger blocks were no
# faster and cost peak memory; smaller ones pay per-call overhead more often.
_BLOCK_WORDS = 1 << 17

# The per-policy aggregates that summary.json reports, in the order of the
# sweep CSVs' columns
_AGGREGATES = (
    "avg_packets_delivered", "per_ue_service_ratio",
    "avg_unserved_per_cell", "ci95_halfwidth",
)
_LOG_HEADER = ("drop", "t", "policy", "served_count", "served_ids")
# Sweep axis -> the SimConfig field it sets
_SWEEP_AXES = {"users_per_cell": "ues_per_cell", "radius": "radius_m"}
# The dga_count choices: a DGA cell counts every user connected to it, or its own
DGA_COUNTS = ("connected", "primary")
# Lower bounds on SimConfig fields, which check_fields applies
_BOUNDS = {"ues_per_cell": ">= 1", "num_prbs": ">= 1", "horizon": ">= 1", "seed": ">= 0",
           "num_drops": ">= 1", "edge_threshold": ">= 0", "rate_bits": ">= 0"}


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

    def __post_init__(self):
        check_fields(self, _BOUNDS)
        check_radius(self.radius_m)
        frame_period(self.fps, self.channel.subframe_s)  # checks fps
        if self.dga_count not in DGA_COUNTS:
            raise ValueError(f"unknown dga_count {self.dga_count!r}")
        # A path is stored as a str, which summary.json can echo; an int
        # would be read, and closed, as a file descriptor
        path = self.trace_path
        if path is not None:
            path = os.fspath(path) if isinstance(path, (str, os.PathLike)) else None
            if not isinstance(path, str):
                raise ValueError(f"trace_path must be a path, got {self.trace_path!r}")
            object.__setattr__(self, "trace_path", path)


def _runs(config: SimConfig) -> dict:
    """Policy -> (its (B, C, N, W) kernel, the connectivity mode of the
    instance it picks on, the mode of the instance it is credited on).
    Under dga_count "primary" a DGA cell counts only its primary users,
    which is DGA on the SC instance, since SC is MC cut to primary cells."""
    return {
        "cga": (cga_block, MC, MC),
        "dga": (dga_block, SC if config.dga_count == "primary" else MC, MC),
        "sc": (dga_block, SC, SC),
        "mbsfn": (mbsfn_block, MC, MC),
        "exact": (partial(exact_block, cap=config.exact_cap), MC, MC),
    }


POLICIES = tuple(_runs(SimConfig()))


def _validate(config: SimConfig, policies: tuple[str, ...]) -> None:
    """The checks of a run's policies; a SimConfig checks its own fields."""
    if not policies:
        raise ValueError("need at least one policy")
    if len(set(policies)) != len(policies):
        raise ValueError(f"repeated policy in {policies!r}")
    for policy in (config.policy, *policies):
        if policy not in POLICIES:
            raise ValueError(f"unknown policy {policy!r}")
    if "exact" in policies:
        check_exact_cap(NUM_CELLS, config.num_prbs, config.exact_cap)


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
        # deferred: scipy.special takes about 0.35 s to import; its inverse
        # t distribution equals scipy.stats.t.ppf bit for bit
        from scipy.special import stdtrit
        sem = self.drop_means.std(ddof=1) / np.sqrt(d)
        return float(stdtrit(d - 1, 0.975) * sem)

    def to_dict(self) -> dict:
        return {
            "policy": self.policy,
            "num_users": self.num_users,
            "num_cells": self.num_cells,
            **{name: round(getattr(self, name), 6) for name in _AGGREGATES},
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
    """(T,) bits each sub-frame of the horizon demands, or each sub-frame
    of a trace shorter than the horizon."""
    if config.trace_path is not None:
        frames = parse_trace(config.trace_path)
        return schedule_from_trace(
            frames, config.fps, config.channel.subframe_s, config.burst,
            length=config.horizon,
        )
    return schedule_constant(
        config.rate_bits, config.horizon, config.channel.subframe_s
    )


def compare_policies(
    config: SimConfig, policies: tuple[str, ...] | list[str]
) -> RunOutput:
    """Evaluate every policy on the same channel realizations."""
    policies = tuple(policies)
    _validate(config, policies)
    num_users = NUM_CELLS * config.ues_per_cell
    shape = (config.num_drops, config.horizon)
    counts = {p: np.zeros(shape, dtype=int) for p in policies}
    served = {p: np.zeros((*shape, num_users), dtype=bool)
              for p in policies if config.log_served_ids}
    runs = _runs(config)
    modes = {m for p in policies for m in runs[p][1:]}
    for d, t0, t1, covers in _blocks(config, modes):
        for policy in policies:
            kernel, picks_on, credited_on = runs[policy]
            words = served_block(covers[credited_on], kernel(covers[picks_on]))
            counts[policy][d, t0:t1] = np.bitwise_count(words).sum(axis=-1)
            if served:
                served[policy][d, t0:t1] = unpack(words, num_users)

    metrics = {
        p: Metrics(policy=p, served_counts=_frozen(counts[p]),
                   num_users=num_users, num_cells=NUM_CELLS)
        for p in policies
    }
    served_masks = {p: _frozen(mask) for p, mask in served.items()}
    return RunOutput(config=config, metrics=metrics, served_masks=served_masks)


def _blocks(config: SimConfig, modes: set[str]):
    """Every drop's kernel blocks, in order: yields (drop, t0, t1, covers),
    covers holding one fresh (t1 - t0, C, N, W) packed stack per mode in
    `modes`, the instances of sub-frames t0 to t1 - 1 of the drop."""
    schedule = _build_schedule(config)
    horizon = config.horizon
    if len(schedule) < horizon:
        warnings.warn(
            f"video trace of {len(schedule)} sub-frames is shorter than the "
            f"horizon of {horizon} sub-frames; it wraps around and is played "
            f"{math.ceil(horizon / len(schedule))} times",
            RuntimeWarning, stacklevel=3,  # the caller of compare_policies
        )
    # The SNR each sub-frame's demand needs, as an index into the run's
    # distinct thresholds; np.resize repeats a short trace
    levels, level = np.unique(
        min_snr_db(np.resize(schedule, horizon)), return_inverse=True
    )

    # One (span, C, N, W) word buffer for the packed decodability of a kernel
    # block, whose padding bits stay zero, and one (block, C, N, M) fading
    # buffer for the fading blocks within it, both reused by every block of
    # every drop
    frame = (NUM_CELLS, config.num_prbs, NUM_CELLS * config.ues_per_cell)
    width = num_words(frame[2])
    span = max(1, min(horizon, STACK_WORDS // (math.prod(frame[:2]) * width)))
    block = max(1, min(span, _BLOCK_WORDS // math.prod(frame)))
    power_buf = np.empty((block, *frame))
    word_buf = np.zeros((span, *frame[:2], width), dtype=np.uint64)
    seeds = np.random.SeedSequence(config.seed).spawn(config.num_drops)
    for d, seed in enumerate(seeds):
        rng = np.random.default_rng(seed)
        scenario = build_hex7(
            config.radius_m, config.ues_per_cell, config.edge_threshold, rng
        )
        model = ChannelModel(config.channel, scenario)
        # (L, C, 1, M) least power that decodes at each threshold
        cuts = model.cutoffs(model.draw_shadowing(rng), levels)[:, :, None, :]
        # (1, C, 1, W) words per mode, packed once per drop
        eligible = {
            m: pack(eligibility(scenario, m))[None, :, None, :] for m in modes
        }
        for t0 in range(0, horizon, span):
            t1 = min(t0 + span, horizon)
            for f0 in range(t0, t1, block):
                f1 = min(f0 + block, t1)
                power = model.fading_block(rng, power_buf[: f1 - f0])
                pack(power >= cuts[level[f0:f1]], out=word_buf[f0 - t0: f1 - t0])
            yield d, t0, t1, {m: word_buf[: t1 - t0] & e for m, e in eligible.items()}


def sweep(
    config: SimConfig,
    axis: str,
    values: list[float] | list[int],
    policies: tuple[str, ...] | None = None,
) -> list[tuple[float, RunOutput]]:
    """Independent runs per value.  The base seed is reused so sweep points
    share underlying draws where shapes allow, smoothing the trend."""
    if axis not in _SWEEP_AXES:
        raise ValueError(f"unknown sweep axis {axis!r}")
    if not values:
        raise ValueError("sweep needs at least one value")
    configs = []
    for value in values:  # every point is checked before any runs
        try:
            configs.append(replace(config, **{_SWEEP_AXES[axis]: value}))
        except ValueError as exc:
            raise ValueError(f"{axis} value {value!r}: {exc}") from None
    policies = (config.policy,) if policies is None else policies
    return [(float(value), compare_policies(c, policies))
            for value, c in zip(values, configs)]


def paired_one_sided_pvalue(a: Metrics, b: Metrics) -> float | None:
    """P-value for mean(a) > mean(b) with (drop, sub-frame) cells paired:
    the one-sided paired t-test, computed as scipy.stats.ttest_rel computes
    it, bit for bit.  None with fewer than two paired cells, where the test
    is undefined.  A constant nonzero difference has no spread: 0.0 when
    it favours a, 1.0 otherwise."""
    x = a.served_counts.ravel().astype(float)
    y = b.served_counts.ravel().astype(float)
    n = x.size
    if n < 2:
        return None
    if np.array_equal(x, y):
        return 1.0
    # deferred: scipy.special takes about 0.35 s to import
    from scipy.special import stdtr
    d = x - y
    mean = d.mean()
    var = ((d - mean) ** 2).mean() * (n / (n - 1))
    with np.errstate(divide="ignore"):
        t = mean / np.sqrt(var / n)
    return float(stdtr(n - 1.0, -t))


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
    writer.writerow(_LOG_HEADER)
    for d in range(output.config.num_drops):
        for t in range(output.config.horizon):
            for policy, count, mask in zip(policies, counts, masks):
                ids = ""
                if mask is not None:
                    ids = ";".join(map(str, np.flatnonzero(mask[d, t])))
                writer.writerow((d, t, policy, count[d][t], ids))
    return buf.getvalue()


def sweep_to_csv(axis: str, table: list[tuple[float, RunOutput]]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow((axis, "policy", *_AGGREGATES))
    for value, output in table:
        for policy, m in sorted(output.metrics.items()):
            writer.writerow((
                f"{value:.6f}", policy,
                *(f"{getattr(m, name):.6f}" for name in _AGGREGATES),
            ))
    return buf.getvalue()


def summary_dict(output: RunOutput) -> dict:
    metrics = output.metrics
    summary = {
        "config": asdict(output.config),
        "metrics": {p: m.to_dict() for p, m in sorted(metrics.items())},
    }
    pvals = {
        f"{a}_gt_{b}": _rounded(paired_one_sided_pvalue(metrics[a], metrics[b]))
        for a, b in itertools.combinations(sorted(metrics), 2)
    }
    if pvals:
        summary["paired_pvalues"] = pvals
    return summary


def _rounded(pvalue: float | None) -> float | None:
    return None if pvalue is None else round(pvalue, 6)


def summary_to_json(output: RunOutput) -> str:
    return json.dumps(summary_dict(output), sort_keys=True, indent=2) + "\n"
