"""Sub-frame simulation loop and experiment drivers.

The loop, _blocks, only simulates.  Each drop places UEs afresh and draws
its own shadowing, which fixes every link budget for the drop, turned once
per drop into a table of cutoff fading powers per (SNR threshold the run's
demand needs, cell, UE), +inf on every link that multi-connectivity (MC)
cannot hear, and into (C, N, W) words of each user's own cell on every
PRB.  Within a drop the loop steps through kernel blocks of K sub-frames,
as many as fit one packed stack of coverage.STACK_WORDS words, each drawn
in fading blocks of at most 512 KiB of powers that also end where the
threshold changes: draw per-PRB fading powers → compare them, in one
contiguous pass, with a (C, N, M) plane of the block's threshold's cutoffs
on every PRB, filled once per run of one threshold → pack the result into
(K, C, N, W) words, MC's stack of instances, and yield it with the
own-cell words.  Single connectivity (SC) is MC cut to the own cell, so its
stack is MC's AND the own-cell words.  compare_policies only evaluates and
records: on each block it forms SC's stack if some policy uses it, runs
each policy's kernel on the stack it picks on, credits its picks on the
stack it is credited on (the _runs table) and stores the served words
in the policy's one record, (drops, T, W) words.  After the run the
served counts are the record's popcounts, and the served masks, when
the run keeps them, its unpacked bits.  The block
sizes only group the work: the RNG stream and every result are those of
one sub-frame at a time.  Policies compared in one run see the *same* draws
and share their mode's instances (common random numbers), so observed
differences are policy-only.

A run's drops are independent, each with its own seed, so compare_policies
simulates them on up to min(drops, usable CPUs, 2) workers: the calling
thread and a plain thread, drop d on worker d % workers, each with its own
buffers, a whole packed stack and a whole fading budget, and each writing
only its own drops' rows.  _plan is a run's whole set-up, before any drop
runs (and, from the CLI, before anything is written): the checks, the
demand, with a warning when a trace shorter than the horizon wraps, and
the sizes, its frame, its workers and the kernel-block and fading-block
lengths, the same on every worker and for any worker count.  The fading
draw, most of the work, releases the GIL.  Every result and artifact byte
is the same on any number of CPUs.  sweep runs a grid, each distinct SimConfig
once, whichever axes share it.
"""

from __future__ import annotations

import itertools
import json
import math
import os
import threading
import warnings
from collections.abc import Sequence
from dataclasses import asdict, dataclass, field, replace
from functools import partial
from typing import NamedTuple

import numpy as np

from .channel import (
    ChannelParams, check_fields, cutoffs, fading_block, link_budget, min_snr_db)
from .coverage import (
    EXACT_DEFAULT_CAP,
    STACK_WORDS,
    _popcount,
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
from .topology import NUM_CELLS, _frozen, associate, build_hex7, check_radius
from .traffic import (
    frame_period, parse_trace, schedule_constant, schedule_from_trace)

__all__ = [
    "POLICIES", "SimConfig", "Metrics", "RunOutput",
    "compare_policies", "sweep",
    "paired_one_sided_pvalue", "log_to_csv", "sweep_to_csv", "summary_dict",
]

# Upper bound on the float64 fading powers of one worker's fading block of
# sub-frames (512 KiB): the loop draws and compares as many whole sub-frames
# at once as fit, and no more than one kernel block holds.  2^17 values ran
# no faster on a fig4-sized drop, 2^15 about 3% slower; larger cost memory.
_BLOCK_WORDS = 1 << 16

# The most workers one run uses.  Two were measured against one, on a
# 2-vCPU host (BENCH_20.json); more workers each hold a whole fading
# budget and share the GIL for the rest of each block, and no host with
# more CPUs has shown that they pay.
_MAX_WORKERS = 2

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
# The connectivity modes of the instances a policy picks on and is credited on
MC = "mc"
SC = "sc"
# Lower bounds on SimConfig fields, which check_fields applies
_BOUNDS = {"ues_per_cell": ">= 1", "num_prbs": ">= 1", "horizon": ">= 1", "seed": ">= 0",
           "num_drops": ">= 1", "edge_threshold": ">= 0", "rate_bits": ">= 0",
           "exact_cap": ">= 1"}


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
        if not isinstance(self.channel, ChannelParams):
            raise ValueError(f"channel must be a ChannelParams, got {self.channel!r}")
        check_radius(self.radius_m)
        frame_period(self.fps, self.channel.subframe_s)  # checks fps
        if self.dga_count not in DGA_COUNTS:
            raise ValueError(f"unknown dga_count {self.dga_count!r}")
        if self.policy not in tuple(_runs(self)):  # POLICIES is built from one
            raise ValueError(f"unknown policy {self.policy!r}")
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


@dataclass(frozen=True)
class Metrics:
    """Aggregates over a (num_drops, T) grid of per-sub-frame served counts."""

    policy: str
    served_counts: np.ndarray     # (num_drops, T) int64
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
        # _t975 is within 1e-12 of scipy.special.stdtrit(d - 1, 0.975),
        # relative, for d - 1 up to 10^4 (tests/test_engine.py)
        sem = self.drop_means.std(ddof=1) / np.sqrt(d)
        return float(_t975(d - 1) * sem)

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


def compare_policies(
    config: SimConfig, policies: tuple[str, ...] | list[str]
) -> RunOutput:
    """Evaluate every policy on the same channel realizations.  Each
    policy's record is the (num_drops, T, W) words of the users it
    served; its counts and, under config.log_served_ids, its masks are
    read from them after the run."""
    if isinstance(policies, str):  # tuple("cga") would be ('c', 'g', 'a')
        raise ValueError(f"policies must be a sequence of policy names, got {policies!r}")
    policies = tuple(policies)
    plan = _plan(config, policies)
    num_users, workers = plan.frame[2], plan.workers
    words = {p: np.zeros((config.num_drops, config.horizon, num_words(num_users)),
                         dtype=np.uint64) for p in policies}
    runs = _runs(config)
    uses_sc = any(SC in runs[p][1:] for p in policies)

    def work(w):
        # Worker w simulates drops w, w + workers, ... and writes only
        # their rows of each policy's words
        drops = range(w, config.num_drops, workers)
        for d, t0, t1, mc, own in _blocks(config, plan, drops):
            covers = {MC: mc, SC: mc & own if uses_sc else None}
            for policy in policies:
                kernel, picks_on, credited_on = runs[policy]
                words[policy][d, t0:t1] = served_block(covers[credited_on],
                                                       kernel(covers[picks_on]))
            yield

    _run_workers(work, workers)
    metrics = {  # _popcount gives uint8 counts when W = 1
        p: Metrics(policy=p, served_counts=_frozen(_popcount(words[p]).astype(np.int64)),
                   num_users=num_users, num_cells=NUM_CELLS)
        for p in policies
    }
    served_masks = {p: _frozen(unpack(words[p], num_users))
                    for p in policies if config.log_served_ids}
    return RunOutput(config=config, metrics=metrics, served_masks=served_masks)


def _cpus() -> int:
    """How many CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not every platform has it
        return os.cpu_count() or 1


def _run_workers(work, workers: int) -> None:
    """Drive the generators work(0), ..., work(workers - 1) to their end,
    work(0) on the calling thread and each other on a thread of its own,
    and return once every thread has ended.  Once one raises, a thread
    fails to start, or the caller is interrupted, working or waiting, the
    others stop at their next step, and the error of the lowest-numbered
    worker that raised (the caller being worker 0, its first interrupt
    kept) is re-raised after every thread has ended."""
    errors = {}

    def run(w):
        try:
            for _ in work(w):
                if errors:
                    return
        except BaseException as exc:  # re-raised on the calling thread
            errors[w] = exc

    threads = []
    try:
        for w in range(1, workers):
            threads.append(threading.Thread(target=run, args=(w,)))
            threads[-1].start()
        run(0)
    except BaseException as exc:  # a thread that fails to start, or an interrupt
        errors.setdefault(0, exc)  # every worker stops at its next step
    for thread in threads:
        while thread.is_alive():
            try:
                thread.join()
            except BaseException as exc:  # an interrupt while waiting
                errors.setdefault(0, exc)
    if errors:
        raise errors[min(errors)]


class _Plan(NamedTuple):  # what _plan gives a run, shared by its drops
    frame: tuple[int, int, int]
    workers: int
    span: int
    block: int
    levels: np.ndarray
    level: np.ndarray
    ends: np.ndarray
    seeds: list


def _plan(config: SimConfig, policies: tuple[str, ...]) -> _Plan:
    """A run's whole set-up: check the policy list and the exact cap (a
    SimConfig checks its own fields), read the demand, warning when a
    trace shorter than the horizon wraps, and size the run, here and
    nowhere else.  frame is the (C, N, M) cells, PRBs and users of one
    sub-frame, and workers one per usable CPU, but no more than
    _MAX_WORKERS or than drops.  span is each worker's kernel-block
    length, what one whole packed stack of STACK_WORDS holds, capped at
    the horizon; block its fading-block length, what one whole
    _BLOCK_WORDS budget holds, capped at span.  Every worker has both
    buffers whole, so neither length depends on the worker count.
    levels are the run's distinct SNR thresholds, level each sub-frame's
    index into them, ends the sub-frame that ends each sub-frame's run of
    one threshold, and seeds one per drop."""
    if not policies:
        raise ValueError("need at least one policy")
    if len(set(policies)) != len(policies):
        raise ValueError(f"repeated policy in {policies!r}")
    for policy in policies:
        if policy not in POLICIES:
            raise ValueError(f"unknown policy {policy!r}")
    if "exact" in policies:
        check_exact_cap(NUM_CELLS, config.num_prbs, config.exact_cap)
    horizon, subframe_s = config.horizon, config.channel.subframe_s
    if config.trace_path is None:
        schedule = schedule_constant(config.rate_bits, horizon, subframe_s)
    else:
        schedule = schedule_from_trace(parse_trace(config.trace_path), config.fps,
                                       subframe_s, config.burst, length=horizon)
    if len(schedule) < horizon:
        warnings.warn(
            f"video trace of {len(schedule)} sub-frames is shorter than the horizon "
            f"of {horizon} sub-frames; it wraps around and is played "
            f"{math.ceil(horizon / len(schedule))} times",
            RuntimeWarning, stacklevel=3,  # the caller of compare_policies
        )
    # The SNR each sub-frame's demand needs, as an index into the run's
    # distinct thresholds; np.resize repeats a short trace
    levels, level = np.unique(
        min_snr_db(np.resize(schedule, horizon)), return_inverse=True
    )
    # The sub-frames whose threshold differs from the one before, then the horizon
    changes = np.append(np.flatnonzero(np.diff(level)) + 1, horizon)
    ends = changes[np.searchsorted(changes, np.arange(horizon), side="right")]
    frame = (NUM_CELLS, config.num_prbs, NUM_CELLS * config.ues_per_cell)
    floats = math.prod(frame)  # the fading powers of one sub-frame
    words = math.prod(frame[:2]) * num_words(frame[2])  # its packed stack
    workers = max(1, min(config.num_drops, _cpus(), _MAX_WORKERS))
    span = max(1, min(horizon, STACK_WORDS // words))
    block = max(1, min(span, _BLOCK_WORDS // floats))
    seeds = np.random.SeedSequence(config.seed).spawn(config.num_drops)
    return _Plan(frame, workers, span, block, levels, level, ends, seeds)


def _blocks(config: SimConfig, plan: _Plan, drops):
    """The kernel blocks of `drops`, indices into the drops of the run
    that `plan` (from _plan) describes, in order: yields (drop, t0, t1,
    mc, own), mc the (t1 - t0, C, N, W) packed stack of MC instances of
    sub-frames t0 to t1 - 1 of the drop, and own the drop's own-cell
    words, contiguous (1, C, N, W), so that mc & own is the SC stack.
    mc is the reused word buffer itself, valid only until the generator
    resumes.  Its buffers are sized by the plan's span, one whole packed
    stack, and block, one whole fading budget, so each of the plan's
    workers that runs one of these generators holds one of each.  The
    plane of cutoffs is filled at each drop's first sub-frame and where
    the threshold changes: once per run of one threshold."""
    frame, span, block = plan.frame, plan.span, plan.block
    level, ends, horizon = plan.level, plan.ends, config.horizon
    # One (span, C, N, W) word buffer for the packed decodability of a kernel
    # block, whose padding bits stay zero, one (block, C, N, M) fading buffer
    # and one bool buffer of the same shape for the fading blocks within it,
    # and one (C, N, M) plane of one threshold's cutoffs on every PRB, all
    # reused by every block of every drop
    width = num_words(frame[2])
    power_buf = np.empty((block, *frame))
    decodes = np.empty((block, *frame), dtype=bool)
    plane = np.empty(frame)
    word_buf = np.zeros((span, *frame[:2], width), dtype=np.uint64)
    for d in drops:
        rng = np.random.default_rng(plan.seeds[d])
        distance = build_hex7(config.radius_m, config.ues_per_cell, rng).distance_m
        # The drop's (C, M) link budget and association, then the (L, C, M) least
        # power that decodes at each threshold, +inf on every link MC cannot hear
        budget = link_budget(config.channel, distance, rng)
        own, mc = associate(distance, config.edge_threshold * config.radius_m)
        cuts = np.where(mc, cutoffs(budget, plan.levels), np.inf)
        own = np.repeat(pack(own)[None, :, None], frame[1], axis=2)
        for t0 in range(0, horizon, span):
            t1 = min(t0 + span, horizon)
            f0 = t0
            while f0 < t1:  # fading blocks of one threshold each
                f1 = min(f0 + block, t1, int(ends[f0]))
                if f0 == 0 or level[f0] != level[f0 - 1]:  # a new drop or threshold
                    plane[...] = cuts[level[f0]][:, None, :]
                power = fading_block(config.channel, rng, power_buf[: f1 - f0])
                np.greater_equal(power, plane, out=decodes[: f1 - f0])
                pack(decodes[: f1 - f0], out=word_buf[f0 - t0: f1 - t0])
                f0 = f1
            yield d, t0, t1, word_buf[: t1 - t0], own


def sweep(config: SimConfig, axes: dict,
          policies: tuple[str, ...]) -> dict[str, list[tuple[float, RunOutput]]]:
    """Runs of `policies` over a grid: axes maps each sweep axis to its
    values, a sequence of numbers (a list, a tuple or an array), and each
    point sets its one axis on config.  Returns axis -> [(value,
    RunOutput), ...].  Every point's SimConfig fields are checked before
    any point runs, and the first point's _plan checks the policies, the
    exact cap and the trace, none of which the axes set.  Each distinct
    SimConfig runs once: a point that two axes share is one RunOutput in
    both tables.  The base seed is reused so sweep points share
    underlying draws where shapes allow, smoothing the trend."""
    grid = {}
    for axis, values in axes.items():
        if axis not in _SWEEP_AXES:
            raise ValueError(f"unknown sweep axis {axis!r}")
        if isinstance(values, (str, bytes)) or not (
                isinstance(values, Sequence) or getattr(values, "ndim", None) == 1):
            raise ValueError(f"{axis} values must be a sequence of numbers, got {values!r}")
        if len(values) == 0:
            raise ValueError("sweep needs at least one value")
        grid[axis] = []
        for value in values:
            try:
                grid[axis].append((value, replace(config, **{_SWEEP_AXES[axis]: value})))
            except ValueError as exc:
                raise ValueError(f"{axis} value {value!r}: {exc}") from None
    distinct = dict.fromkeys(point for points in grid.values() for _, point in points)
    runs = {point: compare_policies(point, policies) for point in distinct}
    return {axis: [(float(value), runs[point]) for value, point in points]
            for axis, points in grid.items()}


def paired_one_sided_pvalue(a: Metrics, b: Metrics) -> float | None:
    """P-value for mean(a) > mean(b) with (drop, sub-frame) cells paired:
    the one-sided paired t-test, with the statistic scipy.stats.ttest_rel
    computes and a Student-t tail within 1e-12 of scipy.special.stdtr,
    absolute (tests/test_engine.py).  None with fewer than two paired
    cells, where the test is undefined.  A constant nonzero difference has
    no spread: 0.0 when it favours a, 1.0 otherwise."""
    x = a.served_counts.ravel().astype(float)
    y = b.served_counts.ravel().astype(float)
    n = x.size
    if n < 2:
        return None
    if np.array_equal(x, y):
        return 1.0
    d = x - y
    mean = d.mean()
    var = ((d - mean) ** 2).mean() * (n / (n - 1))
    with np.errstate(divide="ignore"):
        t = mean / np.sqrt(var / n)
    return _t_tail(n - 1.0, float(t))


# --------------------------------------------------------------- statistics
# Student's t with df degrees of freedom, from the regularized incomplete
# beta function: P(T >= t) = I_x(df/2, 1/2) / 2 for t >= 0, with
# x = df / (df + t^2).  Plain floats and math, so no run loads scipy.

def _log_gamma_ratio(a: float) -> float:
    """log Γ(a + ½) − log Γ(a).  From a = 20 on, by its asymptotic series,
    truncated below 4e-15: the difference of two lgamma values keeps
    their rounding error, 1.9e-9 at a = 5e6."""
    if a < 20.0:
        return math.lgamma(a + 0.5) - math.lgamma(a)
    u = 1.0 / (a * a)
    return (0.5 * math.log(a)
            - (1 / 8 - u * (1 / 192 - u * (1 / 640 - u * 17 / 14336))) / a)


def _beta_cf(a: float, b: float, x: float, y: float, lam: float) -> float:
    """I_x(a, b) · B(a, b) / (x^a · y^b), for y = 1 − x and
    lam = (a + b)·y − b >= 0, by the continued fraction BFRAC of
    DiDonato and Morris (ACM TOMS 708, 1992).  It takes y and lam as
    given, so it stays accurate where x is near 1 and a is large; Lentz's
    evaluation of the textbook fraction, which sees only x, was off by
    2.3e-12 at df = 10^6, t = 1.75."""
    c = lam + 1.0
    c0 = b / a
    c1 = 1.0 / a + 1.0
    yp1 = y + 1.0
    p, s = 1.0, a + 1.0
    an, bn, anp1, bnp1 = 0.0, 1.0, 1.0, c / c1
    r = c1 / c
    for n in range(1, 10_000):  # under 250 terms for df up to 10^15
        t = n / a
        w = n * (b - n) * x
        e = a / s
        alpha = p * (p + c0) * e * e * (w * x)
        e = (t + 1.0) / (c1 + t + t)
        beta = n + w / s + e * (c + n * yp1)
        p = t + 1.0
        s += 2.0
        an, anp1 = anp1, alpha * an + beta * anp1
        bn, bnp1 = bnp1, alpha * bn + beta * bnp1
        r0, r = r, anp1 / bnp1
        if abs(r - r0) <= 1e-15 * r:
            break
        an, bn, anp1, bnp1 = an / bnp1, bn / bnp1, r, 1.0
    return r


def _t_tail(df: float, t: float) -> float:
    """P(T >= t) for Student's t with df degrees of freedom."""
    if t < 0:
        return 1.0 - _t_tail(df, -t)
    r = t * t / df
    if r == 0.0:  # t = 0, or t*t/df underflows: ½ within 1e-150
        return 0.5
    if r == math.inf:  # t = inf, or t*t overflows: 0 within 1e-150 at df >= 1
        return 0.0
    a = 0.5 * df
    x, y = 1.0 / (1.0 + r), r / (1.0 + r)  # y = 1 − x, formed directly
    log_x = -math.log1p(r)
    front = math.exp(a * log_x + 0.5 * (math.log(r) + log_x)
                     + _log_gamma_ratio(a) - 0.5 * math.log(math.pi))
    lam = (a + 0.5) * y - 0.5
    if lam >= 0.0:
        return 0.5 * front * _beta_cf(a, 0.5, x, y, lam)
    # x near 1: I_x(a, ½) = 1 − I_y(½, a)
    return 0.5 - 0.5 * front * _beta_cf(0.5, a, y, x, -lam)


def _t975(df: float) -> float:
    """The t with P(T >= t) = 0.025, by Newton's method from the normal
    quantile.  The tail is convex for t > 0 and the start lies below the
    root, so the steps approach it from below and shrink."""
    a = 0.5 * df
    log_peak = _log_gamma_ratio(a) - 0.5 * math.log(math.pi * df)
    t = 1.959963984540054
    for _ in range(100):  # at most 9 steps for df up to 10^7
        density = math.exp(log_peak - (a + 0.5) * math.log1p(t * t / df))
        step = (_t_tail(df, t) - 0.025) / density
        t += step
        if abs(step) <= 1e-12 * t:
            break
    return t


# ---------------------------------------------------------------- artifacts

def log_to_csv(output: RunOutput, policy: str) -> str:
    """Raw log of one policy of the run, one row per (drop, t) in that
    order.  served_ids lists the served users when the run kept its
    served masks, and is empty otherwise.  The rows are the bytes
    csv.writer writes: no field needs quoting.

    One % format renders every row, from one flat tuple of their fields:
    field f of row s sits at s·F + f, F the columns, so each column is one
    strided slice assignment."""
    num_drops, horizon = output.config.num_drops, output.config.horizon
    subframes, width = num_drops * horizon, len(_LOG_HEADER)
    mask = output.served_masks.get(policy)
    if mask is None:
        served = [""] * subframes
    else:  # each row joined from one table of the user-id strings
        ids = [str(k) for k in range(mask.shape[-1])]
        served = [";".join(itertools.compress(ids, row))
                  for row in mask.reshape(subframes, -1).tolist()]
    columns = (np.repeat(np.arange(num_drops), horizon).tolist(),
               np.tile(np.arange(horizon), num_drops).tolist(), [policy] * subframes,
               output.metrics[policy].served_counts.ravel().tolist(), served)
    fields = [None] * (subframes * width)
    for f, column in enumerate(columns):
        fields[f::width] = column
    row = ",".join(["%s"] * width) + "\n"
    return ",".join(_LOG_HEADER) + "\n" + row * subframes % tuple(fields)


def sweep_to_csv(axis: str, table: list[tuple[float, RunOutput]]) -> str:
    """One row per (value, policy), policies sorted.  The rows are the
    bytes csv.writer writes: every field is a number or a policy name."""
    lines = [",".join((axis, "policy", *_AGGREGATES))]
    for value, output in table:
        for policy, m in sorted(output.metrics.items()):
            fields = (f"{getattr(m, name):.6f}" for name in _AGGREGATES)
            lines.append(f"{value:.6f},{policy},{','.join(fields)}")
    lines.append("")
    return "\n".join(lines)


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
