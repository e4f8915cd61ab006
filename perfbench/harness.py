"""Chunk runner, output digests, tracer and per-layer statistics.

Import only after workloads.use_source_tree() has put src/ on sys.path.
"""

from __future__ import annotations

import contextlib
import csv
import functools
import hashlib
import io
import itertools
import json
import math
import shutil
import statistics
import sys
import time
import traceback
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

import mcmcast
import mcmcast.cli
import mcmcast.engine

from hostspeed import SpeedProbe
from workloads import Workload

REFERENCE = Path(__file__).resolve().parent / "reference.json"

# (owner, attribute, span name).  Owners are looked up where engine and cli
# find them at call time; a name a later refactor removes is skipped and its
# layer reports zero calls.
_TARGETS = (
    ("engine", "build_hex7", "topology.build_hex7"),
    ("engine", "connectivity_mode", "topology.connectivity_mode"),
    ("engine.ChannelModel", "__init__", "channel.model_init"),
    ("engine.ChannelModel", "draw_shadowing", "channel.draw_shadowing"),
    ("engine.ChannelModel", "sample_subframe", "channel.sample_subframe"),
    ("engine", "build_instance", "coverage.build_instance"),
    ("engine", "solve_cga", "coverage.solve_cga"),
    ("engine", "solve_dga", "coverage.solve_dga"),
    ("engine", "solve_sc", "coverage.solve_sc"),
    ("engine", "solve_mbsfn", "coverage.solve_mbsfn"),
    ("engine", "solve_exact", "coverage.solve_exact"),
    ("engine", "parse_trace", "traffic.parse_trace"),
    ("engine", "schedule_constant", "traffic.schedule_constant"),
    ("engine", "schedule_from_trace", "traffic.schedule_from_trace"),
    ("cli", "write_synthetic_trace", "traffic.write_synthetic_trace"),
    ("cli", "compare_policies", "engine.compare_policies"),
    ("cli", "log_to_csv", "cli.log_to_csv"),
    ("cli", "summary_to_json", "cli.summary_to_json"),
    ("cli", "_write", "cli.write"),
)
_ARTIFACT_SPANS = ("cli.log_to_csv", "cli.summary_to_json", "cli.write")
POLICY_LAYERS = tuple(f"coverage.solve_{p}" for p in mcmcast.POLICIES)
STEP_LAYERS = ("coverage.build_instance", "channel.sample_subframe")
DROP_LAYERS = ("channel.model_init", "channel.draw_shadowing",
               "topology.build_hex7", "topology.connectivity_mode")
_TAIL_LADDER = (99.99, 99.9, 99.0, 90.0, 50.0)


def _owner(path: str):
    obj = {"engine": mcmcast.engine, "cli": mcmcast.cli}[path.split(".")[0]]
    for part in path.split(".")[1:]:
        obj = getattr(obj, part, None)
    return obj


class Tracer:
    """In-memory spans (id, parent id, name, start ns, end ns) recorded
    around the names listed in _TARGETS while installed."""

    def __init__(self) -> None:
        self.spans: list[tuple[int, int, str, int, int]] = []
        self._stack = [0]
        self._ids = itertools.count(1)

    @contextlib.contextmanager
    def span(self, name: str):
        sid, parent = next(self._ids), self._stack[-1]
        self._stack.append(sid)
        t0 = time.perf_counter_ns()
        try:
            yield sid
        finally:
            t1 = time.perf_counter_ns()
            self._stack.pop()
            self.spans.append((sid, parent, name, t0, t1))

    def wrap(self, name: str, fn):
        spans, stack, ids, clock = self.spans, self._stack, self._ids, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid, parent = next(ids), stack[-1]
            stack.append(sid)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans.append((sid, parent, name, t0, t1))
        return traced

    @contextlib.contextmanager
    def installed(self):
        saved = []
        for owner_path, attr, name in _TARGETS:
            owner = _owner(owner_path)
            if owner is None or getattr(owner, attr, None) is None:
                continue
            saved.append((owner, attr, vars(owner).get(attr)))
            setattr(owner, attr, self.wrap(name, getattr(owner, attr)))
        try:
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                if original is None:
                    delattr(owner, attr)
                else:
                    setattr(owner, attr, original)


@dataclass
class Chunk:
    """One timed call into the program and what it produced."""

    seed: int
    steps: int
    seconds: float = math.nan   # wall time of the call, probe ticks excluded
    scale: float = 1.0          # hostspeed scale while the call ran
    rows: dict[str, str] = field(default_factory=dict)    # "policy/drop" -> digest
    files: dict[str, str] = field(default_factory=dict)   # artifact -> digest
    artifact_bytes: int = 0
    error: str | None = None
    spans: list = field(default_factory=list)
    root: int = 0


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def row_digest(policy: str, drop: int, counts) -> str:
    text = f"{policy}/{drop}:" + ",".join(str(int(c)) for c in counts)
    return _digest(text.encode())


def run_chunk(wl: Workload, seed: int, scratch: Path,
              tracer: Tracer | None = None, probe: bool = False) -> Chunk:
    """Run one chunk; only the call into mcmcast is timed, with a SpeedProbe
    running if probe is set.  Any exception is reported on stderr and leaves
    the chunk without rows."""
    chunk = Chunk(seed=seed, steps=wl.steps)
    scratch.mkdir(parents=True, exist_ok=True)
    hooks = tracer.installed() if tracer else contextlib.nullcontext()
    root = tracer.span if tracer else (lambda name: contextlib.nullcontext(0))
    speed = SpeedProbe()

    @contextlib.contextmanager
    def timed(name):
        with speed.running() if probe else contextlib.nullcontext():
            t0 = time.perf_counter()
            with root(name) as chunk.root:
                yield
            chunk.seconds = time.perf_counter() - t0 - speed.seconds
        chunk.scale = speed.scale()

    try:
        with hooks:
            if wl.entry == "cli":
                out = scratch / "artifacts"
                shutil.rmtree(out, ignore_errors=True)
                argv = wl.cli_argv(seed, out)
                with contextlib.redirect_stdout(io.StringIO()):
                    with timed("cli.main"):
                        code = mcmcast.cli.main(argv)
                if code != 0:
                    raise RuntimeError(f"mcmcast run exited with code {code}")
                _digest_artifacts(wl, out, chunk)
            else:
                trace_path = None
                if wl.synthetic_trace:
                    trace_path = str(scratch / f"trace-{seed}.txt")
                    if not Path(trace_path).exists():
                        mcmcast.write_synthetic_trace(trace_path, seed=seed)
                config = wl.config(mcmcast, seed, trace_path)
                with timed("engine.compare_policies"):
                    output = mcmcast.compare_policies(config, wl.policies)
                for p in wl.policies:
                    for d, counts in enumerate(output.metrics[p].served_counts):
                        chunk.rows[f"{p}/{d}"] = row_digest(p, d, counts)
    except Exception:
        chunk.error = traceback.format_exc()
        chunk.rows, chunk.files = {}, {}
        print(f"chunk seed={seed} failed:\n{chunk.error}", file=sys.stderr)
    if tracer:
        chunk.spans, tracer.spans[:] = list(tracer.spans), []
    return chunk


def _digest_artifacts(wl: Workload, out: Path, chunk: Chunk) -> None:
    names = [f"log_{p}.csv" for p in wl.policies] + ["summary.json"]
    for name in names:
        data = (out / name).read_bytes()
        chunk.files[name] = _digest(data)
        chunk.artifact_bytes += len(data)
    for p in wl.policies:
        counts: dict[int, list[int]] = defaultdict(list)
        with open(out / f"log_{p}.csv", newline="", encoding="utf-8") as fh:
            for row in csv.DictReader(fh):
                counts[int(row["drop"])].append(int(row["served_count"]))
        for d, seq in counts.items():
            chunk.rows[f"{p}/{d}"] = row_digest(p, d, seq)


def load_reference() -> dict:
    return json.loads(REFERENCE.read_text(encoding="utf-8"))


def check(chunk: Chunk, pinned: dict) -> tuple[int, int]:
    """(rows attempted, rows wrong) of one chunk against its pinned entry.

    A row is wrong when its served-count digest differs, or when an artifact
    that carries it (its policy's log, or summary.json) differs."""
    wrong = 0
    for key, digest in pinned["rows"].items():
        carriers = (f"log_{key.split('/')[0]}.csv", "summary.json")
        ok = chunk.rows.get(key) == digest and all(
            chunk.files.get(name) == d
            for name, d in pinned["files"].items() if name in carriers
        )
        wrong += not ok
    return len(pinned["rows"]), wrong


# ------------------------------------------------------------- statistics

def percentile(values, pct: float) -> float:
    """Nearest-rank percentile of a non-empty sequence."""
    ordered = sorted(values)
    return ordered[max(1, math.ceil(pct * len(ordered) / 100 - 1e-9)) - 1]


def tail(values) -> tuple[float, float]:
    """(percentile, value) of the highest ladder percentile that still has at
    least ten samples beyond it; p50 when there are too few samples."""
    n = len(values)
    if not n:
        return 0.0, 0.0
    for pct in _TAIL_LADDER:
        if n - max(1, math.ceil(pct * n / 100 - 1e-9)) >= 10:
            return pct, percentile(values, pct)
    return 50.0, percentile(values, 50.0)


def summarize(values: list[float]) -> dict:
    """Median, quartiles and tail of a sample, with its size."""
    if not values:
        return {"n": 0}
    pct, value = tail(values)
    out = {"n": len(values), "median": statistics.median(values),
           f"p{pct:g}": value}
    if len(values) >= 2:
        out["q1"], _, out["q3"] = statistics.quantiles(values, n=4)
    return out


def throughput(chunks) -> float:
    """Sub-frames per second over every chunk that completed, each chunk's
    time scaled to the reference host speed (unscaled without a probe)."""
    done = [c for c in chunks if c.error is None]
    seconds = sum(c.seconds * c.scale for c in done)
    return sum(c.steps for c in done) / seconds if seconds else 0.0


def layer_metrics(chunks: list[Chunk]) -> dict[str, tuple[float, str]]:
    """Per-layer metrics from traced chunks: name -> (value, unit).

    Only spans inside a chunk's timed root count.  A span's self time is its
    duration minus the time its direct children cover (single-threaded, so
    children never overlap)."""
    durations: dict[str, list[float]] = defaultdict(list)
    self_ns: dict[str, int] = defaultdict(int)
    root_ns = steps = 0
    traffic_us, artifact_us = [], []
    for chunk in chunks:
        by_id = {s[0]: s for s in chunk.spans}
        if chunk.root not in by_id:
            continue
        _, _, _, r0, r1 = by_id[chunk.root]
        root_ns += r1 - r0
        steps += chunk.steps
        covered: dict[int, int] = defaultdict(int)
        for _, parent, _, t0, t1 in chunk.spans:
            covered[parent] += t1 - t0
        traffic = artifacts = 0.0
        for sid, _, name, t0, t1 in chunk.spans:
            if not (r0 <= t0 and t1 <= r1):
                continue
            us = (t1 - t0) / 1e3
            durations[name].append(us)
            self_ns[name] += t1 - t0 - covered[sid]
            if name.startswith("traffic."):
                traffic += us
            if name in _ARTIFACT_SPANS:
                artifacts += us
        traffic_us.append(traffic)
        artifact_us.append(artifacts)

    def share(name):
        return self_ns[name] / root_ns if root_ns else 0.0

    def p50(name):
        return percentile(durations[name], 50) if durations[name] else 0.0

    out: dict[str, tuple[float, str]] = {}
    for name in STEP_LAYERS + POLICY_LAYERS:
        if name in STEP_LAYERS:
            out[f"{name}.calls_per_subframe"] = (
                len(durations[name]) / steps if steps else 0.0, "calls/subframe")
        pct, value = tail(durations[name])
        out[f"{name}.us_p50"] = (p50(name), "us")
        out[f"{name}.us_tail"] = (value, "us")
        out[f"{name}.us_tail_pct"] = (pct, "%")
        out[f"{name}.samples"] = (len(durations[name]), "count")
        out[f"{name}.self_share"] = (share(name), "fraction")
    for name in DROP_LAYERS:
        out[f"{name}.us_p50"] = (p50(name), "us")
    out["traffic.schedule_us"] = (
        statistics.median(traffic_us) if traffic_us else 0.0, "us")
    out["engine.self_share"] = (share("engine.compare_policies"), "fraction")
    cli_chunks = [c for c in chunks if c.artifact_bytes]
    out["cli.artifacts_us"] = (
        statistics.median(artifact_us) if cli_chunks else 0.0, "us")
    out["cli.artifact_bytes"] = (
        statistics.median(c.artifact_bytes for c in cli_chunks)
        if cli_chunks else 0, "B")
    return out


def write_spans(path: Path, chunks: list[Chunk]) -> None:
    """One JSON line per span: chunk seed, id, parent, name, start, end (ns)."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        for chunk in chunks:
            for span in chunk.spans:
                fh.write(json.dumps([chunk.seed, *span]) + "\n")
