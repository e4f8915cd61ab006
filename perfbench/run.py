"""mcmcast benchmark: simulated sub-frames per second on the paper's workloads.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload fig4_m70_cli --seed 1 --seconds 30 --trace 0

With --trace 0 the last stdout line carries the end-to-end metrics:
subframes_per_s (steps over seconds, summed across the timed chunks),
setup_s (median of fresh-interpreter set-up probes), peak_rss_mb and
outputs_correct_frac (share of (policy, drop) served-count rows matching
reference.json).  The two times are scaled to the reference host speed that
hostspeed.py measures alongside them; the unscaled rate is on the line
before.  With --trace 1 it carries the per-layer metrics from interleaved
traced and untraced chunks, unscaled, and the spans go to perfbench/out/.
The line before the result holds the machine facts and the distributions
behind the medians.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import asdict, replace
from pathlib import Path

# One thread per workload process: keep BLAS pools out of the measurement.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

from hostspeed import SpeedProbe  # noqa: E402
from workloads import ROOT, WORKLOADS, chunk_seeds, use_source_tree  # noqa: E402

HERE = Path(__file__).resolve().parent
OUT = HERE / "out"
SETUP_PROBES = 5


def machine_facts() -> dict:
    import numpy
    import scipy
    return {
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def setup_times(name: str, seed: int, scratch: Path) -> list[float]:
    """Spawn-to-exit time of each set-up probe, its SpeedProbe ticks
    excluded and scaled to the reference host speed."""
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), name, str(seed),
             str(scratch)],
            check=True, timeout=60, cwd=ROOT, stdout=subprocess.PIPE, text=True,
        )
        wall = time.perf_counter() - t0
        speed = SpeedProbe(**json.loads(proc.stdout.splitlines()[-1]))
        times.append((wall - speed.seconds) * speed.scale())
    return times


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not use_source_tree():
        print(f"error: no mcmcast sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    import harness  # needs src/ on sys.path

    wl = WORKLOADS[args.workload]
    reference = harness.load_reference()
    if reference["spec"].get(wl.name) != json.loads(json.dumps(asdict(wl))):
        print(f"error: reference.json was pinned for another {wl.name}",
              file=sys.stderr)
        return 2
    pinned = reference["workloads"][wl.name]
    seeds = chunk_seeds(args.seed)
    scratch = OUT / f"tmp-{os.getpid()}"
    try:
        scratch.mkdir(parents=True)
        setup = [] if args.trace else setup_times(wl.name, seeds[0], scratch)
        tracer = harness.Tracer() if args.trace else None
        chunks, traced = [], []
        # The first chunk is a warm-up: checked, never timed.
        warmup = harness.run_chunk(wl, seeds[0], scratch)
        deadline = time.perf_counter() + args.seconds
        i = 1
        while time.perf_counter() < deadline or (tracer and not traced):
            use_tracer = tracer if i % 2 == 0 else None
            chunk = harness.run_chunk(wl, seeds[i % len(seeds)], scratch,
                                      use_tracer, probe=not args.trace)
            (traced if use_tracer else chunks).append(chunk)
            i += 1
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    attempted = failed = 0
    for chunk in [warmup, *chunks, *traced]:
        n, wrong = harness.check(chunk, pinned[str(chunk.seed)])
        attempted += n
        failed += wrong
    rate = harness.throughput(chunks)
    info = {
        "workload": wl.name, "seed": args.seed, "trace": args.trace,
        "machine": machine_facts(),
        "subframes_per_s": rate,
        "chunk_s": harness.summarize([c.seconds for c in chunks if c.error is None]),
        "chunk_scale": harness.summarize([c.scale for c in chunks]),
        "wall_subframes_per_s": harness.throughput(
            [replace(c, scale=1.0) for c in chunks]),
        "chunk_seeds": [c.seed for c in [warmup, *chunks, *traced]],
    }
    if args.trace:
        metrics = {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in harness.layer_metrics(traced).items()
        }
        traced_rate = harness.throughput(traced)
        overhead = 1.0 - traced_rate / rate if rate else 0.0
        metrics["trace.overhead_frac"] = {"value": overhead, "unit": "fraction"}
        info["traced_subframes_per_s"] = traced_rate
        spans = OUT / f"spans-{wl.name}-seed{args.seed}.jsonl"
        harness.write_spans(spans, traced)
        info["spans"] = str(spans.relative_to(ROOT))
    else:
        info["setup_s"] = harness.summarize(setup)
        peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        metrics = {
            "subframes_per_s": {"value": rate, "unit": "1/s"},
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "peak_rss_mb": {"value": peak_kib / 1024.0, "unit": "MB"},
            "outputs_correct_frac": {
                "value": (attempted - failed) / attempted, "unit": "fraction"},
        }
    print(json.dumps(info))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
