"""Set-up probe, run in a fresh interpreter by run.py, which times the whole
process from spawn to exit.

Usage: python3 perfbench/setup_probe.py WORKLOAD CHUNK_SEED SCRATCH_DIR

Imports mcmcast and builds the config and traffic schedule the workload's
first chunk receives, stopping where compare_policies would start.  A
SpeedProbe runs meanwhile; its tick count and nanoseconds are the stdout line.
"""

import json
import sys
from pathlib import Path

from hostspeed import SpeedProbe
from workloads import WORKLOADS, use_source_tree


def main(argv: list[str]) -> int:
    wl, seed, scratch = WORKLOADS[argv[1]], int(argv[2]), Path(argv[3])
    if not use_source_tree():
        print("error: no src/mcmcast in this checkout", file=sys.stderr)
        return 2
    import mcmcast

    trace_path = None
    if wl.entry == "cli":
        import mcmcast.cli
        mcmcast.cli.build_parser().parse_args(wl.cli_argv(seed, scratch))
    if wl.synthetic_trace:
        trace_path = mcmcast.write_synthetic_trace(
            str(scratch / "probe-trace.txt"), seed=seed
        )
    config = wl.config(mcmcast, seed, trace_path)
    if trace_path:
        mcmcast.schedule_from_trace(
            mcmcast.parse_trace(trace_path), config.fps,
            config.channel.subframe_s, config.burst,
        )
    else:
        mcmcast.schedule_constant(
            config.rate_bits, config.horizon, config.channel.subframe_s
        )
    return 0


if __name__ == "__main__":
    probe = SpeedProbe()
    with probe.running():
        code = main(sys.argv)
    print(json.dumps({"ticks": probe.ticks, "ns": probe.ns}))
    sys.exit(code)
