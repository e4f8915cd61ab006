"""Pin reference digests for every workload over the whole seed pool.

Usage: python3 perfbench/pin.py COMMIT

Writes perfbench/reference.json.  Run it only on the commit whose outputs
are the reference, and record that commit as COMMIT; a change whose outputs
differ on purpose re-pins and says why.
"""

from __future__ import annotations

import json
import shutil
import sys
from dataclasses import asdict

from workloads import POOL_SIZE, WORKLOADS, use_source_tree


def main(argv: list[str]) -> int:
    if len(argv) != 2 or not use_source_tree():
        print(__doc__, file=sys.stderr)
        return 2
    import harness

    reference = {"commit": argv[1], "pool_size": POOL_SIZE,
                 "spec": {}, "workloads": {}}
    scratch = harness.REFERENCE.parent / "out" / "pin"
    try:
        for name, wl in WORKLOADS.items():
            pinned = {}
            for seed in range(1, POOL_SIZE + 1):
                chunk = harness.run_chunk(wl, seed, scratch)
                if chunk.error:
                    return 1
                pinned[str(seed)] = {"rows": chunk.rows, "files": chunk.files}
            reference["spec"][name] = asdict(wl)
            reference["workloads"][name] = pinned
            print(f"pinned {name}: {POOL_SIZE} seeds", file=sys.stderr)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    harness.REFERENCE.write_text(
        json.dumps(reference, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
