"""Tests of the benchmark itself.

Run from the root of a checkout:  python3 perfbench/selftest.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from dataclasses import replace
from pathlib import Path

from workloads import ROOT, WORKLOADS, use_source_tree

use_source_tree()
import harness  # noqa: E402
import hostspeed  # noqa: E402

HERE = Path(__file__).resolve().parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

# Tiny versions of the real workloads: same entry points and policies.
TINY = {
    name: replace(wl, ues_per_cell=3, horizon=4, num_drops=2)
    for name, wl in WORKLOADS.items()
}


def _run_bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd,
        capture_output=True, text=True, timeout=180,
    )


class TracedCallCounts(unittest.TestCase):
    def test_counts_are_exact(self):
        with tempfile.TemporaryDirectory() as tmp:
            for name, wl in TINY.items():
                with self.subTest(workload=name):
                    chunk = harness.run_chunk(wl, 5, Path(tmp), harness.Tracer())
                    self.assertIsNone(chunk.error)
                    names = [s[2] for s in chunk.spans]
                    steps = wl.num_drops * wl.horizon
                    self.assertEqual(names.count("channel.sample_subframe"), steps)
                    self.assertEqual(names.count("coverage.build_instance"),
                                     steps * len(wl.policies))
                    self.assertEqual(names.count("channel.model_init"), wl.num_drops)
                    metrics = harness.layer_metrics([chunk])
                    self.assertEqual(
                        metrics["channel.sample_subframe.calls_per_subframe"][0], 1.0)
                    self.assertEqual(
                        metrics["coverage.build_instance.calls_per_subframe"][0],
                        float(len(wl.policies)))
                    for policy in ("cga", "dga", "sc", "mbsfn", "exact"):
                        calls = metrics[f"coverage.solve_{policy}.samples"][0]
                        self.assertEqual(
                            calls, steps if policy in wl.policies else 0)

    def test_self_time_excludes_children(self):
        spans = [(1, 0, "root", 0, 10_000), (2, 1, "engine.compare_policies", 0, 10_000),
                 (3, 2, "coverage.build_instance", 1_000, 4_000),
                 (4, 2, "coverage.build_instance", 5_000, 7_000)]
        chunk = harness.Chunk(seed=1, steps=2, spans=spans, root=1)
        metrics = harness.layer_metrics([chunk])
        self.assertAlmostEqual(metrics["coverage.build_instance.self_share"][0], 0.5)
        self.assertAlmostEqual(metrics["engine.self_share"][0], 0.5)

    def test_tail_has_ten_samples_beyond(self):
        self.assertEqual(harness.tail(list(range(1000))), (99.0, 989))
        self.assertEqual(harness.tail(list(range(100))), (90.0, 89))
        self.assertEqual(harness.tail([]), (0.0, 0.0))


class PinnedDigests(unittest.TestCase):
    def test_corrupted_digest_counts_as_wrong(self):
        with tempfile.TemporaryDirectory() as tmp:
            for name in ("fig4_m70_cli", "exact_n4"):
                wl = TINY[name]
                with self.subTest(workload=name):
                    chunk = harness.run_chunk(wl, 7, Path(tmp))
                    pinned = {"rows": dict(chunk.rows), "files": dict(chunk.files)}
                    rows = len(pinned["rows"])
                    again = harness.run_chunk(wl, 7, Path(tmp))
                    self.assertEqual(harness.check(again, pinned), (rows, 0))
                    key = sorted(pinned["rows"])[0]
                    pinned["rows"][key] = "0" * 16
                    self.assertEqual(harness.check(again, pinned), (rows, 1))
                    failed = harness.Chunk(seed=7, steps=wl.steps, error="boom")
                    self.assertEqual(harness.check(failed, pinned), (rows, rows))

    def test_corrupted_summary_marks_every_row_wrong(self):
        with tempfile.TemporaryDirectory() as tmp:
            chunk = harness.run_chunk(TINY["fig4_m70_cli"], 7, Path(tmp))
            pinned = {"rows": dict(chunk.rows), "files": dict(chunk.files)}
            pinned["files"]["summary.json"] = "0" * 16
            rows = len(pinned["rows"])
            self.assertEqual(harness.check(chunk, pinned), (rows, rows))

    def test_pinned_digests_match_this_program(self):
        reference = harness.load_reference()
        with tempfile.TemporaryDirectory() as tmp:
            for name, wl in WORKLOADS.items():
                with self.subTest(workload=name):
                    chunk = harness.run_chunk(wl, 1, Path(tmp))
                    pinned = reference["workloads"][name]["1"]
                    self.assertEqual(harness.check(chunk, pinned),
                                     (len(pinned["rows"]), 0))


class HostSpeed(unittest.TestCase):
    def test_scale_is_reference_over_measured_tick(self):
        ref_ns = int(hostspeed.REF_TICK_US * 1e3)
        self.assertEqual(hostspeed.SpeedProbe().scale(), 1.0)
        self.assertAlmostEqual(hostspeed.SpeedProbe(4, 8 * ref_ns).scale(), 0.5)

    def test_probe_leaves_outputs_alone(self):
        with tempfile.TemporaryDirectory() as tmp:
            wl = TINY["fig4_m70_cli"]
            plain = harness.run_chunk(wl, 7, Path(tmp))
            probed = harness.run_chunk(replace(wl, horizon=200), 7, Path(tmp),
                                       probe=True)
            again = harness.run_chunk(wl, 7, Path(tmp), probe=True)
            self.assertIsNone(probed.error)
            self.assertNotEqual(probed.scale, 1.0)
            self.assertEqual((again.rows, again.files), (plain.rows, plain.files))


class PrintedMetrics(unittest.TestCase):
    def _result(self, trace: str) -> dict:
        proc = _run_bench("--workload", "exact_n4", "--seed", "3",
                          "--seconds", "1", "--trace", trace)
        self.assertEqual(proc.returncode, 0, proc.stderr)
        return json.loads(proc.stdout.strip().splitlines()[-1])

    def test_names_and_units_match_benchmark_json(self):
        for trace, key in (("0", "end_to_end"), ("1", "per_layer")):
            with self.subTest(trace=trace):
                result = self._result(trace)
                self.assertEqual(set(result), {"correct", "attempted", "failed",
                                               "metrics"})
                self.assertTrue(result["correct"])
                self.assertEqual(result["failed"], 0)
                self.assertGreaterEqual(result["attempted"], 1)
                expected = {m["name"]: m["unit"] for m in BENCHMARK[key]}
                printed = {n: m["unit"] for n, m in result["metrics"].items()}
                self.assertEqual(printed, expected)
        calls = result["metrics"]["coverage.build_instance.calls_per_subframe"]
        self.assertEqual(calls["value"], 2.0)

    def test_fails_without_program_sources(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copy(ROOT / "BENCHMARK.json", tmp)
            shutil.copytree(HERE, Path(tmp) / "perfbench",
                            ignore=shutil.ignore_patterns("out", "__pycache__"))
            proc = _run_bench("--workload", "exact_n4", "--seconds", "1",
                              "--trace", "0", cwd=Path(tmp))
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn('"metrics"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
