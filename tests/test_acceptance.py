"""End-to-end acceptance gate.

Each criterion owns one test and prints a single pass/fail line; run
`pytest tests/test_acceptance.py -v -s` to see the lines.  Criterion 2
is split: the uniform per-iteration bound is checked in its strict form
(expected to fail -- counterexamples exist, see
tests/test_coverage.py::TestGreedyVersusExact) and in the restricted
form that does hold with zero tolerance.  Criterion 10 checks the greedy
and the exhaustive oracle at the paper's own size, C = 7 and N = 10,
against each sub-frame's optimum from a test-only MILP whose value the
served count of its own allocation certifies.
"""

import itertools
import subprocess
import sys
import time
from contextlib import contextmanager

import numpy as np
import pytest

from mcmcast.channel import ChannelParams, link_budget, path_loss, snr
from mcmcast.coverage import (
    GREEDY_BOUND,
    cga_block,
    dga_block,
    exact_block,
    mbsfn_block,
    random_instance,
    served_block,
    unpack,
)
from mcmcast import engine
from mcmcast.engine import SimConfig, compare_policies, paired_one_sided_pvalue, sweep
from mcmcast.topology import build_hex7
from mcmcast.traffic import write_synthetic_trace
from oracles import (
    McpInstance,
    cga_history,
    chosen_by,
    map_solution,
    milp_optimum,
    reduce_mcp,
    served_count,
    served_set,
    served_users,
)

ORACLE_SEED = 1
ORACLE_INSTANCES = 200


@contextmanager
def criterion(num, text):
    try:
        yield
    except BaseException:
        print(f"\ncriterion {num}: FAIL - {text}")
        raise
    print(f"\ncriterion {num}: PASS - {text}")


def oracle_suite():
    rng = np.random.default_rng(ORACLE_SEED)
    for _ in range(ORACLE_INSTANCES):
        cover = random_instance(rng, max_users=12, max_cells=4, max_prbs=4)
        opt = served_count(exact_block, cover)
        history = cga_history(cover, chosen_by(cga_block, cover))
        yield len(cover), opt, (0,) + history


def test_c1_greedy_within_coverage_bound_of_exact():
    with criterion(1, "greedy/exact >= 1 - 1/e on 200 random instances"):
        start = time.monotonic()
        for c, opt, m in oracle_suite():
            greedy = m[c]
            assert greedy <= opt
            if opt:
                assert greedy / opt >= GREEDY_BOUND
        assert time.monotonic() - start < 30.0


@pytest.mark.xfail(
    strict=True,
    reason="the uniform per-iteration bound gain_n * C >= OPT - m_n can "
    "fail once greedy has spent a cell the optimum needs (about 1.6% of "
    "random instances); the restricted form below is what holds with "
    "zero tolerance",
)
def test_c2_per_iteration_bounds_strict_form():
    with criterion("2 (strict)", "per-iteration bounds on every instance"):
        for c, opt, m in oracle_suite():
            for n in range(c):
                assert (m[n + 1] - m[n]) * c >= opt - m[n]
                assert (opt - m[n]) * c ** n <= (c - 1) ** n * opt


def test_c2_per_iteration_bounds_restricted_form():
    with criterion(
        "2 (restricted)",
        "integer bounds that do hold: first-iteration gain covers OPT/C, "
        "gains never increase, greedy never exceeds OPT",
    ):
        for c, opt, m in oracle_suite():
            assert m[1] * c >= opt
            gains = [m[n + 1] - m[n] for n in range(c)]
            assert all(a >= b for a, b in zip(gains, gains[1:]))
            assert m[c] <= opt


def test_c3_two_cell_worked_example_bit_exact():
    with criterion(3, "fixed 2-cell/6-user example: CGA 6, DGA 5, MBSFN 5"):
        rates = np.full((2, 2, 6), 0.5)
        for c, j, users in [(0, 0, {0, 1}), (0, 1, {1, 2, 3}),
                            (1, 1, {2, 3, 4, 5})]:
            for k in users:
                rates[c, j, k] = 2.0
        # (C, M): user 1 hears only cell 0, users 4 and 5 only cell 1.
        eligible = np.array([[True, True, True, True, False, False],
                             [True, False, True, True, True, True]])
        cover = (rates >= 2.0) & eligible[:, None, :]

        cga = chosen_by(cga_block, cover)
        assert cga == (0, 1)
        assert served_set(cover, cga) == frozenset(range(6))

        dga = chosen_by(dga_block, cover)
        assert dga == (1, 1)
        assert served_set(cover, dga) == frozenset({1, 2, 3, 4, 5})

        assert served_count(mbsfn_block, cover) == 5


def test_c4_reduction_round_trip_matches_direct_solver():
    with criterion(4, "100 reduction round-trips equal brute-force coverage"):
        rng = np.random.default_rng(2)
        for _ in range(100):
            m = int(rng.integers(1, 5))
            k = int(rng.integers(1, min(m, 3) + 1))
            universe = int(rng.integers(1, 11))
            sets = tuple(
                frozenset(int(u) for u in rng.choice(
                    universe, size=rng.integers(0, universe + 1),
                    replace=False))
                for _ in range(m)
            )
            mcp = McpInstance(universe_size=universe, k=k, sets=sets)
            cover = reduce_mcp(mcp)
            picked = map_solution(chosen_by(exact_block, cover))
            covered = frozenset().union(
                frozenset(), *(mcp.sets[i] for i in picked))

            best = 0
            for size in range(1, k + 1):
                for combo in itertools.combinations(range(m), size):
                    union = frozenset().union(*(mcp.sets[i] for i in combo))
                    best = max(best, len(union))
            assert len(covered) == served_count(exact_block, cover) == best


def test_c5_coordinated_beats_uncoordinated_at_scale():
    with criterion(5, "CGA > DGA, paired one-sided test at 95%, < 2 min"):
        start = time.monotonic()
        cfg = SimConfig(ues_per_cell=10, radius_m=500.0, horizon=1000,
                        num_drops=5, seed=7, rate_bits=400.0)
        out = compare_policies(cfg, ("cga", "dga"))
        elapsed = time.monotonic() - start
        cga, dga = out.metrics["cga"], out.metrics["dga"]
        assert cga.avg_packets_delivered > dga.avg_packets_delivered
        assert paired_one_sided_pvalue(cga, dga) < 0.05
        assert elapsed < 120.0


def _violations(values, direction):
    if direction == "down":
        return sum(1 for a, b in zip(values, values[1:]) if b > a + 1e-12)
    return sum(1 for a, b in zip(values, values[1:]) if b < a - 1e-12)


def test_c6_sweep_trends_monotone_within_tolerance():
    with criterion(6, "service ratio falls / unserved grows along both "
                      "sweeps (<= 1 noisy pair each)"):
        cfg = SimConfig(radius_m=1000.0, horizon=500, num_drops=3, seed=1,
                        rate_bits=400.0)
        sweeps = sweep(cfg, {"users_per_cell": [5, 10, 20, 40],
                             "radius": [250.0, 500.0, 750.0, 1000.0]},
                       policies=("cga", "sc"))
        for axis, table in sweeps.items():
            for policy in ("cga", "sc"):
                ratio = [out.metrics[policy].per_ue_service_ratio
                         for _, out in table]
                unserved = [out.metrics[policy].avg_unserved_per_cell
                            for _, out in table]
                assert _violations(ratio, "down") <= 1, (axis, policy, ratio)
                assert _violations(unserved, "up") <= 1, (axis, policy,
                                                          unserved)


def test_c7_trace_driven_orderings_and_oracle_ceiling(tmp_path):
    with criterion(7, "trace-driven MC-CGA > SC and > MBSFN at 95%; "
                      "MBSFN <= EXACT per sub-frame"):
        trace = write_synthetic_trace(str(tmp_path / "trace.txt"), seed=3)
        cfg = SimConfig(radius_m=1000.0, horizon=600, num_drops=3, seed=3,
                        trace_path=trace)
        out = compare_policies(cfg, ("cga", "sc", "mbsfn"))
        cga = out.metrics["cga"]
        for rival in ("sc", "mbsfn"):
            assert cga.avg_packets_delivered > \
                out.metrics[rival].avg_packets_delivered
            assert paired_one_sided_pvalue(cga, out.metrics[rival]) < 0.05

        small = SimConfig(radius_m=1000.0, horizon=30, num_drops=2, seed=4,
                          num_prbs=2, ues_per_cell=3, trace_path=trace)
        pair = compare_policies(small, ("mbsfn", "exact"))
        assert (pair.metrics["mbsfn"].served_counts
                <= pair.metrics["exact"].served_counts).all()


def test_c8_presets_are_byte_deterministic(tmp_path):
    with criterion(8, "fixed-seed preset reruns produce byte-identical CSVs"):
        runs = {
            "fig8_mbsfn_vs_mc": ["--subframes", "40", "--drops", "2",
                                 "--ues", "5"],
            "fig5_packets_sweep": ["--subframes", "5", "--drops", "1",
                                   "--ues", "3"],
        }
        for preset, extra in runs.items():
            outputs = []
            for tag in ("a", "b"):
                out = tmp_path / preset / tag
                cmd = [sys.executable, "-m", "mcmcast.cli", "run",
                       "--preset", preset, "--seed", "13",
                       "--out", str(out)] + extra
                proc = subprocess.run(cmd, capture_output=True, text=True)
                assert proc.returncode == 0, proc.stderr
                outputs.append(sorted(out.glob("*.csv")))
            first, second = outputs
            assert [p.name for p in first] == [p.name for p in second]
            assert first, f"{preset} wrote no CSVs"
            for fa, fb in zip(first, second):
                assert fa.read_bytes() == fb.read_bytes(), fa.name


def test_c9_channel_unit_checks():
    with criterion(9, "path loss at 1 km, per-PRB noise floor, shadowing "
                      "sigma within 5%"):
        assert path_loss(1.0, ChannelParams()) == 128.1
        assert abs(ChannelParams().noise_floor_dbm - (-116.45)) <= 0.01

        scenario = build_hex7(500.0, 50, rng=np.random.default_rng(0))
        params, rng = ChannelParams(), np.random.default_rng(1)
        # Each draw is the unshadowed link budget less the shadowed one
        base = snr(params, path_loss(scenario.distance_m / 1000.0, params), 0.0)
        draws = np.concatenate(
            [(base - link_budget(params, scenario.distance_m, rng)).ravel()
             for _ in range(300)])
        assert draws.size >= 100_000
        assert abs(draws.std() - 10.0) / 10.0 <= 0.05


def test_c10_greedy_near_optimum_at_paper_scale():
    with criterion(10, "CGA >= (1 - 1/e) OPT on 20 engine sub-frames at "
                       "C = 7, N = 10, M = 70, OPT certified, exact = OPT"):
        cfg = SimConfig(ues_per_cell=10, radius_m=1000.0, horizon=20,
                        num_drops=1, seed=3)
        _, _, _, words, _ = next(engine._blocks(cfg, engine._plan(cfg, ("cga",)), [0]))
        cover = unpack(words, 70)
        assert cover.shape == (20, 7, 10, 70)
        cga, exact = (np.bitwise_count(served_block(words, kernel(words))).sum(axis=-1)
                      for kernel in (cga_block, exact_block))
        worst = 1.0
        for b in range(len(cover)):
            value, chosen = milp_optimum(cover[b])
            opt = int(served_users(cover[b][None], np.array([chosen])).sum())
            assert opt == round(value), (b, opt, value)
            assert opt == exact[b], (b, opt, exact[b])
            assert GREEDY_BOUND * opt <= cga[b] <= opt, (b, cga[b], opt)
            if opt:
                worst = min(worst, cga[b] / opt)
        print(f"\nworst CGA/OPT over {len(cover)} sub-frames: {worst:.3f}")
