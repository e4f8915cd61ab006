"""Solver correctness: golden two-cell fixture, greedy bound vs. the
exhaustive oracle, reduction round-trips, and structural properties."""

import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mcmcast import coverage
from mcmcast.channel import min_snr_db
from mcmcast.coverage import (
    GREEDY_BOUND,
    CapExceededError,
    CoverageInstance,
    McpInstance,
    cga_block,
    dga_block,
    evaluate,
    exact_block,
    mbsfn_block,
    map_solution,
    random_instance,
    reduce_mcp,
    solve_cga,
    solve_cga_trace,
    solve_dga,
    solve_exact,
    solve_mbsfn,
    solve_sc,
    served_block,
)

# Two cells, two PRBs, six users.  Cell 0 can reach users {0,1} on PRB 0
# and {1,2,3} on PRB 1; cell 1 reaches nobody on PRB 0 and {2,3,4,5} on
# PRB 1.  A local per-cell argmax strands user 0; coordination does not.
FIXTURE_SETS = (
    (frozenset({0, 1}), frozenset({1, 2, 3})),
    (frozenset(), frozenset({2, 3, 4, 5})),
)
FIXTURE = CoverageInstance.from_sets(num_users=6, num_cells=2, num_prbs=2,
                                     sets=FIXTURE_SETS)


def fixture_rates() -> np.ndarray:
    """A (C, N, M) rate matrix whose >=2.0 entries realize FIXTURE_SETS."""
    r = np.full((2, 2, 6), 0.5)
    for c, j, users in [(0, 0, {0, 1}), (0, 1, {1, 2, 3}), (1, 1, {2, 3, 4, 5})]:
        for k in users:
            r[c, j, k] = 2.0 + 0.1 * k
    return r


# (C, M) cells each user may hear.
FIXTURE_ELIGIBLE = np.array([
    [True, True, True, True, False, False],
    [True, False, True, True, True, True],
])


class TestGoldenFixture:
    def test_cga_serves_everyone(self):
        result = solve_cga(FIXTURE)
        assert result.chosen == (0, 1)
        assert result.served == frozenset(range(6))

    def test_dga_strands_the_overlap_user(self):
        result = solve_dga(FIXTURE)
        assert result.chosen == (1, 1)
        assert result.served == frozenset({1, 2, 3, 4, 5})
        assert 0 not in result.served

    def test_mbsfn_single_common_prb(self):
        result = solve_mbsfn(FIXTURE)
        assert result.chosen == (1, 1)
        assert result.served_count == 5

    def test_exact_matches_cga_here(self):
        assert solve_exact(FIXTURE).served_count == 6

    def test_single_connectivity_variant_serves_five(self):
        # Restrict each user to its nearest cell (0 for users 0-3, 1 for 4-5).
        nearest = np.array([0, 0, 0, 0, 1, 1])
        eligible = np.arange(2)[:, None] == nearest[None, :]
        inst = CoverageInstance((fixture_rates() >= 2.0) & eligible[:, None, :])
        assert solve_sc(inst).served_count == 5

    def test_thresholded_rates_reproduce_fixture(self):
        inst = CoverageInstance((fixture_rates() >= 2.0) & FIXTURE_ELIGIBLE[:, None, :])
        assert np.array_equal(inst.cover, FIXTURE.cover)


class TestBuildInstance:
    """The engine's instance step: an SNR draw thresholded at the SNR the
    required rate needs, ANDed with a (C, M) eligibility mask."""

    def instance(self, snr_db, required, eligible):
        decodable = np.asarray(snr_db) >= min_snr_db(required)
        return CoverageInstance(decodable & np.asarray(eligible)[:, None, :])

    def test_threshold_is_inclusive(self):
        # 111.6 bits needs the 0.2 dB step; one ULP below it is outage.
        snr_db = [[[np.nextafter(0.2, -np.inf), 0.2]]]
        inst = self.instance(snr_db, 111.6, [[True, True]])
        assert inst.sets == ((frozenset({1}),),)

    def test_connectivity_mask_filters_users(self):
        inst = self.instance(np.full((2, 1, 2), 30.0), 400.0,
                             [[True, False], [False, True]])
        assert inst.sets == ((frozenset({0}),), (frozenset({1}),))

    def test_zero_required_rate_serves_all_connected(self):
        inst = self.instance(np.full((1, 1, 3), -50.0), 0.0, [[True, True, True]])
        assert inst.sets[0][0] == frozenset({0, 1, 2})


class TestValidation:
    def test_instance_shape_checked(self):
        with pytest.raises(ValueError):
            CoverageInstance.from_sets(num_users=2, num_cells=2, num_prbs=1,
                             sets=((frozenset(),),))

    def test_user_ids_in_range(self):
        with pytest.raises(ValueError):
            CoverageInstance.from_sets(num_users=2, num_cells=1, num_prbs=1,
                             sets=((frozenset({5}),),))

    def test_cover_array_checked(self):
        with pytest.raises(ValueError):
            CoverageInstance(np.ones((2, 2), dtype=bool))
        with pytest.raises(ValueError):
            CoverageInstance(np.ones((1, 1, 2)))
        with pytest.raises(ValueError):
            CoverageInstance(np.ones((0, 1, 2), dtype=bool))

    def test_instance_is_read_only(self):
        with pytest.raises(ValueError):
            FIXTURE.cover[0, 0, 0] = False

    def test_allocation_length_checked(self):
        with pytest.raises(ValueError):
            evaluate(FIXTURE, (0,))

    def test_allocation_prb_range_checked(self):
        with pytest.raises(ValueError):
            evaluate(FIXTURE, (0, 7))


class TestGreedyVersusExact:
    def test_bound_holds_on_random_instances(self):
        rng = np.random.default_rng(42)
        for _ in range(30):
            inst = random_instance(rng)
            opt = solve_exact(inst).served_count
            greedy = solve_cga(inst).served_count
            assert greedy <= opt
            if opt:
                assert greedy / opt >= GREEDY_BOUND

    def test_first_iteration_gain_dominates_opt_over_cells(self):
        # With every cell still available, the first greedy pick must gain
        # at least OPT/C users; checked in integers on every instance.
        rng = np.random.default_rng(7)
        for _ in range(40):
            inst = random_instance(rng)
            opt = solve_exact(inst).served_count
            _, history = solve_cga_trace(inst)
            assert history[0] * inst.num_cells >= opt

    def test_partition_constraint_worst_case_is_one_half(self):
        # A greedy pick can spend a cell the optimum needs for a different
        # user: here greedy ties onto (cell 0, PRB 0) covering user 0,
        # after which cell 1 duplicates it.  Optimal splits the cells and
        # covers both users, so the ratio is exactly 1/2.
        sets = (
            (frozenset({0}), frozenset({1})),
            (frozenset({0}), frozenset()),
        )
        inst = CoverageInstance.from_sets(num_users=2, num_cells=2, num_prbs=2,
                                          sets=sets)
        assert solve_cga(inst).served_count == 1
        assert solve_exact(inst).served_count == 2

    def test_per_iteration_bound_has_counterexamples(self):
        # The uniform per-iteration bound gain_n * C >= OPT - m_n fails
        # once greedy has consumed the cells the optimum relies on; this
        # frozen instance ends with one coverable user left but only a
        # zero-gain cell remaining.
        sets = (
            ({1, 4, 7}, {2, 4}, set(), {0}),
            ({1, 2, 3, 6}, {5, 6}, {0, 6, 7, 8}, {0, 2, 4, 6}),
            ({2, 4, 8}, {0, 6, 9}, {2}, {0, 1, 3, 10}),
            ({1, 7}, {0, 4, 6, 7, 8, 9}, {4, 9}, {4, 7}),
        )
        inst = CoverageInstance.from_sets(num_users=11, num_cells=4, num_prbs=4,
                                          sets=sets)
        opt = solve_exact(inst).served_count
        _, history = solve_cga_trace(inst)
        m = (0,) + history
        assert opt == 11
        assert m == (0, 6, 9, 10, 10)
        # Last iteration: zero gain, yet one optimal user is uncovered.
        assert (m[4] - m[3]) * inst.num_cells < opt - m[3]

    def test_exact_is_lexicographically_first_maximizer(self):
        sets = ((frozenset({0}), frozenset({0})),)
        inst = CoverageInstance.from_sets(num_users=1, num_cells=1, num_prbs=2,
                                          sets=sets)
        assert solve_exact(inst).chosen == (0,)
        assert solve_cga(inst).chosen == (0,)

    def test_exact_cap_enforced(self):
        with pytest.raises(CapExceededError):
            solve_exact(FIXTURE, cap=3)


class TestDga:
    def test_single_cell_dga_equals_cga(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            inst = random_instance(rng, max_cells=1)
            assert solve_dga(inst).served_count == solve_cga(inst).served_count

    def test_primary_count_mode_uses_primary_only(self):
        # Both users connected everywhere, but primaries split 50/50; with
        # the own-cell mask, cell 0 sees only user 0 on each PRB.
        rates = np.array([
            [[5.0, 0.0], [5.0, 5.0]],
            [[0.0, 5.0], [0.0, 0.0]],
        ])
        inst = CoverageInstance(rates >= 1.0)
        own = np.array([[True, False], [False, True]])
        assert solve_dga(inst).chosen == (1, 0)
        assert solve_dga(inst, own).chosen == (0, 0)

    @pytest.mark.parametrize("shape", [(2,), (6, 2), (2, 5), (1, 2, 6)])
    def test_own_mask_of_wrong_shape_rejected(self, shape):
        with pytest.raises(ValueError, match="own must have shape"):
            solve_dga(FIXTURE, np.ones(shape, dtype=bool))


def reference_cga(inst):
    """Set-based greedy: the first (gain, lowest cell, lowest PRB) wins."""
    sets, covered = inst.sets, frozenset()
    chosen, remaining = [0] * inst.num_cells, list(range(inst.num_cells))
    for _ in range(inst.num_cells):
        _, c, j = max((len(sets[c][j] - covered), -c, -j)
                      for c in remaining for j in range(inst.num_prbs))
        chosen[-c], covered = -j, covered | sets[-c][-j]
        remaining.remove(-c)
    return tuple(chosen), covered


def reference_exact(inst):
    """First maximizer in itertools.product order, by set unions."""
    sets = inst.sets
    chosen = max(
        itertools.product(range(inst.num_prbs), repeat=inst.num_cells),
        key=lambda ch: len(frozenset().union(*(sets[c][j] for c, j in enumerate(ch)))),
    )
    return chosen, frozenset().union(*(sets[c][j] for c, j in enumerate(chosen)))


class TestArraySolversMatchSetReferences:
    # Few users and dense or sparse sets make argmax ties the common case.
    @pytest.mark.parametrize("block_words", [coverage._EXACT_BLOCK_WORDS, 1, 8])
    def test_cga_and_exact_pick_the_reference_allocation(self, block_words,
                                                         monkeypatch):
        # Small blocks split the exhaustive search over many prefixes.
        monkeypatch.setattr(coverage, "_EXACT_BLOCK_WORDS", block_words)
        rng = np.random.default_rng(23)
        for _ in range(300):
            inst = random_instance(rng, max_users=5, max_cells=4, max_prbs=3)
            for solve, reference in ((solve_cga, reference_cga),
                                     (solve_exact, reference_exact)):
                result = solve(inst)
                assert (result.chosen, result.served) == reference(inst)

    def test_exact_at_the_cap_stays_in_bounded_blocks(self):
        # 10^7 allocations; only the very last one serves every user.
        cover = np.zeros((7, 10, 70), dtype=bool)
        cover[np.arange(7), 9, np.arange(7)] = True
        tracemalloc.start()
        try:
            result = solve_exact(CoverageInstance(cover))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert result.chosen == (9,) * 7
        assert result.served == frozenset(range(7))
        assert peak < 32e6  # one 10^7-row block would take >= 80 MB


class TestBlockKernels:
    def test_stacked_kernels_equal_one_solve_per_instance(self):
        # random_instance stacks, grouped by shape; few users and varied
        # densities make argmax ties common.
        rng = np.random.default_rng(31)
        groups = {}
        for _ in range(600):
            inst = random_instance(rng, max_users=5, max_cells=4, max_prbs=3)
            groups.setdefault(inst.cover.shape, []).append(inst)
        stacked = 0
        for insts in groups.values():
            if len(insts) < 2:
                continue
            stacked += len(insts)
            covers = np.stack([inst.cover for inst in insts])
            own = rng.random((covers.shape[1], covers.shape[3])) < 0.5
            cga_chosen, order = cga_block(covers)
            kernels = {
                solve_cga: cga_chosen,
                solve_dga: dga_block(covers),
                (lambda inst: solve_dga(inst, own)): dga_block(covers, own),
                solve_mbsfn: mbsfn_block(covers),
                solve_exact: exact_block(covers),
            }
            for solve, chosen in kernels.items():
                served = served_block(covers, chosen)
                for b, inst in enumerate(insts):
                    result = solve(inst)
                    assert tuple(chosen[b]) == result.chosen
                    assert np.array_equal(served[b], result.served_mask)
            for b, inst in enumerate(insts):
                assert np.array_equal(order[b], cga_block(inst.cover[None])[1][0])
        assert stacked >= 500


def brute_force_mcp(mcp: McpInstance) -> int:
    """Best coverage using at most k of the m candidate sets."""
    best = 0
    indices = range(len(mcp.sets))
    for size in range(1, mcp.k + 1):
        for combo in itertools.combinations(indices, size):
            covered = frozenset().union(*(mcp.sets[i] for i in combo))
            best = max(best, len(covered))
    return best


class TestMcpReduction:
    def test_round_trip_matches_brute_force(self):
        rng = np.random.default_rng(11)
        for _ in range(40):
            m = int(rng.integers(1, 5))
            k = int(rng.integers(1, min(m, 3) + 1))
            universe = int(rng.integers(1, 11))
            sets = tuple(
                frozenset(int(u) for u in rng.choice(
                    universe, size=rng.integers(0, universe + 1), replace=False))
                for _ in range(m)
            )
            mcp = McpInstance(universe_size=universe, k=k, sets=sets)
            inst = reduce_mcp(mcp)
            assert inst.num_cells == k and inst.num_prbs == m
            result = solve_exact(inst)
            chosen_sets = map_solution(result.chosen)
            assert len(chosen_sets) <= k
            covered = frozenset().union(
                frozenset(), *(mcp.sets[i] for i in chosen_sets))
            assert len(covered) == result.served_count
            assert result.served_count == brute_force_mcp(mcp)

    def test_map_solution_deduplicates(self):
        assert map_solution((2, 0, 2, 1)) == [0, 1, 2]


@st.composite
def coverage_instances(draw):
    num_users = draw(st.integers(1, 8))
    num_cells = draw(st.integers(1, 3))
    num_prbs = draw(st.integers(1, 3))
    user = st.integers(0, num_users - 1)
    sets = tuple(
        tuple(draw(st.frozensets(user, max_size=num_users))
              for _ in range(num_prbs))
        for _ in range(num_cells)
    )
    return CoverageInstance.from_sets(num_users=num_users, num_cells=num_cells,
                            num_prbs=num_prbs, sets=sets)


class TestProperties:
    @given(coverage_instances())
    @settings(max_examples=60, deadline=None)
    def test_solutions_are_feasible_and_consistent(self, inst):
        for solver in (solve_cga, solve_dga, solve_sc, solve_mbsfn, solve_exact):
            result = solver(inst)
            assert len(result.chosen) == inst.num_cells
            assert all(0 <= j < inst.num_prbs for j in result.chosen)
            assert evaluate(inst, result.chosen).served == result.served

    @given(coverage_instances())
    @settings(max_examples=60, deadline=None)
    def test_greedy_gains_never_increase(self, inst):
        _, history = solve_cga_trace(inst)
        gains = np.diff((0,) + history)
        assert all(a >= b for a, b in zip(gains, gains[1:]))

    @given(coverage_instances())
    @settings(max_examples=60, deadline=None)
    def test_exact_dominates_every_policy(self, inst):
        opt = solve_exact(inst).served_count
        for solver in (solve_cga, solve_dga, solve_sc, solve_mbsfn):
            assert solver(inst).served_count <= opt

    @given(coverage_instances(), st.integers(0, 7), st.integers(0, 2),
           st.integers(0, 2))
    @settings(max_examples=60, deadline=None)
    def test_adding_a_member_cannot_hurt_exact(self, inst, user, cell, prb):
        c, j = cell % inst.num_cells, prb % inst.num_prbs
        k = user % inst.num_users
        grown = [list(row) for row in inst.sets]
        grown[c][j] = grown[c][j] | {k}
        bigger = CoverageInstance.from_sets(
            num_users=inst.num_users, num_cells=inst.num_cells,
            num_prbs=inst.num_prbs,
            sets=tuple(tuple(row) for row in grown),
        )
        assert solve_exact(bigger).served_count >= solve_exact(inst).served_count

    @given(coverage_instances())
    @settings(max_examples=60, deadline=None)
    def test_greedy_always_within_half_of_exact(self, inst):
        # The guaranteed worst case under the one-PRB-per-cell constraint;
        # the stronger 1 - 1/e ratio holds empirically on the random
        # oracle suite but not universally (see
        # test_partition_constraint_worst_case_is_one_half).
        opt = solve_exact(inst).served_count
        greedy = solve_cga(inst).served_count
        assert 2 * greedy >= opt
