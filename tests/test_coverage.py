"""Kernel correctness: golden two-cell fixture, greedy bound vs. the
exhaustive oracle, reduction round-trips, and structural properties,
checked against the set-based oracles in tests/oracles.py."""

import functools
import itertools
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mcmcast import coverage
from mcmcast.channel import min_snr_db
from mcmcast.coverage import (
    EXACT_DEFAULT_CAP,
    GREEDY_BOUND,
    CapExceededError,
    cga_block,
    check_exact_cap,
    dga_block,
    exact_block,
    mbsfn_block,
    num_words,
    pack,
    random_instance,
    served_block,
    unpack,
)
from oracles import (
    McpInstance,
    cga_history,
    chosen_by,
    from_sets,
    map_solution,
    reduce_mcp,
    served_count,
    served_set,
    served_users,
    sets_of,
)

# Two cells, two PRBs, six users.  Cell 0 can reach users {0,1} on PRB 0
# and {1,2,3} on PRB 1; cell 1 reaches nobody on PRB 0 and {2,3,4,5} on
# PRB 1.  A local per-cell argmax strands user 0; coordination does not.
FIXTURE_SETS = (
    (frozenset({0, 1}), frozenset({1, 2, 3})),
    (frozenset(), frozenset({2, 3, 4, 5})),
)
FIXTURE = from_sets(num_users=6, num_cells=2, num_prbs=2, sets=FIXTURE_SETS)


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
        chosen = chosen_by(cga_block, FIXTURE)
        assert chosen == (0, 1)
        assert served_set(FIXTURE, chosen) == frozenset(range(6))

    def test_dga_strands_the_overlap_user(self):
        chosen = chosen_by(dga_block, FIXTURE)
        assert chosen == (1, 1)
        served = served_set(FIXTURE, chosen)
        assert served == frozenset({1, 2, 3, 4, 5})
        assert 0 not in served

    def test_mbsfn_single_common_prb(self):
        assert chosen_by(mbsfn_block, FIXTURE) == (1, 1)
        assert served_count(mbsfn_block, FIXTURE) == 5

    def test_exact_matches_cga_here(self):
        assert served_count(exact_block, FIXTURE) == 6

    def test_single_connectivity_variant_serves_five(self):
        # Restrict each user to its nearest cell (0 for users 0-3, 1 for 4-5).
        nearest = np.array([0, 0, 0, 0, 1, 1])
        eligible = np.arange(2)[:, None] == nearest[None, :]
        cover = (fixture_rates() >= 2.0) & eligible[:, None, :]
        assert served_count(dga_block, cover) == 5

    def test_thresholded_rates_reproduce_fixture(self):
        cover = (fixture_rates() >= 2.0) & FIXTURE_ELIGIBLE[:, None, :]
        assert np.array_equal(cover, FIXTURE)


class TestBuildInstance:
    """The engine's instance step: an SNR draw thresholded at the SNR the
    required rate needs, ANDed with a (C, M) eligibility mask."""

    def instance(self, snr_db, required, eligible):
        decodable = np.asarray(snr_db) >= min_snr_db(required)
        return decodable & np.asarray(eligible)[:, None, :]

    def test_threshold_is_inclusive(self):
        # 111.6 bits needs the 0.2 dB step; one ULP below it is outage.
        snr_db = [[[np.nextafter(0.2, -np.inf), 0.2]]]
        cover = self.instance(snr_db, 111.6, [[True, True]])
        assert sets_of(cover) == ((frozenset({1}),),)

    def test_connectivity_mask_filters_users(self):
        cover = self.instance(np.full((2, 1, 2), 30.0), 400.0,
                              [[True, False], [False, True]])
        assert sets_of(cover) == ((frozenset({0}),), (frozenset({1}),))

    def test_zero_required_rate_serves_all_connected(self):
        cover = self.instance(np.full((1, 1, 3), -50.0), 0.0, [[True, True, True]])
        assert sets_of(cover)[0][0] == frozenset({0, 1, 2})


class TestValidation:
    """The set constructor the oracles build instances with."""

    def test_instance_shape_checked(self):
        with pytest.raises(ValueError):
            from_sets(num_users=2, num_cells=2, num_prbs=1, sets=((frozenset(),),))

    def test_user_ids_in_range(self):
        with pytest.raises(ValueError):
            from_sets(num_users=2, num_cells=1, num_prbs=1, sets=((frozenset({5}),),))


class TestGreedyVersusExact:
    def test_bound_holds_on_random_instances(self):
        rng = np.random.default_rng(42)
        for _ in range(30):
            cover = random_instance(rng, max_users=12, max_cells=4, max_prbs=4)
            opt = served_count(exact_block, cover)
            greedy = served_count(cga_block, cover)
            assert greedy <= opt
            if opt:
                assert greedy / opt >= GREEDY_BOUND

    def test_first_iteration_gain_dominates_opt_over_cells(self):
        # With every cell still available, the first greedy pick must gain
        # at least OPT/C users; checked in integers on every instance.
        rng = np.random.default_rng(7)
        for _ in range(40):
            cover = random_instance(rng, max_users=12, max_cells=4, max_prbs=4)
            opt = served_count(exact_block, cover)
            history = cga_history(cover, chosen_by(cga_block, cover))
            assert history[0] * len(cover) >= opt

    def test_partition_constraint_worst_case_is_one_half(self):
        # A greedy pick can spend a cell the optimum needs for a different
        # user: here greedy ties onto (cell 0, PRB 0) covering user 0,
        # after which cell 1 duplicates it.  Optimal splits the cells and
        # covers both users, so the ratio is exactly 1/2.
        sets = (
            (frozenset({0}), frozenset({1})),
            (frozenset({0}), frozenset()),
        )
        cover = from_sets(num_users=2, num_cells=2, num_prbs=2, sets=sets)
        assert served_count(cga_block, cover) == 1
        assert served_count(exact_block, cover) == 2

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
        cover = from_sets(num_users=11, num_cells=4, num_prbs=4, sets=sets)
        opt = served_count(exact_block, cover)
        m = (0,) + cga_history(cover, chosen_by(cga_block, cover))
        assert opt == 11
        assert m == (0, 6, 9, 10, 10)
        # Last iteration: zero gain, yet one optimal user is uncovered.
        assert (m[4] - m[3]) * len(cover) < opt - m[3]

    def test_exact_is_lexicographically_first_maximizer(self):
        sets = ((frozenset({0}), frozenset({0})),)
        cover = from_sets(num_users=1, num_cells=1, num_prbs=2, sets=sets)
        assert chosen_by(exact_block, cover) == (0,)
        assert chosen_by(cga_block, cover) == (0,)

    def test_exact_cap_enforced(self):
        with pytest.raises(CapExceededError):
            exact_block(pack(FIXTURE[None]), cap=3)

    def test_more_cells_than_numpy_has_dimensions(self):
        # One PRB leaves a single allocation, whatever the cell count.
        chosen = exact_block(pack(np.ones((2, 65, 1, 3), dtype=bool)))
        assert chosen.shape == (2, 65)
        assert not chosen.any()


class TestExactCap:
    @pytest.mark.parametrize("cells,prbs,cap,allowed", [
        (7, 10, 10**7, True),
        (7, 10, 10**7 - 1, False),
        (10**9, 1, EXACT_DEFAULT_CAP, True),
        (10**9, 1, 1, True),
        (64, 2, 2**64, True),   # refused by a fixed 64-cell shortcut
        (65, 2, 2**64, False),
        (3, 7, 0, False),
    ])
    def test_boundaries(self, cells, prbs, cap, allowed):
        if allowed:
            check_exact_cap(cells, prbs, cap)
        else:
            with pytest.raises(CapExceededError, match="exceeds cap"):
                check_exact_cap(cells, prbs, cap)

    def test_huge_cell_count_is_refused_without_the_power(self):
        start = time.perf_counter()
        with pytest.raises(CapExceededError, match="exceeds cap"):
            check_exact_cap(10**9, 3)
        assert time.perf_counter() - start < 0.5


class TestDga:
    def test_single_cell_dga_equals_cga(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            cover = random_instance(rng, max_users=12, max_cells=1, max_prbs=4)
            assert served_count(dga_block, cover) == served_count(cga_block, cover)

    def test_primary_count_mode_uses_primary_only(self):
        # Both users connected everywhere, but primaries split 50/50; with
        # the instance cut to each cell's own users, cell 0 sees only user 0
        # on each PRB.
        rates = np.array([
            [[5.0, 0.0], [5.0, 5.0]],
            [[0.0, 5.0], [0.0, 0.0]],
        ])
        cover = rates >= 1.0
        own = np.array([[True, False], [False, True]])
        assert chosen_by(dga_block, cover) == (1, 0)
        assert chosen_by(dga_block, cover & own[:, None, :]) == (0, 0)


def reference_cga(cover):
    """Set-based greedy: the first (gain, lowest cell, lowest PRB) wins."""
    sets, covered = sets_of(cover), frozenset()
    num_cells, num_prbs, _ = cover.shape
    chosen, remaining = [0] * num_cells, list(range(num_cells))
    for _ in range(num_cells):
        _, c, j = max((len(sets[c][j] - covered), -c, -j)
                      for c in remaining for j in range(num_prbs))
        chosen[-c], covered = -j, covered | sets[-c][-j]
        remaining.remove(-c)
    return tuple(chosen), covered


def reference_exact(cover):
    """First maximizer in itertools.product order, by set unions."""
    sets = sets_of(cover)
    num_cells, num_prbs, _ = cover.shape
    chosen = max(
        itertools.product(range(num_prbs), repeat=num_cells),
        key=lambda ch: len(frozenset().union(*(sets[c][j] for c, j in enumerate(ch)))),
    )
    return chosen, frozenset().union(*(sets[c][j] for c, j in enumerate(chosen)))


def chosen_and_served(kernel, covers):
    """Each row's (chosen PRBs, served user ids) under a block kernel, on
    the packed form of the boolean stack `covers`."""
    chosen = kernel(pack(covers))
    served = served_users(covers, chosen)
    return [(tuple(ch.tolist()), frozenset(np.flatnonzero(s).tolist()))
            for ch, s in zip(chosen, served)]


class TestArraySolversMatchSetReferences:
    # Few users and dense or sparse sets make argmax ties the common case.
    @pytest.mark.parametrize("block_words", [coverage.STACK_WORDS, 1, 8])
    def test_cga_and_exact_pick_the_reference_allocation(self, block_words,
                                                         monkeypatch):
        # Small blocks split the exhaustive search over many prefixes.
        monkeypatch.setattr(coverage, "STACK_WORDS", block_words)
        rng = np.random.default_rng(23)
        for _ in range(300):
            cover = random_instance(rng, max_users=5, max_cells=4, max_prbs=3)
            for kernel, reference in ((cga_block, reference_cga),
                                      (exact_block, reference_exact)):
                assert chosen_and_served(kernel, cover[None]) == [reference(cover)]

    def test_exact_at_the_cap_stays_in_bounded_blocks(self, monkeypatch):
        # 10^7 allocations, none with a row that a lower row covers: row
        # (c, j) holds user 10c + j and row (c, 9) also user 70 + c, so
        # only the very last allocation serves 14 users.
        cover = np.zeros((7, 10, 77), dtype=bool)
        cells, prbs = np.arange(7)[:, None], np.arange(10)
        cover[cells, prbs, 10 * cells + prbs] = True
        cover[np.arange(7), 9, 70 + np.arange(7)] = True
        chunks = spy_chunks(monkeypatch)
        tracemalloc.start()
        try:
            result = chosen_and_served(exact_block, cover[None])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        served = frozenset(range(9, 70, 10)) | frozenset(range(70, 77))
        assert result == [((9,) * 7, served)]
        assert sum(heads * tails for heads, tails, _ in chunks) == 10**7
        assert peak < 32e6  # one 10^7-row block would take >= 80 MB


class TestBlockKernels:
    def test_stacked_kernels_equal_one_solve_per_instance(self):
        # random_instance stacks, grouped by shape; few users and varied
        # densities make argmax ties common.  Each row must be the kernel's
        # choice on that instance alone, serving the union of its sets.
        rng = np.random.default_rng(31)
        groups = {}
        for _ in range(600):
            cover = random_instance(rng, max_users=5, max_cells=4, max_prbs=3)
            groups.setdefault(cover.shape, []).append(cover)
        stacked = 0
        for group in groups.values():
            if len(group) < 2:
                continue
            stacked += len(group)
            covers = np.stack(group)
            for kernel in (cga_block, dga_block, mbsfn_block):
                chosen = kernel(pack(covers))
                served = served_users(covers, chosen)
                for b, cover in enumerate(group):
                    assert tuple(chosen[b].tolist()) == chosen_by(kernel, cover)
                    assert (frozenset(np.flatnonzero(served[b]).tolist())
                            == served_set(cover, chosen[b]))
        assert stacked >= 500


def reference_dga(cover):
    """Per-cell first PRB reaching the most users, by set sizes."""
    return tuple(max(range(len(row)), key=lambda j: (len(row[j]), -j))
                 for row in sets_of(cover)), None


def reference_mbsfn(cover):
    """The first PRB whose union over every cell is the largest."""
    sets = sets_of(cover)
    best = max(range(cover.shape[1]), key=lambda j: (
        len(frozenset().union(*(row[j] for row in sets))), -j))
    return (best,) * len(sets), None


class TestPackedForm:
    """pack, unpack and the popcount, and every kernel on packed stacks
    whose rows end inside a word, on a word boundary and one bit past it."""

    USERS = [1, 63, 64, 65, 128, 280]

    @pytest.mark.parametrize("num_users", USERS)
    def test_pack_round_trips_with_zero_padding(self, num_users):
        rng = np.random.default_rng(num_users)
        width = num_words(num_users)
        assert width == (num_users + 63) // 64
        for cover in (rng.random((3, 2, 4, num_users)) < 0.5,
                      np.ones((3, 2, 4, num_users), dtype=bool)):
            words = pack(cover)
            assert words.dtype == np.uint64 and words.shape == (3, 2, 4, width)
            assert np.array_equal(unpack(words, num_users), cover)
            # no padding bit is set, so popcounts are user counts
            assert np.array_equal(np.bitwise_count(words).sum(axis=-1),
                                  cover.sum(axis=-1))

    @pytest.mark.parametrize("num_users", [0, *USERS, 64 * 101 + 1])
    def test_popcount_is_the_user_count(self, num_users):
        # W = 0, every width of USERS and one row of 102 words
        rng = np.random.default_rng(200 + num_users)
        for density in (0.0, 0.3, 1.0):
            cover = rng.random((3, 2, 4, num_users)) < density
            assert np.array_equal(coverage._popcount(pack(cover)), cover.sum(-1))

    @pytest.mark.parametrize("num_users", USERS)
    def test_kernels_match_the_set_references(self, num_users):
        rng = np.random.default_rng(100 + num_users)
        references = ((cga_block, reference_cga), (dga_block, reference_dga),
                      (mbsfn_block, reference_mbsfn),
                      (exact_block, reference_exact))
        for density in (0.0, 0.01, 0.1, 0.5, 0.9, 1.0):
            covers = rng.random((4, 3, 3, num_users)) < density
            words = pack(covers)
            for kernel, reference in references:
                chosen = kernel(words)
                served = unpack(served_block(words, chosen), num_users)
                for b, cover in enumerate(covers):
                    want, _ = reference(cover)
                    assert tuple(chosen[b].tolist()) == want, (kernel, density, b)
                    assert (frozenset(np.flatnonzero(served[b]).tolist())
                            == served_set(cover, want))


class TestEdgeShapes:
    """Every kernel on a stack of no instances, and on instances with no
    users (W = 0), where a retired cell's penalty is 64 * 0 + 1."""

    KERNELS = [cga_block, dga_block, mbsfn_block, exact_block]

    @pytest.mark.parametrize("kernel", KERNELS)
    def test_empty_stack(self, kernel):
        for width in (0, 1, 3):
            chosen = kernel(np.zeros((0, 4, 3, width), dtype=np.uint64))
            assert chosen.shape == (0, 4)

    @pytest.mark.parametrize("kernel", KERNELS)
    def test_no_users(self, kernel):
        words = pack(np.zeros((5, 4, 3, 0), dtype=bool))
        assert words.shape == (5, 4, 3, 0)
        chosen = kernel(words)
        assert chosen.shape == (5, 4) and not chosen.any()
        assert served_block(words, chosen).shape == (5, 0)


@functools.cache
def reference_stacks():
    """(covers, reference_exact of each row) for stacks of same-shape
    instances.  Few users and varied densities make argmax ties common;
    the shapes include C = 1, N = 1 and two-word (65-128 user) rows."""
    rng = np.random.default_rng(37)
    groups = {}
    for _ in range(400):
        cover = random_instance(rng, max_users=5, max_cells=4, max_prbs=3)
        groups.setdefault(cover.shape, []).append(cover)
    for shape in [(3, 3, 65), (2, 4, 128), (1, 3, 100), (3, 1, 70)]:
        groups[shape] = [rng.random(shape) < density
                         for density in (0.02, 0.1, 0.5, 0.9, 0.98, 0.5, 0.05)]
    shapes = groups.keys()
    assert any(c == 1 for c, _, _ in shapes) and any(n == 1 for _, n, _ in shapes)
    return [(np.stack(group), [reference_exact(cover) for cover in group])
            for group in groups.values()]


def spy_chunks(monkeypatch):
    """The (heads, tails, W) shape of every chunk of ORs whose popcounts
    exact_block takes from now on, in scan order."""
    shapes = []
    popcount = coverage._popcount

    def spy(words):
        shapes.append(words.shape)
        return popcount(words)

    monkeypatch.setattr(coverage, "_popcount", spy)
    return shapes


def live_rows(cover):
    """Each cell's count of rows that no lower row of the cell covers, by
    set inclusion."""
    return [sum(not any(row[j] <= row[i] for i in range(j)) for j in range(len(row)))
            for row in sets_of(cover)]


class TestStackedExact:
    # 8, 40 and 72 words: some instances' heads span several chunks, the
    # last one short.  1 word searches one allocation per chunk, and a
    # two-word allocation is wider than the stack.
    @pytest.mark.parametrize("block_words", [coverage.STACK_WORDS, 1, 8, 40, 72])
    def test_each_row_is_the_reference_allocation(self, block_words, monkeypatch):
        monkeypatch.setattr(coverage, "STACK_WORDS", block_words)
        chunks = spy_chunks(monkeypatch)
        for covers, references in reference_stacks():
            chunks.clear()
            assert chosen_and_served(exact_block, covers) == references
            # every chunk fits the stack, or is one allocation of a wider row
            assert all(heads * tails * width <= block_words or heads * tails == 1
                       for heads, tails, width in chunks)
            # each instance scans exactly the allocations of its live rows
            assert (sum(heads * tails for heads, tails, _ in chunks)
                    == sum(np.prod(live_rows(cover)) for cover in covers))

    def test_exact_n4_sized_stack_stays_small(self, monkeypatch):
        # 100 sub-frames of 7 cells, 4 PRBs and 35 users, as the exact_n4
        # benchmark runs them; its peak RSS is gated.  Every chunk fits
        # STACK_WORDS.
        words = pack(np.random.default_rng(5).random((100, 7, 4, 35)) < 0.3)
        chunks = spy_chunks(monkeypatch)
        tracemalloc.start()
        try:
            exact_block(words)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2e6
        assert len(chunks) >= len(words)
        assert all(np.prod(shape) <= coverage.STACK_WORDS for shape in chunks)


class TestLiveRows:
    """exact_block scans only the rows that no lower row of their cell
    covers; on hand-built instances each pick is reference_exact's, the
    first maximizer over every allocation."""

    def check(self, sets, num_users, want):
        cover = from_sets(num_users=num_users, num_cells=len(sets),
                          num_prbs=len(sets[0]), sets=sets)
        assert reference_exact(cover)[0] == want
        assert chosen_and_served(exact_block, cover[None]) == [reference_exact(cover)]

    def test_covered_row_that_ties_loses_to_the_lower_prb(self):
        # (cell 0, PRB 2) is covered by PRB 1, and (2, 2) ties (1, 2) at 4;
        # cell 1 wins on PRB 2, past its covered PRB 1
        sets = (({0}, {1, 2}, {2}), ({1}, set(), {0, 1, 3}))
        self.check(sets, 4, (1, 2))

    def test_row_zero_covered_by_row_one_is_scanned_and_wins_the_tie(self):
        # PRB 0 of cell 0 is inside PRB 1, yet (0, 0) ties (1, 0) first
        sets = (({0}, {0, 1}), ({1, 2}, set()))
        self.check(sets, 3, (0, 0))

    def test_two_equal_rows(self):
        # the lower of cell 0's equal rows wins; cell 1's PRB 1 repeats PRB 0
        sets = (({1}, {0}, {0}), ({2}, {2}, {1, 2}))
        self.check(sets, 3, (1, 2))

    def test_cell_with_every_row_empty(self):
        sets = ((set(), {0}, {1, 2}), (set(), set(), set()), ({1}, set(), {3}))
        self.check(sets, 4, (2, 0, 2))


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
            cover = reduce_mcp(mcp)
            assert cover.shape[:2] == (k, m)
            chosen_sets = map_solution(chosen_by(exact_block, cover))
            assert len(chosen_sets) <= k
            covered = frozenset().union(
                frozenset(), *(mcp.sets[i] for i in chosen_sets))
            served = served_count(exact_block, cover)
            assert len(covered) == served
            assert served == brute_force_mcp(mcp)

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
    return from_sets(num_users=num_users, num_cells=num_cells,
                     num_prbs=num_prbs, sets=sets)


class TestProperties:
    @given(coverage_instances())
    @settings(max_examples=60, deadline=None)
    def test_solutions_are_feasible_and_consistent(self, cover):
        # served_block against the union of the chosen sets
        num_cells, num_prbs, _ = cover.shape
        for kernel in (cga_block, dga_block, mbsfn_block, exact_block):
            chosen = kernel(pack(cover[None]))
            assert chosen.shape == (1, num_cells)
            assert ((0 <= chosen) & (chosen < num_prbs)).all()
            served = served_users(cover[None], chosen)[0]
            assert (frozenset(np.flatnonzero(served).tolist())
                    == served_set(cover, chosen[0]))

    @given(coverage_instances())
    @settings(max_examples=60, deadline=None)
    def test_greedy_gains_never_increase(self, cover):
        history = cga_history(cover, chosen_by(cga_block, cover))
        gains = np.diff((0,) + history)
        assert all(a >= b for a, b in zip(gains, gains[1:]))

    @given(coverage_instances())
    @settings(max_examples=60, deadline=None)
    def test_exact_dominates_every_policy(self, cover):
        opt = served_count(exact_block, cover)
        for kernel in (cga_block, dga_block, mbsfn_block):
            assert served_count(kernel, cover) <= opt

    @given(coverage_instances(), st.integers(0, 7), st.integers(0, 2),
           st.integers(0, 2))
    @settings(max_examples=60, deadline=None)
    def test_adding_a_member_cannot_hurt_exact(self, cover, user, cell, prb):
        num_cells, num_prbs, num_users = cover.shape
        bigger = cover.copy()
        bigger[cell % num_cells, prb % num_prbs, user % num_users] = True
        assert served_count(exact_block, bigger) >= served_count(exact_block, cover)

    @given(coverage_instances())
    @settings(max_examples=60, deadline=None)
    def test_greedy_always_within_half_of_exact(self, cover):
        # The guaranteed worst case under the one-PRB-per-cell constraint;
        # the stronger 1 - 1/e ratio holds empirically on the random
        # oracle suite but not universally (see
        # test_partition_constraint_worst_case_is_one_half).
        opt = served_count(exact_block, cover)
        greedy = served_count(cga_block, cover)
        assert 2 * greedy >= opt
