"""Partitioned maximum-coverage model and PRB allocation policies.

The allocation problem: each of C cells must stream a common multicast
service on exactly one of N PRBs per sub-frame.  U[c][j] is the set of
users that would decode the stream if cell c transmits on PRB j; a user
is served when at least one chosen (cell, PRB) pair covers it.  The goal
is to pick one PRB per cell maximizing the number of distinct served
users.  This is NP-hard (it embeds maximum coverage), so the module
provides:

  * solve_cga   -- centralized greedy over (cell, PRB) pairs; on random
                   workloads the oracle suite observes coverage within
                   (1 - 1/e) of optimal, though the one-PRB-per-cell
                   constraint admits rare adversarial instances where a
                   greedy pick spends a cell the optimum needs (worst
                   case 1/2, like any greedy under a partition constraint)
  * solve_dga   -- uncoordinated per-cell argmax
  * solve_sc    -- per-cell argmax on a single-connectivity instance
  * solve_mbsfn -- one common PRB index for every cell
  * solve_exact -- exhaustive search over all N^C allocations (oracle)

plus the reduction pair (reduce_mcp / map_solution) between plain
maximum coverage and the partitioned problem.

An instance is one boolean array cover[c, j, k] of shape (C, N, M): True
when user k decodes cell c on PRB j.  The set view U[c][j] is derived
from it on demand.  Each policy is one kernel over a (B, C, N, M) stack
of B instances (cga_block, dga_block, mbsfn_block, exact_block, with
served_block for the users a choice serves); the engine runs them on a
block of sub-frames at a time, and each solve_* is the B = 1 case.  All
solvers are pure functions of instances and break argmax ties toward the
lowest (cell, prb) index within each instance, so outputs are
deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

__all__ = [
    "CoverageInstance",
    "CoverageResult",
    "McpInstance",
    "CapExceededError",
    "EXACT_DEFAULT_CAP",
    "GREEDY_BOUND",
    "evaluate",
    "solve_cga",
    "solve_cga_trace",
    "solve_dga",
    "solve_sc",
    "solve_mbsfn",
    "solve_exact",
    "served_block",
    "cga_block",
    "dga_block",
    "mbsfn_block",
    "exact_block",
    "reduce_mcp",
    "map_solution",
    "random_instance",
]

EXACT_DEFAULT_CAP = 10_000_000

# Upper bound on the uint64 words one block of the exhaustive search holds
# (2 MiB); the search enumerates its allocations in blocks of at most this
# size so that even the full cap never materializes at once.
_EXACT_BLOCK_WORDS = 1 << 18

# Greedy-to-optimal ratio the oracle suite checks for: 1 - 1/e.  This is
# the classic cardinality-constrained greedy figure; under the
# one-PRB-per-cell constraint it holds empirically on random workloads
# while the universal guarantee is 1/2 (see the module docstring).
GREEDY_BOUND = 1.0 - 1.0 / np.e


class CapExceededError(RuntimeError):
    """Exhaustive search would enumerate more allocations than allowed."""


@dataclass(frozen=True, eq=False)
class CoverageInstance:
    """One sub-frame's coverage structure.

    cover[c, j, k] is True when user k decodes cell c streaming on PRB j;
    the shape is (num_cells, num_prbs, num_users).  The instance holds a
    read-only view of the array it is given.
    """

    cover: np.ndarray

    def __post_init__(self):
        cover = np.asarray(self.cover)
        if cover.dtype != bool or cover.ndim != 3:
            raise ValueError(
                f"cover must be a boolean (C, N, M) array, got {cover.dtype} "
                f"with shape {cover.shape}"
            )
        if cover.shape[0] < 1 or cover.shape[1] < 1:
            raise ValueError("need num_cells >= 1 and num_prbs >= 1")
        view = cover.view()
        view.flags.writeable = False
        object.__setattr__(self, "cover", view)

    @classmethod
    def from_sets(
        cls,
        num_users: int,
        num_cells: int,
        num_prbs: int,
        sets: Sequence[Sequence[Sequence[int]]],
    ) -> CoverageInstance:
        """Build from sets[c][j], the user ids decodable on (cell c, PRB j)."""
        if num_users < 0 or num_cells < 1 or num_prbs < 1:
            raise ValueError("need num_users >= 0, num_cells >= 1, num_prbs >= 1")
        if len(sets) != num_cells:
            raise ValueError(f"expected {num_cells} cell rows, got {len(sets)}")
        cover = np.zeros((num_cells, num_prbs, num_users), dtype=bool)
        for c, row in enumerate(sets):
            if len(row) != num_prbs:
                raise ValueError(f"cell {c}: expected {num_prbs} PRB sets, got {len(row)}")
            for j, users in enumerate(row):
                ids = np.fromiter(users, dtype=int, count=len(users))
                if ids.size and (ids.min() < 0 or ids.max() >= num_users):
                    raise ValueError(f"U[{c}][{j}] contains out-of-range user ids")
                cover[c, j, ids] = True
        return cls(cover)

    @property
    def num_cells(self) -> int:
        return self.cover.shape[0]

    @property
    def num_prbs(self) -> int:
        return self.cover.shape[1]

    @property
    def num_users(self) -> int:
        return self.cover.shape[2]

    @property
    def sets(self) -> tuple[tuple[frozenset[int], ...], ...]:
        """sets[c][j]: frozenset of the user ids in U[c][j]."""
        return tuple(
            tuple(frozenset(np.flatnonzero(users).tolist()) for users in row)
            for row in self.cover
        )


@dataclass(frozen=True, eq=False)
class CoverageResult:
    """An allocation and its (M,) boolean mask of served users; chosen[c]
    is the PRB index cell c transmits on."""

    chosen: tuple[int, ...]
    served_mask: np.ndarray

    @property
    def served(self) -> frozenset[int]:
        return frozenset(np.flatnonzero(self.served_mask).tolist())

    @property
    def served_count(self) -> int:
        return int(np.count_nonzero(self.served_mask))


@dataclass(frozen=True)
class McpInstance:
    """Plain maximum coverage: pick at most k of the sets to cover the universe."""

    universe_size: int
    k: int
    sets: tuple[frozenset[int], ...]

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("k must be >= 1")
        for j, t in enumerate(self.sets):
            if t and (min(t) < 0 or max(t) >= self.universe_size):
                raise ValueError(f"set {j} contains out-of-range elements")


def evaluate(inst: CoverageInstance, chosen: Sequence[int]) -> CoverageResult:
    """Served users when cell c uses PRB chosen[c], computed from the union."""
    if len(chosen) != inst.num_cells:
        raise ValueError("allocation does not assign exactly one PRB per cell")
    for c, j in enumerate(chosen):
        if not 0 <= j < inst.num_prbs:
            raise ValueError(f"cell {c} chose PRB {j} out of range")
    return _result(inst, np.asarray(chosen, dtype=np.intp)[None])


def _result(inst: CoverageInstance, chosen: np.ndarray) -> CoverageResult:
    """The CoverageResult of a (1, C) block choice on inst."""
    served = served_block(inst.cover[None], chosen)[0]
    return CoverageResult(tuple(chosen[0].tolist()), served)


# ------------------------------------------------------------ block kernels
#
# Each kernel takes a (B, C, N, M) boolean stack of B instances and returns
# a (B, C) int array of chosen PRBs, ties going to the lowest (cell, prb)
# index within every instance.  The solve_* functions are the B = 1 case.

def served_block(covers: np.ndarray, chosen: np.ndarray) -> np.ndarray:
    """(B, M) mask of the users served when cell c of instance b transmits
    on PRB chosen[b, c]."""
    num_blocks, num_cells = chosen.shape
    picked = covers[np.arange(num_blocks)[:, None], np.arange(num_cells), chosen]
    return picked.any(axis=1)


def cga_block(covers: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Centralized greedy on every instance of the stack: C times, commit
    the (cell, PRB) pair covering the most not-yet-served users, then
    retire that cell.  Returns the (B, C) choice and the (B, C) order in
    which the cells were picked.

    Gains are exact popcounts of bit-packed rows; argmax over the flat
    (cell, prb) index keeps the lowest pair on ties, and a retired cell's
    gains are pushed below zero, under every live gain.
    """
    num_blocks, num_cells, num_prbs, num_users = covers.shape
    pairs = num_cells * num_prbs
    # (W, B, C*N), word-major: a gain is the sum of W contiguous slabs
    rows = np.moveaxis(_packed(covers).reshape(num_blocks, pairs, -1), -1, 0)
    rows = np.ascontiguousarray(rows)
    keep = ~rows  # ANDed into the uncovered words when a row is picked
    uncovered = np.full(rows.shape[:2], ~np.uint64(0))
    # M + 1 on every PRB of a retired cell, subtracted from its gains
    penalty = np.zeros((num_blocks, num_cells, num_prbs), dtype=np.int64)
    picks = np.zeros((num_blocks, num_cells), dtype=np.intp)
    blocks = np.arange(num_blocks)
    for step in range(num_cells):
        gain = np.bitwise_count(rows & uncovered[:, :, None]).sum(axis=0, dtype=np.int64)
        gain -= penalty.reshape(num_blocks, pairs)
        pick = gain.argmax(axis=-1)
        picks[:, step] = pick
        penalty[blocks, pick // num_prbs] = num_users + 1
        uncovered &= keep[:, blocks, pick]
    order, prbs = np.divmod(picks, num_prbs)
    chosen = np.zeros_like(order)
    chosen[blocks[:, None], order] = prbs
    return chosen, order


def dga_block(covers: np.ndarray, own: np.ndarray | None = None) -> np.ndarray:
    """Per-cell argmax of the users each (cell, PRB) covers, optionally
    counting only the users k with own[c, k] (a (C, M) mask)."""
    if own is not None:
        own = np.asarray(own, dtype=bool)
        shape = (covers.shape[1], covers.shape[3])
        if own.shape != shape:
            raise ValueError(f"own must have shape {shape}, got {own.shape}")
        covers = covers & own[:, None, :]
    return covers.sum(axis=-1).argmax(axis=-1)


def mbsfn_block(covers: np.ndarray) -> np.ndarray:
    """One common PRB for every cell: the index whose system-wide union
    covers the most users."""
    best = covers.any(axis=1).sum(axis=-1).argmax(axis=-1)
    return np.repeat(best[:, None], covers.shape[1], axis=1)


def exact_block(covers: np.ndarray, cap: int = EXACT_DEFAULT_CAP) -> np.ndarray:
    """The exhaustive oracle on each instance of the stack in turn; see
    solve_exact."""
    num_blocks, num_cells, num_prbs, _ = covers.shape
    candidates = num_prbs ** num_cells
    if candidates > cap:
        raise CapExceededError(
            f"{num_prbs}^{num_cells} = {candidates} allocations exceeds cap {cap}"
        )
    chosen = np.zeros((num_blocks, num_cells), dtype=np.intp)
    for b, words in enumerate(_packed(covers)):
        chosen[b] = _exact_allocation(words)
    return chosen


# -------------------------------------------------- single-instance solvers

def solve_cga(inst: CoverageInstance) -> CoverageResult:
    """Centralized greedy: repeatedly commit the (cell, PRB) pair covering
    the most not-yet-served users, then retire that cell.

    Runs exactly num_cells iterations so the allocation is total even when
    the marginal gain drops to zero.  Ties go to the lowest (cell, prb).
    """
    chosen, _ = cga_block(inst.cover[None])
    return _result(inst, chosen)


def solve_cga_trace(inst: CoverageInstance) -> tuple[CoverageResult, tuple[int, ...]]:
    """Like solve_cga, also returning the cumulative covered count after
    each iteration (used to check the greedy's per-step guarantees)."""
    chosen, order = cga_block(inst.cover[None])
    cells = order[0]
    picked = inst.cover[cells, chosen[0, cells]]
    history = np.logical_or.accumulate(picked, axis=0).sum(axis=-1)
    return _result(inst, chosen), tuple(history.tolist())


def solve_dga(inst: CoverageInstance, own: np.ndarray | None = None) -> CoverageResult:
    """Distributed allocation: every cell independently picks the PRB whose
    set covers the most of "its" users; service is still credited globally.

    By default a cell scores every user appearing in its sets (a
    multi-connected user counts at every cell that can decode it).  With
    own, a (C, M) bool mask such as topology.eligibility(scenario, "sc"),
    cell c scores only the users k with own[c, k].
    """
    return _result(inst, dga_block(inst.cover[None], own))


def solve_sc(inst: CoverageInstance) -> CoverageResult:
    """Single-connectivity baseline: per-cell argmax on an instance whose
    sets were built with each user eligible only at its primary cell."""
    return solve_dga(inst)


def solve_mbsfn(inst: CoverageInstance) -> CoverageResult:
    """Single-frequency baseline: all cells transmit on the one PRB index
    whose system-wide union covers the most users."""
    return _result(inst, mbsfn_block(inst.cover[None]))


def solve_exact(inst: CoverageInstance, cap: int = EXACT_DEFAULT_CAP) -> CoverageResult:
    """Exhaustive oracle over all num_prbs ** num_cells allocations.

    Refuses instances above `cap` candidate allocations.  The first
    maximizer in lexicographic allocation order wins, which is the
    lowest-(cell, prb) tie-break.
    """
    return _result(inst, exact_block(inst.cover[None], cap))


def _exact_allocation(words: np.ndarray) -> tuple[int, ...]:
    """The first maximizing allocation of one instance, given as its
    (C, N, W) bit-packed rows.

    The allocations are enumerated in itertools.product order as ORs of
    bit-packed rows: the unions over the trailing cells form one block,
    which is ORed with each union over the leading cells in turn.  The
    split keeps a block within _EXACT_BLOCK_WORDS words.
    """
    num_cells, num_prbs, _ = words.shape
    width = max(words.shape[-1], 1)
    tail_cells = 1
    while (tail_cells < num_cells
           and num_prbs ** (tail_cells + 1) * width <= _EXACT_BLOCK_WORDS):
        tail_cells += 1
    head, tail = words[: num_cells - tail_cells], _unions(words[num_cells - tail_cells:])

    best_count, best_index = -1, 0
    for h, prefix in enumerate(_unions(head)):
        counts = np.bitwise_count(tail | prefix).sum(axis=-1, dtype=np.int64)
        i = int(counts.argmax())
        if counts[i] > best_count:
            best_count, best_index = int(counts[i]), h * len(tail) + i
    return np.unravel_index(best_index, (num_prbs,) * num_cells)


def _unions(words: np.ndarray) -> np.ndarray:
    """(K, N, W) rows -> (N^K, W) unions of one row per cell, in
    itertools.product order (the last cell varies fastest)."""
    width = words.shape[-1]
    out = np.zeros((1, width), dtype=np.uint64)
    for rows in words:
        out = (out[:, None, :] | rows[None, :, :]).reshape(len(out) * len(rows), width)
    return out


def _packed(cover: np.ndarray) -> np.ndarray:
    """(..., M) bool -> (..., W) uint64 words holding the user bits, each
    row zero-padded to whole words; popcounts of ORs of these rows are
    union sizes."""
    num_users = cover.shape[-1]
    words = -(-num_users // 64)
    padded = np.zeros(cover.shape[:-1] + (64 * words,), dtype=bool)
    padded[..., :num_users] = cover
    return np.packbits(padded).view(np.uint64).reshape(cover.shape[:-1] + (words,))


def reduce_mcp(mcp: McpInstance) -> CoverageInstance:
    """Embed a plain maximum-coverage instance: k cells, one PRB per input
    set, and every cell sees the identical sub-collection."""
    row = CoverageInstance.from_sets(mcp.universe_size, 1, len(mcp.sets), (mcp.sets,))
    return CoverageInstance(np.repeat(row.cover, mcp.k, axis=0))


def map_solution(chosen: Sequence[int]) -> list[int]:
    """Map an allocation on a reduced instance back to a maximum-coverage
    solution: the deduplicated PRB indices are the chosen set indices."""
    return sorted(set(chosen))


def random_instance(
    rng: np.random.Generator,
    max_users: int = 12,
    max_cells: int = 4,
    max_prbs: int = 4,
) -> CoverageInstance:
    """Random instance for oracle checks; membership density varies per draw."""
    m = int(rng.integers(1, max_users + 1))
    c = int(rng.integers(1, max_cells + 1))
    n = int(rng.integers(1, max_prbs + 1))
    density = rng.uniform(0.1, 0.9)
    return CoverageInstance(rng.random((c, n, m)) < density)
