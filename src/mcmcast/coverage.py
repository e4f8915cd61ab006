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
from it on demand.  All solvers are pure functions of instances and
break argmax ties toward the lowest (cell, prb) index, so outputs are
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
    return _result(inst, chosen)


def _result(inst: CoverageInstance, chosen) -> CoverageResult:
    """evaluate() for a solver's choice, which is in range by construction."""
    chosen = tuple(map(int, chosen))
    served = inst.cover[np.arange(inst.num_cells), chosen].any(axis=0)
    return CoverageResult(chosen, served)


def solve_cga(inst: CoverageInstance) -> CoverageResult:
    """Centralized greedy: repeatedly commit the (cell, PRB) pair covering
    the most not-yet-served users, then retire that cell.

    Runs exactly num_cells iterations so the allocation is total even when
    the marginal gain drops to zero.  Ties go to the lowest (cell, prb).
    """
    result, _ = solve_cga_trace(inst)
    return result


def solve_cga_trace(inst: CoverageInstance) -> tuple[CoverageResult, tuple[int, ...]]:
    """Like solve_cga, also returning the cumulative covered count after
    each iteration (used to check the greedy's per-step guarantees)."""
    cover = inst.cover
    num_cells, num_prbs, num_users = cover.shape
    # gain[c, j] = (cover[c, j] & ~covered).sum() as one matrix-vector
    # product; float32 sums of 0/1 terms are exact below 2**24 users.
    rows = cover.reshape(num_cells * num_prbs, num_users).astype(np.float32)
    uncovered = np.ones(num_users, dtype=np.float32)
    retired = np.zeros(num_cells, dtype=bool)
    chosen = [0] * num_cells
    history = []
    covered = 0
    for _ in range(num_cells):
        gain = (rows @ uncovered).reshape(num_cells, num_prbs)
        gain[retired] = -1.0  # every live gain is >= 0, so retired cells never win
        c, j = divmod(int(gain.argmax()), num_prbs)
        chosen[c] = j
        covered += int(gain[c, j])
        uncovered[cover[c, j]] = 0.0
        retired[c] = True
        history.append(covered)
    return _result(inst, chosen), tuple(history)


def solve_dga(inst: CoverageInstance, own: np.ndarray | None = None) -> CoverageResult:
    """Distributed allocation: every cell independently picks the PRB whose
    set covers the most of "its" users; service is still credited globally.

    By default a cell scores every user appearing in its sets (a
    multi-connected user counts at every cell that can decode it).  With
    own, a (C, M) bool mask such as topology.eligibility(scenario, "sc"),
    cell c scores only the users k with own[c, k].
    """
    cover = inst.cover
    if own is not None:
        own = np.asarray(own, dtype=bool)
        shape = (inst.num_cells, inst.num_users)
        if own.shape != shape:
            raise ValueError(f"own must have shape {shape}, got {own.shape}")
        cover = cover & own[:, None, :]
    # argmax keeps the lowest PRB index on ties
    return _result(inst, cover.sum(axis=-1).argmax(axis=-1))


def solve_sc(inst: CoverageInstance) -> CoverageResult:
    """Single-connectivity baseline: per-cell argmax on an instance whose
    sets were built with each user eligible only at its primary cell."""
    return solve_dga(inst)


def solve_mbsfn(inst: CoverageInstance) -> CoverageResult:
    """Single-frequency baseline: all cells transmit on the one PRB index
    whose system-wide union covers the most users."""
    best_j = int(inst.cover.any(axis=0).sum(axis=-1).argmax())
    return _result(inst, (best_j,) * inst.num_cells)


def solve_exact(inst: CoverageInstance, cap: int = EXACT_DEFAULT_CAP) -> CoverageResult:
    """Exhaustive oracle over all num_prbs ** num_cells allocations.

    Refuses instances above `cap` candidate allocations.  The first
    maximizer in lexicographic allocation order wins, which is the
    lowest-(cell, prb) tie-break.

    The allocations are enumerated in itertools.product order as ORs of
    bit-packed rows: the unions over the trailing cells form one block,
    which is ORed with each union over the leading cells in turn.  The
    split keeps a block within _EXACT_BLOCK_WORDS words.
    """
    num_cells, num_prbs = inst.num_cells, inst.num_prbs
    candidates = num_prbs ** num_cells
    if candidates > cap:
        raise CapExceededError(
            f"{num_prbs}^{num_cells} = {candidates} allocations exceeds cap {cap}"
        )
    words = _packed(inst.cover)
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
    return _result(inst, np.unravel_index(best_index, (num_prbs,) * num_cells))


def _unions(words: np.ndarray) -> np.ndarray:
    """(K, N, W) rows -> (N^K, W) unions of one row per cell, in
    itertools.product order (the last cell varies fastest)."""
    width = words.shape[-1]
    out = np.zeros((1, width), dtype=np.uint64)
    for rows in words:
        out = (out[:, None, :] | rows[None, :, :]).reshape(len(out) * len(rows), width)
    return out


def _packed(cover: np.ndarray) -> np.ndarray:
    """(C, N, M) bool -> (C, N, W) uint64 words holding the user bits;
    popcounts of ORs of these rows are union sizes."""
    num_users = cover.shape[-1]
    words = -(-num_users // 64)
    raw = np.zeros(cover.shape[:-1] + (8 * words,), dtype=np.uint8)
    raw[..., : -(-num_users // 8)] = np.packbits(cover, axis=-1)
    return raw.view(np.uint64)


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
