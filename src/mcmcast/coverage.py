"""Partitioned maximum-coverage model and PRB allocation kernels.

The allocation problem: each of C cells must stream a common multicast
service on exactly one of N PRBs per sub-frame.  An instance is the
boolean cover[c, j, k] of shape (C, N, M): True when user k decodes cell
c streaming on PRB j.  A user is served when at least one chosen
(cell, PRB) pair covers it, and the goal is to pick one PRB per cell
maximizing the number of distinct served users.  This is NP-hard (it
embeds maximum coverage).

The kernels work on the packed form of the instance: pack turns each
(cell, PRB) row of M user bits into W = ceil(M / 64) uint64 words, the
padding bits zero, so that unions are ORs and union sizes are popcounts;
unpack turns words back into user bits.  Each policy is one kernel over a
(B, C, N, W) stack of B packed instances that returns the (B, C) chosen
PRBs; served_block gives the (B, W) words of the users a choice serves.
The engine packs each block of sub-frames once and runs every kernel on
it.

  * cga_block   -- centralized greedy over (cell, PRB) pairs; on random
                   workloads the oracle suite observes coverage within
                   (1 - 1/e) of optimal, though the one-PRB-per-cell
                   constraint admits rare adversarial instances where a
                   greedy pick spends a cell the optimum needs (worst
                   case 1/2, like any greedy under a partition constraint)
  * dga_block   -- uncoordinated per-cell argmax: the dga policy on the
                   MC instance, the sc policy on the SC instance
  * mbsfn_block -- one common PRB index for every cell
  * exact_block -- exhaustive search (oracle), one instance at a time,
                   over the allocations of each cell's live rows, those
                   that no lower row of the cell covers: a covered row
                   swapped for the lower row covering it loses no user
                   and comes earlier in product order, so the first
                   maximizer over all N^C allocations uses live rows
                   only; unions of head cells ORed against unions of
                   tail cells, each chunk at most STACK_WORDS words

All kernels are pure functions of the stack and break argmax ties toward
the lowest (cell, prb) index within each instance, so outputs are
deterministic.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "CapExceededError",
    "EXACT_DEFAULT_CAP",
    "GREEDY_BOUND",
    "STACK_WORDS",
    "num_words",
    "pack",
    "unpack",
    "served_block",
    "cga_block",
    "dga_block",
    "mbsfn_block",
    "exact_block",
    "check_exact_cap",
    "random_instance",
]

EXACT_DEFAULT_CAP = 10_000_000

# Upper bound on the uint64 words of one packed stack (128 KiB).  Each of
# the engine's workers packs as many whole sub-frames at once as fit, and
# every kernel runs on that stack.  Within exact_block it also bounds the
# tail unions of one instance and each chunk of its search, how many head
# unions each chunk ORs against the tail unions, so that even the full cap
# never materializes at once.  The search spans only each cell's live
# rows, those that no lower row of the cell covers (a covered row never
# holds the first maximizer; see exact_block): at C = 7, N = 4 and up to 64
# users one chunk holds all of an instance's allocations.  2^17 raised the
# fig4 benchmark's peak RSS by 6% (CHANGES.md).
STACK_WORDS = 1 << 14

# Greedy-to-optimal ratio the oracle suite checks for: 1 - 1/e.  This is
# the classic cardinality-constrained greedy figure; under the
# one-PRB-per-cell constraint it holds empirically on random workloads
# while the universal guarantee is 1/2 (see the module docstring).
GREEDY_BOUND = 1.0 - 1.0 / np.e


class CapExceededError(RuntimeError):
    """Exhaustive search would enumerate more allocations than allowed."""


def check_exact_cap(num_cells: int, num_prbs: int,
                    cap: int = EXACT_DEFAULT_CAP) -> None:
    """Raise CapExceededError when the N^C allocations of num_cells cells
    on num_prbs PRBs each exceed cap.  Exact for any cap: with N >= 2,
    N^C >= 2^C, which exceeds cap once C passes cap's bit length, so such
    a cell count is refused without computing the power."""
    if ((num_prbs > 1 and num_cells > int(cap).bit_length())
            or num_prbs ** num_cells > cap):
        raise CapExceededError(
            f"exact search space {num_prbs}^{num_cells} exceeds cap {cap}"
        )


# ------------------------------------------------------------ packed form

def num_words(num_users: int) -> int:
    """W, the uint64 words a packed row of num_users user bits takes."""
    return -(-num_users // 64)


def pack(cover: np.ndarray) -> np.ndarray:
    """(..., M) bool -> (..., W) uint64 words holding the user bits,
    W = num_words(M), the padding bits zero; popcounts of ORs of these
    rows are union sizes."""
    num_users = cover.shape[-1]
    out = np.zeros(cover.shape[:-1] + (num_words(num_users),), dtype=np.uint64)
    out.view(np.uint8)[..., : -(-num_users // 8)] = np.packbits(cover, axis=-1)
    return out


def unpack(words: np.ndarray, num_users: int) -> np.ndarray:
    """(..., W) uint64 words -> the (..., M) bool user bits, M = num_users;
    the inverse of pack."""
    bits = np.unpackbits(words.view(np.uint8), axis=-1, count=num_users)
    return bits.view(bool)


# ------------------------------------------------------------ block kernels
#
# Each kernel takes a (B, C, N, W) packed stack of B instances and returns
# a (B, C) int array of chosen PRBs, ties going to the lowest (cell, prb)
# index within every instance.

def served_block(words: np.ndarray, chosen: np.ndarray) -> np.ndarray:
    """(B, W) words of the users served when cell c of instance b
    transmits on PRB chosen[b, c]."""
    num_blocks, num_cells = chosen.shape
    picked = words[np.arange(num_blocks)[:, None], np.arange(num_cells), chosen]
    return np.bitwise_or.reduce(picked, axis=1)


def cga_block(words: np.ndarray) -> np.ndarray:
    """Centralized greedy on every instance of the stack: C times, commit
    the (cell, PRB) pair covering the most not-yet-served users: record
    its PRB, retire its cell and clear its users from the uncovered
    words.  Runs exactly C steps, so the allocation is total even when the
    marginal gain drops to zero.

    Gains are exact popcounts of the packed rows; argmax over the flat
    (cell, prb) index keeps the lowest pair on ties, and a retired cell's
    gains are pushed below zero, under every live gain.
    """
    num_blocks, num_cells, num_prbs, width = words.shape
    pairs = num_cells * num_prbs
    # (W, B, C*N), word-major: a gain is the sum of W contiguous slabs
    rows = np.ascontiguousarray(np.moveaxis(words.reshape(num_blocks, pairs, width), -1, 0))
    uncovered = np.full(rows.shape[:2], ~np.uint64(0))
    # 64 W + 1, above any gain, subtracted from every gain of a retired cell
    penalty = np.zeros((num_blocks, num_cells, num_prbs), dtype=np.int64)
    chosen = np.zeros((num_blocks, num_cells), dtype=np.intp)
    blocks = np.arange(num_blocks)
    for _ in range(num_cells):
        gain = np.bitwise_count(rows & uncovered[:, :, None]).sum(axis=0, dtype=np.int64)
        gain -= penalty.reshape(num_blocks, pairs)
        pick = gain.argmax(axis=-1)
        cell, prb = np.divmod(pick, num_prbs)
        chosen[blocks, cell] = prb
        penalty[blocks, cell] = 64 * width + 1
        uncovered &= ~rows[:, blocks, pick]
    return chosen


def dga_block(words: np.ndarray) -> np.ndarray:
    """Per-cell argmax of the users each (cell, PRB) covers, each cell
    counting every user it covers with no regard for the other cells."""
    return _popcount(words).argmax(axis=-1)


def mbsfn_block(words: np.ndarray) -> np.ndarray:
    """One common PRB for every cell: the index whose system-wide union
    covers the most users."""
    best = _popcount(np.bitwise_or.reduce(words, axis=1)).argmax(axis=-1)
    return np.repeat(best[:, None], words.shape[1], axis=1)


def exact_block(words: np.ndarray, cap: int = EXACT_DEFAULT_CAP) -> np.ndarray:
    """The exhaustive oracle on every instance of the stack: the first
    allocation, in itertools.product order over the cells' PRBs, that
    serves the most users, which is the lowest-(cell, prb) tie-break.
    Refuses stacks whose instances have more than `cap` allocations.

    Only live rows are scanned: row j of a cell is live unless some lower
    row i < j of the same cell covers every one of its users (row 0 is
    always live; an empty or repeated row j > 0 never is).  Swapping a
    covered row for the lower row that covers it loses no user and gives
    an allocation earlier in product order, so no allocation with a
    covered row is the first maximizer.  Each cell's live rows are sorted
    first, in PRB order, so that product order over them is product order
    over the PRBs, and the winning index is decoded in the mixed radix of
    the cells' live counts and mapped back through that sort.

    An allocation is the OR of one live row per cell.  The search takes
    one instance at a time and splits its cells into trailing tail cells,
    the longest run whose live-row product fits STACK_WORDS // W unions,
    and leading head cells, the rest and at least one: each allocation is
    one head union ORed with one tail union, and its index is head index
    * tails + tail index.  Each chunk ORs a few head unions against all
    tail unions at once and holds at most STACK_WORDS words, or one
    allocation when its W words alone are more.  A flat argmax keeps the
    first maximizer within a chunk, and a later chunk replaces it only
    when strictly larger, so the first maximizer overall wins.
    """
    num_blocks, num_cells, num_prbs, width = words.shape
    check_exact_cap(num_cells, num_prbs, cap)
    budget = STACK_WORDS // max(width, 1)  # rows of W words
    live = np.ones(words.shape[:3], dtype=bool)
    for j in range(1, num_prbs):
        live[:, :, j] = (words[:, :, j, None] & ~words[:, :, :j]).any(-1).all(-1)
    # each cell's live rows first, in PRB order
    order = np.argsort(~live, axis=-1, kind="stable")
    rows = np.take_along_axis(words, order[..., None], axis=2)
    digits = np.zeros((num_blocks, num_cells), dtype=np.intp)
    for b, sizes in enumerate(live.sum(axis=-1).tolist()):
        head_cells, tails = num_cells, 1
        while head_cells > 1 and tails * sizes[head_cells - 1] <= budget:
            head_cells -= 1
            tails *= sizes[head_cells]
        head = _unions(rows[b, :head_cells], sizes[:head_cells])
        tail = _unions(rows[b, head_cells:], sizes[head_cells:])
        step = max(1, budget // tails)  # head unions per chunk
        best_count, index = -1, 0
        for h0 in range(0, len(head), step):
            # one expression, so that no chunk of ORs outlives its popcount
            counts = _popcount(head[h0: h0 + step, None] | tail).ravel()
            i = int(counts.argmax())
            if int(counts[i]) > best_count:
                best_count, index = int(counts[i]), h0 * tails + i
        # cell c's digit, in base sizes[c], the last cell least significant
        for c in range(num_cells - 1, -1, -1):
            index, digits[b, c] = divmod(index, sizes[c])
    return np.take_along_axis(order, digits[..., None], axis=-1)[..., 0]


def _unions(rows: np.ndarray, sizes: list[int]) -> np.ndarray:
    """(K, N, W) sorted rows of one instance -> the (prod(sizes), W)
    unions of one of the first sizes[c] rows of each cell c, in
    itertools.product order (the last cell varies fastest); one zero
    union when K = 0.  With K = 1 they are a view of the rows."""
    out = rows[0, :sizes[0]] if len(rows) else np.zeros((1, rows.shape[-1]), np.uint64)
    for cell, size in zip(rows[1:], sizes[1:]):
        out = (out[:, None] | cell[:size]).reshape(len(out) * size, rows.shape[-1])
    return out


def _popcount(words: np.ndarray) -> np.ndarray:
    """(..., W) words -> (...) counts of their set bits: int64, or the
    uint8 popcounts themselves when W = 1.

    The W word slabs are added into one int64 array, W whole-stack passes,
    rather than reduced over the last axis, which runs an inner loop of
    only W elements per row: on a fig4-sized (117, 7, 10, 2) stack the
    reduction took about 1.1 µs per instance and the slab sum 0.2 µs.
    Only rows of about a hundred words or more, far past the paper's
    280 users, would favour the reduction."""
    counts = np.bitwise_count(words)
    if counts.shape[-1] == 1:
        return counts[..., 0]
    total = np.zeros(counts.shape[:-1], dtype=np.int64)
    for k in range(counts.shape[-1]):
        total += counts[..., k]
    return total


def random_instance(
    rng: np.random.Generator, max_users: int, max_cells: int, max_prbs: int
) -> np.ndarray:
    """Random (C, N, M) instance for oracle checks, with C, N and M drawn
    up to their maxima; membership density varies per draw."""
    m = int(rng.integers(1, max_users + 1))
    c = int(rng.integers(1, max_cells + 1))
    n = int(rng.integers(1, max_prbs + 1))
    density = rng.uniform(0.1, 0.9)
    return rng.random((c, n, m)) < density
