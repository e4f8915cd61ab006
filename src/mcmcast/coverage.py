"""Partitioned maximum-coverage model and PRB allocation kernels.

The allocation problem: each of C cells must stream a common multicast
service on exactly one of N PRBs per sub-frame.  An instance is one
boolean array cover[c, j, k] of shape (C, N, M): True when user k decodes
cell c streaming on PRB j.  A user is served when at least one chosen
(cell, PRB) pair covers it, and the goal is to pick one PRB per cell
maximizing the number of distinct served users.  This is NP-hard (it
embeds maximum coverage).

Each policy is one kernel over a (B, C, N, M) stack of B instances that
returns the (B, C) chosen PRBs; served_block gives the (B, M) users a
choice serves.  The engine runs them on a block of sub-frames at a time.

  * cga_block   -- centralized greedy over (cell, PRB) pairs; on random
                   workloads the oracle suite observes coverage within
                   (1 - 1/e) of optimal, though the one-PRB-per-cell
                   constraint admits rare adversarial instances where a
                   greedy pick spends a cell the optimum needs (worst
                   case 1/2, like any greedy under a partition constraint)
  * dga_block   -- uncoordinated per-cell argmax: the dga policy on the
                   MC instance, the sc policy on the SC instance
  * mbsfn_block -- one common PRB index for every cell
  * exact_block -- exhaustive search over all N^C allocations (oracle),
                   bit-packed unions of head cells ORed against unions
                   of tail cells, a group of instances at a time, in
                   chunks of at most 128 KiB

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
    "served_block",
    "cga_block",
    "dga_block",
    "mbsfn_block",
    "exact_block",
    "check_exact_cap",
    "random_instance",
]

EXACT_DEFAULT_CAP = 10_000_000

# Upper bound on the uint64 words one chunk of the exhaustive search holds
# (128 KiB).  It sets both how many instances exact_block searches together
# and how many head unions each chunk ORs against the tail unions, so that
# even the full cap never materializes at once.  2^16 words searched the
# 4^7 allocations of 4 sub-frames per chunk and ran the exact_n4 benchmark
# about 1.5x faster, but its peak RSS, which grows with the chunks the
# harness completes, then read past the benchmark's bound (CHANGES.md).
_EXACT_BLOCK_WORDS = 1 << 14

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


# ------------------------------------------------------------ block kernels
#
# Each kernel takes a (B, C, N, M) boolean stack of B instances and returns
# a (B, C) int array of chosen PRBs, ties going to the lowest (cell, prb)
# index within every instance.

def served_block(covers: np.ndarray, chosen: np.ndarray) -> np.ndarray:
    """(B, M) mask of the users served when cell c of instance b transmits
    on PRB chosen[b, c]."""
    num_blocks, num_cells = chosen.shape
    picked = covers[np.arange(num_blocks)[:, None], np.arange(num_cells), chosen]
    return picked.any(axis=1)


def cga_block(covers: np.ndarray) -> np.ndarray:
    """Centralized greedy on every instance of the stack: C times, commit
    the (cell, PRB) pair covering the most not-yet-served users, then
    retire that cell.  Runs exactly C steps, so the allocation is total
    even when the marginal gain drops to zero.

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
    return chosen


def dga_block(covers: np.ndarray) -> np.ndarray:
    """Per-cell argmax of the users each (cell, PRB) covers, each cell
    counting every user it covers with no regard for the other cells."""
    return covers.sum(axis=-1).argmax(axis=-1)


def mbsfn_block(covers: np.ndarray) -> np.ndarray:
    """One common PRB for every cell: the index whose system-wide union
    covers the most users."""
    best = covers.any(axis=1).sum(axis=-1).argmax(axis=-1)
    return np.repeat(best[:, None], covers.shape[1], axis=1)


def exact_block(covers: np.ndarray, cap: int = EXACT_DEFAULT_CAP) -> np.ndarray:
    """The exhaustive oracle on every instance of the stack: the first
    allocation, in itertools.product order over the cells' PRBs, that
    serves the most users, which is the lowest-(cell, prb) tie-break.
    Refuses stacks whose instances have more than `cap` allocations.

    An allocation is the OR of one bit-packed row per cell.  The cells
    split into leading head cells and trailing tail cells: each allocation
    is one head union ORed with one tail union, and its index in
    itertools.product order is head index * N^tail + tail index.  The
    search takes G instances at a time and ORs r head unions against all
    tail unions at once, keeping every (G, r, N^tail, W) chunk within
    _EXACT_BLOCK_WORDS words.  A flat argmax per instance keeps the first
    maximizer within a chunk, and a later chunk replaces it only when
    strictly larger, so the first maximizer overall wins.
    """
    num_blocks, num_cells, num_prbs, _ = covers.shape
    check_exact_cap(num_cells, num_prbs, cap)
    words = _packed(covers)
    width = words.shape[-1]
    budget = _EXACT_BLOCK_WORDS // max(width, 1)  # rows of W words
    tail_cells = -(-num_cells // 2)
    while tail_cells and num_prbs ** tail_cells > budget:
        tail_cells -= 1
    head_cells = num_cells - tail_cells
    heads, tails = num_prbs ** head_cells, num_prbs ** tail_cells
    group = max(1, budget // (heads * tails))
    rows = max(1, min(heads, budget // (group * tails)))

    best_index = np.zeros(num_blocks, dtype=np.intp)
    for b0 in range(0, num_blocks, group):
        block = words[b0: b0 + group]
        size = len(block)
        head = _unions(block[:, :head_cells])
        tail = _unions(block[:, head_cells:])
        best_count = np.full(size, -1, dtype=np.int64)
        index = best_index[b0: b0 + group]
        for h0 in range(0, heads, rows):
            # one expression, so that no chunk of ORs outlives its popcount
            counts = np.bitwise_count(head[:, h0: h0 + rows, None] | tail[:, None])
            counts = counts[..., 0] if width == 1 else counts.sum(axis=-1, dtype=np.int64)
            counts = counts.reshape(size, -1)
            i = counts.argmax(axis=-1)
            count = counts[np.arange(size), i]
            better = count > best_count
            best_count[better] = count[better]
            index[better] = h0 * tails + i[better]
    # cell c's PRB is digit c of the index in base N, most significant first
    place = num_prbs ** np.arange(num_cells - 1, -1, -1)
    return best_index[:, None] // place % num_prbs


def _unions(words: np.ndarray) -> np.ndarray:
    """(..., K, N, W) rows -> (..., N^K, W) unions of one row per cell, in
    itertools.product order (the last cell varies fastest)."""
    *lead, num_cells, num_prbs, width = words.shape
    out = np.zeros((*lead, 1, width), dtype=np.uint64)
    for c in range(num_cells):
        rows = words[..., c, :, :]
        out = (out[..., :, None, :] | rows[..., None, :, :]).reshape(
            *lead, out.shape[-2] * num_prbs, width)
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


def random_instance(
    rng: np.random.Generator,
    max_users: int = 12,
    max_cells: int = 4,
    max_prbs: int = 4,
) -> np.ndarray:
    """Random (C, N, M) instance for oracle checks, with C, N and M drawn
    up to their maxima; membership density varies per draw."""
    m = int(rng.integers(1, max_users + 1))
    c = int(rng.integers(1, max_cells + 1))
    n = int(rng.integers(1, max_prbs + 1))
    density = rng.uniform(0.1, 0.9)
    return rng.random((c, n, m)) < density
