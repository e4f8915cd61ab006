"""Test-only oracles for the allocation kernels and the channel: a
set-based view of a (C, N, M) coverage instance and its constructor, a
kernel's choice on one instance and how many it serves, the users a
choice on a boolean stack serves, the set-union served users of an
allocation, the greedy's per-step history, the embedding of plain maximum
coverage, a MILP optimum for instances at the paper's size, the SNR->rate
step function, the SNR in dB of given fading powers, a one-sub-frame
SNR draw, and a drop's association rebuilt from its positions.

The package's kernels work on packed (B, C, N, W) word stacks; these
helpers take boolean instances, pack them with coverage.pack, and rebuild
the set form the paper states the problem in, so the tests can check the
kernels against it.  The package decides decodability by comparing raw
fading powers with per-drop closed-form cutoffs, with no SNR in dB per
draw; snr_of gives that SNR, the link budget plus 10 * log10 of the
clamped power, so the tests can check the cutoffs against it away from
the few ulps around each cutoff where the two roundings may differ.
pytest does not collect this module (its name does not start with
test_); the tests import it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from mcmcast.channel import DEFAULT_RATE_TABLE, fading_block
from mcmcast.coverage import pack, served_block, unpack


def from_sets(
    num_users: int,
    num_cells: int,
    num_prbs: int,
    sets: Sequence[Sequence[Sequence[int]]],
) -> np.ndarray:
    """The (C, N, M) cover array of sets[c][j], the user ids decodable on
    (cell c, PRB j)."""
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
    return cover


def sets_of(cover: np.ndarray) -> tuple[tuple[frozenset[int], ...], ...]:
    """sets[c][j]: frozenset of the user ids k with cover[c, j, k]."""
    return tuple(
        tuple(frozenset(np.flatnonzero(users).tolist()) for users in row)
        for row in cover
    )


def chosen_by(kernel, cover: np.ndarray) -> tuple[int, ...]:
    """The PRBs a block kernel picks on the single boolean instance
    `cover`, as the packed stack of that one instance."""
    return tuple(kernel(pack(cover[None]))[0].tolist())


def served_count(kernel, cover: np.ndarray) -> int:
    """How many users the choice of a block kernel serves on the single
    boolean instance `cover`."""
    stack = pack(cover[None])
    return int(np.bitwise_count(served_block(stack, kernel(stack))).sum())


def served_users(covers: np.ndarray, chosen: np.ndarray) -> np.ndarray:
    """(B, M) bool mask of the users served on the boolean (B, C, N, M)
    stack `covers` when cell c of instance b transmits on PRB chosen[b, c],
    by served_block on the packed stack."""
    return unpack(served_block(pack(covers), chosen), covers.shape[-1])


def served_set(cover: np.ndarray, chosen: Sequence[int]) -> frozenset[int]:
    """Users served when cell c transmits on PRB chosen[c]: the union of
    the chosen sets."""
    sets = sets_of(cover)
    return frozenset().union(*(sets[c][j] for c, j in enumerate(chosen)))


def cga_history(cover: np.ndarray, chosen: Sequence[int]) -> tuple[int, ...]:
    """Covered users after each greedy step of the allocation `chosen`
    that cga_block returned on `cover`.

    Replays the greedy over the C chosen (cell, PRB) pairs alone, ties to
    the lowest cell.  This is the kernel's own pick order: the pair it
    picks at each step is one of these, beats or ties every other live
    pair, and on a tie has the lowest flat (cell, prb) index.
    """
    sets = sets_of(cover)
    remaining = list(range(len(chosen)))
    covered, history = frozenset(), []
    for _ in range(len(chosen)):
        cell = max(remaining, key=lambda c: (len(sets[c][chosen[c]] - covered), -c))
        covered |= sets[cell][chosen[cell]]
        remaining.remove(cell)
        history.append(len(covered))
    return tuple(history)


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


def reduce_mcp(mcp: McpInstance) -> np.ndarray:
    """Embed a plain maximum-coverage instance: k cells, one PRB per input
    set, and every cell sees the identical sub-collection."""
    row = from_sets(mcp.universe_size, 1, len(mcp.sets), (mcp.sets,))
    return np.repeat(row, mcp.k, axis=0)


def map_solution(chosen: Sequence[int]) -> list[int]:
    """Map an allocation on a reduced instance back to a maximum-coverage
    solution: the deduplicated PRB indices are the chosen set indices."""
    return sorted(set(chosen))


def milp_optimum(cover: np.ndarray) -> tuple[float, tuple[int, ...]]:
    """The optimum value of the boolean (C, N, M) instance `cover`, as
    scipy's MILP solver reports it at a zero gap, and the allocation it
    found: binary x[c, j] with sum_j x[c, j] = 1 for each cell c, and
    y[k] <= the sum of the x[c, j] whose (cell, PRB) pair covers user k,
    maximizing sum_k y[k].  The value is a float for the caller to
    certify against the allocation's served count."""
    from scipy.optimize import Bounds, LinearConstraint, milp

    num_cells, num_prbs, num_users = cover.shape
    pairs = num_cells * num_prbs
    one_per_cell = np.hstack([np.kron(np.eye(num_cells), np.ones(num_prbs)),
                              np.zeros((num_cells, num_users))])
    covered = np.hstack([-cover.reshape(pairs, num_users).T.astype(float),
                         np.eye(num_users)])
    result = milp(
        np.concatenate([np.zeros(pairs), -np.ones(num_users)]),
        integrality=np.concatenate([np.ones(pairs), np.zeros(num_users)]),
        bounds=Bounds(0.0, 1.0),
        constraints=[LinearConstraint(one_per_cell, 1.0, 1.0),
                     LinearConstraint(covered, -np.inf, 0.0)],
        options={"mip_rel_gap": 0.0},
    )
    if not result.success:
        raise RuntimeError(f"MILP failed: {result.message}")
    chosen = result.x[:pairs].reshape(num_cells, num_prbs).argmax(axis=1)
    return -result.fun, tuple(chosen.tolist())


# The rate table's columns, and the least fading power the SNR in dB
# reads, as the channel module states them
_THRESHOLDS_DB = np.array([t for t, _ in DEFAULT_RATE_TABLE])
_RATES = np.array([r for _, r in DEFAULT_RATE_TABLE])
_MIN_POWER = 1e-12


def rate_from_snr(snr_db):
    """Decodable rate for an SNR: 0 below the first step, then the highest
    step whose threshold is met, saturating at the top step.  Vectorized."""
    idx = np.searchsorted(_THRESHOLDS_DB, np.asarray(snr_db, dtype=float), side="right")
    out = np.where(idx > 0, _RATES[np.maximum(idx - 1, 0)], 0.0)
    return float(out) if np.isscalar(snr_db) else out


def _fade_db(power, base):
    """base + 10 * log10(max(power, 1e-12)): the SNR in dB of fading power
    over link budget base."""
    return base + 10.0 * np.log10(np.maximum(power, _MIN_POWER))


def snr_of(budget_db: np.ndarray, powers: np.ndarray) -> np.ndarray:
    """(B, C, N, M) SNR in dB of the (B, C, N, M) fading powers on links
    of the (C, M) link budget: the budget plus 10 * log10 of each power,
    clamped at 1e-12, by _fade_db."""
    return _fade_db(powers, budget_db[:, None, :])


def snr_subframe(params, budget_db: np.ndarray, rng: np.random.Generator,
                 num_prbs: int) -> np.ndarray:
    """(C, N, M) SNR draw of one sub-frame on num_prbs PRBs: snr_of the
    powers one fading_block of one sub-frame takes from rng."""
    num_cells, num_users = budget_db.shape
    powers = fading_block(params, rng, np.empty((1, num_cells, num_prbs, num_users)))
    return snr_of(budget_db, powers)[0]


def connectivity(scenario, edge_threshold: float, radius_m: float
                 ) -> tuple[np.ndarray, np.ndarray]:
    """The (C, M) bool masks (own, mc) of a drop, from its cell and UE
    positions: a UE's own cell is its nearest eNB, the first on a tie,
    and under multi-connectivity a UE farther than edge_threshold *
    radius_m from it also hears every other cell."""
    dist = np.linalg.norm(scenario.cell_pos[:, None, :] - scenario.ue_pos[None, :, :],
                          axis=2)
    users = np.arange(dist.shape[1])
    primary = dist.argmin(axis=0)
    own = np.zeros(dist.shape, dtype=bool)
    own[primary, users] = True
    edge = dist[primary, users] > edge_threshold * radius_m
    return own, own | edge[None, :]
