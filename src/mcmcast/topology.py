"""Seven-cell hexagonal layout, uniform UE drops, and connectivity.

A UE's primary cell is the nearest eNB.  UEs farther than
edge_threshold * radius from their primary are "edge" UEs; under
multi-connectivity those may receive from every eNB in the system, all
others only from their primary.  Single-connectivity mode collapses
everyone to the primary.  eligibility() derives a mode's connectivity
from the primary cells and the edge flags as a (C, M) mask.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = ["NetworkScenario", "NUM_CELLS", "build_hex7", "eligibility"]

MC = "mc"
SC = "sc"

NUM_CELLS = 7  # the hexagonal layout: one center cell and a ring of six


@dataclass(frozen=True)
class NetworkScenario:
    cell_pos: np.ndarray           # (C, 2) meters
    ue_pos: np.ndarray             # (M, 2) meters
    primary_cell: np.ndarray       # (M,) int
    edge_ue: np.ndarray            # (M,) bool
    distance_m: np.ndarray         # (C, M) cell-to-UE meters

    @property
    def num_cells(self) -> int:
        return len(self.cell_pos)


def build_hex7(
    radius_m: float,
    ues_per_cell: int,
    edge_threshold: float = 0.8,
    rng: np.random.Generator | None = None,
) -> NetworkScenario:
    """One center cell plus six neighbors at inter-site distance
    sqrt(3) * radius; ues_per_cell UEs uniform in each cell's disc."""
    check_radius(radius_m)
    if ues_per_cell < 0:
        raise ValueError("ues_per_cell must be >= 0")
    rng = rng if rng is not None else np.random.default_rng(0)

    isd = np.sqrt(3.0) * radius_m
    angles = np.deg2rad(np.arange(NUM_CELLS - 1) * 60.0)
    cell_pos = np.vstack([
        np.zeros((1, 2)),
        np.column_stack([isd * np.cos(angles), isd * np.sin(angles)]),
    ])

    positions = []
    for c in range(len(cell_pos)):
        r = radius_m * np.sqrt(rng.random(ues_per_cell))
        theta = 2.0 * np.pi * rng.random(ues_per_cell)
        positions.append(
            cell_pos[c] + np.column_stack([r * np.cos(theta), r * np.sin(theta)])
        )
    ue_pos = np.vstack(positions)

    dist = np.linalg.norm(cell_pos[:, None, :] - ue_pos[None, :, :], axis=2)  # (C, M)
    primary = dist.argmin(axis=0)
    d_primary = dist[primary, np.arange(len(ue_pos))]
    edge = d_primary > edge_threshold * radius_m

    return NetworkScenario(
        _frozen(cell_pos), _frozen(ue_pos), _frozen(primary.astype(int)), _frozen(edge),
        _frozen(dist),
    )


def check_radius(radius_m: float) -> None:
    """Raise ValueError unless radius_m is finite and > 0 and the square of
    the layout's largest cell-to-UE distance is finite, as the distance
    norms of build_hex7 need."""
    if not (math.isfinite(radius_m) and radius_m > 0):
        raise ValueError("radius_m must be finite and > 0")
    # The farthest a UE can be from an eNB: from the far edge of its cell's
    # disc to the eNB across the ring, 2 sqrt(3) radii from its own
    reach = (2.0 * math.sqrt(3.0) + 1.0) * radius_m
    if not math.isfinite(reach * reach):
        raise ValueError(
            f"radius_m {radius_m!r} is too large: the squared cell-to-UE "
            "distances of its layout overflow")


def eligibility(scenario: NetworkScenario, mode: str) -> np.ndarray:
    """(C, M) bool mask for `mode`: own cell, plus every cell for edge
    users under multi-connectivity."""
    mode = mode.lower()
    if mode not in (MC, SC):
        raise ValueError(f"mode must be 'mc' or 'sc', got {mode!r}")
    own = np.arange(scenario.num_cells)[:, None] == scenario.primary_cell[None, :]
    if mode == MC:
        return own | scenario.edge_ue[None, :]
    return own


def _frozen(arr: np.ndarray) -> np.ndarray:
    arr = np.ascontiguousarray(arr)
    arr.setflags(write=False)
    return arr

