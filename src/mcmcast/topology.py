"""Seven-cell hexagonal layout, uniform UE drops, and association.

build_hex7 places every UE by one draw from the generator its caller
passes, so a seed fixes the layout, and gives the (C, M) cell-to-UE
distances.  associate gives a drop's association from those alone: a
UE's own cell is its nearest eNB, which alone it hears under single
connectivity; under multi-connectivity a UE farther than edge_m from its
own cell, an "edge" UE, hears every eNB in the system.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = ["NetworkScenario", "NUM_CELLS", "associate", "build_hex7"]

NUM_CELLS = 7  # the hexagonal layout: one center cell and a ring of six


@dataclass(frozen=True)
class NetworkScenario:
    cell_pos: np.ndarray           # (C, 2) meters
    ue_pos: np.ndarray             # (M, 2) meters
    distance_m: np.ndarray         # (C, M) cell-to-UE meters


def build_hex7(radius_m: float, ues_per_cell: int,
               rng: np.random.Generator) -> NetworkScenario:
    """One center cell plus six neighbors at inter-site distance
    sqrt(3) * radius; ues_per_cell UEs uniform in each cell's disc, placed
    by draws from rng."""
    check_radius(radius_m)
    if ues_per_cell < 0:
        raise ValueError("ues_per_cell must be >= 0")

    isd = np.sqrt(3.0) * radius_m
    angles = np.deg2rad(np.arange(NUM_CELLS - 1) * 60.0)
    cell_pos = np.vstack([
        np.zeros((1, 2)),
        np.column_stack([isd * np.cos(angles), isd * np.sin(angles)]),
    ])

    # One draw for the layout: each cell's radii, then its angles, cell by cell
    u = rng.random((len(cell_pos), 2, ues_per_cell))
    r, theta = radius_m * np.sqrt(u[:, 0]), 2.0 * np.pi * u[:, 1]
    offsets = np.stack([r * np.cos(theta), r * np.sin(theta)], axis=-1)  # (C, U, 2)
    ue_pos = (cell_pos[:, None, :] + offsets).reshape(-1, 2)

    dist = np.linalg.norm(cell_pos[:, None, :] - ue_pos[None, :, :], axis=2)  # (C, M)
    return NetworkScenario(*map(_frozen, (cell_pos, ue_pos, dist)))


def associate(distance_m: np.ndarray, edge_m: float) -> tuple[np.ndarray, np.ndarray]:
    """The (C, M) bool masks (own, mc) of a drop's (C, M) cell-to-UE
    distances: own marks each UE's nearest cell, the lower one on a tie,
    and mc adds every cell for each UE farther than edge_m from it."""
    own = np.arange(len(distance_m))[:, None] == distance_m.argmin(axis=0)
    return own, own | (distance_m.min(axis=0) > edge_m)


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


def _frozen(arr: np.ndarray) -> np.ndarray:
    arr = np.ascontiguousarray(arr)
    arr.setflags(write=False)
    return arr

