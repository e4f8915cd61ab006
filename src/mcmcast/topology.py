"""Seven-cell hexagonal layout, uniform UE drops, and connectivity.

A UE's primary cell is the nearest eNB.  UEs farther than
edge_threshold * radius from their primary are "edge" UEs; under
multi-connectivity those may receive from every eNB in the system, all
others only from their primary.  Single-connectivity mode collapses
everyone to the primary.  Connectivity is derived from the mode, the
primary cells and the edge flags as a (C, M) eligibility mask.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

__all__ = ["NetworkScenario", "NUM_CELLS", "build_hex7", "connectivity_mode",
           "eligibility", "scenario_to_text", "scenario_from_text"]

MC = "mc"
SC = "sc"

NUM_CELLS = 7  # the hexagonal layout: one center cell and a ring of six


@dataclass(frozen=True)
class NetworkScenario:
    radius_m: float
    edge_threshold: float
    cell_pos: np.ndarray           # (C, 2) meters
    ue_pos: np.ndarray             # (M, 2) meters
    primary_cell: np.ndarray       # (M,) int
    edge_ue: np.ndarray            # (M,) bool
    mode: str = MC

    @property
    def num_cells(self) -> int:
        return len(self.cell_pos)

    @property
    def num_users(self) -> int:
        return len(self.ue_pos)

    @property
    def connectivity(self) -> tuple[frozenset[int], ...]:
        """Per-user frozenset of the cells that may serve it in this mode."""
        mask = eligibility(self, self.mode)
        return tuple(frozenset(np.flatnonzero(cells).tolist()) for cells in mask.T)


def build_hex7(
    radius_m: float,
    ues_per_cell: int,
    edge_threshold: float = 0.8,
    rng: np.random.Generator | None = None,
) -> NetworkScenario:
    """One center cell plus six neighbors at inter-site distance
    sqrt(3) * radius; ues_per_cell UEs uniform in each cell's disc."""
    if radius_m <= 0:
        raise ValueError("radius_m must be > 0")
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
    ue_pos = np.vstack(positions) if positions else np.zeros((0, 2))

    dist = np.linalg.norm(cell_pos[:, None, :] - ue_pos[None, :, :], axis=2)  # (C, M)
    primary = dist.argmin(axis=0) if len(ue_pos) else np.zeros(0, dtype=int)
    d_primary = dist[primary, np.arange(len(ue_pos))] if len(ue_pos) else np.zeros(0)
    edge = d_primary > edge_threshold * radius_m

    return NetworkScenario(
        radius_m=radius_m,
        edge_threshold=edge_threshold,
        cell_pos=_frozen(cell_pos),
        ue_pos=_frozen(ue_pos),
        primary_cell=_frozen(primary.astype(int)),
        edge_ue=_frozen(edge),
        mode=MC,
    )


def connectivity_mode(scenario: NetworkScenario, mode: str) -> NetworkScenario:
    """The same scenario in "mc" or "sc" mode; idempotent either way."""
    return replace(scenario, mode=_checked_mode(mode))


def eligibility(scenario: NetworkScenario, mode: str) -> np.ndarray:
    """(C, M) bool mask for `mode`: own cell, plus every cell for edge
    users under multi-connectivity."""
    own = np.arange(scenario.num_cells)[:, None] == scenario.primary_cell[None, :]
    if _checked_mode(mode) == MC:
        return own | scenario.edge_ue[None, :]
    return own


def _checked_mode(mode: str) -> str:
    mode = mode.lower()
    if mode not in (MC, SC):
        raise ValueError(f"mode must be 'mc' or 'sc', got {mode!r}")
    return mode


def _frozen(arr: np.ndarray) -> np.ndarray:
    arr = np.ascontiguousarray(arr)
    arr.setflags(write=False)
    return arr


def scenario_to_text(scenario: NetworkScenario) -> str:
    """Dump as plain text (positions in meters) for experiment bundles."""
    lines = [
        "# scenario v1",
        f"mode {scenario.mode}",
        f"radius_m {scenario.radius_m!r}",
        f"edge_threshold {scenario.edge_threshold!r}",
    ]
    for c, (x, y) in enumerate(scenario.cell_pos):
        lines.append(f"cell {c} {float(x)!r} {float(y)!r}")
    for k, cells in enumerate(scenario.connectivity):
        x, y = scenario.ue_pos[k]
        conn = " ".join(str(c) for c in sorted(cells))
        lines.append(
            f"ue {k} {float(x)!r} {float(y)!r} {int(scenario.primary_cell[k])} "
            f"{int(scenario.edge_ue[k])} : {conn}"
        )
    return "\n".join(lines) + "\n"


def scenario_from_text(text: str) -> NetworkScenario:
    mode = MC
    radius = edge_threshold = None
    cells: list[tuple[float, float]] = []
    ues: list[tuple[float, float]] = []
    primaries: list[int] = []
    edges: list[bool] = []
    conns: list[frozenset[int]] = []
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        kind, _, rest = line.partition(" ")
        if kind == "mode":
            mode = rest.strip()
        elif kind == "radius_m":
            radius = float(rest)
        elif kind == "edge_threshold":
            edge_threshold = float(rest)
        elif kind == "cell":
            _, x, y = rest.split()
            cells.append((float(x), float(y)))
        elif kind == "ue":
            head, _, conn = rest.partition(":")
            _, x, y, primary, edge = head.split()
            ues.append((float(x), float(y)))
            primaries.append(int(primary))
            edges.append(bool(int(edge)))
            conns.append(frozenset(int(tok) for tok in conn.split()))
        else:
            raise ValueError(f"unknown scenario line {line!r}")
    if radius is None or edge_threshold is None or not cells:
        raise ValueError("scenario text missing radius, edge_threshold, or cells")
    scenario = NetworkScenario(
        radius_m=radius,
        edge_threshold=edge_threshold,
        cell_pos=_frozen(np.array(cells)),
        ue_pos=_frozen(np.array(ues) if ues else np.zeros((0, 2))),
        primary_cell=_frozen(np.array(primaries, dtype=int)),
        edge_ue=_frozen(np.array(edges, dtype=bool)),
        mode=_checked_mode(mode),
    )
    if scenario.connectivity != tuple(conns):
        raise ValueError("scenario text: ue connectivity does not follow from "
                         "its mode, primary cell and edge flag")
    return scenario
