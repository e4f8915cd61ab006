"""Seven-cell geometry, UE placement statistics, and connectivity modes."""

import numpy as np
import pytest

from mcmcast.topology import build_hex7, eligibility

RADIUS = 400.0


def scenario(ues=20, seed=0, edge_threshold=0.8):
    return build_hex7(RADIUS, ues, edge_threshold,
                      rng=np.random.default_rng(seed))


class TestLayout:
    def test_center_plus_six_ring(self):
        scen = scenario()
        assert scen.num_cells == 7
        assert np.allclose(scen.cell_pos[0], [0.0, 0.0])
        ring = np.linalg.norm(scen.cell_pos[1:], axis=1)
        assert np.allclose(ring, np.sqrt(3.0) * RADIUS)

    def test_neighbors_at_sixty_degree_steps(self):
        scen = scenario()
        angles = np.degrees(np.arctan2(scen.cell_pos[1:, 1],
                                       scen.cell_pos[1:, 0])) % 360
        assert np.allclose(sorted(angles), [0, 60, 120, 180, 240, 300],
                           atol=1e-9)

    def test_ues_inside_their_cell_disc(self):
        scen = scenario(ues=50)
        for c in range(7):
            block = scen.ue_pos[c * 50:(c + 1) * 50]
            dist = np.linalg.norm(block - scen.cell_pos[c], axis=1)
            assert np.all(dist <= RADIUS + 1e-9)

    def test_primary_is_nearest_cell(self):
        scen = scenario(ues=30, seed=3)
        dist = np.linalg.norm(
            scen.cell_pos[:, None, :] - scen.ue_pos[None, :, :], axis=2)
        assert np.array_equal(scen.primary_cell, dist.argmin(axis=0))
        assert np.array_equal(scen.distance_m, dist)  # kept for the channel model

    def test_edge_flag_matches_threshold(self):
        scen = scenario(ues=40, seed=4)
        dist = np.linalg.norm(
            scen.cell_pos[:, None, :] - scen.ue_pos[None, :, :], axis=2)
        d_primary = dist[scen.primary_cell, np.arange(len(scen.ue_pos))]
        assert np.array_equal(scen.edge_ue, d_primary > 0.8 * RADIUS)

    def test_mean_distance_of_uniform_disc(self):
        # E[distance to own eNB] = 2R/3 for a uniform disc drop.
        scen = build_hex7(RADIUS, 3000, 0.8, rng=np.random.default_rng(8))
        own = np.repeat(np.arange(7), 3000)
        d = np.linalg.norm(
            scen.ue_pos - scen.cell_pos[own], axis=1)
        assert d.mean() == pytest.approx(2 * RADIUS / 3, rel=0.02)

    def test_deterministic_given_seed(self):
        a, b = scenario(seed=11), scenario(seed=11)
        assert np.array_equal(a.ue_pos, b.ue_pos)
        assert np.array_equal(eligibility(a, "mc"), eligibility(b, "mc"))

    @pytest.mark.parametrize("radius, ues", [
        (RADIUS, 0), (RADIUS, 1), (250.0, 3), (1000.0, 10), (1000.0, 40), (3e153, 5)])
    def test_one_draw_places_users_as_the_per_cell_loop(self, radius, ues):
        # Each cell draws its radii, then its angles, cell after cell: the
        # same values in the same order as one (C, 2, U) draw, so every
        # position and the generator's next draw are bit-identical
        for seed in range(20):
            got_rng, want_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            scen = build_hex7(radius, ues, 0.8, got_rng)
            want = []
            for center in scen.cell_pos:
                r = radius * np.sqrt(want_rng.random(ues))
                theta = 2.0 * np.pi * want_rng.random(ues)
                want.append(center + np.column_stack([r * np.cos(theta), r * np.sin(theta)]))
            assert np.array_equal(scen.ue_pos, np.vstack(want)), seed
            assert scen.ue_pos.shape == (7 * ues, 2)
            assert got_rng.random() == want_rng.random(), seed

    def test_positions_are_read_only(self):
        scen = scenario()
        with pytest.raises(ValueError):
            scen.ue_pos[0, 0] = 1.0
        with pytest.raises(ValueError):
            scen.distance_m[0, 0] = 1.0

    def test_no_users(self):
        scen = build_hex7(RADIUS, 0, 0.8, np.random.default_rng(0))
        assert scen.ue_pos.shape == (0, 2)
        assert scen.primary_cell.shape == scen.edge_ue.shape == (0,)
        assert scen.distance_m.shape == (7, 0)
        assert eligibility(scen, "mc").shape == (7, 0)

    def test_argument_validation(self):
        with pytest.raises(ValueError):
            build_hex7(0.0, 5, 0.8, np.random.default_rng(0))
        with pytest.raises(ValueError):
            build_hex7(100.0, -1, 0.8, np.random.default_rng(0))
        for radius in (1e154, 1e308):  # the layout's distances overflow
            with pytest.raises(ValueError, match="too large"):
                build_hex7(radius, 5, 0.8, np.random.default_rng(0))

    def test_largest_radius_builds_without_overflow(self):
        # (2 sqrt(3) + 1) * 3e153, the farthest a UE can be from an eNB,
        # still squares to a finite float, so the distances stay finite
        # (the suite turns numpy's overflow warnings into errors)
        scen = build_hex7(3e153, 50, 0.8, rng=np.random.default_rng(1))
        dist = np.linalg.norm(scen.cell_pos[:, None] - scen.ue_pos[None], axis=2)
        assert np.isfinite(dist).all()
        with pytest.raises(ValueError, match="too large"):
            build_hex7(3.01e153, 50, 0.8, rng=np.random.default_rng(1))


class TestConnectivity:
    def test_edge_ues_connect_everywhere_in_mc(self):
        scen = scenario(ues=40, seed=5)
        mask = eligibility(scen, "mc")
        for k in range(len(scen.ue_pos)):
            if scen.edge_ue[k]:
                assert mask[:, k].all()
            else:
                assert np.flatnonzero(mask[:, k]).tolist() == [scen.primary_cell[k]]

    def test_sc_collapses_to_primary(self):
        scen = scenario(ues=40, seed=5)
        mask = eligibility(scen, "sc")
        for k in range(len(scen.ue_pos)):
            assert np.flatnonzero(mask[:, k]).tolist() == [scen.primary_cell[k]]

    def test_unknown_mode_rejected(self):
        # exactly "mc" or "sc": no other value, case or type is read as one
        for mode in ("mesh", None, "MC", ["mc"]):
            with pytest.raises(ValueError, match="mode must be 'mc' or 'sc', got"):
                eligibility(scenario(), mode)

    def test_eligibility_masks_per_mode(self):
        scen = scenario(ues=40, seed=5)
        own = np.arange(7)[:, None] == scen.primary_cell[None, :]
        assert np.array_equal(eligibility(scen, "sc"), own)
        assert np.array_equal(eligibility(scen, "mc"), own | scen.edge_ue)
        assert eligibility(scen, "mc").sum(axis=0).tolist() == [
            7 if edge else 1 for edge in scen.edge_ue]

    def test_zero_threshold_makes_everyone_edge(self):
        scen = scenario(ues=10, seed=7, edge_threshold=0.0)
        assert scen.edge_ue.all()
        assert eligibility(scen, "mc").all()

