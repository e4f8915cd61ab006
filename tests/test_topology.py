"""Seven-cell geometry, UE placement statistics, and association."""

import itertools

import numpy as np
import pytest

from mcmcast.topology import NUM_CELLS, associate, build_hex7
from oracles import connectivity

RADIUS = 400.0


def scenario(ues=20, seed=0):
    return build_hex7(RADIUS, ues, rng=np.random.default_rng(seed))


class TestLayout:
    def test_center_plus_six_ring(self):
        scen = scenario()
        assert scen.cell_pos.shape == (NUM_CELLS, 2) == (7, 2)
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
        assert np.array_equal(scen.distance_m, dist)  # kept for the channel model
        own, _ = associate(scen.distance_m, 0.8 * RADIUS)
        assert np.array_equal(own, np.arange(7)[:, None] == dist.argmin(axis=0))

    def test_edge_flag_matches_threshold(self):
        scen = scenario(ues=40, seed=4)
        dist = np.linalg.norm(
            scen.cell_pos[:, None, :] - scen.ue_pos[None, :, :], axis=2)
        d_primary = dist[dist.argmin(axis=0), np.arange(len(scen.ue_pos))]
        own, mc = associate(scen.distance_m, 0.8 * RADIUS)
        assert np.array_equal(mc.all(axis=0), d_primary > 0.8 * RADIUS)
        assert np.array_equal(mc[:, d_primary <= 0.8 * RADIUS],
                              own[:, d_primary <= 0.8 * RADIUS])

    def test_mean_distance_of_uniform_disc(self):
        # E[distance to own eNB] = 2R/3 for a uniform disc drop.
        scen = build_hex7(RADIUS, 3000, rng=np.random.default_rng(8))
        own = np.repeat(np.arange(7), 3000)
        d = np.linalg.norm(
            scen.ue_pos - scen.cell_pos[own], axis=1)
        assert d.mean() == pytest.approx(2 * RADIUS / 3, rel=0.02)

    def test_deterministic_given_seed(self):
        a, b = scenario(seed=11), scenario(seed=11)
        assert np.array_equal(a.ue_pos, b.ue_pos)
        assert np.array_equal(a.distance_m, b.distance_m)
        for want, got in zip(associate(a.distance_m, 0.8 * RADIUS),
                             associate(b.distance_m, 0.8 * RADIUS)):
            assert np.array_equal(want, got)

    @pytest.mark.parametrize("radius, ues", [
        (RADIUS, 0), (RADIUS, 1), (250.0, 3), (1000.0, 10), (1000.0, 40), (3e153, 5)])
    def test_one_draw_places_users_as_the_per_cell_loop(self, radius, ues):
        # Each cell draws its radii, then its angles, cell after cell: the
        # same values in the same order as one (C, 2, U) draw, so every
        # position and the generator's next draw are bit-identical
        for seed in range(20):
            got_rng, want_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            scen = build_hex7(radius, ues, got_rng)
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
        scen = build_hex7(RADIUS, 0, np.random.default_rng(0))
        assert scen.ue_pos.shape == (0, 2)
        assert scen.distance_m.shape == (7, 0)

    def test_argument_validation(self):
        with pytest.raises(ValueError):
            build_hex7(0.0, 5, np.random.default_rng(0))
        with pytest.raises(ValueError, match="ues_per_cell must be >= 0"):
            build_hex7(100.0, -1, np.random.default_rng(0))
        for radius in (1e154, 1e308):  # the layout's distances overflow
            with pytest.raises(ValueError, match="too large"):
                build_hex7(radius, 5, np.random.default_rng(0))

    def test_largest_radius_builds_without_overflow(self):
        # (2 sqrt(3) + 1) * 3e153, the farthest a UE can be from an eNB,
        # still squares to a finite float, so the distances stay finite
        # (the suite turns numpy's overflow warnings into errors)
        scen = build_hex7(3e153, 50, rng=np.random.default_rng(1))
        dist = np.linalg.norm(scen.cell_pos[:, None] - scen.ue_pos[None], axis=2)
        assert np.isfinite(dist).all()
        with pytest.raises(ValueError, match="too large"):
            build_hex7(3.01e153, 50, rng=np.random.default_rng(1))


class TestConnectivity:
    def test_edge_ues_connect_everywhere_in_mc(self):
        scen = scenario(ues=40, seed=5)
        own, mc = associate(scen.distance_m, 0.8 * RADIUS)
        primary = scen.distance_m.argmin(axis=0)
        edge = scen.distance_m.min(axis=0) > 0.8 * RADIUS
        assert edge.any() and not edge.all()  # both kinds of user occur
        for k in range(len(scen.ue_pos)):
            if edge[k]:
                assert mc[:, k].all()
            else:
                assert np.flatnonzero(mc[:, k]).tolist() == [primary[k]]

    def test_sc_collapses_to_primary(self):
        scen = scenario(ues=40, seed=5)
        own, _ = associate(scen.distance_m, 0.8 * RADIUS)
        primary = scen.distance_m.argmin(axis=0)
        for k in range(len(scen.ue_pos)):
            assert np.flatnonzero(own[:, k]).tolist() == [primary[k]]

    def test_eligibility_masks_per_mode(self):
        # associate's (own, mc), from the distances alone, are the
        # reference association, rebuilt from the positions
        for seed, edge_threshold in itertools.product(range(5), (0.0, 0.5, 0.8, 1.0)):
            scen = scenario(ues=40, seed=seed)
            got = associate(scen.distance_m, edge_threshold * RADIUS)
            want = connectivity(scen, edge_threshold, RADIUS)
            for got_mask, want_mask in zip(got, want):
                assert got_mask.dtype == bool and got_mask.shape == (7, 280)
                assert np.array_equal(got_mask, want_mask), (seed, edge_threshold)
            own, mc = got
            assert own.sum(axis=0).tolist() == [1] * 280
            assert set(mc.sum(axis=0).tolist()) <= {1, 7}

    def test_zero_threshold_makes_everyone_edge(self):
        scen = scenario(ues=10, seed=7)
        own, mc = associate(scen.distance_m, 0.0)
        assert mc.all()
        assert own.sum() == 70

    def test_hand_built_distances(self):
        # A tie goes to the lower cell; a UE exactly edge_m from its own
        # cell is not an edge UE, one just past it is
        dist = np.full((7, 3), 500.0)
        dist[[4, 2], 0] = 100.0          # tie between cells 2 and 4
        dist[5, 1] = 300.0               # exactly edge_m away
        dist[3, 2] = np.nextafter(300.0, np.inf)
        own, mc = associate(dist, 300.0)
        assert [np.flatnonzero(own[:, k]).tolist() for k in range(3)] == [[2], [5], [3]]
        assert mc.sum(axis=0).tolist() == [1, 1, 7]
        assert np.array_equal(mc[:, :2], own[:, :2])

    def test_no_users_give_empty_masks(self):
        own, mc = associate(scenario(ues=0).distance_m, 0.8 * RADIUS)
        assert own.shape == mc.shape == (7, 0)
        assert own.dtype == mc.dtype == bool
