"""Link-budget constants, the SNR->rate step table, and SNR sampling."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mcmcast.channel import (
    DEFAULT_RATE_TABLE,
    ChannelModel,
    ChannelParams,
    default_rate_table,
    load_rate_table,
    path_loss,
    rate_from_snr,
    save_rate_table,
    snr,
)
from mcmcast.coverage import CoverageInstance
from mcmcast.topology import build_hex7, eligibility

PARAMS = ChannelParams()


class TestLinkBudget:
    def test_path_loss_at_one_km_is_the_intercept(self):
        assert path_loss(1.0) == 128.1

    def test_path_loss_slope(self):
        assert path_loss(10.0) == pytest.approx(128.1 + 37.6)
        assert path_loss(0.25) == pytest.approx(105.4625, abs=1e-4)

    def test_path_loss_clamps_tiny_distances(self):
        assert path_loss(0.0) == path_loss(PARAMS.min_distance_km)
        # Clamp floor is 10 m: 128.1 + 37.6*log10(0.01).
        assert path_loss(1e-6) == pytest.approx(52.9, abs=1e-6)

    def test_path_loss_vectorized(self):
        out = path_loss(np.array([0.1, 1.0]))
        assert out.shape == (2,)
        assert out[1] == 128.1

    def test_per_prb_power_split(self):
        assert PARAMS.per_prb_tx_dbm == pytest.approx(26.0)

    def test_noise_floor(self):
        # -174 + 10*log10(180e3) + 5
        assert PARAMS.noise_floor_dbm == pytest.approx(-116.447, abs=1e-3)

    def test_snr_at_one_km_without_fading(self):
        assert snr(PARAMS, path_loss(1.0)) == pytest.approx(14.347, abs=1e-3)

    def test_shadow_lowers_and_fade_raises(self):
        base = snr(PARAMS, path_loss(0.5))
        assert snr(PARAMS, path_loss(0.5), shadow_db=3.0) == pytest.approx(base - 3.0)
        # Fading adds 10 * log10 of a unit-mean exponential power draw to the
        # link budget directly: a draw above 1 raises the SNR.
        fading_on, _ = small_model(fast_fading=True)
        fading_off, _ = small_model(fast_fading=False)
        zeros = np.zeros((7, 28))
        still = fading_off.snr_subframe(zeros, np.random.default_rng(8))
        faded = fading_on.snr_subframe(zeros, np.random.default_rng(8))
        power = np.random.default_rng(8).exponential(1.0, size=faded.shape)
        np.testing.assert_allclose(faded, still + 10.0 * np.log10(power), atol=1e-9)

    def test_params_validated(self):
        with pytest.raises(ValueError):
            ChannelParams(shadowing_sigma_db=-1.0)
        with pytest.raises(ValueError):
            ChannelParams(prb_bandwidth_hz=0.0)


class TestRateTable:
    def test_below_first_threshold_is_outage(self):
        assert rate_from_snr(-6.71) == 0.0
        assert rate_from_snr(-50.0) == 0.0

    def test_steps_are_left_inclusive(self):
        assert rate_from_snr(-6.7) == 30.2
        assert rate_from_snr(0.2) == 111.6
        assert rate_from_snr(0.19) == 72.1

    def test_saturates_at_top_step(self):
        assert rate_from_snr(22.7) == 815.2
        assert rate_from_snr(60.0) == 815.2

    def test_vectorized(self):
        out = rate_from_snr(np.array([-10.0, 0.0, 30.0]))
        assert list(out) == [0.0, 72.1, 815.2]

    def test_table_is_its_own_oracle(self):
        # Each rate equals truncated Shannon capacity at its threshold:
        # 0.6 * log2(1 + snr) * 180e3 * 1e-3, rounded to 0.1 bit.
        for thr, rate in DEFAULT_RATE_TABLE:
            expected = round(0.6 * math.log2(1 + 10 ** (thr / 10)) * 180.0, 1)
            assert rate == expected

    def test_regeneration_matches_frozen_table(self):
        assert default_rate_table() == DEFAULT_RATE_TABLE

    def test_regeneration_with_margin_shifts_down(self):
        margin = default_rate_table(margin_db=3.0)
        for (t0, r0), (t1, r1) in zip(margin, DEFAULT_RATE_TABLE):
            assert t0 == t1 and r0 < r1

    @given(st.floats(-40.0, 60.0), st.floats(0.0, 10.0))
    @settings(max_examples=80, deadline=None)
    def test_rate_is_monotone_in_snr(self, snr_db, bump):
        assert rate_from_snr(snr_db + bump) >= rate_from_snr(snr_db)

    def test_file_round_trip(self, tmp_path):
        path = tmp_path / "table.txt"
        save_rate_table(path, DEFAULT_RATE_TABLE)
        assert load_rate_table(path) == DEFAULT_RATE_TABLE

    def test_load_rejects_non_increasing(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("0.0 100\n1.0 90\n")
        with pytest.raises(ValueError):
            load_rate_table(path)

    def test_load_rejects_malformed_rows(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("0.0 100 extra\n")
        with pytest.raises(ValueError):
            load_rate_table(path)


def small_model(fast_fading=True, radius=500.0, ues=4, seed=0):
    scenario = build_hex7(radius, ues, rng=np.random.default_rng(seed))
    params = ChannelParams(fast_fading=fast_fading)
    return ChannelModel(params, scenario, num_prbs=3), scenario


class TestChannelModel:
    def test_shapes(self):
        model, scenario = small_model()
        rng = np.random.default_rng(1)
        shadow = model.draw_shadowing(rng)
        assert shadow.shape == (7, scenario.num_users)
        snr_db = model.snr_subframe(shadow, rng)
        assert snr_db.shape == (7, 3, scenario.num_users)

    def test_same_seed_same_rates(self):
        model, _ = small_model()
        a = model.snr_subframe(np.zeros((7, 28)), np.random.default_rng(5))
        b = model.snr_subframe(np.zeros((7, 28)), np.random.default_rng(5))
        assert np.array_equal(a, b)

    def test_no_fading_means_prbs_identical(self):
        model, _ = small_model(fast_fading=False)
        rng = np.random.default_rng(2)
        snr_db = model.snr_subframe(np.zeros((7, 28)), rng)
        assert np.allclose(snr_db, snr_db[:, :1, :])

    def test_no_fading_keeps_every_prb(self):
        model, scenario = small_model(fast_fading=False)
        rng = np.random.default_rng(2)
        shadow = np.zeros((7, 28))
        assert model.snr_subframe(shadow, rng).shape == (7, 3, 28)
        decodable = model.snr_subframe(shadow, rng) >= model.min_snr_db(100.0)
        assert decodable.shape == (7, 3, 28)
        inst = CoverageInstance(decodable & eligibility(scenario, "mc")[:, None, :])
        assert inst.num_prbs == 3

    def test_no_fading_snr_matches_link_budget(self):
        model, scenario = small_model(fast_fading=False)
        rng = np.random.default_rng(3)
        snr_db = model.snr_subframe(np.zeros((7, 28)), rng)
        d_km = np.linalg.norm(
            scenario.cell_pos[0] - scenario.ue_pos[0]) / 1000.0
        expected = snr(ChannelParams(fast_fading=False), path_loss(d_km))
        assert snr_db[0, 0, 0] == pytest.approx(expected, abs=1e-9)

    def test_shadowing_sigma(self):
        model, _ = small_model()
        rng = np.random.default_rng(4)
        draws = np.concatenate(
            [model.draw_shadowing(rng).ravel() for _ in range(200)])
        assert draws.std() == pytest.approx(10.0, rel=0.05)

    def test_fade_statistics(self):
        # Rayleigh power in dB has mean ~= -2.51 and std ~= 5.57; with
        # shadowing zeroed, per-sub-frame SNR draws at one link expose it.
        fading_on, _ = small_model(fast_fading=True)
        fading_off, _ = small_model(fast_fading=False)
        rng = np.random.default_rng(6)
        zeros = np.zeros((7, 28))
        still = fading_off.snr_subframe(zeros, rng)[0, 0, 0]
        draws = np.array([
            fading_on.snr_subframe(zeros, rng)[0, :, 0]
            for _ in range(10_000)
        ]).ravel()
        assert (draws - still).mean() == pytest.approx(-2.51, abs=0.15)
        assert draws.std() == pytest.approx(5.57, rel=0.05)

    def test_rates_degrade_with_distance(self):
        near, _ = small_model(radius=250.0, seed=9)
        far, _ = small_model(radius=2500.0, seed=9)
        rng_a, rng_b = np.random.default_rng(7), np.random.default_rng(7)
        r_near = rate_from_snr(near.snr_subframe(near.draw_shadowing(rng_a), rng_a))
        r_far = rate_from_snr(far.snr_subframe(far.draw_shadowing(rng_b), rng_b))
        assert r_far.mean() < r_near.mean()

    def test_custom_table_validated(self):
        _, scenario = small_model()
        with pytest.raises(ValueError):
            ChannelModel(ChannelParams(), scenario, num_prbs=2,
                         table=((0.0, 10.0), (1.0, 10.0)))


THRESHOLDS = [t for t, _ in DEFAULT_RATE_TABLE]
RATES = [r for _, r in DEFAULT_RATE_TABLE]


def _ulp_neighbours(x):
    return [np.nextafter(x, -np.inf), x, np.nextafter(x, np.inf)]


class TestMinSnr:
    """snr >= model.min_snr_db(R) must decide exactly what
    rate_from_snr(snr) >= R decides, boundaries included."""

    MODEL, _ = small_model()
    SNRS = st.one_of(
        st.floats(-60.0, 60.0),
        st.sampled_from([s for t in THRESHOLDS for s in _ulp_neighbours(t)]),
    )
    REQUIRED = st.one_of(
        st.just(0.0),
        st.sampled_from([r for rate in RATES for r in _ulp_neighbours(rate)]),
        st.floats(0.0, 1000.0),
        st.floats(RATES[-1], 1e6, exclude_min=True),
    )

    @given(SNRS, REQUIRED)
    @settings(max_examples=400, deadline=None)
    def test_threshold_decides_like_the_rate_table(self, snr_db, required):
        decodable = snr_db >= self.MODEL.min_snr_db(required)
        assert decodable == (rate_from_snr(snr_db, self.MODEL.table) >= required)

    def test_every_boundary_pair_agrees(self):
        snrs = np.array([s for t in THRESHOLDS for s in _ulp_neighbours(t)]
                        + [-np.inf, -60.0, 60.0])
        rates = rate_from_snr(snrs, self.MODEL.table)
        for required in [0.0, RATES[-1] + 1.0] + [
                r for rate in RATES for r in _ulp_neighbours(rate)]:
            np.testing.assert_array_equal(
                snrs >= self.MODEL.min_snr_db(required), rates >= required)

    def test_edge_values(self):
        assert self.MODEL.min_snr_db(0.0) == -math.inf
        assert self.MODEL.min_snr_db(RATES[0]) == THRESHOLDS[0]
        assert self.MODEL.min_snr_db(RATES[3] + 0.05) == THRESHOLDS[4]
        assert self.MODEL.min_snr_db(RATES[-1] + 0.1) == math.inf
