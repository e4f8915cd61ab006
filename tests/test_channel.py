"""Link-budget constants, the SNR->rate step table, SNR sampling, and the
per-drop cutoff powers that decide decodability from raw fading draws."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mcmcast.channel import (
    DEFAULT_RATE_TABLE,
    ChannelParams,
    cutoffs,
    fading_block,
    link_budget,
    min_snr_db,
    path_loss,
    snr,
)
from mcmcast.topology import build_hex7
from oracles import connectivity, rate_from_snr, snr_of, snr_subframe

PARAMS = ChannelParams()
SMALL_PRBS = 3  # the PRBs of small_drop's SNR draws


class TestLinkBudget:
    def test_path_loss_at_one_km_is_the_intercept(self):
        assert path_loss(1.0, PARAMS) == 128.1

    def test_path_loss_slope(self):
        assert path_loss(10.0, PARAMS) == pytest.approx(128.1 + 37.6)
        assert path_loss(0.25, PARAMS) == pytest.approx(105.4625, abs=1e-4)

    def test_path_loss_clamps_tiny_distances(self):
        assert path_loss(0.0, PARAMS) == path_loss(PARAMS.min_distance_km, PARAMS)
        # Clamp floor is 10 m: 128.1 + 37.6*log10(0.01).
        assert path_loss(1e-6, PARAMS) == pytest.approx(52.9, abs=1e-6)

    def test_path_loss_vectorized(self):
        out = path_loss(np.array([0.1, 1.0]), PARAMS)
        assert out.shape == (2,)
        assert out[1] == 128.1

    def test_per_prb_power_split(self):
        assert PARAMS.per_prb_tx_dbm == pytest.approx(26.0)

    def test_noise_floor(self):
        # -174 + 10*log10(180e3) + 5
        assert PARAMS.noise_floor_dbm == pytest.approx(-116.447, abs=1e-3)

    def test_snr_at_one_km_without_fading(self):
        assert snr(PARAMS, path_loss(1.0, PARAMS), 0.0) == pytest.approx(14.347, abs=1e-3)

    def test_shadow_lowers_and_fade_raises(self):
        base = snr(PARAMS, path_loss(0.5, PARAMS), 0.0)
        assert snr(PARAMS, path_loss(0.5, PARAMS), shadow_db=3.0) == pytest.approx(base - 3.0)
        # Fading adds 10 * log10 of a unit-mean exponential power draw to the
        # link budget directly: a draw above 1 raises the SNR.
        fading_on, scenario = small_drop(fast_fading=True)
        fading_off, _ = small_drop(fast_fading=False)
        budget = unshadowed(fading_on, scenario)
        still = snr_subframe(fading_off, budget, np.random.default_rng(8), SMALL_PRBS)
        faded = snr_subframe(fading_on, budget, np.random.default_rng(8), SMALL_PRBS)
        power = np.random.default_rng(8).exponential(1.0, size=faded.shape)
        np.testing.assert_allclose(faded, still + 10.0 * np.log10(power), atol=1e-9)

    def test_params_validated(self):
        with pytest.raises(ValueError):
            ChannelParams(shadowing_sigma_db=-1.0)
        with pytest.raises(ValueError):
            ChannelParams(prb_bandwidth_hz=0.0)

    # Each of these used to run: a nan intercept served nobody, an infinite
    # slope everybody, 0 carrier PRBs died in math.log10, a nan sub-frame
    # died in a trace run naming no field, and an infinite one gave every
    # video frame a single sub-frame.
    @pytest.mark.parametrize("field, value", [
        ("pathloss_intercept_db", math.nan),
        ("pathloss_intercept_db", math.inf),
        ("pathloss_slope_db", math.inf),
        ("pathloss_slope_db", math.nan),
        ("shadowing_sigma_db", math.inf),
        ("shadowing_sigma_db", math.nan),
        ("min_distance_km", 0.0),
        ("min_distance_km", -0.01),
        ("min_distance_km", math.inf),
        ("min_distance_km", math.nan),
        ("carrier_prbs", 0),
        ("carrier_prbs", math.inf),
        ("prb_bandwidth_hz", math.inf),
        ("prb_bandwidth_hz", math.nan),
        ("subframe_s", math.nan),
        ("subframe_s", 0.0),
        ("subframe_s", -1e-3),
        ("subframe_s", math.inf),
    ])
    def test_nonsense_link_budget_is_refused_by_name(self, field, value):
        with pytest.raises(ValueError, match=field):
            ChannelParams(**{field: value})


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

    def test_steps_strictly_increase(self):
        # min_snr_db relies on this: the first step whose rate reaches R
        # is then also the lowest threshold that decodes R.
        for (t0, r0), (t1, r1) in zip(DEFAULT_RATE_TABLE, DEFAULT_RATE_TABLE[1:]):
            assert t1 > t0 and r1 > r0

    @given(st.floats(-40.0, 60.0), st.floats(0.0, 10.0))
    @settings(max_examples=80, deadline=None)
    def test_rate_is_monotone_in_snr(self, snr_db, bump):
        assert rate_from_snr(snr_db + bump) >= rate_from_snr(snr_db)


def small_drop(fast_fading=True, radius=500.0, ues=4, seed=0):
    """The channel parameters and the scenario of a small drop."""
    scenario = build_hex7(radius, ues, rng=np.random.default_rng(seed))
    return ChannelParams(fast_fading=fast_fading), scenario


def unshadowed(params, scenario):
    """The (C, M) link budget of the scenario without shadowing."""
    return snr(params, path_loss(scenario.distance_m / 1000.0, params), 0.0)


class TestChannelModel:
    """The channel model of one drop: its link budget, from link_budget,
    and the SNR draws of its sub-frames, from fading_block."""

    def test_shapes(self):
        params, scenario = small_drop()
        rng = np.random.default_rng(1)
        budget = link_budget(params, scenario.distance_m, rng)
        num_users = len(scenario.ue_pos)
        assert budget.shape == (7, num_users)
        snr_db = snr_subframe(params, budget, rng, SMALL_PRBS)
        assert snr_db.shape == (7, SMALL_PRBS, num_users)

    def test_same_seed_same_rates(self):
        params, scenario = small_drop()
        budget = unshadowed(params, scenario)
        a = snr_subframe(params, budget, np.random.default_rng(5), SMALL_PRBS)
        b = snr_subframe(params, budget, np.random.default_rng(5), SMALL_PRBS)
        assert np.array_equal(a, b)

    def test_no_fading_means_prbs_identical(self):
        params, scenario = small_drop(fast_fading=False)
        rng = np.random.default_rng(2)
        snr_db = snr_subframe(params, unshadowed(params, scenario), rng, SMALL_PRBS)
        assert np.allclose(snr_db, snr_db[:, :1, :])

    def test_no_fading_keeps_every_prb(self):
        params, scenario = small_drop(fast_fading=False)
        rng = np.random.default_rng(2)
        budget = unshadowed(params, scenario)
        assert snr_subframe(params, budget, rng, SMALL_PRBS).shape == (7, SMALL_PRBS, 28)
        decodable = snr_subframe(params, budget, rng, SMALL_PRBS) >= min_snr_db(100.0)
        assert decodable.shape == (7, 3, 28)
        cover = decodable & connectivity(scenario, 0.8, 500.0)[1][:, None, :]
        assert cover.shape == (7, 3, 28)

    def test_no_fading_snr_matches_link_budget(self):
        params, scenario = small_drop(fast_fading=False)
        rng = np.random.default_rng(3)
        snr_db = snr_subframe(params, unshadowed(params, scenario), rng, SMALL_PRBS)
        d_km = np.linalg.norm(
            scenario.cell_pos[0] - scenario.ue_pos[0]) / 1000.0
        expected = snr(ChannelParams(fast_fading=False), path_loss(d_km, PARAMS), 0.0)
        assert snr_db[0, 0, 0] == pytest.approx(expected, abs=1e-9)

    def test_link_budget_takes_one_normal_draw_per_link(self):
        # One normal call of (C, M) draws and nothing more, so that what
        # else a drop reads from its generator starts where it did
        _, scenario = small_drop()
        params = ChannelParams(shadowing_sigma_db=6.0)
        rng, twin = np.random.default_rng(13), np.random.default_rng(13)
        budget = link_budget(params, scenario.distance_m, rng)
        shadow = twin.normal(0.0, 6.0, size=(7, len(scenario.ue_pos)))
        pl_db = path_loss(scenario.distance_m / 1000.0, params)
        np.testing.assert_array_equal(budget, snr(params, pl_db, shadow))
        assert rng.bit_generator.state == twin.bit_generator.state
        assert rng.standard_normal() == twin.standard_normal()

    def test_shadowing_sigma(self):
        params, scenario = small_drop()
        rng = np.random.default_rng(4)
        # A link budget is the unshadowed one less the link's shadowing
        base = unshadowed(params, scenario)
        draws = np.concatenate(
            [(base - link_budget(params, scenario.distance_m, rng)).ravel()
             for _ in range(200)])
        assert draws.std() == pytest.approx(10.0, rel=0.05)

    def test_fade_statistics(self):
        # Rayleigh power in dB has mean ~= -2.51 and std ~= 5.57; with
        # shadowing zeroed, per-sub-frame SNR draws at one link expose it.
        fading_on, scenario = small_drop(fast_fading=True)
        fading_off, _ = small_drop(fast_fading=False)
        rng = np.random.default_rng(6)
        budget = unshadowed(fading_on, scenario)
        still = snr_subframe(fading_off, budget, rng, SMALL_PRBS)[0, 0, 0]
        draws = np.array([
            snr_subframe(fading_on, budget, rng, SMALL_PRBS)[0, :, 0]
            for _ in range(10_000)
        ]).ravel()
        assert (draws - still).mean() == pytest.approx(-2.51, abs=0.15)
        assert draws.std() == pytest.approx(5.57, rel=0.05)

    def test_rates_degrade_with_distance(self):
        params, near = small_drop(radius=250.0, seed=9)
        _, far = small_drop(radius=2500.0, seed=9)
        rng_a, rng_b = np.random.default_rng(7), np.random.default_rng(7)
        r_near = rate_from_snr(snr_subframe(
            params, link_budget(params, near.distance_m, rng_a), rng_a, SMALL_PRBS))
        r_far = rate_from_snr(snr_subframe(
            params, link_budget(params, far.distance_m, rng_b), rng_b, SMALL_PRBS))
        assert r_far.mean() < r_near.mean()


THRESHOLDS = [t for t, _ in DEFAULT_RATE_TABLE]
RATES = [r for _, r in DEFAULT_RATE_TABLE]


def _ulp_neighbours(x):
    return [np.nextafter(x, -np.inf), x, np.nextafter(x, np.inf)]


class TestMinSnr:
    """snr >= min_snr_db(R) must decide exactly what
    rate_from_snr(snr) >= R decides, boundaries included."""

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
        decodable = snr_db >= min_snr_db(required)
        assert decodable == (rate_from_snr(snr_db) >= required)

    def test_every_boundary_pair_agrees(self):
        snrs = np.array([s for t in THRESHOLDS for s in _ulp_neighbours(t)]
                        + [-np.inf, -60.0, 60.0])
        rates = rate_from_snr(snrs)
        required = np.array([0.0, RATES[-1] + 1.0] + [
            r for rate in RATES for r in _ulp_neighbours(rate)])
        # One array call gives the same thresholds as the scalar calls.
        thresholds = min_snr_db(required)
        assert thresholds.shape == required.shape
        for req, thr in zip(required, thresholds):
            scalar = min_snr_db(float(req))
            assert scalar == thr
            np.testing.assert_array_equal(snrs >= thr, rates >= req)

    def test_edge_values(self):
        assert min_snr_db(0.0) == -math.inf
        assert min_snr_db(RATES[0]) == THRESHOLDS[0]
        assert min_snr_db(RATES[3] + 0.05) == THRESHOLDS[4]
        assert min_snr_db(RATES[-1] + 0.1) == math.inf


ALL_THRESHOLDS = np.array([-np.inf, *THRESHOLDS, np.inf])


def fig7_drop(**params):
    """A fig7-sized drop, 280 users at 1 km: its channel parameters and
    its link budget under drawn shadowing."""
    rng = np.random.default_rng(11)
    scenario = build_hex7(1000.0, 40, rng=rng)
    params = ChannelParams(**params)
    return params, link_budget(params, scenario.distance_m, rng)


def clamp_drop():
    """Link budgets from 110 to 130 dB above every threshold.  From 120 dB
    above, even the clamped power 1e-12 (-120 dB) meets a threshold; just
    below that, the cutoff lies just above the clamp."""
    budgets = np.linspace(THRESHOLDS[0] + 110.0, THRESHOLDS[-1] + 130.0, 7 * 280)
    return PARAMS, budgets.reshape(7, 280)


DROPS = {
    "fig7": fig7_drop,
    "clamp": clamp_drop,
    "no_fading": lambda: fig7_drop(fast_fading=False),
}


def decided_alike(budget, powers):
    """Assert that powers (B, C, N, M) >= the cutoffs of every threshold
    decide what the SNR in dB of the same powers >= it decides."""
    cuts = cutoffs(budget, ALL_THRESHOLDS)
    assert cuts.shape == (len(ALL_THRESHOLDS), *budget.shape)
    snr_db = snr_of(budget, powers)
    for thr, cut in zip(ALL_THRESHOLDS, cuts):
        np.testing.assert_array_equal(
            powers >= cut[:, None, :], snr_db >= thr, err_msg=f"threshold {thr}")


class TestCutoffs:
    """cutoffs is the closed-form power 10 ** ((threshold - budget) / 10),
    with -inf at or below the clamp and +inf past the largest float64.  It
    decides each power as the SNR in dB (snr_of) does, except within a few
    ulps of the cutoff, where the two roundings may differ."""

    @pytest.mark.parametrize("drop", sorted(DROPS))
    def test_a_million_draws_decide_alike(self, drop):
        params, budget = DROPS[drop]()
        powers = fading_block(params, np.random.default_rng(5), np.empty((52, 7, 10, 280)))
        assert powers.size >= 10**6
        decided_alike(budget, powers)

    @pytest.mark.parametrize("drop", ["fig7", "clamp"])
    def test_cutoffs_are_the_closed_form(self, drop):
        _, budget = DROPS[drop]()
        cuts = cutoffs(budget, ALL_THRESHOLDS)
        want = 10 ** ((ALL_THRESHOLDS[:, None, None] - budget) / 10)
        finite = np.isfinite(cuts)
        np.testing.assert_array_equal(
            cuts[finite].view(np.int64), want[finite].view(np.int64))
        np.testing.assert_array_equal(cuts == -np.inf, want <= 1e-12)
        np.testing.assert_array_equal(cuts == np.inf, want == np.inf)

    def test_ends_take_no_warning(self):
        _, budget = fig7_drop()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            # Budgets about 4000 dB below every threshold overflow the
            # power, and about 4000 dB above it fall below the clamp.
            deep = cutoffs(budget - 4000.0, ALL_THRESHOLDS)
            high = cutoffs(budget + 4000.0, ALL_THRESHOLDS)
        assert (deep[0] == -np.inf).all() and (deep[1:] == np.inf).all()
        assert (high[:-1] == -np.inf).all() and (high[-1] == np.inf).all()

    @pytest.mark.parametrize("drop", ["fig7", "clamp"])
    def test_decided_alike_beyond_32_ulps_of_each_cutoff(self, drop):
        _, budget = DROPS[drop]()
        cuts = cutoffs(budget, ALL_THRESHOLDS)
        steps = np.concatenate([np.arange(33, 97), 2 ** np.arange(7, 41)])
        ulps = np.concatenate([-steps, steps])[:, None, None]
        for thr, cut in zip(ALL_THRESHOLDS, cuts):
            if not np.isfinite(cut).any():
                continue
            bits = np.where(np.isfinite(cut), cut, 1.0).view(np.int64)
            powers = (bits + ulps).view(np.float64)[:, :, None, :]
            snr_db = snr_of(budget, powers)
            np.testing.assert_array_equal(
                powers >= cut[:, None, :], snr_db >= thr, err_msg=f"threshold {thr}")

    def test_special_cutoffs(self):
        _, budget = clamp_drop()
        cuts = cutoffs(budget, ALL_THRESHOLDS)
        assert (cuts[0] == -np.inf).all() and (cuts[-1] == np.inf).all()
        finite = cuts[1:-1]
        # Both regimes of the clamp are present for every threshold.
        assert (finite == -np.inf).any(axis=(1, 2)).all()
        assert ((finite > 1e-12) & (finite < 1e-11)).any(axis=(1, 2)).all()

    def test_no_fading_takes_no_draw(self):
        params, _ = fig7_drop(fast_fading=False)
        rng = np.random.default_rng(3)
        state = rng.bit_generator.state
        assert (fading_block(params, rng, np.empty((2, 7, 10, 280))) == 1.0).all()
        assert rng.bit_generator.state == state
