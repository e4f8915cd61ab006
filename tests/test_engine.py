"""Simulation loop: determinism, metric bookkeeping, policy orderings on
shared draws, the oracle sandwich on small search spaces, and the block
loop against a per-sub-frame reference loop."""

import csv
import dataclasses
import io
import itertools
import math
import os
import re
import sys
import threading
import tracemalloc
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from mcmcast import engine
from mcmcast.channel import ChannelParams, link_budget, min_snr_db, path_loss, snr
from mcmcast.coverage import (
    EXACT_DEFAULT_CAP,
    GREEDY_BOUND,
    STACK_WORDS,
    cga_block,
    dga_block,
    exact_block,
    mbsfn_block,
    num_words,
    pack,
    unpack,
)
from mcmcast.engine import (
    MC,
    SC,
    Metrics,
    SimConfig,
    compare_policies,
    log_to_csv,
    paired_one_sided_pvalue,
    summary_dict,
    summary_to_json,
    sweep,
    sweep_to_csv,
)
from mcmcast.topology import NUM_CELLS, build_hex7
from mcmcast.traffic import (
    parse_trace, schedule_constant, schedule_from_trace, write_synthetic_trace)
from oracles import (
    chosen_by, connectivity, drop_laws, served_set, served_users, snr_subframe)

FAST = SimConfig(horizon=20, num_drops=2, seed=3, ues_per_cell=4,
                 radius_m=600.0, num_prbs=4)
# The SimConfig fields that count something and must be integers
COUNT_FIELDS = ("ues_per_cell", "num_prbs", "horizon", "seed", "num_drops")


@pytest.fixture
def no_drop(monkeypatch):
    """Make any drop, that is any run past its checks, fail the test."""
    def drop(*args, **kwargs):
        raise AssertionError("a drop ran")
    monkeypatch.setattr("mcmcast.engine.build_hex7", drop)


class TestRunBasics:
    def test_zero_required_rate_serves_everyone(self):
        cfg = SimConfig(horizon=1, num_drops=1, seed=1, rate_bits=0.0)
        for policy in ("cga", "dga", "sc", "mbsfn"):
            out = compare_policies(cfg, (policy,))
            m = out.metrics[policy]
            assert m.avg_packets_delivered == 70.0
            assert m.per_ue_service_ratio == 1.0
            assert m.avg_unserved_per_cell == 0.0

    def test_same_seed_means_identical_logs(self):
        a = compare_policies(FAST, ("cga", "sc"))
        b = compare_policies(FAST, ("cga", "sc"))
        for policy in ("cga", "sc"):
            assert np.array_equal(a.metrics[policy].served_counts,
                                  b.metrics[policy].served_counts)
            assert log_to_csv(a, policy) == log_to_csv(b, policy)

    def test_served_counts_bounded_by_population(self):
        out = compare_policies(FAST, ("cga", "dga"))
        for m in out.metrics.values():
            assert m.served_counts.shape == (2, 20)
            assert (m.served_counts >= 0).all()
            assert (m.served_counts <= 28).all()

    @pytest.mark.parametrize("ues, policies", [
        (5, ("cga", "exact")),               # M = 35: one word per row
        (10, ("cga", "dga", "sc", "mbsfn")),  # M = 70: two words per row
    ])
    def test_served_counts_are_int64_popcounts_of_the_masks(self, ues, policies):
        # FAST has 4 PRBs; _popcount gives uint8 counts at one word per row
        cfg = replace(FAST, ues_per_cell=ues, horizon=6, log_served_ids=True)
        out = compare_policies(cfg, policies)
        for p in policies:
            counts = out.metrics[p].served_counts
            assert counts.dtype == np.int64, p
            assert np.array_equal(counts, out.served_masks[p].sum(-1)), p

    def test_identical_policy_twice_gives_identical_metrics(self):
        first = compare_policies(FAST, ("cga",)).metrics["cga"]
        second = compare_policies(FAST, ("cga",)).metrics["cga"]
        assert np.array_equal(first.served_counts, second.served_counts)

    def test_validation_errors(self):
        with pytest.raises(ValueError):
            compare_policies(SimConfig(horizon=0), ("cga",))
        with pytest.raises(ValueError):
            compare_policies(SimConfig(num_drops=0), ("cga",))
        with pytest.raises(ValueError):
            compare_policies(SimConfig(), ("magic",))
        with pytest.raises(ValueError):
            compare_policies(SimConfig(dga_count="sometimes"), ("dga",))
        with pytest.raises(ValueError, match="ues_per_cell must be >= 1"):
            compare_policies(SimConfig(ues_per_cell=0), ("cga",))
        with pytest.raises(ValueError, match="num_prbs must be >= 1"):
            compare_policies(SimConfig(num_prbs=0), ("cga",))
        for cap in (0, -3):
            with pytest.raises(ValueError, match="exact_cap must be >= 1"):
                SimConfig(exact_cap=cap)

    @pytest.mark.parametrize("value", [2.5, "3"])
    @pytest.mark.parametrize("name", COUNT_FIELDS)
    def test_non_integer_count_rejected_before_any_drop(
            self, monkeypatch, name, value):
        # Each of these used to pass validation and fail inside numpy or
        # SeedSequence with an error that named no field.
        def no_drop(*args, **kwargs):
            raise AssertionError("a drop ran")
        monkeypatch.setattr("mcmcast.engine.build_hex7", no_drop)
        with pytest.raises(ValueError, match=f"{name} must be an integer"):
            compare_policies(replace(FAST, **{name: value}), ("cga",))

    def test_numpy_integer_counts_run_like_python_ints(self, tmp_path):
        # summary.json used to fail on the numpy scalars and paths asdict
        # echoed.  Every int, float and bool field of SimConfig and of its
        # ChannelParams, given as a numpy scalar, runs as its Python value,
        # and a trace path as its str.
        trace = write_synthetic_trace(str(tmp_path / "trace.txt"), seed=1)
        base = replace(FAST, trace_path=trace, log_served_ids=True)
        as_numpy = {int: np.int64, float: np.float32, bool: np.bool_}

        def artifacts(config):
            out = compare_policies(config, ("cga", "sc"))
            # The log holds every served count and, here, every served id
            return log_to_csv(out, "cga"), log_to_csv(out, "sc"), summary_to_json(out)

        # (the config that holds the fields, a run config with some changed)
        holders = [
            (base, lambda **kw: replace(base, **kw)),
            (base.channel, lambda **kw: replace(base, channel=replace(base.channel, **kw))),
        ]
        checked = 0
        for instance, make in holders:
            for f in dataclasses.fields(instance):
                value = getattr(instance, f.name)
                if type(value) not in as_numpy:
                    continue
                scalar = as_numpy[type(value)](value)
                assert artifacts(make(**{f.name: scalar})) == artifacts(
                    make(**{f.name: scalar.item()})), f.name
                checked += 1
        assert checked == 12 + 12  # SimConfig's and ChannelParams' fields
        assert artifacts(replace(base, trace_path=Path(trace))) == artifacts(base)

    @pytest.mark.parametrize("name", ["radius_m", "edge_threshold", "rate_bits", "fps"])
    def test_non_number_real_rejected_before_any_drop(self, monkeypatch, name):
        # Each used to fail in math.isfinite with a TypeError naming no field.
        def no_drop(*args, **kwargs):
            raise AssertionError("a drop ran")
        monkeypatch.setattr("mcmcast.engine.build_hex7", no_drop)
        with pytest.raises(ValueError, match=f"{name} must be a real number"):
            compare_policies(replace(FAST, **{name: "3"}), ("cga",))

    def test_unknown_config_policy_refused(self):
        # summary.json writes config.policy even when the run names its own
        # policies, so an unknown one must not get that far.
        # A config refuses it when it is built, as it does any bad field.
        with pytest.raises(ValueError, match="unknown policy 'bogus'"):
            SimConfig(policy="bogus", horizon=3, num_drops=1, ues_per_cell=2)

    def test_trace_path_descriptor_refused_and_left_open(self, tmp_path, no_drop):
        # An int used to be read as a file descriptor, which parse_trace
        # then closed under its owner.
        trace = write_synthetic_trace(str(tmp_path / "trace.txt"), seed=1)
        fd = os.open(trace, os.O_RDONLY)
        try:
            with pytest.raises(ValueError, match="trace_path"):
                compare_policies(replace(FAST, trace_path=fd), ("cga",))
            os.fstat(fd)  # still open
        finally:
            os.close(fd)

    @pytest.mark.parametrize("cls, name", [
        (SimConfig, "burst"), (SimConfig, "log_served_ids"),
        (ChannelParams, "fast_fading"),
    ])
    def test_string_for_a_bool_field_refused_by_name(self, cls, name):
        # Each used to be read by truthiness: "no" switched burst mode on.
        with pytest.raises(ValueError, match=f"{name} must be a boolean"):
            cls(**{name: "no"})

    @pytest.mark.parametrize("cls, name", [
        (SimConfig, "radius_m"), (SimConfig, "edge_threshold"),
        (ChannelParams, "tx_power_dbm"),
    ])
    @pytest.mark.parametrize("value", [10**400, -10**400])
    def test_int_past_the_float_range_refused_by_name(self, cls, name, value):
        # float(value) used to raise a bare OverflowError
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            cls(**{name: value})

    @pytest.mark.parametrize("channel", [None, {}, "default", SimConfig()])
    def test_channel_of_another_type_refused_by_name(self, channel):
        # frame_period(fps, channel.subframe_s) used to raise AttributeError
        with pytest.raises(ValueError, match="channel must be a ChannelParams"):
            SimConfig(channel=channel)

    def test_empty_trace_path_is_a_missing_file(self):
        # "" names a trace, as on the command line, not the constant rate.
        cfg = SimConfig(horizon=3, num_drops=1, ues_per_cell=2, trace_path="")
        with pytest.raises(OSError):
            compare_policies(cfg, ("cga",))

    @pytest.mark.parametrize("policies", [(), ("cga", "cga"), ("cga", "dga", "cga")])
    def test_empty_or_repeated_policies_rejected_before_any_drop(
            self, monkeypatch, policies):
        def no_drop(*args, **kwargs):
            raise AssertionError("a drop ran")
        monkeypatch.setattr("mcmcast.engine.build_hex7", no_drop)
        with pytest.raises(ValueError, match="policy"):
            compare_policies(FAST, policies)

    def test_a_str_of_policies_refused_by_value(self, no_drop):
        # tuple("cga") is ('c', 'g', 'a'), which used to fail as an unknown
        # policy 'c'; a sweep hands its policies to every point's run
        with pytest.raises(ValueError, match="policy names, got 'cga'"):
            compare_policies(FAST, "cga")
        with pytest.raises(ValueError, match="policy names, got 'cga'"):
            sweep(FAST, {"radius": [500.0]}, "cga")

    def test_trace_schedule_drives_the_run(self, tmp_path):
        path = tmp_path / "trace.txt"
        path.write_text("0 I 0.0 100\n")  # 800 bits over 33 sub-frames
        cfg = SimConfig(horizon=5, num_drops=1, seed=2, trace_path=str(path),
                        fps=30.0, radius_m=300.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # 33 sub-frames cover the horizon
            out = compare_policies(cfg, ("cga",))
        assert out.metrics["cga"].served_counts.shape == (1, 5)

    def test_slow_trace_builds_only_the_horizon(self, tmp_path):
        # At 0.03 fps a frame spans 33 333 sub-frames, so the whole schedule
        # of the 300-frame trace is 80 MB of float64; a run keeps only its
        # horizon of them.  The 512 KiB fading buffer is most of what remains.
        trace = write_synthetic_trace(str(tmp_path / "trace.txt"), seed=1)
        cfg = SimConfig(horizon=1000, num_drops=1, seed=2, trace_path=trace,
                        fps=0.03, ues_per_cell=1)
        tracemalloc.start()
        try:
            out = compare_policies(cfg, ("cga",))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert out.metrics["cga"].served_counts.shape == (1, 1000)
        assert peak < 4e6

    def test_short_trace_wraps_with_a_warning(self, tmp_path):
        path = tmp_path / "trace.txt"
        path.write_text("0 I 0.0 100\n1 P 0.0 100\n")  # 66 sub-frames
        cfg = SimConfig(horizon=500, num_drops=1, seed=2, trace_path=str(path),
                        fps=30.0, ues_per_cell=1)
        match = r"\b66 sub-frames.*\b500 sub-frames.*\b8 times"
        with pytest.warns(RuntimeWarning, match=match) as record:
            out = compare_policies(cfg, ("cga",))
        assert out.metrics["cga"].served_counts.shape == (1, 500)
        # The warning points at the line that called compare_policies
        assert [w.filename for w in record] == [__file__]

    def test_wrapped_trace_replays_from_its_start(self, tmp_path):
        # 10 frames at 250 fps are 40 sub-frames of demand, played from
        # their first sub-frame again at sub-frames 40 and 80
        path = fast_trace(tmp_path / "t.txt", [10 + (37 * i) % 90 for i in range(10)])
        cfg = SimConfig(horizon=100, num_drops=1, seed=2, trace_path=path, fps=250.0)
        with pytest.warns(RuntimeWarning, match=r"\b40 sub-frames.*\b3 times"):
            plan = engine._plan(cfg, ("cga",))
        once = min_snr_db(demand(cfg))
        assert len(once) == 40
        np.testing.assert_array_equal(plan.levels[plan.level], np.tile(once, 3)[:100])


class TestMetrics:
    def test_aggregates_follow_definitions(self):
        counts = np.array([[10, 20], [30, 40]])
        m = Metrics(policy="cga", served_counts=counts, num_users=70)
        assert m.avg_packets_delivered == 25.0
        assert m.per_ue_service_ratio == 25.0 / 70
        assert m.avg_unserved_per_cell == (70 - 25.0) / 7
        assert list(m.drop_means) == [15.0, 35.0]

    def test_ci_zero_for_single_drop(self):
        m = Metrics(policy="cga", served_counts=np.array([[1, 2, 3]]), num_users=70)
        assert m.ci95_halfwidth == 0.0

    def test_recomputable_from_raw_log(self):
        # The raw log's served_count column holds every (drop, sub-frame,
        # policy) count, so every aggregate can be recomputed from it.
        out = compare_policies(FAST, ("cga", "mbsfn"))
        rows = [row for p in ("cga", "mbsfn")
                for row in csv.DictReader(io.StringIO(log_to_csv(out, p)))]
        assert len(rows) == FAST.num_drops * FAST.horizon * 2
        for policy, m in out.metrics.items():
            back = np.full_like(m.served_counts, -1)
            for row in rows:
                if row["policy"] == policy:
                    back[int(row["drop"]), int(row["t"])] = int(row["served_count"])
            assert np.array_equal(back, m.served_counts), policy

    def test_log_contains_served_ids_when_asked(self):
        cfg = SimConfig(horizon=2, num_drops=1, seed=4, ues_per_cell=2,
                        log_served_ids=True, rate_bits=0.0)
        out = compare_policies(cfg, ("cga",))
        first_row = log_to_csv(out, "cga").splitlines()[1]
        assert first_row.split(",")[4] == ";".join(str(k) for k in range(14))

    @pytest.mark.parametrize("served_ids", [False, True])
    def test_log_is_the_csv_writer_rendering(self, served_ids):
        # Two drops, each policy of a two-policy run, with and without
        # served masks: the same bytes csv.writer writes
        out = compare_policies(replace(FAST, log_served_ids=served_ids), ("cga", "sc"))
        assert set(out.served_masks) == ({"cga", "sc"} if served_ids else set())
        for p in ("cga", "sc"):
            buf = io.StringIO()
            writer = csv.writer(buf, lineterminator="\n")
            writer.writerow(("drop", "t", "policy", "served_count", "served_ids"))
            mask = out.served_masks.get(p)
            for d in range(FAST.num_drops):
                for t in range(FAST.horizon):
                    ids = [] if mask is None else np.flatnonzero(mask[d, t])
                    writer.writerow((d, t, p, out.metrics[p].served_counts[d, t],
                                     ";".join(map(str, ids))))
            assert log_to_csv(out, p) == buf.getvalue(), p

    @pytest.mark.parametrize("axis, values", [
        ("users_per_cell", [2, 4]), ("radius", [500.0, 800.0])])
    def test_sweep_is_the_csv_writer_rendering(self, axis, values):
        # Values in the sweep's order, policies sorted, every aggregate to
        # 6 decimals: the same bytes csv.writer writes
        table = sweep(FAST, {axis: values}, policies=("sc", "cga"))[axis]
        aggregates = ("avg_packets_delivered", "per_ue_service_ratio",
                      "avg_unserved_per_cell", "ci95_halfwidth")
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow((axis, "policy", *aggregates))
        for value, out in table:
            for p in ("cga", "sc"):
                m = out.metrics[p]
                writer.writerow((f"{value:.6f}", p,
                                 *(f"{getattr(m, name):.6f}" for name in aggregates)))
        assert sweep_to_csv(axis, table) == buf.getvalue()


class TestPolicyOrderings:
    def test_exact_sandwich_per_subframe(self):
        # Small PRB count keeps the exhaustive solve tractable: 2^7 = 128.
        cfg = SimConfig(horizon=15, num_drops=2, seed=6, ues_per_cell=3,
                        num_prbs=2, radius_m=900.0)
        out = compare_policies(cfg, ("cga", "mbsfn", "exact"))
        cga = out.metrics["cga"].served_counts
        mbsfn = out.metrics["mbsfn"].served_counts
        exact = out.metrics["exact"].served_counts
        assert (cga <= exact).all()
        assert (mbsfn <= exact).all()
        assert (cga >= np.ceil(GREEDY_BOUND * exact) - 1e-9).all()

    def test_forcing_sc_choices_onto_mc_only_adds_users(self):
        # Evaluate the SC allocation against the MC instance built from the
        # very same draws: extra connectivity can only widen the served set.
        rng = np.random.default_rng(12)
        scen = build_hex7(900.0, 4, rng=rng)
        params = ChannelParams()
        budget = link_budget(params, scen.distance_m, rng)
        sc_mask, mc_mask = (m[:, None, :] for m in connectivity(scen, 0.8, 900.0))
        for _ in range(25):
            decodable = snr_subframe(params, budget, rng, 4) >= min_snr_db(400.0)
            mc, sc = decodable & mc_mask, decodable & sc_mask
            sc_chosen = chosen_by(dga_block, sc)
            assert served_set(sc, sc_chosen) <= served_set(mc, sc_chosen)

    def test_dga_on_own_cells_picks_what_sc_picks(self):
        # The MC instance cut to each user's own cell is the SC instance,
        # element by element, since SC eligibility is MC eligibility cut to
        # the primary cell.  So DGA scoring only own-cell users on MC (what
        # dga_count "primary" means) picks the PRBs it picks on SC and, with
        # the extra connectivity, serves a superset.  At edge_threshold 0
        # every user is an edge user, connected to every cell under MC.
        rng = np.random.default_rng(12)
        for radius, edge_threshold in itertools.product((250.0, 900.0, 2000.0),
                                                        (0.0, 0.8)):
            scen = build_hex7(radius, 4, rng=rng)
            own, mc_mask = (m[:, None, :]
                            for m in connectivity(scen, edge_threshold, radius))
            assert mc_mask.all() == (edge_threshold == 0.0)
            params = ChannelParams()
            budget = link_budget(params, scen.distance_m, rng)
            for _ in range(25):
                decodable = snr_subframe(params, budget, rng, 4) >= min_snr_db(400.0)
                mc, sc = decodable & mc_mask, decodable & own
                assert np.array_equal(mc & own, sc)
                mc_chosen = chosen_by(dga_block, mc & own)
                sc_chosen = chosen_by(dga_block, sc)
                assert mc_chosen == sc_chosen
                assert served_set(sc, sc_chosen) <= served_set(mc, mc_chosen)

    def test_the_configs_exact_cap_reaches_the_kernel(self):
        # 11^7 allocations are more than the default cap allows, so the run
        # completes only when exact_block is given config.exact_cap.
        cfg = SimConfig(num_prbs=11, ues_per_cell=1, horizon=1, num_drops=1,
                        exact_cap=11**7)
        assert 11**7 > EXACT_DEFAULT_CAP
        out = compare_policies(cfg, ("exact",))
        assert out.metrics["exact"].served_counts.shape == (1, 1)

    def test_cga_beats_dga_on_shared_draws(self):
        cfg = SimConfig(horizon=150, num_drops=3, seed=11, radius_m=750.0)
        out = compare_policies(cfg, ("cga", "dga"))
        assert (out.metrics["cga"].avg_packets_delivered
                > out.metrics["dga"].avg_packets_delivered)
        assert paired_one_sided_pvalue(
            out.metrics["cga"], out.metrics["dga"]) < 0.05

    def test_equal_metrics_give_pvalue_one(self):
        out = compare_policies(FAST, ("cga",))
        assert paired_one_sided_pvalue(
            out.metrics["cga"], out.metrics["cga"]) == 1.0


class TestSweep:
    def test_single_value_matches_plain_run(self):
        table = sweep(FAST, {"radius": [600.0]}, policies=("cga",))["radius"]
        assert len(table) == 1
        value, out = table[0]
        assert value == 600.0
        direct = compare_policies(FAST, ("cga",))
        assert np.array_equal(
            out.metrics["cga"].served_counts,
            direct.metrics["cga"].served_counts)

    def test_axis_values_applied(self):
        table = sweep(FAST, {"users_per_cell": [2, 5]},
                      policies=("cga",))["users_per_cell"]
        assert table[0][1].metrics["cga"].num_users == 14
        assert table[1][1].metrics["cga"].num_users == 35

    def test_validation(self):
        with pytest.raises(ValueError):
            sweep(FAST, {"prbs": [1, 2]}, ("cga",))
        with pytest.raises(ValueError):
            sweep(FAST, {"radius": []}, ("cga",))
        with pytest.raises(ValueError):
            sweep(FAST, {"radius": [300.0]}, ())
        # int(2.5) would run 2 UEs per cell under a 2.5 in the sweep CSV
        with pytest.raises(ValueError, match="users_per_cell value 2.5"):
            sweep(FAST, {"users_per_cell": [2.5]}, ("cga",))

    def test_every_value_checked_before_any_point_runs(self, no_drop):
        # A NaN radius used to pass the type check, so the 500 m point ran
        # before its own run refused it.
        with pytest.raises(ValueError, match="users_per_cell value 2.5"):
            sweep(FAST, {"users_per_cell": [2, 2.5]}, ("cga",))
        with pytest.raises(ValueError, match="radius value nan: radius_m must be finite"):
            sweep(FAST, {"radius": [500.0, math.nan]}, ("cga",))

    def test_tuple_and_array_values_run_as_the_list(self):
        # An array's truth value is ambiguous, so an empty sweep is found
        # by its length
        want = sweep_to_csv(
            "radius", sweep(FAST, {"radius": [500.0, 600.0]}, ("cga",))["radius"])
        for values in ((500.0, 600.0), np.linspace(500.0, 600.0, 2)):
            got = sweep_to_csv("radius", sweep(FAST, {"radius": values}, ("cga",))["radius"])
            assert got == want, values
        with pytest.raises(ValueError, match="at least one value"):
            sweep(FAST, {"radius": np.array([])}, ("cga",))

    def test_a_point_two_axes_share_runs_once(self, monkeypatch):
        # FAST's own (4 UEs, 600 m) lies on both axes, and twice on the
        # radius axis: three distinct points, three runs, and the shared
        # point is one RunOutput in every row it fills
        calls = []
        run = engine.compare_policies
        monkeypatch.setattr(engine, "compare_policies", lambda config, policies: (
            calls.append(config) or run(config, policies)))
        tables = sweep(FAST, {"users_per_cell": [2, FAST.ues_per_cell],
                              "radius": [FAST.radius_m, 800.0, FAST.radius_m]}, ("cga",))
        assert len(calls) == len(set(calls)) == 3
        shared = tables["users_per_cell"][1][1]
        assert shared is tables["radius"][0][1] is tables["radius"][2][1]
        assert [value for value, _ in tables["radius"]] == [600.0, 800.0, 600.0]
        assert shared.config == FAST

    @pytest.mark.parametrize("values", [500.0, 7, "500", None, {500.0}, np.float64(500.0)])
    def test_values_that_are_no_sequence_refused_by_axis(self, values, no_drop):
        # A number used to raise a bare TypeError from len(), and a str
        # would run one point per character
        with pytest.raises(ValueError, match=f"radius values must be a sequence of "
                                             f"numbers, got {re.escape(repr(values))}"):
            sweep(FAST, {"users_per_cell": [2], "radius": values}, ("cga",))

    def test_every_axis_checked_before_any_point_runs(self, no_drop):
        with pytest.raises(ValueError, match="radius value nan"):
            sweep(FAST, {"users_per_cell": [2, 3], "radius": [math.nan]}, ("cga",))
        with pytest.raises(ValueError, match="unknown sweep axis 'prbs'"):
            sweep(FAST, {"radius": [500.0], "prbs": [1]}, ("cga",))

    def test_csv_shape(self):
        table = sweep(FAST, {"radius": [500.0, 800.0]}, policies=("cga", "sc"))["radius"]
        text = sweep_to_csv("radius", table)
        lines = text.strip().splitlines()
        assert lines[0].startswith("radius,policy,avg_packets_delivered")
        assert len(lines) == 1 + 2 * 2


class TestSummary:
    def test_summary_includes_pairwise_tests(self):
        out = compare_policies(FAST, ("cga", "sc"))
        summary = summary_dict(out)
        assert summary["config"]["seed"] == 3
        assert set(summary["metrics"]) == {"cga", "sc"}
        assert "cga_gt_sc" in summary["paired_pvalues"]

    def test_one_paired_cell_gives_no_pvalue(self):
        cfg = replace(FAST, horizon=1, num_drops=1)
        out = compare_policies(cfg, ("cga", "sc"))
        assert paired_one_sided_pvalue(
            out.metrics["cga"], out.metrics["sc"]) is None
        assert summary_dict(out)["paired_pvalues"] == {"cga_gt_sc": None}
        assert '"cga_gt_sc": null' in summary_to_json(out)

    def test_constant_difference_is_decided_without_a_warning(self):
        # No spread in the differences: t is infinite and the p-value 0 for
        # the policy ahead, 1 for the one behind.  Warnings fail tier-1.
        ahead = Metrics("a", np.full((2, 5), 9), 70)
        behind = Metrics("b", np.full((2, 5), 4), 70)
        assert paired_one_sided_pvalue(ahead, behind) == 0.0
        assert paired_one_sided_pvalue(behind, ahead) == 1.0

    def test_large_counts_one_apart_are_not_equal(self):
        # np.allclose's relative tolerance would call these equal (p = 1
        # both ways); the counts are integers, so only equal is equal.
        ahead = Metrics("a", np.array([[100001, 100002, 100001]]), 10**6)
        behind = Metrics("b", np.array([[100000, 100001, 100000]]), 10**6)
        assert paired_one_sided_pvalue(ahead, behind) == 0.0
        assert paired_one_sided_pvalue(behind, ahead) == 1.0

    def test_json_is_deterministic(self):
        a = summary_to_json(compare_policies(FAST, ("cga", "sc")))
        b = summary_to_json(compare_policies(FAST, ("cga", "sc")))
        assert a == b


# t from ±1e-6 to ±60, evenly and geometrically spaced
T_GRID = np.concatenate([np.linspace(-60, 60, 241), np.geomspace(1e-6, 60, 61)])
T_GRID = np.concatenate([T_GRID, -T_GRID])
T_GRID = T_GRID[np.abs(T_GRID) >= 1e-6]


class TestStudentT:
    """engine's in-package Student-t tail and quantile against scipy, and
    against closed forms with no scipy involved."""

    # Past 10^6 as well, where one lgamma difference or a fraction fed x
    # near 1 is off by more than 1e-12.  df = 1 is left to the closed form:
    # stdtr(1, ·) itself is off by 1.4e-11 at t = 1e-6.
    @pytest.mark.parametrize("df", [2, 3, 4.5, 7, 10, 39, 40, 41, 100, 1000,
                                    10**4, 10**5, 10**6, 10**7, 10**9])
    def test_tail_matches_scipy_stdtr(self, df):
        from scipy.special import stdtr
        got = np.array([engine._t_tail(df, float(t)) for t in T_GRID])
        np.testing.assert_allclose(got, stdtr(df, -T_GRID), rtol=0, atol=1e-12)

    def test_quantile_matches_scipy_stdtrit(self):
        from scipy.special import stdtrit
        dfs = np.unique(np.concatenate(
            [np.arange(1, 101), np.geomspace(100, 10**4, 50).round()]))
        got = np.array([engine._t975(df) for df in dfs])
        np.testing.assert_allclose(got, stdtrit(dfs, 0.975), rtol=1e-12, atol=0)

    def test_tail_closed_forms(self):
        # P(T >= t) at df = 1 (Cauchy) and df = 2, below 1e-6 as well
        ts = np.concatenate([T_GRID, [1e-9, -1e-9, 1e-100, -1e-100]])
        for df, tail in ((1, 0.5 - np.arctan(ts) / np.pi),
                         (2, 0.5 - ts / (2 * np.sqrt(2 + ts * ts)))):
            got = np.array([engine._t_tail(df, float(t)) for t in ts])
            np.testing.assert_allclose(got, tail, rtol=0, atol=1e-15)

    def test_quantile_closed_forms(self):
        assert engine._t975(1) == pytest.approx(math.tan(0.475 * math.pi), rel=1e-14)
        # 0.975 = ½ + t / (2 √(2 + t²)) at df = 2
        assert engine._t975(2) == pytest.approx(math.sqrt(1.805 / 0.0975), rel=1e-14)

    @pytest.mark.parametrize("df", [1, 2, 40, 10**6])
    def test_tail_ends(self, df):
        assert engine._t_tail(df, 0.0) == engine._t_tail(df, -0.0) == 0.5
        assert engine._t_tail(df, math.inf) == 0.0
        assert engine._t_tail(df, -math.inf) == 1.0
        # t*t/df underflows to 0 (warnings fail tier-1), or t*t overflows
        for tiny in (1e-170, 5e-324):
            assert engine._t_tail(df, tiny) == engine._t_tail(df, -tiny) == 0.5
        assert engine._t_tail(df, 1e160) == 0.0
        assert engine._t_tail(df, -1e160) == 1.0

    def test_summary_statistics_match_scipy_stats(self):
        from scipy import stats
        cfg = replace(FAST, radius_m=800.0, num_drops=3)
        out = compare_policies(cfg, ("cga", "mbsfn"))
        cga, mbsfn = out.metrics["cga"], out.metrics["mbsfn"]
        expected = stats.ttest_rel(cga.served_counts.ravel(),
                                   mbsfn.served_counts.ravel(),
                                   alternative="greater").pvalue
        assert 0 < expected < 1
        assert paired_one_sided_pvalue(cga, mbsfn) == pytest.approx(
            expected, rel=0, abs=1e-12)
        sem = stats.sem(cga.drop_means)
        assert sem > 0
        assert cga.ci95_halfwidth == pytest.approx(
            stats.t.ppf(0.975, 2) * sem, rel=1e-12)


def demand(config):
    """(T,) bits each sub-frame of the horizon demands, or each sub-frame
    of a trace shorter than the horizon, from the traffic module alone."""
    subframe_s = config.channel.subframe_s
    if config.trace_path is None:
        return schedule_constant(config.rate_bits, config.horizon, subframe_s)
    return schedule_from_trace(parse_trace(config.trace_path), config.fps,
                               subframe_s, config.burst, length=config.horizon)


def reference_run(config, policies):
    """The engine's run one sub-frame at a time: one SNR draw, then each
    policy's kernel on a one-instance boolean stack of its connectivity
    mode, packed on its own.  Returns policy -> ((D, T) served counts,
    (D, T, M) served masks), and mode -> its (D, T, C, N, M) instances."""
    threshold = min_snr_db(np.resize(demand(config), config.horizon))
    shape = (config.num_drops, config.horizon, NUM_CELLS * config.ues_per_cell)
    masks = {p: np.zeros(shape, dtype=bool) for p in policies}
    instances = {
        m: np.zeros((*shape[:2], NUM_CELLS, config.num_prbs, shape[2]), dtype=bool)
        for m in (MC, SC)
    }
    seeds = np.random.SeedSequence(config.seed).spawn(config.num_drops)
    for d, seed in enumerate(seeds):
        rng = np.random.default_rng(seed)
        scen = build_hex7(config.radius_m, config.ues_per_cell, rng)
        budget = link_budget(config.channel, scen.distance_m, rng)
        own, mc_mask = (m[:, None, :] for m in connectivity(
            scen, config.edge_threshold, config.radius_m))
        for t in range(config.horizon):
            snr_db = snr_subframe(config.channel, budget, rng, config.num_prbs)
            decodable = snr_db >= threshold[t]
            mc = (decodable & mc_mask)[None]
            sc = (decodable & own)[None]
            instances[MC][d, t], instances[SC][d, t] = mc[0], sc[0]
            # dga_count "primary": each cell scores only its own users
            dga = mc & own if config.dga_count == "primary" else mc
            runs = {  # policy -> (kernel, stack it picks on, extra arguments)
                "cga": (cga_block, mc, ()),
                "dga": (dga_block, dga, ()),
                "sc": (dga_block, sc, ()),
                "mbsfn": (mbsfn_block, mc, ()),
                "exact": (exact_block, mc, (config.exact_cap,)),
            }
            for policy in policies:
                kernel, stack, args = runs[policy]
                credited = sc if policy == "sc" else mc
                masks[policy][d, t] = served_users(
                    credited, kernel(pack(stack), *args))[0]
    return {p: (m.sum(axis=-1), m) for p, m in masks.items()}, instances


def block_sizes(config):
    """Sub-frames per fading block and per kernel block of every worker of
    the engine for this config, before the horizon cuts them: a whole
    fading-power budget, capped at a kernel block, and a whole packed stack
    of STACK_WORDS words, whatever the workers."""
    pairs = NUM_CELLS * config.num_prbs
    users = NUM_CELLS * config.ues_per_cell
    kernel = STACK_WORDS // (pairs * num_words(users))
    return min(kernel, engine._BLOCK_WORDS // (pairs * users)), kernel


def use_workers(monkeypatch, workers):
    """Make compare_policies see `workers` usable CPUs and allow it that
    many workers."""
    monkeypatch.setattr(engine, "_cpus", lambda: workers)
    monkeypatch.setattr(engine, "_MAX_WORKERS", workers)


def counting_starts(monkeypatch):
    """Record every thread that is started; returns the list."""
    start_thread = threading.Thread.start
    started = []

    def start(thread):
        started.append(thread)
        start_thread(thread)

    monkeypatch.setattr(threading.Thread, "start", start)
    return started


FOUR = ("cga", "dga", "sc", "mbsfn")

# The SimConfig fields each benchmark workload sets
BENCHMARK_SHAPES = {
    "fig4_m70_cli": dict(ues_per_cell=10, horizon=1000, num_drops=1),
    "fig7_m280_trace": dict(ues_per_cell=40, horizon=100, num_drops=2),
    "exact_n4": dict(ues_per_cell=5, horizon=100, num_drops=1, num_prbs=4),
}


def fast_trace(path, sizes=None):
    """A trace whose demand steps every 4 sub-frames (250 fps), by default
    between rates inside the table, so thresholds change within every
    block.  sizes gives the frame sizes in bytes instead."""
    if sizes is None:
        sizes = [10 + (37 * i) % 90 for i in range(300)]  # 80..792 bits a frame
    lines = [f"{i} P {i / 250:.4f} {size}" for i, size in enumerate(sizes)]
    path.write_text("\n".join(lines) + "\n")
    return str(path)


# Empty frames (no demand: threshold -inf) and 500-byte frames (1000 bits a
# sub-frame, above the table's top rate: threshold +inf) among ordinary ones
SPECIAL_SIZES = [(0, 10, 500, 40, 99)[i % 5] for i in range(300)]


class TestBlockLoop:
    """The block loop against the per-sub-frame reference, on one worker
    and on two (one drop each), at horizons on both sides of one and two
    fading-block boundaries of each worker's whole fading budget and of
    one and two kernel-block boundaries of its whole stack.  The
    reference is causal, so one reference run at the longest horizon
    holds every shorter one as its prefix."""

    CASES = {
        "all_policies": (dict(num_prbs=2), (*FOUR, "exact")),
        "four_policies": (dict(), FOUR),
        "dga_primary": (dict(dga_count="primary"), FOUR),
        "no_fading": (dict(channel=ChannelParams(fast_fading=False)), FOUR),
        "trace": (dict(fps=250.0), FOUR),
        # At 500 fps a frame spans two sub-frames, so the first fading
        # block, 6 sub-frames at 20 UEs per cell, holds three frames
        "special_levels": (dict(fps=500.0), FOUR),
        # The settings no other case moves off their defaults: the
        # constant rate, the edge threshold, and burst delivery, each frame
        # in the first sub-frame of its period and nothing in the rest
        "rate": (dict(rate_bits=150.0), FOUR),
        "edge": (dict(edge_threshold=0.5), FOUR),
        "burst": (dict(fps=250.0, burst=True), FOUR),
        # SC alone: its stack is still MC's, drawn on MC's eligibility,
        # ANDed with the own-cell words, on a trace whose thresholds end
        # fading blocks
        "sc_only": (dict(fps=250.0), ("sc",)),
    }
    TRACES = {"trace": None, "special_levels": SPECIAL_SIZES, "sc_only": None,
              "burst": None}
    WORKERS = (1, 2)

    # 10 and 20 UEs per cell: two and three words per row, several fading
    # blocks per kernel block.  1 UE per cell: one word per row, and the
    # fading block still shorter than the kernel block.
    @pytest.mark.parametrize("ues", [1, 10, 20])
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_matches_the_per_subframe_loop(self, case, ues, tmp_path, monkeypatch):
        overrides, policies = self.CASES[case]
        config = SimConfig(ues_per_cell=ues, radius_m=900.0, num_drops=2,
                           seed=7, log_served_ids=True, **overrides)
        if case in self.TRACES:
            path = fast_trace(tmp_path / "t.txt", self.TRACES[case])
            config = replace(config, trace_path=path)
        block, kernel = block_sizes(config)
        assert 2 <= block < kernel
        if case in self.TRACES:
            levels = min_snr_db(demand(config)[:2 * block])
            assert len(set(levels[:block])) > 1
        if case == "special_levels":  # within the first fading block of each drop
            assert {-np.inf, np.inf} < set(levels[:block])
        horizons = sorted({1, block - 1, block, block + 1, 2 * block + 1,
                           kernel - 1, kernel, kernel + 1, 2 * kernel + 1})
        longest = replace(config, horizon=horizons[-1])
        want, instances = reference_run(longest, policies)
        users = NUM_CELLS * ues
        for workers in self.WORKERS:
            use_workers(monkeypatch, workers)
            for horizon in horizons:
                out = compare_policies(replace(config, horizon=horizon), policies)
                for policy in policies:
                    counts, masks = want[policy]
                    got = out.metrics[policy].served_counts
                    assert np.array_equal(got, counts[:, :horizon]), (
                        workers, horizon, policy)
                    assert np.array_equal(out.served_masks[policy], masks[:, :horizon]), (
                        workers, horizon, policy)

            # Without served masks, the path the CLI and the benchmark take
            off = compare_policies(replace(longest, log_served_ids=False), policies)
            assert off.served_masks == {}
            for policy in policies:
                assert np.array_equal(off.metrics[policy].served_counts,
                                      want[policy][0][:, :longest.horizon]), (workers, policy)

            # The simulation loop alone: each worker's MC stacks, unpacked,
            # are the reference's MC instances, and ANDed with the own-cell
            # words its SC instances, whatever the run's policies, so a fault
            # in the draw, compare or pack step fails here even where every
            # kernel's pick would hide it.  Each worker's blocks are all kept
            # before any is compared: a stack is the caller's to keep
            plan = engine._plan(longest, policies)
            assert plan.workers == workers
            width = num_words(users)
            for w in range(workers):
                drops = range(w, longest.num_drops, workers)
                blocks = list(engine._blocks(longest, plan, drops))
                tiles = []
                for d, t0, t1, mc, own in blocks:
                    tiles.append((d, t0, t1))
                    assert mc.shape == (t1 - t0, NUM_CELLS, longest.num_prbs, width)
                    assert own.shape == (1, NUM_CELLS, longest.num_prbs, width)
                    assert own.flags.c_contiguous
                    for mode, words in ((MC, mc), (SC, mc & own)):
                        assert np.array_equal(unpack(words, users),
                                              instances[mode][d, t0:t1]), (workers, mode)
                assert tiles == [(d, t0, min(t0 + kernel, longest.horizon))
                                 for d in drops
                                 for t0 in range(0, longest.horizon, kernel)]

    @pytest.mark.parametrize("trace", [False, True])
    def test_one_draw_per_fading_block_of_one_threshold(self, trace, tmp_path, monkeypatch):
        # Each drop's draws are the pieces of [0, T) cut at kernel-block
        # boundaries and threshold changes, each cut again into fading
        # blocks of B sub-frames from its start: ceil(K / B) draws per
        # kernel block of K sub-frames at a constant rate
        config = SimConfig(ues_per_cell=10, radius_m=900.0, num_drops=2, seed=7)
        if trace:
            config = replace(config, fps=250.0,
                             trace_path=fast_trace(tmp_path / "t.txt"))
        block, kernel = block_sizes(config)
        config = replace(config, horizon=2 * kernel + block + 3)
        horizon = config.horizon
        threshold = min_snr_db(np.resize(demand(config), horizon))
        changes = (np.flatnonzero(threshold[1:] != threshold[:-1]) + 1).tolist()
        assert bool(changes) == trace
        sizes = []
        draw = engine.fading_block

        def counting(params, rng, out):
            sizes.append(len(out))
            return draw(params, rng, out)

        monkeypatch.setattr(engine, "fading_block", counting)
        use_workers(monkeypatch, 1)
        compare_policies(config, ("cga", "sc"))

        cuts = sorted({*range(0, horizon, kernel), *changes, horizon})
        pieces = [min(block, b - f0) for a, b in zip(cuts, cuts[1:])
                  for f0 in range(a, b, block)]
        if not trace:  # the last kernel block, of B + 3 sub-frames, takes two
            assert len(pieces) == 2 * math.ceil(kernel / block) + 2
        assert sizes == pieces * config.num_drops
        starts = np.cumsum([0, *pieces])
        for f0, f1 in zip(starts, starts[1:]):  # no draw spans a change
            assert len(set(threshold[f0:f1])) == 1, (f0, f1)

    @pytest.mark.parametrize("trace", [False, True])
    def test_worker_count_changes_no_result(self, trace, tmp_path, monkeypatch):
        # 3 drops past two kernel blocks, each a whole stack on any number
        # of workers, with served masks, on each traffic source
        config = SimConfig(ues_per_cell=10, radius_m=900.0, horizon=2 * 117 + 3,
                           num_drops=3, seed=11, log_served_ids=True)
        if trace:
            config = replace(config, trace_path=fast_trace(tmp_path / "t.txt"))
        assert 2 * block_sizes(config)[1] < config.horizon
        runs = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # threads interleave as often as they can
        try:
            for workers in (1, 2, 3):
                use_workers(monkeypatch, workers)
                out = compare_policies(config, FOUR)
                runs.append((
                    {p: m.served_counts.tolist() for p, m in out.metrics.items()},
                    {p: m.tobytes() for p, m in out.served_masks.items()},
                    [log_to_csv(out, p) for p in FOUR], summary_to_json(out),
                ))
        finally:
            sys.setswitchinterval(interval)
        assert runs[0] == runs[1] == runs[2]
        assert set(runs[0][1]) == set(FOUR)  # the masks were kept

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_failing_drop_raises_in_the_caller_and_leaves_no_thread(
            self, workers, monkeypatch):
        # Drop 1 fails, on worker 1 when there are several; build_hex7 is
        # the first use of each drop's fresh generator, so its state
        # names the drop
        config = replace(FAST, num_drops=4)
        seeds = np.random.SeedSequence(config.seed).spawn(config.num_drops)
        bad = np.random.default_rng(seeds[1]).bit_generator.state

        def build(radius, ues, rng):
            if rng.bit_generator.state == bad:
                raise RuntimeError("drop 1 failed")
            return build_hex7(radius, ues, rng)

        monkeypatch.setattr(engine, "build_hex7", build)
        use_workers(monkeypatch, workers)
        before = threading.enumerate()
        with pytest.raises(RuntimeError, match="drop 1 failed"):
            compare_policies(config, ("cga", "sc"))
        assert threading.enumerate() == before

    def test_thread_that_fails_to_start_leaves_no_thread(self, monkeypatch):
        # Of 3 workers, worker 1 starts and worker 2 cannot: the error
        # reaches the caller once worker 1 has stopped
        start_thread = threading.Thread.start
        started = []

        def start(thread):
            if started:
                raise RuntimeError("can't start new thread")
            started.append(thread)
            start_thread(thread)

        monkeypatch.setattr(threading.Thread, "start", start)
        use_workers(monkeypatch, 3)
        before = threading.enumerate()
        with pytest.raises(RuntimeError, match="can't start new thread"):
            compare_policies(replace(FAST, num_drops=6), ("cga",))
        assert threading.enumerate() == before
        assert len(started) == 1 and not started[0].is_alive()

    @pytest.mark.parametrize("interrupts", [1, 2])
    def test_interrupt_while_waiting_stops_every_worker(self, interrupts, monkeypatch):
        # Worker 1 waits inside its first drop until the caller, done with
        # drops 0, 2 and 4, is interrupted as it starts to wait for worker
        # 1, and with two interrupts once more as it waits for worker 1 to
        # stop.  Worker 1 then stops after one block, and the interrupt
        # reaches the caller with no thread left running.
        config = replace(FAST, num_drops=6)
        release = threading.Event()
        on_worker = []
        joins = []

        def build(radius, ues, rng):
            if threading.current_thread() is not threading.main_thread():
                on_worker.append((radius, ues))
                assert release.wait(timeout=60)
            return build_hex7(radius, ues, rng)

        join = threading.Thread.join

        def interrupted_join(thread, timeout=None):
            joins.append(thread)
            if len(joins) == interrupts:
                release.set()
            if len(joins) <= interrupts:
                raise KeyboardInterrupt
            return join(thread, timeout)

        monkeypatch.setattr(engine, "build_hex7", build)
        monkeypatch.setattr(threading.Thread, "join", interrupted_join)
        use_workers(monkeypatch, 2)
        before = threading.enumerate()
        with pytest.raises(KeyboardInterrupt):
            compare_policies(config, ("cga",))
        assert threading.enumerate() == before
        assert len(on_worker) == 1  # drop 1 only, of drops 1, 3 and 5
        assert len(joins) == interrupts + 1

    def test_at_most_two_workers_on_many_cpus(self, monkeypatch):
        # Two workers is what was measured: eight usable CPUs and ten drops
        # still start one thread besides the caller
        monkeypatch.setattr(engine, "_cpus", lambda: 8)
        config = replace(FAST, num_drops=10)
        assert engine._plan(config, ("cga",)).workers == 2
        started = counting_starts(monkeypatch)
        compare_policies(config, ("cga",))
        assert len(started) == 1

    def test_cpu_count_stands_in_where_affinity_is_missing(self, monkeypatch):
        # Not every platform has sched_getaffinity, and cpu_count may not know
        monkeypatch.delattr(os, "sched_getaffinity")
        assert engine._cpus() == (os.cpu_count() or 1)
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert engine._cpus() == 1

    # Each benchmark workload's shape on the benchmark's 2 usable CPUs,
    # and fig7's on one, as under `taskset -c 0`: the frame, the
    # workers, and each worker's kernel-block and fading-block lengths
    @pytest.mark.parametrize("shape, cpus, sizes", [
        pytest.param(BENCHMARK_SHAPES["fig4_m70_cli"], 2, (1, 117, 13), id="fig4_m70_cli"),
        pytest.param(BENCHMARK_SHAPES["fig7_m280_trace"], 2, (2, 46, 3),
                     id="fig7_m280_trace"),
        pytest.param(BENCHMARK_SHAPES["fig7_m280_trace"], 1, (1, 46, 3),
                     id="fig7_m280_trace_one_cpu"),
        pytest.param(BENCHMARK_SHAPES["exact_n4"], 2, (1, 100, 66), id="exact_n4"),
    ])
    def test_benchmark_shapes_are_sized_once_in_the_plan(
            self, shape, cpus, sizes, monkeypatch):
        monkeypatch.setattr(engine, "_cpus", lambda: cpus)
        config = SimConfig(**shape)
        plan = engine._plan(config, ("cga",))
        assert plan.frame == (NUM_CELLS, config.num_prbs, NUM_CELLS * config.ues_per_cell)
        assert (plan.workers, plan.span, plan.block) == sizes

    def test_each_worker_has_a_whole_stack_and_a_whole_fading_budget(
            self, monkeypatch):
        # fig7's frame on 1, 2 and 3 workers: every worker's kernel block is
        # the 46 sub-frames of one whole packed stack, and its fading block
        # the 3 sub-frames of one whole fading budget
        config = SimConfig(ues_per_cell=40, horizon=100, num_drops=3)
        plans = []
        for workers in (1, 2, 3):
            use_workers(monkeypatch, workers)
            plans.append(engine._plan(config, ("cga",)))
        assert [plan.workers for plan in plans] == [1, 2, 3]
        assert [plan.span for plan in plans] == [46] * 3
        assert [plan.block for plan in plans] == [3] * 3

    # Each benchmark workload's shape, and one whose sub-frame alone is
    # past the fading budget (M = 7000), which gets one-sub-frame blocks
    @pytest.mark.parametrize("shape", [
        *(pytest.param(shape, id=name) for name, shape in BENCHMARK_SHAPES.items()),
        pytest.param(dict(ues_per_cell=1000), id="subframe_past_the_budget"),
    ])
    def test_worker_count_sizes_no_block(self, shape, monkeypatch):
        # Three drops on 1, 2 and 3 workers: each plan's kernel-block and
        # fading-block lengths are the one-worker plan's, and its fading
        # block stays within the budget whenever one sub-frame fits it
        config = replace(SimConfig(**shape), num_drops=3)
        plans = []
        for workers in (1, 2, 3):
            use_workers(monkeypatch, workers)
            plans.append(engine._plan(config, ("cga",)))
        assert [plan.workers for plan in plans] == [1, 2, 3]
        floats = math.prod(plans[0].frame)
        for plan in plans:
            assert (plan.span, plan.block) == (plans[0].span, plans[0].block)
            if floats <= engine._BLOCK_WORDS:
                assert plan.block * floats <= engine._BLOCK_WORDS
            else:
                assert plan.block == 1

    def test_fig7_sized_run_peaks_below_4_mb(self, tmp_path):
        # M = 280 and three policies on a trace: the fading-power buffer is
        # bounded by _BLOCK_WORDS (512 KiB), each packed stack by STACK_WORDS
        # (128 KiB), and the per-drop cutoff table by the run's distinct
        # thresholds (at most 17 x C x M float64); a grown budget shows up
        # here.
        trace = write_synthetic_trace(str(tmp_path / "trace.txt"), seed=1)
        cfg = SimConfig(ues_per_cell=40, radius_m=1000.0, horizon=100,
                        num_drops=1, seed=1, trace_path=trace)
        tracemalloc.start()
        try:
            compare_policies(cfg, ("cga", "sc", "mbsfn"))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4e6

    def test_two_worker_fig7_sized_run_peaks_below_4_mb(self, tmp_path, monkeypatch):
        # The same run with two drops on two workers, each with a whole
        # fading budget and a whole packed stack; tracemalloc sees every
        # thread's allocations
        trace = write_synthetic_trace(str(tmp_path / "trace.txt"), seed=1)
        cfg = SimConfig(ues_per_cell=40, radius_m=1000.0, horizon=100,
                        num_drops=2, seed=1, trace_path=trace)
        use_workers(monkeypatch, 2)
        started = counting_starts(monkeypatch)
        tracemalloc.start()
        try:
            compare_policies(cfg, ("cga", "sc", "mbsfn"))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(started) == 1
        assert peak < 4e6


class TestChannelPathLaw:
    """The draw, compare and pack steps of _blocks against the law they
    sample, with no reference to the random stream itself, so that the
    check still holds once the stream is re-pinned.  At a constant rate
    each drop's link budgets fix, for each (cell, user) link, the chance
    p = exp(-cutoff) that a unit-mean exponential fading power decodes on
    one PRB, independently over PRBs and sub-frames.  The cutoffs come
    from the drop's set-up, replayed from its seed, and the link budget
    formula, not from channel.cutoffs."""

    ALPHA = 1e-3  # each drop's links together
    DELTA = 1e-3  # each drop's two outage totals together

    @pytest.mark.parametrize("ues, radius", [(10, 500.0), (40, 1000.0)],
                             ids=["M70_r500", "M280_r1000"])
    def test_decodes_and_outages_follow_the_fading_law(self, ues, radius):
        from scipy.stats import binom
        config = SimConfig(ues_per_cell=ues, radius_m=radius, horizon=1000,
                           num_drops=4, seed=5)
        plan = engine._plan(config, ("cga",))
        users, draws = NUM_CELLS * ues, config.horizon * config.num_prbs
        decoded = np.zeros((config.num_drops, NUM_CELLS, users), dtype=int)
        outages = np.zeros((config.num_drops, 2), dtype=int)  # MC, SC
        for d, t0, t1, mc, own in engine._blocks(config, plan, range(config.num_drops)):
            cover = unpack(mc, users)
            decoded[d] += cover.sum(axis=(0, 2))
            outages[d] += [(~unpack(words, users).any(axis=(1, 2))).sum()
                           for words in (mc, mc & own)]
        channel = config.channel
        threshold = min_snr_db(demand(config)[0])
        mid = 0  # links whose chance is neither near 0 nor near 1
        for d, seed in enumerate(plan.seeds):
            rng = np.random.default_rng(seed)
            scen = build_hex7(radius, ues, rng)
            shadow = rng.normal(0.0, channel.shadowing_sigma_db, size=scen.distance_m.shape)
            budget = snr(channel, path_loss(scen.distance_m / 1000.0, channel), shadow)
            with np.errstate(over="ignore"):
                cut = 10.0 ** ((threshold - budget) / 10.0)
            p = np.where(cut <= 1e-12, 1.0, np.exp(-cut))  # powers clamp at 1e-12
            masks = dict(zip((SC, MC), connectivity(scen, config.edge_threshold, radius)))
            heard = masks[MC]
            assert not decoded[d][~heard].any(), d
            # Each link's decodes over its T*N draws: twice the smaller
            # binomial tail, against ALPHA split over the drop's links
            k, q = decoded[d][heard], p[heard]
            tail = 2 * np.minimum(binom.cdf(k, draws, q), binom.sf(k - 1, draws, q))
            assert tail.min() >= self.ALPHA / heard.sum(), (d, tail.min())
            mid += int(((q > 0.01) & (q < 0.99)).sum())
            # Each mode's outages, a sum of independent Bernoulli draws,
            # one per (sub-frame, user), within Bernstein's bound: the sum
            # strays by eps from its mean with chance at most
            # 2 exp(-eps^2 / (2 var + 2 eps / 3))
            log_term = math.log(2 / (self.DELTA / 2))
            for got, mode in zip(outages[d], (MC, SC)):
                out = np.prod((1 - p * masks[mode]) ** config.num_prbs, axis=0)
                mean = config.horizon * out.sum()
                var = config.horizon * (out * (1 - out)).sum()
                eps = log_term / 3 + math.sqrt(log_term ** 2 / 9 + 2 * var * log_term)
                assert abs(got - mean) <= eps, (d, mode, got, mean, eps)
        assert mid >= 100 * config.num_drops  # the check has teeth


class TestExactDropLaws:
    """SC's and MBSFN's served counts against their exact per-drop laws,
    which oracles.drop_laws computes from each drop's set-up replayed from
    its seed: the whole pipeline, draw, compare, pack, kernel and credit,
    with no reference to the random stream.  Each drop's mean over its T
    sub-frames, independent given the drop, must lie within Z_BOUND
    standard errors of its exact mean, the standard error taken from the
    exact variance, at a constant rate and on a synthetic trace, whose
    sub-frames' thresholds differ."""

    # Fixed before any run: a mean that follows its law strays this far
    # with chance about 6e-7, so 1e-5 over the test's 18 checks
    Z_BOUND = 5.0

    @pytest.mark.parametrize("ues, trace", [(10, False), (40, False), (40, True)],
                             ids=["M70", "M280", "M280_trace"])
    def test_drop_means_follow_the_exact_laws(self, ues, trace, tmp_path):
        config = SimConfig(ues_per_cell=ues, radius_m=1000.0, rate_bits=400.0,
                           horizon=1000, num_drops=3, seed=1)
        if trace:
            path = write_synthetic_trace(str(tmp_path / "trace.txt"), seed=1)
            config = replace(config, trace_path=path)
        plan = engine._plan(config, ("sc",))
        assert len(plan.levels) == (8 if trace else 1)
        out = compare_policies(config, ("sc", "mbsfn"))
        for d, seed in enumerate(plan.seeds):
            laws = drop_laws(config, seed)
            for policy, (mean, var) in laws.items():
                got = out.metrics[policy].served_counts[d].mean()
                z = (got - mean) / math.sqrt(var)
                assert abs(z) < self.Z_BOUND, (d, policy, got, mean, z)
