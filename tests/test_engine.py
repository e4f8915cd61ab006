"""Simulation loop: determinism, metric bookkeeping, policy orderings on
shared draws, and the oracle sandwich on small search spaces."""

import warnings

import numpy as np
import pytest

from mcmcast.channel import ChannelModel, ChannelParams, min_snr_db
from mcmcast.coverage import GREEDY_BOUND, CoverageInstance, evaluate, solve_sc
from mcmcast.engine import (
    Metrics,
    SimConfig,
    compare_policies,
    log_to_csv,
    metrics_from_log,
    paired_one_sided_pvalue,
    summary_dict,
    summary_to_json,
    sweep,
    sweep_to_csv,
)
from mcmcast.topology import build_hex7, eligibility

FAST = SimConfig(horizon=20, num_drops=2, seed=3, ues_per_cell=4,
                 radius_m=600.0, num_prbs=4)


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
        assert log_to_csv(a) == log_to_csv(b)

    def test_served_counts_bounded_by_population(self):
        out = compare_policies(FAST, ("cga", "dga"))
        for m in out.metrics.values():
            assert m.served_counts.shape == (2, 20)
            assert (m.served_counts >= 0).all()
            assert (m.served_counts <= 28).all()

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

    @pytest.mark.parametrize("policies", [(), ("cga", "cga"), ("cga", "dga", "cga")])
    def test_empty_or_repeated_policies_rejected_before_any_drop(
            self, monkeypatch, policies):
        def no_drop(*args, **kwargs):
            raise AssertionError("a drop ran")
        monkeypatch.setattr("mcmcast.engine.build_hex7", no_drop)
        with pytest.raises(ValueError, match="policy"):
            compare_policies(FAST, policies)

    def test_trace_schedule_drives_the_run(self, tmp_path):
        path = tmp_path / "trace.txt"
        path.write_text("0 I 0.0 100\n")  # 800 bits over 33 sub-frames
        cfg = SimConfig(horizon=5, num_drops=1, seed=2, trace_path=str(path),
                        fps=30.0, radius_m=300.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # 33 sub-frames cover the horizon
            out = compare_policies(cfg, ("cga",))
        assert out.metrics["cga"].served_counts.shape == (1, 5)

    def test_short_trace_wraps_with_a_warning(self, tmp_path):
        path = tmp_path / "trace.txt"
        path.write_text("0 I 0.0 100\n1 P 0.0 100\n")  # 66 sub-frames
        cfg = SimConfig(horizon=500, num_drops=1, seed=2, trace_path=str(path),
                        fps=30.0, ues_per_cell=1)
        with pytest.warns(RuntimeWarning,
                          match=r"\b66 sub-frames.*\b500 sub-frames.*\b8 times"):
            out = compare_policies(cfg, ("cga",))
        assert out.metrics["cga"].served_counts.shape == (1, 500)


class TestMetrics:
    def test_aggregates_follow_definitions(self):
        counts = np.array([[10, 20], [30, 40]])
        m = Metrics(policy="cga", served_counts=counts, num_users=70,
                    num_cells=7)
        assert m.avg_packets_delivered == 25.0
        assert m.per_ue_service_ratio == 25.0 / 70
        assert m.avg_unserved_per_cell == (70 - 25.0) / 7
        assert list(m.drop_means) == [15.0, 35.0]

    def test_ci_zero_for_single_drop(self):
        m = Metrics(policy="cga", served_counts=np.array([[1, 2, 3]]),
                    num_users=70, num_cells=7)
        assert m.ci95_halfwidth == 0.0

    def test_recomputable_from_raw_log(self):
        out = compare_policies(FAST, ("cga", "mbsfn"))
        back = metrics_from_log(log_to_csv(out), num_users=28)
        for policy, m in out.metrics.items():
            assert np.array_equal(back[policy].served_counts, m.served_counts)
            assert back[policy].avg_packets_delivered == m.avg_packets_delivered
            assert back[policy].avg_unserved_per_cell == m.avg_unserved_per_cell

    def test_log_contains_served_ids_when_asked(self):
        cfg = SimConfig(horizon=2, num_drops=1, seed=4, ues_per_cell=2,
                        log_served_ids=True, rate_bits=0.0)
        out = compare_policies(cfg, ("cga",))
        first_row = log_to_csv(out).splitlines()[1]
        assert first_row.split(",")[4] == ";".join(str(k) for k in range(14))


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
        model = ChannelModel(ChannelParams(), scen, num_prbs=4)
        shadow = model.draw_shadowing(rng)
        mc_mask = eligibility(scen, "mc")[:, None, :]
        sc_mask = eligibility(scen, "sc")[:, None, :]
        for _ in range(25):
            decodable = model.snr_subframe(shadow, rng) >= min_snr_db(400.0)
            mc_inst = CoverageInstance(decodable & mc_mask)
            sc_inst = CoverageInstance(decodable & sc_mask)
            sc_result = solve_sc(sc_inst)
            forced = evaluate(mc_inst, sc_result.allocation)
            assert sc_result.served <= forced.served

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
        table = sweep(FAST, "radius", [600.0], policies=("cga",))
        assert len(table) == 1
        value, out = table[0]
        assert value == 600.0
        direct = compare_policies(FAST, ("cga",))
        assert np.array_equal(
            out.metrics["cga"].served_counts,
            direct.metrics["cga"].served_counts)

    def test_axis_values_applied(self):
        table = sweep(FAST, "users_per_cell", [2, 5], policies=("cga",))
        assert table[0][1].metrics["cga"].num_users == 14
        assert table[1][1].metrics["cga"].num_users == 35

    def test_validation(self):
        with pytest.raises(ValueError):
            sweep(FAST, "prbs", [1, 2])
        with pytest.raises(ValueError):
            sweep(FAST, "radius", [])
        with pytest.raises(ValueError):
            sweep(FAST, "radius", [300.0], ())

    def test_csv_shape(self):
        table = sweep(FAST, "radius", [500.0, 800.0], policies=("cga", "sc"))
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

    def test_json_is_deterministic(self):
        a = summary_to_json(compare_policies(FAST, ("cga", "sc")))
        b = summary_to_json(compare_policies(FAST, ("cga", "sc")))
        assert a == b
