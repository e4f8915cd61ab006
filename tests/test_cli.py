"""Command-line behavior: presets, precedence, artifacts, exit codes."""

import dataclasses
import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

from mcmcast.cli import _FIELDS, PRESETS, _build_config, build_parser, main
from mcmcast.engine import SimConfig

RUN = [sys.executable, "-m", "mcmcast.cli"]


def invoke(*args):
    return main(list(args))


class TestExitCodes:
    def test_custom_run_succeeds(self, tmp_path, capsys):
        code = invoke("run", "--preset", "custom", "--policy", "cga",
                      "--subframes", "5", "--drops", "1", "--ues", "3",
                      "--out", str(tmp_path))
        assert code == 0
        assert "custom:" in capsys.readouterr().out

    def test_bad_config_is_2(self, tmp_path):
        assert invoke("run", "--subframes", "0",
                      "--out", str(tmp_path)) == 2

    @pytest.mark.parametrize("flag,value", [
        ("--radius", "nan"), ("--radius", "inf"), ("--radius", "-5"),
        ("--edge-threshold", "nan"), ("--edge-threshold", "inf"),
        ("--edge-threshold", "-0.1"),
        ("--rate", "nan"), ("--rate", "inf"), ("--rate", "-1"),
        ("--fps", "0"), ("--fps", "nan"), ("--fps", "inf"),
        ("--seed", "-1"),
    ])
    def test_bad_value_is_2_before_any_drop(self, tmp_path, capsys, flag, value):
        assert invoke("run", flag, value, "--subframes", "3", "--drops", "1",
                      "--ues", "1", "--out", str(tmp_path)) == 2
        message = "seed must be >= 0" if flag == "--seed" else "must be finite"
        assert message in capsys.readouterr().err
        assert not (tmp_path / "log_cga.csv").exists()

    def test_bad_config_writes_nothing(self, tmp_path, capsys):
        # The trace preset would synthesize trace.txt into --out first.
        for flag, value, message in [
            ("--radius", "nan", "radius_m must be finite"),
            # the squared distances of the layout overflow
            ("--radius", "1e154", "radius_m 1e+154 is too large"),
            ("--radius", "1e308", "radius_m 1e+308 is too large"),
            ("--seed", "-1", "seed must be >= 0"),
            # 1 / (fps * 1 ms) sub-frames per frame does not fit an int64
            ("--fps", "1e-300", "frame period"),
            ("--fps", "1e-320", "frame period"),
        ]:
            out = tmp_path / (flag.lstrip("-") + value)
            assert invoke("run", "--preset", "fig7_trace_mc_vs_sc", flag, value,
                          "--out", str(out)) == 2
            assert message in capsys.readouterr().err
            assert not out.exists()

    def test_huge_but_sound_radius_runs(self, tmp_path):
        # No overflow warning either: the suite makes warnings errors
        assert invoke("run", "--radius", "1e150", "--subframes", "3",
                      "--drops", "1", "--ues", "1", "--out", str(tmp_path)) == 0
        assert (tmp_path / "summary.json").exists()

    def test_slow_but_representable_fps_runs(self, tmp_path):
        # 10^15 sub-frames per frame: the horizon sees the first frame only
        assert invoke("run", "--preset", "fig7_trace_mc_vs_sc", "--fps", "1e-12",
                      "--subframes", "3", "--drops", "1", "--ues", "1",
                      "--out", str(tmp_path)) == 0
        assert (tmp_path / "summary.json").exists()

    def test_unknown_preset_is_2(self, tmp_path):
        proc = subprocess.run(
            RUN + ["run", "--preset", "nope", "--out", str(tmp_path)],
            capture_output=True)
        assert proc.returncode == 2

    def test_trace_parse_failure_is_3(self, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("not a frame line\n")
        assert invoke("run", "--trace", str(bad), "--subframes", "3",
                      "--out", str(tmp_path / "o")) == 3
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("size", ["inf", "nan"])
    def test_non_finite_trace_size_is_3_and_writes_nothing(self, tmp_path,
                                                           capsys, size):
        bad = tmp_path / "bad.txt"
        bad.write_text(f"0 I 0.0 {size}\n")
        assert invoke("run", "--trace", str(bad), "--subframes", "3",
                      "--out", str(tmp_path / "o")) == 3
        assert f"{bad}:1:" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_missing_trace_is_2_and_writes_nothing(self, tmp_path):
        assert invoke("run", "--trace", str(tmp_path / "absent.txt"),
                      "--subframes", "3", "--out", str(tmp_path / "o")) == 2
        assert not (tmp_path / "o").exists()

    def test_empty_trace_path_is_2_and_writes_nothing(self, tmp_path, capsys):
        assert invoke("run", "--trace", "", "--subframes", "3",
                      "--out", str(tmp_path / "o")) == 2
        assert "No such file or directory: ''" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_exact_cap_exceeded_is_4(self, tmp_path):
        assert invoke("run", "--policy", "exact", "--prbs", "11",
                      "--subframes", "1", "--out", str(tmp_path)) == 4

    def test_oracle_check_passes(self, capsys):
        assert invoke("oracle-check", "--instances", "30",
                      "--max-users", "8", "--seed", "1") == 0
        assert "PASS" in capsys.readouterr().out

    def test_oracle_check_beyond_64_cells_at_one_prb(self, capsys):
        assert invoke("oracle-check", "--max-cells", "1000", "--max-prbs", "1",
                      "--instances", "3", "--max-users", "3") == 0
        assert "PASS" in capsys.readouterr().out

    @pytest.mark.parametrize("flag", ["--instances", "--max-users",
                                      "--max-cells", "--max-prbs"])
    @pytest.mark.parametrize("value", ["0", "-3"])
    def test_oracle_check_sizes_below_one_are_2(self, capsys, flag, value):
        assert invoke("oracle-check", flag, value) == 2
        captured = capsys.readouterr()
        assert f"{flag} must be >= 1" in captured.err
        assert "PASS" not in captured.out

    @pytest.mark.parametrize("seed", ["1", "2", "3", "4", "5"])
    def test_oracle_check_over_the_exact_cap_is_4_before_any_draw(self, capsys,
                                                                 seed):
        # 10^8 allocations at the largest size; whether a draw reaches it
        # must not decide the exit code.
        assert invoke("oracle-check", "--max-cells", "8", "--max-prbs", "10",
                      "--instances", "3", "--seed", seed) == 4
        captured = capsys.readouterr()
        assert "exceeds cap" in captured.err
        assert captured.out == ""

    def test_oracle_check_huge_cell_count_is_4_at_once(self, capsys):
        assert invoke("oracle-check", "--max-cells", "1000000000",
                      "--max-prbs", "3") == 4
        assert capsys.readouterr().out == ""

    def test_oracle_check_negative_seed_is_2(self, capsys):
        assert invoke("oracle-check", "--seed", "-1", "--instances", "2") == 2
        captured = capsys.readouterr()
        assert "--seed must be >= 0" in captured.err
        assert "PASS" not in captured.out


class TestArtifacts:
    def test_compare_preset_writes_per_policy_logs(self, tmp_path):
        code = invoke("run", "--preset", "fig8_mbsfn_vs_mc", "--seed", "5",
                      "--subframes", "10", "--drops", "1", "--ues", "4",
                      "--out", str(tmp_path))
        assert code == 0
        assert (tmp_path / "log_cga.csv").exists()
        assert (tmp_path / "log_mbsfn.csv").exists()
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert set(summary["metrics"]) == {"cga", "mbsfn"}
        assert "cga_gt_mbsfn" in summary["paired_pvalues"]

    def test_one_paired_cell_writes_a_null_pvalue(self, tmp_path):
        # One sub-frame of one drop leaves the paired t-test undefined; the
        # summary says so with a JSON null, not a NaN no JSON parser takes.
        code = invoke("run", "--preset", "fig7_trace_mc_vs_sc", "--subframes",
                      "1", "--drops", "1", "--out", str(tmp_path))
        assert code == 0
        text = (tmp_path / "summary.json").read_text()
        assert "NaN" not in text

        def refuse(name):
            raise ValueError(f"non-standard JSON constant {name}")
        summary = json.loads(text, parse_constant=refuse)
        assert summary["paired_pvalues"] == {"cga_gt_sc": None}

    def test_log_header_and_policy_column(self, tmp_path):
        invoke("run", "--preset", "custom", "--policy", "sc",
               "--subframes", "4", "--drops", "2", "--ues", "3",
               "--out", str(tmp_path))
        lines = (tmp_path / "log_sc.csv").read_text().splitlines()
        assert lines[0] == "drop,t,policy,served_count,served_ids"
        assert len(lines) == 1 + 4 * 2
        assert all(",sc," in line for line in lines[1:])

    def test_sweep_preset_writes_both_axes(self, tmp_path):
        code = invoke("run", "--preset", "fig5_packets_sweep", "--seed", "2",
                      "--subframes", "5", "--drops", "1", "--ues", "3",
                      "--out", str(tmp_path))
        assert code == 0
        users = (tmp_path / "sweep_users.csv").read_text().splitlines()
        radius = (tmp_path / "sweep_radius.csv").read_text().splitlines()
        assert users[0].startswith("users_per_cell,policy,")
        assert radius[0].startswith("radius,policy,")
        # 4 sweep values x 2 policies.
        assert len(users) == len(radius) == 1 + 8

    def test_trace_preset_synthesizes_trace(self, tmp_path):
        code = invoke("run", "--preset", "fig7_trace_mc_vs_sc", "--seed", "3",
                      "--subframes", "8", "--drops", "1", "--ues", "3",
                      "--out", str(tmp_path))
        assert code == 0
        assert (tmp_path / "trace.txt").exists()
        assert (tmp_path / "log_cga.csv").exists()
        assert (tmp_path / "log_sc.csv").exists()


class TestConfigPrecedence:
    def test_file_overrides_defaults_flags_override_file(self, tmp_path):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("# experiment\nues = 4\nradius = 650\nsubframes = 9\n")
        out = tmp_path / "out"
        code = invoke("run", "--config", str(cfg), "--subframes", "6",
                      "--drops", "1", "--out", str(out))
        assert code == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["config"]["ues_per_cell"] == 4
        assert summary["config"]["radius_m"] == 650.0
        assert summary["config"]["horizon"] == 6

    def test_file_policy_replaces_the_preset_policies(self, tmp_path):
        cfg = tmp_path / "cfg.txt"
        args = ["run", "--preset", "fig4_dist_vs_central", "--config", str(cfg),
                "--subframes", "3", "--drops", "1", "--ues", "3"]
        cfg.write_text("policy = sc\n")
        assert invoke(*args, "--out", str(tmp_path / "file")) == 0
        summary = json.loads((tmp_path / "file" / "summary.json").read_text())
        assert summary["config"]["policy"] == "sc"
        assert set(summary["metrics"]) == {"sc"}
        assert not (tmp_path / "file" / "log_cga.csv").exists()
        # A flag still wins over the file.
        assert invoke(*args, "--policy", "mbsfn",
                      "--out", str(tmp_path / "flag")) == 0
        summary = json.loads((tmp_path / "flag" / "summary.json").read_text())
        assert set(summary["metrics"]) == {"mbsfn"}
        cfg.write_text("policy = bogus\n")
        assert invoke(*args, "--out", str(tmp_path / "bogus")) == 2
        assert not (tmp_path / "bogus" / "summary.json").exists()

    def test_dashes_and_underscores_both_accepted(self, tmp_path):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("edge-threshold = 0.7\ndga-count = primary\n")
        out = tmp_path / "out"
        assert invoke("run", "--config", str(cfg), "--subframes", "3",
                      "--drops", "1", "--ues", "3", "--out", str(out)) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["config"]["edge_threshold"] == 0.7
        assert summary["config"]["dga_count"] == "primary"

    def test_unknown_key_is_bad_config(self, tmp_path):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("warp_speed = 9\n")
        assert invoke("run", "--config", str(cfg),
                      "--out", str(tmp_path / "o")) == 2

    @pytest.mark.parametrize("word", ["0", "false", "No", "OFF"])
    def test_false_words_turn_burst_off(self, tmp_path, word):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(f"burst = {word}\n")
        config, _, _ = _build_config(
            build_parser().parse_args(["run", "--config", str(cfg)]))
        assert config.burst is False

    def test_bad_boolean_is_bad_config(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("burst = maybe\n")
        assert invoke("run", "--config", str(cfg),
                      "--out", str(tmp_path / "o")) == 2
        assert "bad boolean for burst: 'maybe'" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_malformed_line_is_bad_config(self, tmp_path):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("just words\n")
        assert invoke("run", "--config", str(cfg),
                      "--out", str(tmp_path / "o")) == 2


class TestSettingsTable:
    """cli._FIELDS is the one declaration of each SimConfig-backed setting."""

    # A value other than SimConfig's default for every key
    VALUES = {
        "policy": "sc", "seed": "7", "ues": "3", "radius": "650",
        "subframes": "9", "trace": "clip.txt", "fps": "25", "rate": "300",
        "edge_threshold": "0.7", "dga_count": "primary", "drops": "2",
        "prbs": "4", "burst": "true",
    }

    @pytest.mark.parametrize("key", sorted(_FIELDS))
    def test_flag_and_config_line_give_the_same_config(self, tmp_path, key):
        field, typ, _ = _FIELDS[key]
        assert field in {f.name for f in dataclasses.fields(SimConfig)}
        flag = "--" + key.replace("_", "-")
        value = self.VALUES[key]
        argv = ["run", flag] if typ is bool else ["run", flag, value]
        from_flag, _, _ = _build_config(build_parser().parse_args(argv))
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(f"{key} = {value}\n")
        from_file, _, _ = _build_config(
            build_parser().parse_args(["run", "--config", str(cfg)]))
        assert from_flag == from_file
        assert getattr(from_flag, field) != getattr(SimConfig(), field)


README = Path(__file__).resolve().parent.parent / "README.md"


class TestReadmeMatchesTheParser:
    """README's `mcmcast run` flag list and preset table name exactly what
    build_parser() and PRESETS declare."""

    @staticmethod
    def run_flags():
        parser = build_parser()
        run = parser._subparsers._group_actions[0].choices["run"]
        return [s for action in run._actions for s in action.option_strings
                if s.startswith("--") and s != "--help"]

    def test_flag_list(self):
        text = README.read_text(encoding="utf-8")
        listed = re.search(r"`mcmcast run` flags: `([^`]*)`", text)
        assert listed, "README has no `mcmcast run` flag list"
        assert listed.group(1).split() == self.run_flags()

    def test_preset_table(self):
        text = README.read_text(encoding="utf-8")
        table = text.split("\n| preset |", 1)[1].split("\n\n", 1)[0]
        names = re.findall(r"^\| `([^`]+)`", table, flags=re.MULTILINE)
        assert len(names) == len(set(names))
        assert set(names) == set(PRESETS)


class TestDeterminism:
    def test_same_args_byte_identical_outputs(self, tmp_path):
        args = ["run", "--preset", "custom", "--policy", "cga", "--seed", "9",
                "--subframes", "12", "--drops", "2", "--ues", "4"]
        invoke(*args, "--out", str(tmp_path / "a"))
        invoke(*args, "--out", str(tmp_path / "b"))
        for name in ("log_cga.csv", "summary.json"):
            assert (tmp_path / "a" / name).read_bytes() == \
                (tmp_path / "b" / name).read_bytes()

    def test_different_seed_changes_log(self, tmp_path):
        base = ["run", "--preset", "custom", "--policy", "cga",
                "--radius", "1200", "--subframes", "12", "--drops", "2",
                "--ues", "4"]
        invoke(*base, "--seed", "1", "--out", str(tmp_path / "a"))
        invoke(*base, "--seed", "2", "--out", str(tmp_path / "b"))
        assert (tmp_path / "a" / "log_cga.csv").read_text() != \
            (tmp_path / "b" / "log_cga.csv").read_text()
