"""Golden SHA-256 digests of small fixed-seed artifacts.

Each run below is pinned byte for byte, so a refactor or speed-up that
changes any simulated number fails here, where a rerun-equals-rerun check
would still pass.  Changing the numbers on purpose means re-pinning these
digests and saying why in CHANGES.md.
"""

import hashlib

import numpy as np
import pytest

from mcmcast import engine
from mcmcast.cli import _build_config, build_parser, main
from mcmcast.engine import POLICIES, SimConfig, compare_policies, log_to_csv

SMALL = ["--seed", "5", "--ues", "6", "--subframes", "60", "--drops", "2"]
# A trace file each run finds in its working directory: 30 frames of
# 10 + (37 i) % 90 bytes
FINITE_TRACE = "t.txt"


def write_finite_trace(directory):
    (directory / FINITE_TRACE).write_text(
        "".join(f"{i} {10 + (37 * i) % 90}\n" for i in range(30)))


# name -> (mcmcast run arguments, {artifact: sha256})
CLI_RUNS = {
    "fig4": (
        ["--preset", "fig4_dist_vs_central", *SMALL],
        {
            "log_cga.csv": "72a4187206562e759b326f091e2c2af8d9cc2fde26c848687f48c90689b81fa2",
            "log_dga.csv": "b67eff876e89bc27f63d3c0cc76d57a95e68190e838b57e96dd7e4bdbe8a654c",
            "summary.json": "a2544106a71320174837bfd66a21d9e3f0ffedec0537fa27f099c4e759f77ab0",
        },
    ),
    "fig4_dga_primary": (
        ["--preset", "fig4_dist_vs_central", "--dga-count", "primary", *SMALL],
        {
            "log_cga.csv": "72a4187206562e759b326f091e2c2af8d9cc2fde26c848687f48c90689b81fa2",
            "log_dga.csv": "e182a77da3f5e3a941c7b8df1a59945041b77eb404cc2a37235d7a22fd37233a",
            "summary.json": "63d929bf764be6b3c39abfbf5e85eef026b28e5dbfdef2e536fe06c2db906cfd",
        },
    ),
    "fig7": (
        ["--preset", "fig7_trace_mc_vs_sc", *SMALL],
        {
            "log_cga.csv": "b9549198cc93b1f0f1a7749b436443acd6f6162385c7b2379f7b3e461d8bb11c",
            "log_sc.csv": "755c7ea5560416b75b669e935707a4ba222ae57254a39a2ae7b89014ababb6e9",
            "summary.json": "9da416d6c04df9a4ffaa50cb9dd185216fb5c20f4d5fef163f77307b4f87bcc8",
        },
    ),
    # SC alone: its log is the one fig7 pins beside CGA
    "fig7_sc_only": (
        ["--preset", "fig7_trace_mc_vs_sc", "--policy", "sc", *SMALL],
        {
            "log_sc.csv": "755c7ea5560416b75b669e935707a4ba222ae57254a39a2ae7b89014ababb6e9",
            "summary.json": "fc532ea6e9898484eb46b49546128a7760b892e8fe35e9893bc92a7c3bddde8b",
        },
    ),
    # Each frame in the first sub-frame of its period, nothing in the rest:
    # every frame is above the top rate, so thresholds are +inf and -inf
    "fig7_burst": (
        ["--preset", "fig7_trace_mc_vs_sc", "--burst", *SMALL],
        {
            "log_cga.csv": "940a1c3f9f9bce8b4c3245e764567f3369349ac5700088af5fc58dd4b2f17eaa",
            "log_sc.csv": "f8195a1a887a0ec9b9dc59b92bac155fd8287cd82e08b185f16c75ee58af899a",
            "summary.json": "591cb7f32dff5deb26ca189fab1b201eefa5bebf8becf96e3f73bb17906f3eff",
        },
    ),
    # Frames of 10 to 99 bytes, each in the first of its 4 sub-frames: the
    # trace file FINITE_TRACE, whose thresholds are finite in a quarter of
    # the sub-frames.  The relative path keeps summary.json independent of
    # the temporary directory.
    "fig7_burst_finite": (
        ["--preset", "fig7_trace_mc_vs_sc", "--trace", FINITE_TRACE, "--burst",
         "--fps", "250", *SMALL],
        {
            "log_cga.csv": "ae137a241127566e591be28605339d3f85fbb65f819832c60893e69d68b5a7b6",
            "log_sc.csv": "a596a1d4e535923e0a57e61a2dee0127470f1196c03d9b362ea2f284697bda8a",
            "summary.json": "8b4eb9b6e772ea012e4abf32304571daa3290be6fa2ba7d0d80adc73e0a7202d",
        },
    ),
    # Association at an edge threshold other than the default 0.8: SC does
    # not depend on it, so its log is the one fig7 pins
    "fig7_edge": (
        ["--preset", "fig7_trace_mc_vs_sc", "--edge-threshold", "0.5", *SMALL],
        {
            "log_cga.csv": "37aa978b1efc1e4b3a9a9fcc4ec7832383a202caeb813f141c522686c07f5e08",
            "log_sc.csv": "755c7ea5560416b75b669e935707a4ba222ae57254a39a2ae7b89014ababb6e9",
            "summary.json": "d04b5f47f835a5abe41a728b610a29bf9c2f2e022ae2ee9f8210a8c6cec1ab2f",
        },
    ),
    "fig8": (
        ["--preset", "fig8_mbsfn_vs_mc", *SMALL],
        {
            "log_cga.csv": "7f8fb985e7bb38a15c970073c71049c3b0a2c2d842681b4dd90c024267ee1af6",
            "log_mbsfn.csv": "d2831902c36b4b019ea3957b23f0c82efc8309fff094b6fbee87fba021a537c0",
            "summary.json": "6b14e90d5c0554ce6d1cf33e2f4669be4367f109532f6d5e818d4941511b3ef9",
        },
    ),
    # M = 280 users on a video trace: the SNR buffer holds 6 sub-frames
    # here, so 20 sub-frames per drop cross three block boundaries.
    "fig7_m280": (
        ["--preset", "fig7_trace_mc_vs_sc", "--seed", "5", "--ues", "40",
         "--subframes", "20", "--drops", "2"],
        {
            "log_cga.csv": "bc3b0288ed03a4ec3bb9f9cf170e35a3d04db1859b2b0a5515ddd78048812f91",
            "log_sc.csv": "9d05f30edc3823ef9de72f156bcbd11b2eaa0bfb4d6e61c7175dfd85ae2b0d32",
            "summary.json": "978a3e27bb52e6aeb0aec59cfeac0c1c79dd6ef3c26a774a39f64290d598fea4",
        },
    ),
    # 3^7 allocations on M = 21 users: the exact oracle ORs the 27 head
    # unions of 3 cells against the 81 tail unions of 4 cells in one chunk.
    "exact_prbs3": (
        ["--preset", "custom", "--policy", "exact", "--prbs", "3",
         "--seed", "5", "--ues", "3", "--subframes", "20", "--drops", "2",
         "--radius", "1000"],
        {
            "log_exact.csv": "04caa865debd9101463b57f39eb7c3277f2e71f565a83ec6476145fea4d3de13",
            "summary.json": "e53d9b68f75cea05eaf8f4d92c7a8c5ea19f6d7e83e0fbc62d0778a9dec2c1fd",
        },
    ),
    # The exact_n4 benchmark's shape: 4^7 allocations on M = 35 users.
    "exact_prbs4": (
        ["--preset", "custom", "--policy", "exact", "--prbs", "4",
         "--seed", "5", "--ues", "5", "--subframes", "30", "--drops", "2",
         "--radius", "1000"],
        {
            "log_exact.csv": "067730e86254afe9af3446bfe83ead2d35e4a8d22fb9adc67cf2341d9782384e",
            "summary.json": "89693a55e6be46bfa7ca8ab446a663d6c6604a343743d91870afdf0024e83bcb",
        },
    ),
    "fig5_sweep": (
        ["--preset", "fig5_packets_sweep", "--seed", "5", "--ues", "3",
         "--subframes", "5", "--drops", "1"],
        {
            "sweep_users.csv": "fcbae87ac46b45d53dd879aa5d148ffb5a0725abb6e27425cf8aa8c6e2588a5e",
            "sweep_radius.csv": "89e93bf919452e3d8ba8e05cfc5c7378126045a8ee0cda7bfc9477ae7b39f8fc",
            "summary.json": "5deaea0012b98ea4f49b976f9726e3ace084db24e9d6740afcccea8ad1b95417",
        },
    ),
}
# Fig. 6 reads the same sweeps as Fig. 5, so its artifacts are Fig. 5's.
CLI_RUNS["fig6_sweep"] = (
    ["--preset", "fig6_unserved_sweep", *CLI_RUNS["fig5_sweep"][0][2:]],
    CLI_RUNS["fig5_sweep"][1],
)

# Every policy on one run, with served user ids in each policy's log.
SERVED_IDS_CONFIG = SimConfig(ues_per_cell=3, num_prbs=3, radius_m=1000.0,
                              horizon=10, num_drops=2, seed=5,
                              log_served_ids=True)
SERVED_IDS_DIGESTS = {
    "cga": "d9b14bba2d070b84d23e39caec6f0ec46a902ce8c6fc328f6219e680e21ef4ef",
    "dga": "6d45aa4531921a580ebd26a1b0563b5b5aff734e28bcdfd4b9fa0987cea5f3d0",
    "sc": "f609875a1be7c89ffd4beba11fa8c1a4d2de3839888da97d21286ea0b478be19",
    "mbsfn": "69816e467f2a67c9c90bd608c6b849c57a474aac70c5f9b284ab4c779fbbe2f1",
    "exact": "b17dfe4b439033776b5da459289cd48b2f8a1888caab874152f905d1177e1806",
}


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("name", sorted(CLI_RUNS))
def test_cli_artifacts_match_golden_digests(name, tmp_path, monkeypatch):
    # A relative --out keeps the synthesized trace path in summary.json
    # independent of the temporary directory.
    monkeypatch.chdir(tmp_path)
    write_finite_trace(tmp_path)
    argv, golden = CLI_RUNS[name]
    assert main(["run", *argv, "--out", "out"]) == 0
    got = {f: sha256((tmp_path / "out" / f).read_bytes()) for f in golden}
    assert got == golden


def test_finite_burst_run_has_finite_thresholds(tmp_path, monkeypatch):
    # fig7_burst sees only the thresholds -inf and +inf; this run's frames
    # need finite ones, 10 distinct levels in a quarter of its sub-frames
    monkeypatch.chdir(tmp_path)
    write_finite_trace(tmp_path)
    args = build_parser().parse_args(["run", *CLI_RUNS["fig7_burst_finite"][0]])
    config, _, policies = _build_config(args)
    plan = engine._plan(config, policies)
    finite = np.isfinite(plan.levels)
    assert finite.sum() == 10
    assert finite[plan.level].mean() == 0.25


def test_served_ids_log_matches_golden_digest():
    out = compare_policies(SERVED_IDS_CONFIG, POLICIES)
    got = {p: sha256(log_to_csv(out, p).encode()) for p in POLICIES}
    assert got == SERVED_IDS_DIGESTS
