"""Golden outputs: SHA-256 of every file one small run of each subcommand writes.

The determinism tests compare two runs of the same code with each other;
these digests also catch a change of output between versions. A digest may
change only with an intended change of output, and then the new value is
pinned here together with the reason. Pinned with numpy 2.4 on x86-64.
"""

import hashlib
import importlib.util
import json
import os

import numpy as np
import pytest

from compound_bcc.channel import CompoundChannelSet, save_channel
from compound_bcc.cli import main

DATA_DIR = os.path.join(os.path.dirname(__file__), "data")
DUP_ROW = os.path.join(DATA_DIR, "channel_dup_row.json")
BENCH_RUN = os.path.join(os.path.dirname(__file__), os.pardir, "bench", "run.py")

ERGODIC = ["ergodic", "--M", "3", "--J1", "3", "--J2", "4", "--blocks", "1000", "--seed", "2"]
CASES = {
    "gaussian": (["gaussian", "--trials", "2", "--seed", "4"], 0),
    "ergodic": (ERGODIC, 0),
    # the other power policies on the same process, and nine common states
    "ergodic-full1": (ERGODIC + ["--power_policy", "full1"], 0),
    "ergodic-full2": (ERGODIC + ["--power_policy", "full2"], 0),
    "ergodic-split": (ERGODIC + ["--power_policy", "split", "--p1_frac", "0.3"], 0),
    "ergodic-nine-states": (
        ["ergodic", "--M", "4", "--J1", "5", "--J2", "3", "--blocks", "3000",
         "--common_state_count", "9", "--seed", "5"],
        0,
    ),
    "compare": (["compare", "--M", "7", "--J1", "8", "--J2", "8"], 0),
    "region": (
        ["region", "--model", "ergodic", "--M", "2", "--J1", "4", "--J2", "4"],
        0,
    ),
    "verify-generated": (
        ["verify-channel", "--M", "3", "--J1", "5", "--J2", "5", "--seed", "3"],
        0,
    ),
    # 26 stacked rows: above EXHAUSTIVE_ROW_LIMIT, so the sampled path runs
    "verify-sampled": (
        ["verify-channel", "--M", "3", "--J1", "13", "--J2", "13", "--seed", "7"],
        0,
    ),
    # H_2_3 repeats row 0 of H_1_1: pins the failures, their order and labels
    "verify-dup-row": (["verify-channel", "--channel", DUP_ROW], 2),
    # two-antenna receivers, K = 2 common beams
    "gaussian-multiantenna": (
        ["gaussian", "--M", "6", "--N1", "2", "--N2", "2", "--J1", "1", "--J2", "1",
         "--r1", "2", "--r2", "2", "--trials", "3"],
        0,
    ),
    # the confidential streams fill the space: K = 0
    "gaussian-no-common": (["gaussian", "--M", "2", "--J1", "1", "--J2", "1", "--trials", "3"], 0),
    "gaussian-no-confidential": (["gaussian", "--r1", "0", "--r2", "0", "--trials", "3"], 0),
    # 70 trials, two chunks at the old fixed 64 per chunk, on a 9-point grid
    "gaussian-chunked": (
        ["gaussian", "--trials", "70", "--seed", "11",
         "--snr_db_grid", "40,50,60,70,80,90,100,110,120"],
        0,
    ),
}

GOLDEN = {
    "compare": {
        "summary.json": "d09d0c48a830f3faa31c1eba64e0ef72ac78f07c08d93ad2c85c5aa0682e6464",
    },
    "ergodic": {
        "rates.csv": "728311716470d7c746f1e198c31475f05cd6d0fa276017f93b8f98f4d552fd0d",
        "region.json": "3a20ac3a11fb494c2e0f1873557776c50d0ed240b6b02b8ca3f6e8fc247f4ce2",
        "summary.json": "12263240567c2396054013d7ed11e3b30693ce40f573e6dc435e06f682ff098d",
    },
    "ergodic-full1": {
        "rates.csv": "f44ac38b6cdc10771b076c5d08034aae4faef313f62d516c362a995298a28048",
        "region.json": "3a20ac3a11fb494c2e0f1873557776c50d0ed240b6b02b8ca3f6e8fc247f4ce2",
        "summary.json": "0a66231316b3ab86b2107eb4f265d66b576a783258478b0014e60ab28e66303a",
    },
    "ergodic-full2": {
        "rates.csv": "3c5ae3b58f5d6da8582006446efe00393d398e06f7ab718d0a96c2dbbb1a06d0",
        "region.json": "3a20ac3a11fb494c2e0f1873557776c50d0ed240b6b02b8ca3f6e8fc247f4ce2",
        "summary.json": "5206407846312d26ef57cb3e2204653c5db35e0cb86f3d36b5bda0f84caaa35e",
    },
    "ergodic-nine-states": {
        "rates.csv": "ae9ea7089d3c2a9916428b43f10e26ba086556c6656b96cc4a0103aad8dd484d",
        "region.json": "8051cf04f44f506c69593139f07715a4715981642308359c9a9b18bc8d36afa9",
        "summary.json": "aaea2a67c4c861478ad867d68c1f3f30c9b0d90330557586a65400f45585e554",
    },
    "ergodic-split": {
        "rates.csv": "4c03a4f8bae3ba309b1b545e2306f3dffc44d664ce1c4eabe0654a86ab78be2e",
        "region.json": "3a20ac3a11fb494c2e0f1873557776c50d0ed240b6b02b8ca3f6e8fc247f4ce2",
        "summary.json": "1483c78e1b3b277aec356540b8a840f1a6de71c0b78230b7c25cd95754fce2ea",
    },
    "gaussian": {
        "rates.csv": "65e1f909a8722c1d23267a12b0dc31fc5e5000d07b9b1692b0f3e9f1809978f3",
        "region.json": "f0a3197bd72fc3c021f1f6ad01dd3784253ee26bfe4c0a831bf80bc39ea4cfa8",
        "summary.json": "37fa5b8c772e7ef9f5f86d90a66cfb5e19b898de0a4951449c2adafaef0f7549",
    },
    "gaussian-chunked": {
        "rates.csv": "47cff2a71b7b6d46aaa88eabbc8a073cba26b749fd79d6ef866e69e540c6d3f3",
        "region.json": "f0a3197bd72fc3c021f1f6ad01dd3784253ee26bfe4c0a831bf80bc39ea4cfa8",
        "summary.json": "b68e5c6b6658a14d36b9b63243a9b68bfa4c8094bdfe3d663dd162a8d368526c",
    },
    "gaussian-multiantenna": {
        "rates.csv": "94cd5754aaf834805f46e33f45381e8d8832213d09f59cf76c446c9a695cba7f",
        "region.json": "f84d497d39d78daa22bc18376195e577c157da8a7d5aa4c1edbba86de919977a",
        "summary.json": "1a4c3536895da2d4145440d971797919f38e4e6c55924084b206b292127477aa",
    },
    "gaussian-no-common": {
        "rates.csv": "4276054c2db5f1f6e8c9bd178b180ea0d7389663deaa5815d40c3c63782a404d",
        "region.json": "f0a3197bd72fc3c021f1f6ad01dd3784253ee26bfe4c0a831bf80bc39ea4cfa8",
        "summary.json": "410c01a1b65f891b6009a03ac8ba12ea8b8d595d3fabe0a5d4c644c8d016cf99",
    },
    "gaussian-no-confidential": {
        "rates.csv": "2281266f88940ca9094a27ce16c648e143729c353b5ade6935e6c9f9f46f7631",
        "region.json": "f0a3197bd72fc3c021f1f6ad01dd3784253ee26bfe4c0a831bf80bc39ea4cfa8",
        "summary.json": "1a75f6087c317b02e74a74ce3c33a88fc849b0fdc7d7b3da167e229498712e99",
    },
    "region": {
        "region.json": "0d5b40ce42ef4f4ddda0bc8fca59a30358823463ea570d61f9d9e9b3ea5cb788",
        "summary.json": "ae9bca05e8634b8da8c740f072be7a44dc2b508c89d65ee1d88f55c795659b19",
    },
    "verify-dup-row": {
        "summary.json": "20aea03a51a50364172ddd7e00ccbfd98e34f16f0d36fc94ce3406dee5508a28",
    },
    "verify-generated": {
        "summary.json": "37b68ac67ff25c16268856584412fc7ceaf587f3e3ffab9705e6baa338a94e30",
    },
    "verify-sampled": {
        "summary.json": "8ee1d949f1c810f578043cc54fc5065ccf8a09a433d1aed8949fddb1488042f2",
    },
}


def digests(out):
    return {
        name: hashlib.sha256((out / name).read_bytes()).hexdigest()
        for name in sorted(os.listdir(out))
    }


@pytest.mark.parametrize("case", sorted(CASES))
def test_outputs_match_pinned_digests(case, tmp_path):
    argv, code = CASES[case]
    assert main(argv + ["--out", str(tmp_path)]) == code
    assert digests(tmp_path) == GOLDEN[case]


def degenerate_channel():
    """24 rows of M = 4, J1 = J2 = 12, N = 1, with every kind of failure: a
    zero row, a multiple of a row and a combination of the two, and rows
    near underflow and overflow."""
    rng = np.random.default_rng(5)
    rows = (rng.standard_normal((24, 4)) + 1j * rng.standard_normal((24, 4))) / np.sqrt(2.0)
    rows[15] = 2.0 * rows[3]
    rows[22] = rows[3] + 1j * rows[15]
    rows[7] = 0.0
    rows[10] *= 1e-160
    rows[20] *= 1e160
    return CompoundChannelSet(4, 1, 1, 12, 12, tuple(rows[:12, None]), tuple(rows[12:, None]))


def test_degenerate_channel_summary_matches_pinned_digest(tmp_path):
    # 5,118 of the 10,626 subsets fail: pins their order and labels
    path = tmp_path / "channel.json"
    save_channel(degenerate_channel(), path)
    out = tmp_path / "out"
    assert main(["verify-channel", "--channel", str(path), "--out", str(out)]) == 2
    summary = json.loads((out / "summary.json").read_text())
    assert (summary["subsets_checked"], len(summary["failures"])) == (10_626, 5_118)
    assert digests(out) == {
        "summary.json": "74d294a71f6221f5a11b40f91f43fd9d154f676e62a769b1da22ffc065c31516",
    }


def load_bench():
    """bench/run.py as a module: its workloads and pinned digests."""
    spec = importlib.util.spec_from_file_location("bench_run", BENCH_RUN)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


BENCH = load_bench()


@pytest.mark.parametrize("workload", sorted(BENCH.WORKLOADS))
def test_benchmark_outputs_match_bench_golden(workload, tmp_path):
    # the benchmark's own argv at seed 0, checked against bench/golden.json
    with open(BENCH.GOLDEN) as fh:
        pinned = json.load(fh)[workload]["0"]
    assert main(BENCH.WORKLOADS[workload].cli_args(0, tmp_path)) == 0
    assert digests(tmp_path) == pinned
