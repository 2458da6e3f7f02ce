"""End-to-end CLI runs: exit codes, file outputs, byte determinism."""

import dataclasses
import json
import math
import os
import subprocess
import sys
import tempfile
import time
import warnings
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from compound_bcc import channel, cli, ergodic, gaussian, theory
from compound_bcc.channel import (
    ChannelGenSpec,
    CompoundChannelSet,
    generate_batch,
    generate_compound,
    save_channel,
    stacked_sets,
)
from compound_bcc.cli import ExperimentConfig, main
from compound_bcc.errors import ConfigError, ConstructionError, GenerationError
from compound_bcc.gaussian import build_beamformers_batch
from compound_bcc.regions import load_region
from compound_bcc.sdof import DEFAULT_SNR_GRID_DB

GOLDEN = "tests/data/channel_seed1.json"
# --help of the program and of each subcommand at 80 columns, and the
# messages of some usage errors; each subcommand lists only the flags of
# the fields its runner reads
with open(os.path.join(os.path.dirname(__file__), "data", "cli_help.json")) as fh:
    PINNED_PARSER = json.load(fh)


def run(args):
    return main([str(a) for a in args])


def read_json(path):
    with open(path) as fh:
        return json.load(fh)


def set_chunk(monkeypatch, trials):
    """Make gaussian runs take ``trials`` trials per chunk, whatever the rule."""
    monkeypatch.setattr(gaussian, "_trials_per_chunk", lambda *dims: trials)


def count_objects(monkeypatch):
    """The class names of the CompoundChannelSet and BeamformerSet objects
    made from now on, by their constructors or by channel.stacked_sets."""
    made = []
    for cls in (CompoundChannelSet, gaussian.BeamformerSet):
        monkeypatch.setattr(cls, "__init__", lambda self, *a, real=cls.__init__, **k: (
            made.append(type(self).__name__) or real(self, *a, **k)
        ))

    def sets(h, real=channel.stacked_sets):
        made.extend(["CompoundChannelSet"] * len(h[0]))
        return real(h)

    monkeypatch.setattr(channel, "stacked_sets", sets)
    return made


class TestGaussianCommand:
    def test_default_run_passes(self, tmp_path):
        assert run(["gaussian", "--out", tmp_path, "--trials", 2]) == 0
        summary = read_json(tmp_path / "summary.json")
        assert summary["command"] == "gaussian"
        assert summary["passed"] is True
        assert summary["slopes"]["targets"] == [0.0, 1.0, 1.0]
        assert len(summary["slopes"]["per_trial"]) == 2
        assert summary["max_leakage"] <= 1e-8

    def test_csv_shape(self, tmp_path):
        assert run(["gaussian", "--out", tmp_path, "--trials", 3]) == 0
        lines = (tmp_path / "rates.csv").read_text().splitlines()
        assert lines[0] == "snr_db,R0,R1,R2,leakage_max"
        assert len(lines) == 1 + 3 * 3  # trials x grid points, trial-major
        assert lines[1].startswith("60,")
        assert lines[4].startswith("60,")  # second trial restarts the grid

    def test_region_file(self, tmp_path):
        assert run(["gaussian", "--out", tmp_path]) == 0
        region = load_region(tmp_path / "region.json")
        assert region.dimension == 3
        assert (F(0), F(1), F(1)) in region.vertices

    def test_multiantenna_common_slope(self, tmp_path):
        code = run([
            "gaussian", "--out", tmp_path,
            "--M", 4, "--N1", 2, "--N2", 1, "--J1", 1, "--J2", 1,
            "--r1", 1, "--r2", 0,
        ])
        assert code == 0
        summary = read_json(tmp_path / "summary.json")
        assert summary["slopes"]["targets"] == [1.0, 1.0, 0.0]

    def test_multiantenna_slopes_at_high_snr(self, tmp_path):
        # two receive antennas up to 180 dB: the Gram of such a power lost
        # its identity part to rounding; singular values keep every slope
        code = run([
            "gaussian", "--out", tmp_path,
            "--M", 5, "--N1", 2, "--N2", 2, "--J1", 1, "--J2", 1,
            "--r1", 1, "--r2", 1, "--trials", 40, "--snr_db_grid", "140,160,180",
        ])
        assert code == 0
        slopes = read_json(tmp_path / "summary.json")["slopes"]
        assert slopes["targets"] == [1.0, 1.0, 1.0]
        assert np.abs(np.array(slopes["per_trial"]) - 1.0).max() < 1e-12

    def test_infeasible_streams_exit_1(self, tmp_path, capsys):
        code = run(["gaussian", "--out", tmp_path, "--r1", 3])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("chunk", [1, 2, 4, 7])
    def test_trial_chunk_leaves_outputs_unchanged(self, tmp_path, monkeypatch, chunk):
        args = ["gaussian", "--trials", 9, "--seed", 3]
        assert run(args + ["--out", tmp_path / "whole"]) == 0
        set_chunk(monkeypatch, chunk)
        assert run(args + ["--out", tmp_path / "chunked"]) == 0
        for name in ("rates.csv", "region.json", "summary.json"):
            assert (tmp_path / "whole" / name).read_bytes() == (
                tmp_path / "chunked" / name
            ).read_bytes()

    def test_constant_trials_run_as_one_chunk(self, tmp_path, monkeypatch):
        # the benchmark's constant-trials workload: 150 trials of M = 4,
        # N = 1, J = 2 at 3 grid points, drawn by one generate_batch call
        # and one run, built by one build_beamformers_batch call and
        # evaluated by one _equal_power call
        calls, builds, evaluations = [], [], []
        monkeypatch.setattr(gaussian, "generate_batch", lambda dims, seeds: (
            calls.append(len(seeds)) or generate_batch(dims, seeds)
        ))
        monkeypatch.setattr(
            gaussian, "build_beamformers_batch",
            lambda h, *a, real=gaussian.build_beamformers_batch: builds.append(len(h[0])) or real(h, *a),
        )
        monkeypatch.setattr(
            gaussian, "_equal_power",
            lambda ws, grid, real=gaussian._equal_power: evaluations.append(len(ws[0][0])) or real(ws, grid),
        )
        assert run(["gaussian", "--out", tmp_path, "--trials", 150]) == 0
        assert calls == builds == evaluations == [150]

    def test_screened_trials_construct_no_objects(self, tmp_path, monkeypatch):
        # every trial of constant-trials passes the screens: the run holds
        # its chunk as stacks alone, and draws it from its seeds, whose
        # seeding is replayed without a SeedSequence per trial
        made = count_objects(monkeypatch)
        monkeypatch.setattr(ChannelGenSpec, "__post_init__", lambda self, real=ChannelGenSpec.__post_init__: (
            made.append("ChannelGenSpec") or real(self)
        ))
        seeded = []
        monkeypatch.setattr(np.random, "SeedSequence", lambda *a, real=np.random.SeedSequence, **k: (
            seeded.append(a) or real(*a, **k)
        ))
        assert run(["gaussian", "--out", tmp_path, "--trials", 150]) == 0
        assert made == []
        assert len(seeded) <= 2

    @pytest.mark.parametrize("zero", [False, True])
    def test_rates_and_max_leakage_from_the_arrays(self, tmp_path, monkeypatch, zero):
        # chunks of 4 trials evaluate to crafted rates of every magnitude:
        # rates.csv holds each row's floats as formatted one by one, and
        # max_leakage is Python's max over the leakages, 0.0 when all are
        real = gaussian._equal_power
        rng = np.random.default_rng(3)
        made = []

        def crafted(ws, grid):
            rates, fits = real(ws, grid)
            rates = rng.standard_normal(rates.shape) * 10.0 ** rng.integers(-300, 300, rates.shape)
            rates[..., 3] = 0.0 if zero else np.abs(rates[..., 3])
            made.append(rates)
            return rates, fits

        set_chunk(monkeypatch, 4)
        monkeypatch.setattr(gaussian, "_equal_power", crafted)
        assert run(["gaussian", "--out", tmp_path, "--trials", 10]) == 0
        assert [len(r) for r in made] == [4, 4, 2]
        rows = [(snr, *r) for rates in made for trial in rates.tolist() for snr, r in zip(DEFAULT_SNR_GRID_DB, trial)]
        assert (tmp_path / "rates.csv").read_text() == "snr_db,R0,R1,R2,leakage_max\n" + "".join(
            "%.12g,%.12g,%.12g,%.12g,%.12g\n" % row for row in rows
        )
        leakage = read_json(tmp_path / "summary.json")["max_leakage"]
        assert leakage == max(row[4] for row in rows)
        assert math.copysign(1.0, leakage) == 1.0 and (leakage == 0.0) == zero

    def test_no_confidential_streams_leak_nothing(self, tmp_path):
        assert run(["gaussian", "--out", tmp_path, "--trials", 3, "--r1", 0, "--r2", 0]) == 0
        assert '"max_leakage": 0.0,' in (tmp_path / "summary.json").read_text()
        lines = (tmp_path / "rates.csv").read_text().splitlines()[1:]
        assert len(lines) == 9 and all(line.endswith(",0") for line in lines)

    def test_rebuilt_trials_in_a_chunk_leave_outputs_unchanged(self, tmp_path, monkeypatch):
        # trials 3 and 6 of the chunk of 9 are reported off the null-space
        # ranks of every stack of more than one: each ends a run, then is
        # built as a one-trial stack at the head of the next call, and the
        # trials after it are built again; every trial keeps its per-trial
        # products. A stack of n holds the chunk's last n trials.
        args = ["gaussian", "--trials", 9, "--seed", 5, "--M", 5, "--N1", 2, "--r1", 2]
        set_chunk(monkeypatch, 1)
        assert run(args + ["--out", tmp_path / "one"]) == 0
        real = gaussian.null_spaces

        def dropping(a):
            bases, at_rank = real(a)
            if len(a) > 1:
                at_rank[[t - 9 + len(a) for t in (3, 6) if t >= 9 - len(a)]] = False
            return bases, at_rank

        stacks = []
        set_chunk(monkeypatch, 64)
        monkeypatch.setattr(gaussian, "null_spaces", dropping)
        monkeypatch.setattr(
            gaussian, "build_beamformers_batch",
            lambda h, *a, real=gaussian.build_beamformers_batch: stacks.append(len(h[0])) or real(h, *a),
        )
        made = count_objects(monkeypatch)
        assert run(args + ["--out", tmp_path / "mixed"]) == 0
        assert stacks == [9, 6, 1, 5, 3, 1, 2]
        # no trial constructs a channel set or a beamformer set
        assert made == []
        for name in ("rates.csv", "region.json", "summary.json"):
            assert (tmp_path / "one" / name).read_bytes() == (
                tmp_path / "mixed" / name
            ).read_bytes()

    @pytest.mark.parametrize("chunk", [2, 64])
    @pytest.mark.parametrize("failing_seed, grid, message", [
        (3, "60,80,100", "draw 3 failed"),
        # trial 0's evaluation rejects the grid before trial 3 is drawn
        (3, "30,60,90", "at least 40 dB"),
        (0, "30,60,90", "draw 0 failed"),
    ])
    def test_failing_trial_raises_in_trial_order(
        self, tmp_path, monkeypatch, capsys, chunk, failing_seed, grid, message
    ):
        def generate(dims, seeds):
            h, error = generate_batch(dims, seeds)
            for i, seed in enumerate(seeds[:len(h[0])]):
                if seed == failing_seed:
                    return tuple(x[:i] for x in h), GenerationError(f"draw {seed} failed")
            return h, error

        set_chunk(monkeypatch, chunk)
        monkeypatch.setattr(gaussian, "generate_batch", generate)
        assert run(["gaussian", "--out", tmp_path, "--trials", 5, "--snr_db_grid", grid]) == 1
        assert message in capsys.readouterr().err


    @pytest.mark.parametrize("chunk", [2, 64])
    @pytest.mark.parametrize("failing_trial, grid, message", [
        (3, "60,80,100", "build 3 failed"),
        # trial 0's evaluation rejects the grid before trial 3's error is raised
        (3, "30,60,90", "at least 40 dB"),
        (0, "30,60,90", "build 0 failed"),
    ])
    def test_failing_build_raises_in_trial_order(
        self, tmp_path, monkeypatch, capsys, chunk, failing_trial, grid, message
    ):
        failing = generate_compound(ChannelGenSpec(4, 1, 1, 2, 2, seed=failing_trial))

        def generate(dims, seeds):
            # trial 4's draw fails as well, after the failing build
            h, error = generate_batch(dims, seeds)
            for i, seed in enumerate(seeds[:len(h[0])]):
                if seed == 4:
                    return tuple(x[:i] for x in h), GenerationError("draw 4 failed")
            return h, error

        def build(h, r1, r2):
            v, ws, error = build_beamformers_batch(h, r1, r2)
            for i, ch in enumerate(stacked_sets(h)):
                if ch.stacked_rows().tobytes() == failing.stacked_rows().tobytes():
                    error = ConstructionError(f"build {failing_trial} failed")
                    return tuple(x[:i] for x in v), [[w[:i] for w in wk] for wk in ws], error
            return v, ws, error

        set_chunk(monkeypatch, chunk)
        monkeypatch.setattr(gaussian, "generate_batch", generate)
        monkeypatch.setattr(gaussian, "build_beamformers_batch", build)
        assert run(["gaussian", "--out", tmp_path, "--trials", 5, "--snr_db_grid", grid]) == 1
        assert message in capsys.readouterr().err


FLOATS = st.floats() | st.sampled_from([0.0, -0.0, 1e-300, 0.1 + 0.2, 2.0**53 + 1])


@settings(max_examples=60, deadline=None)
@given(rows=st.one_of(
    # ergodic rows, with their policy column, and gaussian rows
    st.lists(st.tuples(FLOATS, st.sampled_from(["full1", "split"]), FLOATS, FLOATS, FLOATS), min_size=1, max_size=6),
    st.lists(st.tuples(*[FLOATS] * 5), min_size=1, max_size=6),
))
def test_csv_rows_format_as_one_by_one(rows):
    # one format pass over every row writes what one format per row did
    fmt = ",".join("%.12g" if isinstance(v, float) else "%s" for v in rows[0]) + "\n"
    with tempfile.TemporaryDirectory() as out:
        path = os.path.join(out, "rates.csv")
        cli._write_csv(path, ("a", "b", "c", "d", "e"), rows)
        with open(path) as fh:
            assert fh.read() == "a,b,c,d,e\n" + "".join(fmt % row for row in rows)


class TestErgodicCommand:
    def test_leakage_free_run(self, tmp_path):
        code = run([
            "ergodic", "--out", tmp_path,
            "--M", 4, "--J1", 2, "--J2", 2, "--blocks", 2000,
        ])
        assert code == 0
        summary = read_json(tmp_path / "summary.json")
        assert summary["slopes"]["targets"] == [1.0, 1.0]
        assert summary["passed"] is True
        assert summary["leak_violation_freq"] == [0.0, 0.0, 0.0]
        assert "symmetric_point" not in summary

    def test_csv_header_and_policy_column(self, tmp_path):
        run(["ergodic", "--out", tmp_path, "--blocks", 500, "--power_policy", "full1"])
        lines = (tmp_path / "rates.csv").read_text().splitlines()
        assert lines[0] == "snr_db,policy,R1m,R2m,leak_violation_freq"
        assert all(line.split(",")[1] == "full1" for line in lines[1:])

    def test_leaky_regime_summary(self, tmp_path):
        code = run([
            "ergodic", "--out", tmp_path,
            "--M", 7, "--J1", 8, "--J2", 8,
            "--blocks", 1000, "--common_state_count", 2,
        ])
        assert code == 0
        summary = read_json(tmp_path / "summary.json")
        assert summary["symmetric_point"] == {
            "margin": [1, 8],
            "improves_time_sharing": True,
        }
        assert summary["slopes"]["targets"] == [0.5, 0.5]

    @pytest.mark.parametrize("p1_frac, targets", [(0.25, [1.0, 1.0]), (0, [0.0, 1.0])])
    def test_split_policy_is_gated(self, tmp_path, p1_frac, targets):
        # equal's pair inside (0, 1), full2's at 0 and full1's at 1
        code = run([
            "ergodic", "--out", tmp_path, "--blocks", 500,
            "--power_policy", "split", "--p1_frac", p1_frac,
        ])
        assert code == 0
        summary = read_json(tmp_path / "summary.json")
        assert summary["slopes"]["targets"] == targets
        assert summary["passed"] is True

    def test_split_policy_off_its_targets_fails(self, tmp_path, monkeypatch):
        monkeypatch.setattr(theory, "policy_slope_targets", lambda *args: (0, 0))
        code = run(["ergodic", "--out", tmp_path, "--blocks", 500,
                    "--power_policy", "split", "--p1_frac", 0.25])
        assert code == 2
        assert read_json(tmp_path / "summary.json")["passed"] is False

    @pytest.mark.parametrize("message, line", [
        ("Unable to allocate 386. KiB for an array with shape (6, 8240) and data type float64",
         "Unable to allocate 386. KiB for an array with shape (6, 8240) and data type float64"),
        ("", "out of memory"),
    ])
    def test_unallocatable_pass_is_an_error_line(self, tmp_path, monkeypatch, capsys, message, line):
        # a sampling pass whose block sums cannot be allocated ends the run
        # with exit 1 and one error line, as under a tight RLIMIT_AS
        def unallocatable(self, *args):
            raise MemoryError(message)

        monkeypatch.setattr(ergodic._PairwiseSums, "sum", unallocatable)
        assert run(["ergodic", "--out", tmp_path, "--blocks", 500]) == 1
        err = capsys.readouterr().err
        assert err == f"error: {line}\n" and "Traceback" not in err


class TestCompareCommand:
    def test_strict_improvement(self, tmp_path):
        code = run(["compare", "--out", tmp_path, "--M", 7, "--J1", 8, "--J2", 8])
        assert code == 0
        summary = read_json(tmp_path / "summary.json")
        assert summary["ergodic_covers_gaussian"] is True
        assert summary["gaussian_covers_ergodic"] is False
        assert summary["ergodic_strictly_larger"] is True
        assert [[1, 2], [1, 2]] in summary["witness_points"]

    def test_equal_regions(self, tmp_path):
        code = run(["compare", "--out", tmp_path, "--M", 4, "--J1", 2, "--J2", 2])
        assert code == 0
        summary = read_json(tmp_path / "summary.json")
        assert summary["ergodic_strictly_larger"] is False
        assert summary["witness_points"] == []


class TestVerifyChannelCommand:
    def test_generated_channel_passes(self, tmp_path):
        assert run(["verify-channel", "--out", tmp_path, "--seed", 3]) == 0
        summary = read_json(tmp_path / "summary.json")
        assert summary["passed"] is True
        assert summary["exhaustive"] is True
        assert summary["source"] == {"generated": True, "seed": 3}

    def test_golden_fixture_passes(self, tmp_path):
        assert run(["verify-channel", "--out", tmp_path, "--channel", GOLDEN]) == 0
        summary = read_json(tmp_path / "summary.json")
        assert summary["dimensions"] == {"M": 3, "N1": 2, "N2": 1, "J1": 2, "J2": 3}
        assert summary["source"] == {"channel_file": "channel_seed1.json"}

    def test_degenerate_channel_exits_2(self, tmp_path, capsys):
        dup = np.array([[1.0 + 0j, 0.0]])
        ch = CompoundChannelSet(M=2, N1=1, N2=1, J1=1, J2=1, h1=(dup,), h2=(dup.copy(),))
        bad = tmp_path / "bad_channel.json"
        save_channel(ch, bad)
        code = run(["verify-channel", "--out", tmp_path, "--channel", bad])
        assert code == 2
        summary = read_json(tmp_path / "summary.json")
        assert summary["passed"] is False
        assert summary["failures"] == [["H_1_1[0]", "H_2_1[0]"]]
        assert "tolerance check failed" in capsys.readouterr().err

    def test_corrupt_file_exits_1(self, tmp_path, capsys):
        bad = tmp_path / "corrupt.json"
        bad.write_text('{"M": 2,,}')
        assert run(["verify-channel", "--out", tmp_path, "--channel", bad]) == 1
        assert "error:" in capsys.readouterr().err


class TestRegionCommand:
    def test_gaussian_region(self, tmp_path):
        code = run(["region", "--out", tmp_path, "--model", "gaussian"])
        assert code == 0
        region = load_region(tmp_path / "region.json")
        assert region.dimension == 3

    def test_ergodic_region_with_margin(self, tmp_path):
        code = run([
            "region", "--out", tmp_path, "--model", "ergodic",
            "--M", 2, "--J1", 4, "--J2", 4,
        ])
        assert code == 0
        summary = read_json(tmp_path / "summary.json")
        assert summary["symmetric_point"] == {
            "margin": [-5, 8],
            "improves_time_sharing": False,
        }
        got = {tuple(map(tuple, v)) for v in summary["region_vertices"]}
        assert got == {((0, 1), (0, 1)), ((1, 4), (0, 1)), ((0, 1), (1, 4))}


    @pytest.mark.parametrize("field", ["N1", "N2"])
    def test_ergodic_region_requires_single_antenna(self, tmp_path, capsys, field):
        out = tmp_path / "out"
        assert run(["region", "--model", "ergodic", f"--{field}", 2, "--out", out]) == 1
        got = {"N1": 1, "N2": 1, field: 2}
        assert capsys.readouterr().err == (
            "error: region --model ergodic requires single-antenna receivers "
            f"(N1 = N2 = 1); got N1={got['N1']}, N2={got['N2']}\n"
        )
        assert os.listdir(out) == []


# The config fields each subcommand's runner reads. A subcommand takes a flag
# and a config file field for each of them, besides --config and --out (and
# verify-channel's --channel), and rejects every other.
TAKES = {
    "gaussian": "M N1 N2 J1 J2 r1 r2 trials seed snr_db_grid",
    "ergodic": "M J1 J2 blocks common_state_count seed snr_db_grid power_policy p1_frac",
    "compare": "M J1 J2",
    "verify-channel": "M N1 N2 J1 J2 seed",
    "region": "M N1 N2 J1 J2 model",
}
# a valid value of every field, as a config file gives it
VALUES = {
    "M": 3, "N1": 1, "N2": 1, "J1": 2, "J2": 1, "r1": 0, "r2": 1, "trials": 2, "seed": 5,
    "snr_db_grid": [60, 80, 100], "blocks": 300, "common_state_count": 2,
    "power_policy": "split", "p1_frac": 0.5, "model": "ergodic",
}
FIELDS = [f.name for f in dataclasses.fields(ExperimentConfig)]


def flag_args(fields):
    """The flags that set ``fields`` to their VALUES."""
    return [arg for name in fields for arg in (
        f"--{name}", ",".join(map(str, VALUES[name])) if name == "snr_db_grid" else VALUES[name]
    )]


class TestFlagsPerCommand:
    def test_each_parser_takes_its_row(self):
        sub = next(a for a in cli.make_parser()._actions if a.dest == "command")
        assert list(sub.choices) == list(TAKES)
        flags = {}
        for command, parser in sub.choices.items():
            flags[command] = [o for a in parser._actions for o in a.option_strings
                               if o not in ("-h", "--help")]
            extra = ["--channel"] if command == "verify-channel" else []
            assert sorted(flags[command]) == sorted(
                ["--config", "--out", *(f"--{f}" for f in TAKES[command].split()), *extra]
            )
        assert sum(map(len, flags.values())) == 45
        assert sum(len(row.split()) for row in TAKES.values()) == 34

    @pytest.mark.parametrize("command", TAKES)
    def test_row_is_taken_by_flags_and_by_file_alike(self, tmp_path, command):
        fields = TAKES[command].split()
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({name: VALUES[name] for name in fields}))
        assert run([command, "--out", tmp_path / "flag", *flag_args(fields)]) == 0
        assert run([command, "--out", tmp_path / "file", "--config", cfg]) == 0
        names = sorted(os.listdir(tmp_path / "flag"))
        assert names == sorted(os.listdir(tmp_path / "file"))
        for name in names:
            assert (tmp_path / "flag" / name).read_bytes() == (tmp_path / "file" / name).read_bytes()
        summary = read_json(tmp_path / "flag" / "summary.json")
        if command == "verify-channel":
            assert summary["source"]["seed"] == VALUES["seed"]
        else:
            # every field is still written, the ones not taken at their defaults
            assert list(summary["config"]) == sorted(FIELDS)
            assert {k: summary["config"][k] for k in fields} == {k: VALUES[k] for k in fields}

    @pytest.mark.parametrize("command, field", [
        (command, field) for command, row in TAKES.items() for field in FIELDS
        if field not in row.split()
    ])
    def test_every_other_field_is_rejected(self, tmp_path, capsys, command, field):
        out = tmp_path / "out"
        assert run([command, "--out", out, *flag_args([field])]) == 1
        value = flag_args([field])[1]
        assert capsys.readouterr().err == f"error: unrecognized arguments: --{field} {value}\n"
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({field: VALUES[field]}))
        assert run([command, "--out", out, "--config", cfg]) == 1
        assert capsys.readouterr().err == (
            f"error: unknown config fields for {command}: [{field!r}]\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize("argv, message", [
        ("gaussian --blocks 7 --power_policy full1 --p1_frac 0.1 --common_state_count 9",
         "unrecognized arguments: --blocks 7 --power_policy full1 --p1_frac 0.1 "
         "--common_state_count 9"),
        ("ergodic --trials 999 --r1 3 --r2 3", "unrecognized arguments: --trials 999 --r1 3 --r2 3"),
        ("ergodic --power_policy equal --p1_frac 0.1",
         "p1_frac is for power_policy 'split' only; got 'equal'"),
        ("ergodic --p1_frac 0.1", "p1_frac is for power_policy 'split' only; got 'equal'"),
        ("verify-channel --trials 5 --snr_db_grid 1,2,3 --power_policy split",
         "unrecognized arguments: --trials 5 --snr_db_grid 1,2,3 --power_policy split"),
        ("compare --trials 3 --seed 9 --blocks 4",
         "unrecognized arguments: --trials 3 --seed 9 --blocks 4"),
        ("region --model ergodic --r1 9", "unrecognized arguments: --r1 9"),
        (f"verify-channel --channel {GOLDEN} --M 9 --J1 40 --seed 4",
         "verify-channel --channel takes no dimension or seed: the file fixes the channel; "
         "got J1, M, seed"),
    ])
    def test_flags_that_were_ignored_are_errors(self, tmp_path, capsys, argv, message):
        out = tmp_path / "out"
        assert run([*argv.split(), "--out", out]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("command, fields", [
        ("ergodic", {"p1_frac": 0.5}),
        ("ergodic", {"p1_frac": 0.5, "power_policy": "full2"}),
        ("verify-channel", {"seed": 1}),
    ])
    def test_file_fields_that_were_ignored_are_errors(self, tmp_path, capsys, command, fields):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(fields))
        extra = ["--channel", GOLDEN] if command == "verify-channel" else []
        assert run([command, "--out", tmp_path, "--config", cfg, *extra]) == 1
        assert capsys.readouterr().err.startswith(
            "error: verify-channel --channel takes no dimension" if extra
            else "error: p1_frac is for power_policy 'split' only"
        )


class TestConfigHandling:
    def test_integer_p1_frac_from_file_writes_the_flag_bytes(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"p1_frac": 1, "power_policy": "split"}')
        assert run(["ergodic", "--out", tmp_path / "file", "--config", cfg, "--blocks", 300]) == 0
        assert run(["ergodic", "--out", tmp_path / "flag", "--p1_frac", 1,
                    "--power_policy", "split", "--blocks", 300]) == 0
        names = sorted(p.name for p in (tmp_path / "flag").iterdir())
        assert names == sorted(p.name for p in (tmp_path / "file").iterdir())
        for name in names:
            assert (tmp_path / "file" / name).read_bytes() == (tmp_path / "flag" / name).read_bytes()
        assert read_json(tmp_path / "file" / "summary.json")["config"]["p1_frac"] == 1.0

    def test_config_file_overrides_defaults(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"seed": 5, "J2": 3, "M": 5}))
        assert run(["gaussian", "--out", tmp_path, "--config", cfg]) == 0
        summary = read_json(tmp_path / "summary.json")
        assert summary["config"]["seed"] == 5
        assert summary["config"]["J2"] == 3

    def test_flags_override_config_file(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"seed": 5, "M": 5, "J2": 3}))
        assert run(["gaussian", "--out", tmp_path, "--config", cfg, "--seed", 9]) == 0
        summary = read_json(tmp_path / "summary.json")
        assert summary["config"]["seed"] == 9
        assert summary["config"]["M"] == 5

    def test_unknown_config_field(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"power": 3}))
        assert run(["gaussian", "--out", tmp_path, "--config", cfg]) == 1
        assert "unknown config fields" in capsys.readouterr().err

    def test_missing_config_file(self, tmp_path, capsys):
        assert run(["gaussian", "--out", tmp_path, "--config", tmp_path / "no.json"]) == 1

    def test_grid_flag_parsing(self, tmp_path):
        code = run(["gaussian", "--out", tmp_path, "--snr_db_grid", "60,80,100,120"])
        assert code == 0
        summary = read_json(tmp_path / "summary.json")
        assert summary["config"]["snr_db_grid"] == [60.0, 80.0, 100.0, 120.0]

    def test_bad_grid_text(self, tmp_path, capsys):
        assert run(["gaussian", "--out", tmp_path, "--snr_db_grid", "60,abc"]) == 1

    def test_decreasing_grid_rejected(self, tmp_path):
        assert run(["gaussian", "--out", tmp_path, "--snr_db_grid", "100,80,60"]) == 1

    @pytest.mark.parametrize("command", ["gaussian", "ergodic"])
    def test_overflowing_grid_point_named(self, tmp_path, capsys, command):
        # 10^(4000/10) overflows a float: a grid error, without a warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = run([command, "--out", tmp_path, "--snr_db_grid", "60,80,4000"]
                       + (["--blocks", 100] if command == "ergodic" else []))
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: snr_db_grid point 4000 dB")

    def test_overflowing_covariances_name_the_grid_point(self, tmp_path, capsys):
        # 10^308 is a finite power, but s^2 = p ||h v||^2 of some of the 150
        # trials' one-antenna log-dets overflows there
        code = run(["gaussian", "--out", tmp_path, "--M", 4, "--J1", 2, "--J2", 2,
                    "--trials", 150, "--snr_db_grid", "600,1200,3080"])
        assert code == 1
        assert capsys.readouterr().err == (
            "error: snr_db_grid point 3080 dB: the received covariances overflow a float\n"
        )

    @pytest.mark.parametrize("trials, top", [(3, "3080"), (1, "3082")])
    def test_covariances_below_the_float_limit_are_evaluated(self, tmp_path, capsys, trials, top):
        # every s^2 is finite, though some exceed half the float limit, where
        # the doubling in an explicitly Hermitian Gram (g + g^H) / 2
        # overflowed: the run is evaluated, and this grid fails the gate
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = run(["gaussian", "--out", tmp_path, "--M", 4, "--J1", 2, "--J2", 2,
                        "--trials", trials, "--snr_db_grid", f"600,1200,{top}"])
        assert code == 2
        assert capsys.readouterr().err == "tolerance check failed; see summary.json\n"
        assert sorted(os.listdir(tmp_path)) == ["rates.csv", "region.json", "summary.json"]

    @pytest.mark.parametrize("argv, message", [
        # 10^308 is a finite power, but p |phi|^2 overflows in the block rates
        (["ergodic", "--M", 7, "--J1", 8, "--J2", 8, "--blocks", 100,
          "--snr_db_grid", "60,3000,3082"],
         "snr_db_grid point 3082 dB: the block rates overflow a float"),
        # multi-antenna log-dets from singular values: finite at 3000 dB,
        # where a Cholesky factor of the Gram lost its identity part to
        # rounding, and overflowing only where s^2 does
        (["gaussian", "--M", 5, "--N1", 3, "--N2", 1, "--J1", 1, "--J2", 2,
          "--r1", 1, "--r2", 1, "--trials", 3, "--snr_db_grid", "60,3000,3082"],
         "snr_db_grid point 3082 dB: the received covariances overflow a float"),
        (["gaussian", "--M", 6, "--N1", 3, "--N2", 2, "--J1", 1, "--J2", 1,
          "--r1", 1, "--r2", 1, "--trials", 3, "--snr_db_grid", "60,3000,3080.5"],
         "snr_db_grid point 3080.5 dB: the received covariances overflow a float"),
    ])
    def test_rates_failing_near_the_float_limit_name_the_grid_point(
        self, tmp_path, capsys, argv, message
    ):
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = run([*argv, "--out", out])
        assert code == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert os.listdir(out) == []

    @pytest.mark.parametrize("blocks", [2**64, 2**64 + 1, 10**30])
    def test_horizon_beyond_the_counter_word_is_a_typed_error(self, tmp_path, capsys, blocks):
        # a block's index fills one 64-bit word of the Philox counter
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = run(["ergodic", "--blocks", blocks, "--out", out])
        assert code == 1
        assert capsys.readouterr().err == (
            "error: blocks must be below 2^64, the range of the counter word that "
            f"holds a block's index; got block_count={blocks}\n"
        )
        assert os.listdir(out) == []

    @pytest.mark.parametrize("field", ["r1", "r2"])
    @pytest.mark.parametrize("value", [10**30, 2**63])
    def test_oversized_stream_count_is_a_typed_error(self, tmp_path, capsys, field, value):
        # no beam stack is as wide as the stream count: the feasibility check
        # is the first of the stacked build
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = run(["gaussian", f"--{field}", value, "--trials", 3, "--out", out])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {field} = {value} violates {field} <= min(N_k, M - ")
        assert "Traceback" not in err
        assert os.listdir(out) == []

    @pytest.mark.parametrize("command, field", [
        (command, field)
        for command in ("gaussian", "ergodic", "verify-channel")
        for field in ("M", "J1", "J2", "N1", "N2")
        if command != "ergodic" or field not in ("N1", "N2")
    ])
    def test_oversized_dimension_is_a_typed_error(self, tmp_path, capsys, command, field):
        # no array has a dimension of 10^30: the draws' allocation fails at once
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = run([command, f"--{field}", 10**30, "--out", out])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: channel dimensions M=") and "cannot allocate" in err
        assert f"{field}={10**30}" in err and "Traceback" not in err
        assert os.listdir(out) == []

    @pytest.mark.skipif(
        not os.path.exists("/proc/self/status"), reason="reads VmSize from /proc"
    )
    def test_huge_constant_model_is_a_typed_error_at_once(self, tmp_path):
        # 2 * 10^8 stacked rows: the chunk rule takes the sampled check's
        # subset count instead of C(rows, M), so the draws' allocation check
        # is reached at once, in a child that caps its address space 512 MB
        # above its size
        script = f"""
import resource, sys
from compound_bcc.cli import main
with open("/proc/self/status") as fh:
    size = next(int(line.split()[1]) for line in fh if line.startswith("VmSize:"))
hard = resource.getrlimit(resource.RLIMIT_AS)[1]
resource.setrlimit(resource.RLIMIT_AS, (size * 1024 + (512 << 20), hard))
sys.exit(main(["gaussian", "--M", "100000000", "--J1", "100000000", "--J2", "100000000",
               "--r1", "0", "--r2", "0", "--out", {str(tmp_path / "out")!r}]))
"""
        src = os.path.dirname(os.path.dirname(cli.__file__))
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-c", script],
            env=dict(os.environ, PYTHONPATH=src),
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert time.perf_counter() - start < 10
        assert proc.returncode == 1
        assert proc.stderr.startswith(
            "error: channel dimensions M=100000000, N1=1, N2=1, J1=100000000, "
            "J2=100000000: cannot allocate"
        )
        assert os.listdir(tmp_path / "out") == []

    @pytest.mark.skipif(
        not os.path.exists("/proc/self/status"), reason="reads VmSize from /proc"
    )
    def test_long_horizon_runs_in_a_few_megabytes(self, tmp_path):
        # A run holds one sampling pass at a time, whatever its horizon: after
        # a warm-up run, 4M blocks complete in a child that caps its own
        # address space 4 MB above its size. Each gather of 4M block rates
        # would need 32 MB.
        script = f"""
import resource, sys
from compound_bcc.cli import main
assert main(["ergodic", "--blocks", "200", "--out", {str(tmp_path / "warm")!r}]) == 0
with open("/proc/self/status") as fh:
    size = next(int(line.split()[1]) for line in fh if line.startswith("VmSize:"))
hard = resource.getrlimit(resource.RLIMIT_AS)[1]
resource.setrlimit(resource.RLIMIT_AS, (size * 1024 + (4 << 20), hard))
sys.exit(main(["ergodic", "--blocks", "4000000", "--out", {str(tmp_path / "out")!r}]))
"""
        src = os.path.dirname(os.path.dirname(cli.__file__))
        proc = subprocess.run(
            [sys.executable, "-c", script],
            env=dict(os.environ, PYTHONPATH=src),
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert (proc.returncode, proc.stderr) == (0, "")
        assert sorted(os.listdir(tmp_path / "out")) == ["rates.csv", "region.json", "summary.json"]

    @pytest.mark.skipif(
        not os.path.exists("/proc/self/status"), reason="reads VmSize from /proc"
    )
    @pytest.mark.parametrize("count", [10**30, 2**63, 10**11])
    def test_unallocatable_common_states_are_a_typed_error_at_once(self, tmp_path, count):
        # the state stacks are checked before the per-state seeds are listed,
        # in a child that caps its address space 512 MB above its size
        script = f"""
import resource, sys
from compound_bcc.cli import main
with open("/proc/self/status") as fh:
    size = next(int(line.split()[1]) for line in fh if line.startswith("VmSize:"))
hard = resource.getrlimit(resource.RLIMIT_AS)[1]
resource.setrlimit(resource.RLIMIT_AS, (size * 1024 + (512 << 20), hard))
sys.exit(main(["ergodic", "--common_state_count", "{count}",
               "--out", {str(tmp_path / "out")!r}]))
"""
        src = os.path.dirname(os.path.dirname(cli.__file__))
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-c", script],
            env=dict(os.environ, PYTHONPATH=src),
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert time.perf_counter() - start < 10
        assert proc.returncode == 1
        assert proc.stderr == (
            f"error: channel dimensions M=4, J1=2, J2=2: cannot allocate {16 * count * 4 * 4} "
            f"bytes of state stacks for common_state_count={count}\n"
        )
        assert os.listdir(tmp_path / "out") == []

    @pytest.mark.skipif(
        not os.path.exists("/proc/self/status"), reason="reads VmSize from /proc"
    )
    @pytest.mark.parametrize("args, factors", [
        # one null space of 2 x 10^4: 5.96 GiB
        (["gaussian", "--M", "20000", "--J1", "1", "--J2", "1", "--trials", "1"], (1, 20000)),
        # 14.6 TiB
        (["gaussian", "--M", "1000000", "--trials", "1"], (1, 1000000)),
        # one per common state: 596 GiB
        (["ergodic", "--M", "100000", "--J1", "1", "--J2", "1", "--blocks", "10"], (4, 100000)),
    ])
    def test_unallocatable_null_spaces_are_a_typed_error(self, tmp_path, args, factors):
        # the full SVD behind each null space holds M^2 complex entries per
        # matrix, which a child that caps its address space 1 GiB above its
        # size cannot allocate
        script = f"""
import resource, sys
from compound_bcc.cli import main
with open("/proc/self/status") as fh:
    size = next(int(line.split()[1]) for line in fh if line.startswith("VmSize:"))
hard = resource.getrlimit(resource.RLIMIT_AS)[1]
resource.setrlimit(resource.RLIMIT_AS, (size * 1024 + (1 << 30), hard))
sys.exit(main({args + ["--out", str(tmp_path / "out")]!r}))
"""
        src = os.path.dirname(os.path.dirname(cli.__file__))
        proc = subprocess.run(
            [sys.executable, "-c", script],
            env=dict(os.environ, PYTHONPATH=src),
            capture_output=True,
            text=True,
            timeout=60,
        )
        count, M = factors
        assert proc.returncode == 1
        assert proc.stderr == (
            f"error: null space of M={M} columns: cannot allocate {16 * count * M * M} "
            f"bytes of SVD right factors ({count} x {M} x {M})\n"
        )
        assert os.listdir(tmp_path / "out") == []

    def test_unknown_flag(self, tmp_path):
        assert run(["gaussian", "--out", tmp_path, "--bogus", 1]) == 1

    def test_missing_subcommand(self):
        assert run([]) == 1

    def test_validation_catches_bad_m(self, tmp_path):
        assert run(["gaussian", "--out", tmp_path, "--M", 0]) == 1

    @pytest.mark.parametrize("text, field", [
        ('{"M": true}', "M"),
        ('{"trials": false}', "trials"),
        ('{"r1": true}', "r1"),
        ('{"seed": -1}', "seed"),
        ('{"p1_frac": "x"}', "p1_frac"),
        ('{"p1_frac": NaN}', "p1_frac"),
        ('{"snr_db_grid": ["a"]}', "snr_db_grid"),
        ('{"snr_db_grid": [60, 80, NaN]}', "snr_db_grid"),
        ('{"snr_db_grid": [60, 80, Infinity]}', "snr_db_grid"),
        ('{"snr_db_grid": [60, true]}', "snr_db_grid"),
    ])
    def test_bad_config_value_named(self, tmp_path, capsys, text, field):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(text)
        assert run(["gaussian", "--out", tmp_path, "--config", cfg]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and field in err

    def test_out_dir_created(self, tmp_path):
        nested = tmp_path / "a" / "b"
        assert run(["region", "--out", nested, "--model", "gaussian"]) == 0
        assert (nested / "summary.json").exists()

    def test_validate_direct(self):
        with pytest.raises(ConfigError, match="power_policy"):
            ExperimentConfig(power_policy="max").validate()
        with pytest.raises(ConfigError, match="p1_frac"):
            ExperimentConfig(p1_frac=1.5).validate()


class TestDeterminism:
    def test_gaussian_outputs_byte_identical(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert run(["gaussian", "--out", out, "--trials", 2, "--seed", 4]) == 0
        for name in ("rates.csv", "region.json", "summary.json"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_ergodic_outputs_byte_identical(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        args = ["--M", 4, "--J1", 2, "--J2", 8, "--blocks", 1500, "--seed", 2]
        for out in (a, b):
            assert run(["ergodic", "--out", out] + args) == 0
        for name in ("rates.csv", "region.json", "summary.json"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_seed_changes_gaussian_rates(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert run(["gaussian", "--out", a, "--seed", 0]) == 0
        assert run(["gaussian", "--out", b, "--seed", 1]) == 0
        assert (a / "rates.csv").read_bytes() != (b / "rates.csv").read_bytes()


class TestParserText:
    @pytest.mark.parametrize("command", sorted(PINNED_PARSER["help"]))
    def test_help_text_is_pinned(self, monkeypatch, capsys, command):
        monkeypatch.setenv("COLUMNS", "80")
        argv = [] if command == "compound-bcc" else [command]
        with pytest.raises(SystemExit) as exc:
            cli.make_parser().parse_args(argv + ["--help"])
        assert exc.value.code == 0
        assert capsys.readouterr().out == PINNED_PARSER["help"][command]

    @pytest.mark.parametrize("argv", sorted(PINNED_PARSER["errors"]))
    def test_usage_error_is_pinned(self, capsys, argv):
        assert main(argv.split()) == 1
        assert capsys.readouterr().err == f"error: {PINNED_PARSER['errors'][argv]}\n"
