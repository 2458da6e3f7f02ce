"""End-to-end CLI runs: exit codes, file outputs, byte determinism."""

import json
import os
import warnings
from fractions import Fraction as F

import numpy as np
import pytest

from compound_bcc import cli
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
from compound_bcc import gaussian
from compound_bcc.gaussian import build_beamformers_batch
from compound_bcc.regions import load_region

GOLDEN = "tests/data/channel_seed1.json"
# --help of the program and of each subcommand at 80 columns, and the
# messages of some usage errors, as the parser printed them before its
# common flags moved to a shared parent parser
with open(os.path.join(os.path.dirname(__file__), "data", "cli_help.json")) as fh:
    PINNED_PARSER = json.load(fh)


def run(args):
    return main([str(a) for a in args])


def read_json(path):
    with open(path) as fh:
        return json.load(fh)


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

    def test_infeasible_streams_exit_1(self, tmp_path, capsys):
        code = run(["gaussian", "--out", tmp_path, "--r1", 3])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("chunk", [1, 2, 4, 7])
    def test_trial_chunk_leaves_outputs_unchanged(self, tmp_path, monkeypatch, chunk):
        args = ["gaussian", "--trials", 9, "--seed", 3]
        assert run(args + ["--out", tmp_path / "whole"]) == 0
        monkeypatch.setattr(cli, "TRIAL_CHUNK", chunk)
        assert run(args + ["--out", tmp_path / "chunked"]) == 0
        for name in ("rates.csv", "region.json", "summary.json"):
            assert (tmp_path / "whole" / name).read_bytes() == (
                tmp_path / "chunked" / name
            ).read_bytes()

    def test_rebuilt_trials_in_a_chunk_leave_outputs_unchanged(self, tmp_path, monkeypatch):
        # every other trial of a chunk is dropped from its stack, so that it
        # is rebuilt by build_beamformers and keeps its per-trial products
        args = ["gaussian", "--trials", 9, "--seed", 5, "--M", 5, "--N1", 2, "--r1", 2]
        monkeypatch.setattr(cli, "TRIAL_CHUNK", 1)
        assert run(args + ["--out", tmp_path / "one"]) == 0
        real = gaussian._stacked_beamformers

        def dropping(h, r1, r2, tol):
            bfs, stack = real(h, r1, r2, tol)
            for t in range(1, len(bfs), 2):
                bfs[t] = None
                stack[2][t] = False
            return bfs, stack

        rebuilt = []
        monkeypatch.setattr(cli, "TRIAL_CHUNK", 64)
        monkeypatch.setattr(gaussian, "_stacked_beamformers", dropping)
        monkeypatch.setattr(
            gaussian, "build_beamformers",
            lambda *a, real=gaussian.build_beamformers: rebuilt.append(a) or real(*a),
        )
        assert run(args + ["--out", tmp_path / "mixed"]) == 0
        assert len(rebuilt) == 4
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
        def generate(specs):
            h, error = generate_batch(specs)
            for i, spec in enumerate(specs[:len(h[0])]):
                if spec.seed == failing_seed:
                    return tuple(x[:i] for x in h), GenerationError(f"draw {spec.seed} failed")
            return h, error

        monkeypatch.setattr(cli, "TRIAL_CHUNK", chunk)
        monkeypatch.setattr(cli, "generate_batch", generate)
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

        def generate(specs):
            # trial 4's draw fails as well, after the failing build
            h, error = generate_batch(specs)
            for i, spec in enumerate(specs[:len(h[0])]):
                if spec.seed == 4:
                    return tuple(x[:i] for x in h), GenerationError("draw 4 failed")
            return h, error

        def build(h, r1, r2):
            bfs, stack, error = build_beamformers_batch(h, r1, r2)
            for i, ch in enumerate(stacked_sets(h)):
                if ch.stacked_rows().tobytes() == failing.stacked_rows().tobytes():
                    return bfs[:i], stack, ConstructionError(f"build {failing_trial} failed")
            return bfs, stack, error

        monkeypatch.setattr(cli, "TRIAL_CHUNK", chunk)
        monkeypatch.setattr(cli, "generate_batch", generate)
        monkeypatch.setattr(cli, "build_beamformers_batch", build)
        assert run(["gaussian", "--out", tmp_path, "--trials", 5, "--snr_db_grid", grid]) == 1
        assert message in capsys.readouterr().err


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

    def test_split_policy_has_no_gate(self, tmp_path):
        code = run([
            "ergodic", "--out", tmp_path, "--blocks", 500,
            "--power_policy", "split", "--p1_frac", 0.25,
        ])
        assert code == 0
        summary = read_json(tmp_path / "summary.json")
        assert summary["slopes"]["targets"] is None
        assert summary["passed"] is True


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

    def test_requires_single_antenna(self, tmp_path):
        assert run(["compare", "--out", tmp_path, "--N1", 2]) == 1


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


class TestConfigHandling:
    @pytest.mark.parametrize("command, extra", [
        ("ergodic", ["--blocks", 300]),
        ("region", ["--model", "ergodic"]),
    ])
    def test_integer_p1_frac_from_file_writes_the_flag_bytes(self, tmp_path, command, extra):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"p1_frac": 1, "power_policy": "split"}')
        assert run([command, "--out", tmp_path / "file", "--config", cfg] + extra) == 0
        assert run([command, "--out", tmp_path / "flag", "--p1_frac", 1,
                    "--power_policy", "split"] + extra) == 0
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
            code = run([command, "--out", tmp_path, "--blocks", 100,
                        "--snr_db_grid", "60,80,4000"])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: snr_db_grid point 4000 dB")

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
