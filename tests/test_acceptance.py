"""Acceptance gate: the ten headline checks, each printing one verdict line.

Every test prints "ACCEPTANCE <name>: PASS" (or FAIL) so a log scrape can
audit the gate without parsing pytest output. Tolerances and runtime caps
are pinned here and must not be loosened.
"""

import contextlib
import json
import math
import time
from fractions import Fraction as F

import numpy as np
import pytest

from compound_bcc.channel import ChannelGenSpec, generate_compound
from compound_bcc.cli import main
from compound_bcc.ergodic import (
    FadingProcess,
    PowerPolicy,
    block_secrecy_rates,
    ergodic_slope_estimates,
    simulate_blocks,
    zero_forcing,
    _philox_words,
    _states_from_words,
)
from compound_bcc.errors import FeasibilityError
from compound_bcc.gaussian import build_beamformers, equal_power_slopes
from compound_bcc.regions import (
    nontrivial_vertices,
    region_from_inequalities,
)
from compound_bcc.sdof import snr_db_to_power
from compound_bcc.theory import ergodic_sdof_region, gaussian_sdof_region, symmetric_point_margin
from reference import equivalent

SLOPE_TOL = 0.05


@contextlib.contextmanager
def verdict(name):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {name}: FAIL")
        raise
    print(f"ACCEPTANCE {name}: PASS")


def test_beamformer_certificates():
    with verdict("beamformer-certificates"):
        start = time.perf_counter()
        passes = 0
        for seed in range(200):
            ch = generate_compound(ChannelGenSpec(4, 1, 1, 2, 2, seed=seed))
            bf = build_beamformers(ch, 1, 1)
            ok = True
            for k, v in ((1, bf.v1), (2, bf.v2)):
                ok &= np.linalg.norm(v.conj().T @ v - np.eye(1)) <= 1e-9
                for h in ch.states(3 - k):
                    ok &= np.linalg.norm(h @ v) <= 1e-9 * np.linalg.norm(h)
                for h in ch.states(k):
                    ok &= np.linalg.matrix_rank(h @ v, tol=1e-9) == 1
            passes += bool(ok)
        elapsed = time.perf_counter() - start
        assert passes == 200
        assert elapsed < 10.0, f"certificates took {elapsed:.1f} s"


def test_constant_model_slopes():
    with verdict("constant-model-slopes"):
        start = time.perf_counter()
        slopes = np.zeros((20, 3))
        for seed in range(20):
            ch = generate_compound(ChannelGenSpec(4, 1, 1, 2, 2, seed=seed))
            bf = build_beamformers(ch, 1, 1)
            _, ests = equal_power_slopes(ch, bf)
            slopes[seed] = [e.slope for e in ests]
        mean = slopes.mean(axis=0)
        elapsed = time.perf_counter() - start
        assert abs(mean[0] - 0.0) <= SLOPE_TOL
        assert abs(mean[1] - 1.0) <= SLOPE_TOL
        assert abs(mean[2] - 1.0) <= SLOPE_TOL
        assert elapsed < 30.0, f"slope reproduction took {elapsed:.1f} s"


def test_common_message_slope():
    with verdict("common-message-slope"):
        # single state per user: the common stream rides the receive
        # dimension the confidential streams leave unused, so its slope is
        # the smaller of N_k - r_k over the users, here 1
        for seed in range(5):
            ch = generate_compound(ChannelGenSpec(4, 2, 1, 1, 1, seed=seed))
            bf = build_beamformers(ch, 1, 0)
            _, (e0, e1, e2) = equal_power_slopes(ch, bf)
            assert abs(e0.slope - 1.0) <= SLOPE_TOL
            assert abs(e1.slope - 1.0) <= SLOPE_TOL
            assert abs(e2.slope - 0.0) <= SLOPE_TOL


def test_degenerate_region_common_only():
    with verdict("degenerate-region-common-only"):
        region = gaussian_sdof_region(7, 1, 1, 8, 8)
        assert set(region.vertices) == {(F(0), F(0), F(0)), (F(1), F(0), F(0))}
        zero, one = F(0), F(1)
        expected = region_from_inequalities(
            [((-one, zero, zero), zero),
             ((zero, -one, zero), zero),
             ((zero, zero, -one), zero),
             ((one, zero, zero), one),
             ((zero, one, zero), zero),
             ((zero, zero, one), zero)],
            3,
        )
        assert equivalent(region, expected)
        ch = generate_compound(ChannelGenSpec(7, 1, 1, 8, 8, seed=0))
        with pytest.raises(FeasibilityError):
            build_beamformers(ch, 1, 0)
        with pytest.raises(FeasibilityError):
            build_beamformers(ch, 0, 1)


def test_leakage_free_fading_slopes():
    with verdict("leakage-free-fading-slopes"):
        start = time.perf_counter()
        fp = FadingProcess(3, 2, 2, block_count=10_000, seed=0)
        grid = (60.0, 80.0, 100.0)
        stats, (e1, e2) = ergodic_slope_estimates(fp, "equal", grid)
        elapsed = time.perf_counter() - start
        assert abs(e1.slope - 1.0) <= SLOPE_TOL
        assert abs(e2.slope - 1.0) <= SLOPE_TOL
        gains = [zero_forcing(ch) for ch in fp.states]
        for st, power in zip(stats, snr_db_to_power(grid)):
            assert st.leak_violation_freq == 0.0
            # per-block rates depend on the realized state only, so zero
            # leakage in every state is zero leakage in every block
            p = PowerPolicy("equal", float(power)).powers()
            assert all(block_secrecy_rates(g, *p).leak == (0.0, 0.0) for g in gains)
        assert elapsed < 60.0, f"fading reproduction took {elapsed:.1f} s"


def test_one_sided_region_and_policies():
    with verdict("one-sided-region-and-policies"):
        fp = FadingProcess(3, 2, 4, block_count=4000, seed=0)
        targets = {"full1": (0.5, 0.0), "full2": (0.0, 1.0), "equal": (0.5, 0.5)}
        for kind, (t1, t2) in targets.items():
            _, (e1, e2) = ergodic_slope_estimates(fp, kind, (60.0, 80.0, 100.0))
            assert abs(e1.slope - t1) <= SLOPE_TOL, kind
            assert abs(e2.slope - t2) <= SLOPE_TOL, kind
        region = ergodic_sdof_region(3, 2, 4)
        zero, one = F(0), F(1)
        expected = region_from_inequalities(
            [((-one, zero), zero),
             ((zero, -one), zero),
             ((one, zero), F(1, 2)),
             ((one, one), one)],
            2,
        )
        assert equivalent(region, expected)
        assert set(region.vertices) == {
            (F(0), F(0)), (F(1, 2), F(0)), (F(1, 2), F(1, 2)), (F(0), F(1)),
        }


def test_symmetric_point_advantage(tmp_path):
    with verdict("symmetric-point-advantage"):
        margin, advantage = symmetric_point_margin(7, 8, 8)
        assert margin == F(1, 8) and advantage
        fp = FadingProcess(7, 8, 8, block_count=4000, seed=0)
        _, (e1, e2) = ergodic_slope_estimates(fp, "equal", (60.0, 80.0, 100.0))
        assert abs(e1.slope - 0.5) <= SLOPE_TOL
        assert abs(e2.slope - 0.5) <= SLOPE_TOL
        region = ergodic_sdof_region(7, 8, 8)
        assert set(nontrivial_vertices(region)) == {
            (F(3, 4), F(0)), (F(0), F(3, 4)), (F(1, 2), F(1, 2)),
        }
        out = tmp_path / "compare"
        code = main(["compare", "--out", str(out), "--M", "7", "--J1", "8", "--J2", "8"])
        assert code == 0
        with open(out / "summary.json") as fh:
            summary = json.load(fh)
        assert summary["ergodic_strictly_larger"] is True
        assert [[1, 2], [1, 2]] in summary["witness_points"]


def test_symmetric_point_rejected():
    with verdict("symmetric-point-rejected"):
        margin, advantage = symmetric_point_margin(2, 4, 4)
        assert margin == F(-5, 8) and not advantage
        region = ergodic_sdof_region(2, 4, 4)
        assert set(nontrivial_vertices(region)) == {(F(1, 4), F(0)), (F(0), F(1, 4))}
        # the would-be symmetric point has negative coordinates and must be
        # dropped rather than clamped into the region
        assert all(c >= 0 for v in region.vertices for c in v)


def test_monte_carlo_matches_analytic():
    with verdict("monte-carlo-matches-analytic"):
        start = time.perf_counter()
        m = 100_000
        policy = PowerPolicy("equal", 1e6)  # 60 dB
        for seed in range(10):
            fp = FadingProcess(3, 2, 4, block_count=m, seed=seed)
            stats = simulate_blocks(fp, policy)
            # a block's rates are its common state's
            t = np.arange(1, m + 1, dtype=np.uint64)
            idx = _states_from_words(fp, t, _philox_words(fp._block_key, t))[0]
            gains = [zero_forcing(ch) for ch in fp.states]
            secrecy = np.array([block_secrecy_rates(g, *policy.powers()).secrecy for g in gains])
            for mean, analytic, blocks in (
                (stats.r1_mean, stats.analytic_r1, secrecy[idx, 0]),
                (stats.r2_mean, stats.analytic_r2, secrecy[idx, 1]),
            ):
                se = float(np.std(blocks)) / math.sqrt(m)
                assert abs(mean - analytic) <= 3 * se + 1e-12, f"seed {seed}"
        elapsed = time.perf_counter() - start
        assert elapsed < 10.0, f"Monte Carlo check took {elapsed:.1f} s"


def test_cli_byte_determinism(tmp_path):
    with verdict("cli-byte-determinism"):
        runs = {
            "gaussian": ["gaussian", "--trials", "2", "--seed", "3"],
            "ergodic": ["ergodic", "--M", "3", "--J1", "2", "--J2", "4",
                        "--blocks", "1500", "--seed", "3"],
            "compare": ["compare", "--M", "7", "--J1", "8", "--J2", "8"],
            "region": ["region", "--model", "ergodic", "--M", "2",
                       "--J1", "4", "--J2", "4"],
            "verify": ["verify-channel", "--seed", "3"],
        }
        for name, args in runs.items():
            a = tmp_path / name / "a"
            b = tmp_path / name / "b"
            for out in (a, b):
                assert main(args + ["--out", str(out)]) == 0, name
            files = sorted(p.name for p in a.iterdir())
            assert files, name
            for fname in files:
                assert (a / fname).read_bytes() == (b / fname).read_bytes(), (
                    f"{name}/{fname} differs between identical runs"
                )
