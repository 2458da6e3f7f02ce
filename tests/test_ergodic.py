"""Block sampling, zero-forcing certificates, rate accounting, regions."""

import math
from fractions import Fraction as F
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from compound_bcc import ergodic
from compound_bcc.channel import CompoundChannelSet
from compound_bcc.ergodic import (
    FadingProcess,
    PowerPolicy,
    ZfBlockGains,
    averaged_secrecy_rates,
    block_gains,
    block_secrecy_rates,
    ergodic_sdof_region,
    ergodic_slope_estimates,
    leakage,
    policy_slope_targets,
    sample_block,
    simulate_blocks,
    symmetric_point_margin,
    tx_rate,
    zf_beamformers,
    _block_states,
    _states_from_words,
)
from compound_bcc.errors import DegenerateBlockError, InvalidInputError


@pytest.fixture(scope="module")
def fp_small():
    # both state counts below M: full nulling, leakage-free
    return FadingProcess(4, 2, 2, common_state_count=4, block_count=20_000, seed=0)


@pytest.fixture(scope="module")
def fp_large():
    # both state counts above M - 1: every block leaks and interferes
    return FadingProcess(7, 8, 8, common_state_count=4, block_count=10_000, seed=0)


def row(vec):
    return np.asarray([vec], dtype=complex)


def manual_process(h1_rows, h2_rows, M):
    ch = CompoundChannelSet(
        M=M, N1=1, N2=1, J1=len(h1_rows), J2=len(h2_rows),
        h1=tuple(row(v) for v in h1_rows),
        h2=tuple(row(v) for v in h2_rows),
    )
    return FadingProcess(
        M, len(h1_rows), len(h2_rows),
        common_state_count=1, block_count=10, seed=0,
        states=(ch,), verify=False,
    )


class TestSampleBlock:
    def test_pure_function_of_seed_and_index(self, fp_small):
        twin = FadingProcess(4, 2, 2, common_state_count=4, block_count=20_000, seed=0)
        for t in (1, 17, 9999, 20_000):
            a = sample_block(fp_small, t)
            b = sample_block(twin, t)
            assert (a.h_state, a.a1, a.a2) == (b.h_state, b.a1, b.a2)
            assert np.array_equal(a.h1, b.h1)

    def test_order_independent(self, fp_small):
        forward = [sample_block(fp_small, t).h_state for t in range(1, 51)]
        backward = [sample_block(fp_small, t).h_state for t in range(50, 0, -1)]
        assert forward == backward[::-1]

    def test_seed_changes_sequence(self):
        a = FadingProcess(4, 2, 2, seed=0)
        b = FadingProcess(4, 2, 2, seed=1)
        seq_a = [(sample_block(a, t).h_state, sample_block(a, t).a1) for t in range(1, 200)]
        seq_b = [(sample_block(b, t).h_state, sample_block(b, t).a1) for t in range(1, 200)]
        assert seq_a != seq_b

    def test_index_validation(self, fp_small):
        for bad in (0, 20_001, -3, 1.5):
            with pytest.raises(InvalidInputError):
                sample_block(fp_small, bad)

    def test_uniform_marginals(self, fp_small):
        n = fp_small.block_count
        states = np.empty(n, dtype=int)
        a1 = np.empty(n, dtype=int)
        a2 = np.empty(n, dtype=int)
        for t in range(1, n + 1):
            blk = sample_block(fp_small, t)
            states[t - 1], a1[t - 1], a2[t - 1] = blk.h_state, blk.a1, blk.a2
        for draw, levels in ((states, 4), (a1, 2), (a2, 2)):
            p = 1.0 / levels
            sigma = math.sqrt(p * (1 - p) / n)
            for v in range(1, levels + 1):
                assert abs(np.mean(draw == v) - p) < 4 * sigma
        # independence spot check on one joint cell
        joint = np.mean((states == 1) & (a1 == 1))
        sigma = math.sqrt((0.125) * (1 - 0.125) / n)
        assert abs(joint - 0.125) < 4 * sigma

    def test_block_state_matches_alphabet(self, fp_small):
        blk = sample_block(fp_small, 123)
        ch = fp_small.state_channel(blk.h_state)
        assert np.array_equal(blk.h1, ch.state(1, blk.a1)[0])
        assert np.array_equal(blk.h2, ch.state(2, blk.a2)[0])


class TestVectorizedSampler:
    CHUNK = 16  # small pass size so that short horizons cross pass boundaries

    @settings(max_examples=50, deadline=None)
    @given(
        seed=st.integers(0, 2**63 - 1),
        states=st.integers(1, 8),
        j1=st.integers(1, 8),
        j2=st.integers(1, 8),
        m_first=st.integers(1, 3 * CHUNK),
        m=st.integers(1, 3 * CHUNK),
    )
    def test_matches_sample_block(self, seed, states, j1, j2, m_first, m):
        fp = FadingProcess(
            2, j1, j2, common_state_count=states, block_count=3 * self.CHUNK, seed=seed
        )
        with mock.patch.object(ergodic, "SAMPLE_CHUNK", self.CHUNK):
            _block_states(fp, m_first)  # the second call extends or slices the cache
            got = _block_states(fp, m)
        want = [
            [b.h_state, b.a1, b.a2]
            for b in (sample_block(fp, t) for t in range(1, m + 1))
        ]
        assert got.tolist() == want

    def test_rejected_draw_takes_scalar_path(self):
        # For n = 3 numpy's Lemire draw redraws when (x * 3) mod 2^32 < 2^32 mod 3 = 1,
        # so x = 0 is rejected. Natural rejections are too rare to find by search.
        fp = FadingProcess(2, 2, 1, common_state_count=3, block_count=10, seed=5)
        t = np.array([3, 5], dtype=np.uint64)
        w0 = np.array([0xC0000000_00000000, 0xC0000000_80000000], dtype=np.uint64)
        w1 = np.zeros(2, dtype=np.uint64)
        states, rejected = _states_from_words(fp, t, w0, w1)
        assert rejected.tolist() == [True, False]
        scalar = sample_block(fp, 3)
        assert (scalar.h_state, scalar.a1, scalar.a2) != (1, 2, 1)  # what the words give
        assert tuple(states[0]) == (scalar.h_state, scalar.a1, scalar.a2)
        # accepted lane: 3 * 2^31 >> 32 = 1 and 2 * 3 * 2^30 >> 32 = 1, plus one
        assert tuple(states[1]) == (2, 2, 1)

    def test_sampled_once_per_process(self, monkeypatch):
        calls = []
        philox = ergodic._philox_words
        monkeypatch.setattr(
            ergodic, "_philox_words", lambda key, t: calls.append(len(t)) or philox(key, t)
        )
        for _ in range(2):  # a new process samples again: the cache is per instance
            fp = FadingProcess(4, 2, 2, common_state_count=4, block_count=1000, seed=3)
            ergodic_slope_estimates(fp, "equal", (60.0, 80.0, 100.0), m=1000)
            simulate_blocks(fp, PowerPolicy.make("equal", 1.0), m=500)
        assert calls == [1000, 1000]


class TestZeroForcing:
    def test_nulled_gains_certified(self):
        for seed in range(8):
            fp = FadingProcess(4, 2, 2, common_state_count=3, seed=seed)
            for t in (1, 2, 3, 4, 5):
                g = block_gains(fp, t)
                assert g.nulled1 == 2 and g.nulled2 == 2
                assert np.abs(g.phi1[:, 1]).max() <= 1e-10
                assert np.abs(g.phi2[:, 0]).max() <= 1e-10
                assert np.abs(g.phi1[:, 0]).min() > 1e-9
                assert np.abs(g.phi2[:, 1]).min() > 1e-9

    def test_partial_nulling_counts(self, fp_large):
        g = block_gains(fp_large, 1)
        assert g.nulled1 == 6 and g.nulled2 == 6
        assert g.phi1.shape == (8, 2) and g.phi2.shape == (8, 2)
        assert np.abs(g.phi1[:6, 1]).max() <= 1e-10
        assert np.abs(g.phi1[6:, 1]).min() > 1e-9  # residual states really do interfere

    def test_unit_norm_beams(self, fp_small):
        v1, v2 = zf_beamformers(fp_small, 7)
        assert np.linalg.norm(v1) == pytest.approx(1.0, abs=1e-12)
        assert np.linalg.norm(v2) == pytest.approx(1.0, abs=1e-12)

    def test_cache_returns_same_object(self, fp_small):
        g1 = block_gains(fp_small, 1)
        s = sample_block(fp_small, 1).h_state
        for t in range(2, 200):
            if sample_block(fp_small, t).h_state == s:
                assert block_gains(fp_small, t) is g1
                break

    def test_degenerate_direct_gain(self):
        # the only feasible beam for user 1 is orthogonal to its own state
        e3 = [0.0, 0.0, 1.0]
        fp = manual_process([e3], [e3], M=3)
        with pytest.raises(DegenerateBlockError, match="direct gain"):
            block_gains(fp, 1)

    def test_rotation_retry_recovers(self):
        # null([0,0,1]) has basis columns (e2, e1); a user-1 state of e1 kills
        # the first candidate, and the normalized column sum rescues the beam
        fp = manual_process([[1.0, 0.0, 0.0]], [[0.0, 0.0, 1.0]], M=3)
        g = block_gains(fp, 1)
        assert abs(g.phi1[0, 0]) == pytest.approx(1 / math.sqrt(2), abs=1e-12)
        assert abs(g.phi1[0, 1]) <= 1e-12

    def test_single_antenna_skips_nulling(self):
        # min(J, M-1) = 0 nulled rows: the beam is unconstrained, all leakage
        fp = manual_process([[1.0]], [[1.0]], M=1)
        g = block_gains(fp, 1)
        assert g.nulled1 == 0 and g.nulled2 == 0
        assert leakage(g, 1, (10.0, 10.0)) > 0.0


class TestRateAccounting:
    def make_gains(self):
        phi1 = np.array([[1.0, 0.0], [0.5, 2.0]], dtype=complex)
        phi2 = np.array([[0.8, 1.0], [0.3, 0.7], [0.1, 0.9]], dtype=complex)
        return ZfBlockGains(phi1=phi1, phi2=phi2, nulled1=1, nulled2=2)

    def test_tx_rate_closed_form(self):
        g = self.make_gains()
        p = (4.0, 9.0)
        want1 = 0.5 * (math.log2(1 + 4 * 1.0) + math.log2(1 + 4 * 0.25 / (1 + 9 * 4.0)))
        assert tx_rate(g, 1, p) == pytest.approx(want1, abs=1e-12)
        want2 = (
            math.log2(1 + 9 * 1.0)
            + math.log2(1 + 9 * 0.49)
            + math.log2(1 + 9 * 0.81 / (1 + 4 * 0.01))
        ) / 3
        assert tx_rate(g, 2, p) == pytest.approx(want2, abs=1e-12)

    def test_leakage_closed_form(self):
        g = self.make_gains()
        p = (4.0, 9.0)
        # stream 1 is seen by user 2's third state only
        assert leakage(g, 1, p) == pytest.approx(math.log2(1 + 4 * 0.01) / 3, abs=1e-12)
        # stream 2 is seen by user 1's second state only
        assert leakage(g, 2, p) == pytest.approx(math.log2(1 + 9 * 4.0) / 2, abs=1e-12)

    def test_leakage_exactly_zero_when_all_nulled(self, fp_small):
        for t in (1, 2, 3):
            g = block_gains(fp_small, t)
            assert leakage(g, 1, (1e10, 1e10)) == 0.0
            assert leakage(g, 2, (1e10, 1e10)) == 0.0

    def test_secrecy_clamped_at_zero(self):
        phi1 = np.array([[0.5, 0.0]], dtype=complex)
        phi2 = np.array([[1.0, 1.0], [100.0, 1.0]], dtype=complex)
        g = ZfBlockGains(phi1=phi1, phi2=phi2, nulled1=1, nulled2=1)
        rec = block_secrecy_rates(g, 10.0, 0.0, t=5)
        assert rec.leak[0] > rec.tx[0]
        assert rec.secrecy[0] == 0.0
        assert rec.secrecy[1] == 0.0  # no power on stream 2
        assert rec.t == 5

    def test_record_is_tx_minus_leak(self, fp_large):
        g = block_gains(fp_large, 3)
        rec = block_secrecy_rates(g, 50.0, 50.0)
        for i, k in enumerate((1, 2)):
            assert rec.tx[i] == pytest.approx(tx_rate(g, k, (50.0, 50.0)), abs=1e-12)
            assert rec.leak[i] == pytest.approx(leakage(g, k, (50.0, 50.0)), abs=1e-12)
            assert rec.secrecy[i] == pytest.approx(max(0.0, rec.tx[i] - rec.leak[i]), abs=1e-12)


class TestPowerPolicy:
    def test_named_splits(self):
        assert PowerPolicy.make("full1", 10.0).powers() == (10.0, 0.0)
        assert PowerPolicy.make("full2", 10.0).powers() == (0.0, 10.0)
        assert PowerPolicy.make("equal", 10.0).powers() == (5.0, 5.0)
        assert PowerPolicy.make("split", 10.0, p1_frac=0.3).powers() == (3.0, 7.0)

    def test_split_needs_fraction(self):
        with pytest.raises(InvalidInputError, match="p1_frac"):
            PowerPolicy.make("split", 10.0)

    def test_unknown_kind(self):
        with pytest.raises(InvalidInputError, match="unknown power policy"):
            PowerPolicy.make("water", 10.0)

    def test_negative_total(self):
        with pytest.raises(InvalidInputError):
            PowerPolicy.make("equal", -1.0)

    @pytest.mark.parametrize("total", [math.nan, math.inf])
    def test_non_finite_total(self, total):
        with pytest.raises(InvalidInputError, match="finite"):
            PowerPolicy.make("equal", total)


class TestSimulation:
    def test_mc_tracks_analytic(self, fp_small):
        stats = simulate_blocks(fp_small, PowerPolicy.make("equal", 100.0))
        spread = np.std([r.secrecy[0] for r in stats.state_records])
        slack = 4 * spread / math.sqrt(stats.m) + 1e-12
        assert abs(stats.r1_mean - stats.analytic_r1) < slack
        assert abs(stats.r2_mean - stats.analytic_r2) < slack

    def test_no_violations_without_leakage(self, fp_small):
        stats = simulate_blocks(fp_small, PowerPolicy.make("equal", 1e6))
        assert stats.leak_violation_freq == 0.0

    def test_violation_freq_matches_state_records(self, fp_large):
        stats = simulate_blocks(fp_large, PowerPolicy.make("equal", 100.0), m=2000)
        bad_states = {
            s + 1
            for s, r in enumerate(stats.state_records)
            if r.leak[0] > r.tx[0] or r.leak[1] > r.tx[1]
        }
        want = np.mean(
            [sample_block(fp_large, t).h_state in bad_states for t in range(1, 2001)]
        )
        assert stats.leak_violation_freq == pytest.approx(float(want), abs=1e-15)

    def test_reruns_bit_identical(self, fp_small):
        a = simulate_blocks(fp_small, PowerPolicy.make("equal", 123.0), m=500)
        b = simulate_blocks(fp_small, PowerPolicy.make("equal", 123.0), m=500)
        assert a.r1_mean == b.r1_mean
        assert a.r2_mean == b.r2_mean

    def test_horizon_validation(self, fp_small):
        with pytest.raises(InvalidInputError):
            simulate_blocks(fp_small, PowerPolicy.make("equal", 1.0), m=0)
        with pytest.raises(InvalidInputError):
            simulate_blocks(fp_small, PowerPolicy.make("equal", 1.0), m=fp_small.block_count + 1)

    @pytest.mark.parametrize("m", [2.5, True, "3"])
    def test_horizon_must_be_an_integer(self, fp_small, m):
        with pytest.raises(InvalidInputError, match="integer"):
            simulate_blocks(fp_small, PowerPolicy.make("equal", 1.0), m=m)

    def test_averaged_pair(self, fp_small):
        pol = PowerPolicy.make("equal", 50.0)
        r1, r2 = averaged_secrecy_rates(fp_small, pol, m=1000)
        stats = simulate_blocks(fp_small, pol, m=1000)
        assert (r1, r2) == (stats.r1_mean, stats.r2_mean)


class TestSlopes:
    def test_leakage_free_regime(self, fp_small):
        _, (e1, e2) = ergodic_slope_estimates(fp_small, "equal", (60.0, 80.0, 100.0), m=2000)
        t1, t2 = policy_slope_targets(4, 2, 2, "equal")
        assert e1.slope == pytest.approx(float(t1), abs=0.05)
        assert e2.slope == pytest.approx(float(t2), abs=0.05)
        assert float(t1) == 1.0 and float(t2) == 1.0

    @pytest.mark.parametrize("kind", ["full1", "full2", "equal"])
    def test_leaky_regime_policies(self, fp_large, kind):
        targets = policy_slope_targets(7, 8, 8, kind)
        _, ests = ergodic_slope_estimates(fp_large, kind, (60.0, 80.0, 100.0), m=2000)
        for est, tgt in zip(ests, targets):
            assert est.slope == pytest.approx(float(tgt), abs=0.05)

    def test_split_has_no_targets(self):
        assert policy_slope_targets(7, 8, 8, "split") is None

    def test_target_values(self):
        assert policy_slope_targets(7, 8, 8, "full1") == (F(3, 4), F(0))
        assert policy_slope_targets(7, 8, 8, "equal") == (F(1, 2), F(1, 2))
        assert policy_slope_targets(4, 2, 8, "equal") == (F(3, 8), F(3, 8))
        assert policy_slope_targets(2, 4, 4, "equal") == (F(0), F(0))


class TestMarginAndRegion:
    def test_margin_values(self):
        f, adv = symmetric_point_margin(7, 8, 8)
        assert f == F(1, 8) and adv
        f, adv = symmetric_point_margin(2, 4, 4)
        assert f == F(-5, 8) and not adv

    def test_margin_domain(self):
        with pytest.raises(InvalidInputError, match="J1, J2 >= M"):
            symmetric_point_margin(4, 2, 8)

    def test_region_unit_square(self):
        r = ergodic_sdof_region(4, 2, 2)
        assert set(r.vertices) == {
            (F(0), F(0)), (F(1), F(0)), (F(0), F(1)), (F(1), F(1)),
        }

    def test_region_one_sided(self):
        r = ergodic_sdof_region(4, 2, 8)
        assert set(r.vertices) == {
            (F(0), F(0)), (F(0), F(1)), (F(3, 8), F(3, 8)), (F(3, 8), F(0)),
        }
        mirror = ergodic_sdof_region(4, 8, 2)
        assert set(mirror.vertices) == {
            (F(0), F(0)), (F(1), F(0)), (F(3, 8), F(3, 8)), (F(0), F(3, 8)),
        }

    def test_region_symmetric_point_included(self):
        r = ergodic_sdof_region(7, 8, 8)
        assert set(r.vertices) == {
            (F(0), F(0)), (F(3, 4), F(0)), (F(1, 2), F(1, 2)), (F(0), F(3, 4)),
        }

    def test_region_symmetric_point_excluded(self):
        r = ergodic_sdof_region(2, 4, 4)
        assert set(r.vertices) == {(F(0), F(0)), (F(1, 4), F(0)), (F(0), F(1, 4))}

    def test_region_single_antenna(self):
        r = ergodic_sdof_region(1, 1, 1)
        assert r.vertices == ((F(0), F(0)),)


class TestProcessValidation:
    def test_bad_dimensions(self):
        with pytest.raises(InvalidInputError):
            FadingProcess(0, 1, 1)
        with pytest.raises(InvalidInputError):
            FadingProcess(4, 2, 2, common_state_count=0)

    def test_bool_dimensions_named(self):
        with pytest.raises(InvalidInputError, match="block_count"):
            FadingProcess(4, 2, 2, block_count=True)
        with pytest.raises(InvalidInputError, match="J2"):
            ergodic_sdof_region(4, 2, True)

    @pytest.mark.parametrize("seed", [-1, 1.5, True])
    def test_bad_seed_rejected(self, seed):
        with pytest.raises(InvalidInputError, match="seed"):
            FadingProcess(3, 2, 2, seed=seed)

    def test_state_count_mismatch(self, fp_small):
        with pytest.raises(InvalidInputError, match="expected 3"):
            FadingProcess(4, 2, 2, common_state_count=3, states=fp_small.states[:2])

    def test_state_shape_mismatch(self, fp_small):
        with pytest.raises(InvalidInputError, match="matching M"):
            FadingProcess(5, 2, 2, common_state_count=4, states=fp_small.states)

    def test_verify_rejects_degenerate_alphabet(self):
        dup = [0.0, 1.0]
        ch = CompoundChannelSet(
            M=2, N1=1, N2=1, J1=1, J2=1,
            h1=(row(dup),), h2=(row(dup),),
        )
        with pytest.raises(InvalidInputError, match="rank condition"):
            FadingProcess(2, 1, 1, common_state_count=1, states=(ch,))

    def test_states_distinct_across_index(self, fp_small):
        a = fp_small.state_channel(1).state(1, 1)
        b = fp_small.state_channel(2).state(1, 1)
        assert not np.allclose(a, b)
