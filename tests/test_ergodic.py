"""Block sampling, zero-forcing certificates, rate accounting, regions."""

import math
from fractions import Fraction as F
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from compound_bcc import ergodic
from compound_bcc.channel import ChannelGenSpec, CompoundChannelSet, generate_compound
from compound_bcc.ergodic import (
    FadingProcess,
    PowerPolicy,
    ZfBlockGains,
    block_secrecy_rates,
    ergodic_sdof_region,
    ergodic_slope_estimates,
    leakage,
    policy_slope_targets,
    sample_block,
    simulate_blocks,
    symmetric_point_margin,
    tx_rate,
    zero_forcing,
    _block_states,
    _states_from_words,
)
from compound_bcc.errors import ConstructionError, DegenerateBlockError, InvalidInputError


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


def manual_channel(h1_rows, h2_rows, M):
    return CompoundChannelSet(
        M=M, N1=1, N2=1, J1=len(h1_rows), J2=len(h2_rows),
        h1=tuple(row(v) for v in h1_rows),
        h2=tuple(row(v) for v in h2_rows),
    )


def crafted_gains(phi1, phi2, nulled1, nulled2):
    """ZfBlockGains of given gains; the rate functions do not read the beams."""
    beam = np.zeros(0, dtype=complex)
    return ZfBlockGains(
        phi1=np.asarray(phi1, dtype=complex), phi2=np.asarray(phi2, dtype=complex),
        nulled1=nulled1, nulled2=nulled2, v1=beam, v2=beam,
    )


class TestSampleBlock:
    def test_pure_function_of_seed_and_index(self, fp_small):
        twin = FadingProcess(4, 2, 2, common_state_count=4, block_count=20_000, seed=0)
        for t in (1, 17, 9999, 20_000):
            blk = sample_block(fp_small, t)
            assert sample_block(twin, t) == blk
            s, a1, _ = blk
            assert np.array_equal(fp_small.states[s - 1].state(1, a1), twin.states[s - 1].state(1, a1))

    def test_order_independent(self, fp_small):
        forward = [sample_block(fp_small, t) for t in range(1, 51)]
        backward = [sample_block(fp_small, t) for t in range(50, 0, -1)]
        assert forward == backward[::-1]

    def test_seed_changes_sequence(self):
        a = FadingProcess(4, 2, 2, seed=0)
        b = FadingProcess(4, 2, 2, seed=1)
        seq_a = [sample_block(a, t)[:2] for t in range(1, 200)]
        seq_b = [sample_block(b, t)[:2] for t in range(1, 200)]
        assert seq_a != seq_b

    def test_index_validation(self, fp_small):
        for bad in (0, 20_001, -3, 1.5, True):
            with pytest.raises(InvalidInputError):
                sample_block(fp_small, bad)

    def test_uniform_marginals(self, fp_small):
        n = fp_small.block_count
        states = np.empty(n, dtype=int)
        a1 = np.empty(n, dtype=int)
        a2 = np.empty(n, dtype=int)
        for t in range(1, n + 1):
            states[t - 1], a1[t - 1], a2[t - 1] = sample_block(fp_small, t)
        for draw, levels in ((states, 4), (a1, 2), (a2, 2)):
            p = 1.0 / levels
            sigma = math.sqrt(p * (1 - p) / n)
            for v in range(1, levels + 1):
                assert abs(np.mean(draw == v) - p) < 4 * sigma
        # independence spot check on one joint cell
        joint = np.mean((states == 1) & (a1 == 1))
        sigma = math.sqrt((0.125) * (1 - 0.125) / n)
        assert abs(joint - 0.125) < 4 * sigma


class TestVectorizedSampler:
    CHUNK = 16  # small pass size so that short horizons cross pass boundaries

    @settings(max_examples=50, deadline=None)
    @given(
        seed=st.integers(0, 2**63 - 1),
        # 255 and 256 states sit on either side of the uint8 / uint16 cache
        states=st.one_of(st.integers(1, 8), st.sampled_from([255, 256])),
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
        want = [sample_block(fp, t)[0] for t in range(1, m + 1)]
        assert got.tolist() == want
        cached = max(m_first, m)
        assert fp._states_cache.nbytes == (cached if states <= 255 else 2 * cached)

    def test_rejected_draw_takes_scalar_path(self):
        # For n = 3 numpy's Lemire draw redraws when (x * 3) mod 2^32 < 2^32 mod 3 = 1,
        # so x = 0 is rejected. Natural rejections are too rare to find by search.
        fp = FadingProcess(2, 2, 1, common_state_count=3, block_count=10, seed=5)
        t = np.array([3, 5], dtype=np.uint64)
        w0 = np.array([0xC0000000_00000000, 0xC0000000_80000000], dtype=np.uint64)
        states, rejected = _states_from_words(fp, t, w0)
        assert rejected.tolist() == [True, False]
        scalar = sample_block(fp, 3)[0]
        assert scalar != 1  # what the word gives
        assert states[0] == scalar
        # accepted lane: 3 * 2^31 >> 32 = 1, plus one
        assert states[1] == 2

    def test_sampled_once_per_process(self, monkeypatch):
        calls = []
        philox = ergodic._philox_words
        monkeypatch.setattr(
            ergodic, "_philox_words", lambda key, t: calls.append(len(t)) or philox(key, t)
        )
        for _ in range(2):  # a new process samples again: the cache is per instance
            fp = FadingProcess(4, 2, 2, common_state_count=4, block_count=1000, seed=3)
            ergodic_slope_estimates(fp, "equal", (60.0, 80.0, 100.0), m=1000)
            simulate_blocks(fp, PowerPolicy("equal", 1.0), m=500)
        assert calls == [1000, 1000]


class TestZeroForcing:
    def test_nulled_gains_certified(self):
        for seed in range(8):
            fp = FadingProcess(4, 2, 2, common_state_count=3, seed=seed)
            for ch in fp.states:
                g = zero_forcing(ch)
                assert g.nulled1 == 2 and g.nulled2 == 2
                assert np.abs(g.phi1[:, 1]).max() <= 1e-10
                assert np.abs(g.phi2[:, 0]).max() <= 1e-10
                assert np.abs(g.phi1[:, 0]).min() > 1e-9
                assert np.abs(g.phi2[:, 1]).min() > 1e-9

    def test_partial_nulling_counts(self, fp_large):
        g = zero_forcing(fp_large.states[0])
        assert g.nulled1 == 6 and g.nulled2 == 6
        assert g.phi1.shape == (8, 2) and g.phi2.shape == (8, 2)
        assert np.abs(g.phi1[:6, 1]).max() <= 1e-10
        assert np.abs(g.phi1[6:, 1]).min() > 1e-9  # residual states really do interfere

    def test_unit_norm_beams(self, fp_small):
        ch = fp_small.states[2]
        g = zero_forcing(ch)
        assert np.linalg.norm(g.v1) == pytest.approx(1.0, abs=1e-12)
        assert np.linalg.norm(g.v2) == pytest.approx(1.0, abs=1e-12)
        for k, phi in ((1, g.phi1), (2, g.phi2)):
            want = [[h[0] @ g.v1, h[0] @ g.v2] for h in ch.states(k)]
            assert np.allclose(phi, want, rtol=0, atol=1e-14)

    def test_cache_returns_same_object(self, monkeypatch):
        # zero forcing runs once per common state and process
        calls = []
        real = ergodic.zero_forcing
        monkeypatch.setattr(ergodic, "zero_forcing", lambda ch, tol: calls.append(ch) or real(ch, tol))
        fp = FadingProcess(4, 2, 2, common_state_count=3, block_count=500, seed=2)
        for total in (1.0, 1e6):
            stats = simulate_blocks(fp, PowerPolicy("equal", total))
        assert [id(ch) for ch in calls] == [id(ch) for ch in fp.states]
        assert ergodic._state_gains(fp, 2) is ergodic._state_gains(fp, 2)
        # the cached gains are the pure function's, bit for bit
        for ch, rec in zip(fp.states, stats.state_records):
            assert rec == block_secrecy_rates(real(ch, fp.tol), 5e5, 5e5)

    def test_process_errors_name_the_common_state(self, monkeypatch):
        fp = FadingProcess(3, 2, 2, common_state_count=2, block_count=10, seed=0)
        # a "basis" that nulls nothing: the nulling certificate catches it
        monkeypatch.setattr(ergodic, "null_space_basis", lambda rows, tol: np.eye(3, 1, dtype=complex))
        with pytest.raises(ConstructionError, match="^stream 2 not nulled at user 1 "):
            zero_forcing(fp.states[0])
        with pytest.raises(ConstructionError, match="^common state 1: stream 2 not nulled at user 1 "):
            simulate_blocks(fp, PowerPolicy("equal", 1.0))

    def test_multi_antenna_set_rejected(self):
        ch = generate_compound(ChannelGenSpec(4, 2, 1, 1, 1, seed=0))
        with pytest.raises(InvalidInputError, match="single-antenna users, got N1=2, N2=1"):
            zero_forcing(ch)

    def test_degenerate_direct_gain(self):
        # the only feasible beam for user 1 is orthogonal to its own state
        e3 = [0.0, 0.0, 1.0]
        with pytest.raises(DegenerateBlockError, match="^a direct gain"):
            zero_forcing(manual_channel([e3], [e3], M=3))

    def test_rotation_retry_recovers(self):
        # null([0,0,1]) has basis columns (e2, e1); a user-1 state of e1 kills
        # the first candidate, and the normalized column sum rescues the beam
        g = zero_forcing(manual_channel([[1.0, 0.0, 0.0]], [[0.0, 0.0, 1.0]], M=3))
        assert abs(g.phi1[0, 0]) == pytest.approx(1 / math.sqrt(2), abs=1e-12)
        assert abs(g.phi1[0, 1]) <= 1e-12

    def test_single_antenna_skips_nulling(self):
        # min(J, M-1) = 0 nulled rows: the beam is unconstrained, all leakage
        g = zero_forcing(manual_channel([[1.0]], [[1.0]], M=1))
        assert g.nulled1 == 0 and g.nulled2 == 0
        assert leakage(g, 1, (10.0, 10.0)) > 0.0


class TestRateAccounting:
    def make_gains(self):
        phi1 = [[1.0, 0.0], [0.5, 2.0]]
        phi2 = [[0.8, 1.0], [0.3, 0.7], [0.1, 0.9]]
        return crafted_gains(phi1, phi2, nulled1=1, nulled2=2)

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
        for ch in fp_small.states:
            g = zero_forcing(ch)
            assert leakage(g, 1, (1e10, 1e10)) == 0.0
            assert leakage(g, 2, (1e10, 1e10)) == 0.0

    def test_secrecy_clamped_at_zero(self):
        g = crafted_gains([[0.5, 0.0]], [[1.0, 1.0], [100.0, 1.0]], nulled1=1, nulled2=1)
        rec = block_secrecy_rates(g, 10.0, 0.0)
        assert rec.leak[0] > rec.tx[0]
        assert rec.secrecy[0] == 0.0
        assert rec.secrecy[1] == 0.0  # no power on stream 2

    def test_record_is_tx_minus_leak(self, fp_large):
        g = zero_forcing(fp_large.states[2])
        rec = block_secrecy_rates(g, 50.0, 50.0)
        for i, k in enumerate((1, 2)):
            assert rec.tx[i] == pytest.approx(tx_rate(g, k, (50.0, 50.0)), abs=1e-12)
            assert rec.leak[i] == pytest.approx(leakage(g, k, (50.0, 50.0)), abs=1e-12)
            assert rec.secrecy[i] == pytest.approx(max(0.0, rec.tx[i] - rec.leak[i]), abs=1e-12)


class TestPowerPolicy:
    def test_named_splits(self):
        assert PowerPolicy("full1", 10.0).powers() == (10.0, 0.0)
        assert PowerPolicy("full2", 10.0).powers() == (0.0, 10.0)
        assert PowerPolicy("equal", 10.0).powers() == (5.0, 5.0)
        assert PowerPolicy("split", 10.0, p1_frac=0.3).powers() == (3.0, 7.0)

    def test_split_needs_fraction(self):
        with pytest.raises(InvalidInputError, match="p1_frac"):
            PowerPolicy("split", 10.0)

    def test_unknown_kind(self):
        with pytest.raises(InvalidInputError, match="unknown power policy"):
            PowerPolicy("water", 10.0)

    def test_negative_total(self):
        with pytest.raises(InvalidInputError):
            PowerPolicy("equal", -1.0)

    @pytest.mark.parametrize("total", [math.nan, math.inf])
    def test_non_finite_total(self, total):
        with pytest.raises(InvalidInputError, match="finite"):
            PowerPolicy("equal", total)


class TestSimulation:
    def test_mc_tracks_analytic(self, fp_small):
        stats = simulate_blocks(fp_small, PowerPolicy("equal", 100.0))
        spread = np.std([r.secrecy[0] for r in stats.state_records])
        slack = 4 * spread / math.sqrt(stats.m) + 1e-12
        assert abs(stats.r1_mean - stats.analytic_r1) < slack
        assert abs(stats.r2_mean - stats.analytic_r2) < slack

    def test_no_violations_without_leakage(self, fp_small):
        stats = simulate_blocks(fp_small, PowerPolicy("equal", 1e6))
        assert stats.leak_violation_freq == 0.0

    def test_violation_freq_matches_state_records(self, fp_large):
        stats = simulate_blocks(fp_large, PowerPolicy("equal", 100.0), m=2000)
        bad_states = {
            s + 1
            for s, r in enumerate(stats.state_records)
            if r.leak[0] > r.tx[0] or r.leak[1] > r.tx[1]
        }
        want = np.mean(
            [sample_block(fp_large, t)[0] in bad_states for t in range(1, 2001)]
        )
        assert stats.leak_violation_freq == pytest.approx(float(want), abs=1e-15)

    def test_reruns_bit_identical(self, fp_small):
        a = simulate_blocks(fp_small, PowerPolicy("equal", 123.0), m=500)
        b = simulate_blocks(fp_small, PowerPolicy("equal", 123.0), m=500)
        assert a.r1_mean == b.r1_mean
        assert a.r2_mean == b.r2_mean

    def test_horizon_validation(self, fp_small):
        with pytest.raises(InvalidInputError):
            simulate_blocks(fp_small, PowerPolicy("equal", 1.0), m=0)
        with pytest.raises(InvalidInputError):
            simulate_blocks(fp_small, PowerPolicy("equal", 1.0), m=fp_small.block_count + 1)

    @pytest.mark.parametrize("m", [2.5, True, "3"])
    def test_horizon_must_be_an_integer(self, fp_small, m):
        with pytest.raises(InvalidInputError, match="integer"):
            simulate_blocks(fp_small, PowerPolicy("equal", 1.0), m=m)


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

    def test_states_distinct_across_index(self, fp_small):
        a = fp_small.states[0].state(1, 1)
        b = fp_small.states[1].state(1, 1)
        assert not np.allclose(a, b)
