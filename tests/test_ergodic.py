"""Block sampling, zero-forcing certificates, rate accounting, regions."""

import gc
import math
import sys
from fractions import Fraction as F
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from compound_bcc import ergodic
from compound_bcc.channel import ChannelGenSpec, CompoundChannelSet, generate_compound
from compound_bcc.ergodic import (
    FadingProcess,
    PowerPolicy,
    ZfBlockGains,
    block_secrecy_rates,
    ergodic_slope_estimates,
    sample_block,
    simulate_blocks,
    zero_forcing,
    _PairwiseSums,
    _block_rates,
    _philox_words,
    _states_from_words,
    _zero_forcing_stack,
)
from compound_bcc.errors import ConstructionError, DegenerateBlockError, InvalidInputError
from compound_bcc.linalg import null_space_basis
from compound_bcc.sdof import estimate_sdof_series, snr_db_to_power
from compound_bcc.theory import ergodic_sdof_region, policy_slope_targets, symmetric_point_margin
from reference import leakage, tx_rate, zero_forcing_state


@pytest.fixture(scope="module")
def fp_small():
    # both state counts below M: full nulling, leakage-free
    return FadingProcess(4, 2, 2, common_state_count=4, block_count=20_000, seed=0)


@pytest.fixture(scope="module")
def fp_large():
    # both state counts above M - 1: every block leaks and interferes
    return FadingProcess(7, 8, 8, common_state_count=4, block_count=10_000, seed=0)


@pytest.fixture(scope="module")
def fp_leaky():
    # fp_large's states and first 2,000 blocks
    return FadingProcess(7, 8, 8, common_state_count=4, block_count=2000, seed=0)


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


def bits(x):
    """x with every float as its hex string (NaN as 'nan') and every array as
    its dtype, shape and bytes: equal iff x's numbers are equal bit for bit,
    up to NaN payloads."""
    if isinstance(x, (float, np.floating)):
        return "nan" if math.isnan(x) else float(x).hex()
    if isinstance(x, np.ndarray):
        return (x.dtype.str, x.shape, x.tobytes())
    if isinstance(x, ergodic.BlockRateRecord):
        return bits((x.tx, x.leak, x.secrecy))
    return tuple(bits(v) for v in x)


def state_stacks(rng, S, j1, j2, M, scales=(1.0,)):
    """Random single-antenna state stacks (S, J1, 1, M) and (S, J2, 1, M); each
    state's rows are scaled by one of ``scales``, drawn per state."""
    def draw(j):
        z = rng.standard_normal((S, j, 1, M)) + 1j * rng.standard_normal((S, j, 1, M))
        return z * rng.choice(scales, size=(S, 1, 1, 1)) / math.sqrt(2)

    return draw(j1), draw(j2)


def one_state_zero_forcing(h1, h2, name_states=False):
    """The oracle of _zero_forcing_stack: reference.zero_forcing_state per
    state, in order, with the first failure's error and message. Their
    direct-gain decisions differ only for a gain within rounding of
    DIRECT_GAIN_MIN, which these states do not have."""
    M = h1.shape[-1]
    n1, n2 = min(h1.shape[1], M - 1), min(h2.shape[1], M - 1)
    out = []
    for s in range(len(h1)):
        try:
            out.append(zero_forcing_state(h1[s], h2[s], n1, n2))
        except (ConstructionError, DegenerateBlockError) as e:
            prefix = f"common state {s + 1}: " if name_states else ""
            return type(e), f"{prefix}{e}"
    return out


def assert_stack_matches_oracle(h1, h2, name_states=False):
    """_zero_forcing_stack's beams and gains, after checking them (or the
    error it raises, then returning None) against the one-state oracle."""
    want = one_state_zero_forcing(h1, h2, name_states)
    if isinstance(want, tuple):
        with pytest.raises(want[0]) as info:
            _zero_forcing_stack(h1, h2, name_states)
        assert str(info.value) == want[1]
        return None
    vs, phi1, phi2 = _zero_forcing_stack(h1, h2, name_states)
    for s, state in enumerate(want):
        assert bits((vs[s], phi1[s], phi2[s])) == bits(state)
    return vs, phi1, phi2


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

    def test_numpy_integer_indices_accepted(self, fp_small):
        assert sample_block(fp_small, np.int64(3)) == sample_block(fp_small, 3)
        assert sample_block(fp_small, np.uint16(20_000)) == sample_block(fp_small, 20_000)
        for bad in (np.int64(0), np.int64(20_001), np.bool_(True), np.float64(2.0)):
            with pytest.raises(InvalidInputError, match="^block index must be an integer in 1..20000, got "):
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


def philox_word(key, t):
    """First output word of Philox4x64-10 (Salmon et al., SC'11) at counter
    (1, 0, 0, t) under key: ten rounds of full 128-bit products in Python
    ints, the round keys bumped by the Weyl increments before every round
    but the first."""
    c0, c1, c2, c3 = 1, 0, 0, t
    k0, k1 = key
    for r in range(10):
        if r:
            k0, k1 = (k0 + 0x9E3779B97F4A7C15) % 2**64, (k1 + 0xBB67AE8584CAA73B) % 2**64
        hi0, lo0 = divmod(0xD2E7470EE14C6C93 * c0, 2**64)
        hi1, lo1 = divmod(0xCA5A826395121157 * c2, 2**64)
        c0, c1, c2, c3 = hi1 ^ c1 ^ k0, lo1, hi0 ^ c3 ^ k1, lo0
    return c0


def row_passes(a, width):
    """The columns of a in consecutive passes of ``width``, each a copy."""
    for lo in range(0, a.shape[1], width):
        yield a[:, lo:lo + width].copy()


class TestPhiloxKernel:
    @settings(max_examples=200, deadline=None)
    @given(
        key=st.tuples(st.integers(0, 2**64 - 1), st.integers(0, 2**64 - 1)),
        t=st.lists(st.integers(1, 2**64 - 1), min_size=1, max_size=8),
    )
    @example(key=(0, 0), t=[1, 2**32, 2**63, 2**64 - 1])
    @example(key=(2**64 - 1, 2**63 + 5), t=[1, 2**32, 2**63, 2**64 - 1])
    def test_matches_full_products(self, key, t):
        got = _philox_words(np.array(key, dtype=np.uint64), np.array(t, dtype=np.uint64))
        assert got.dtype == np.uint64
        assert got.tolist() == [philox_word(key, x) for x in t]

    @pytest.mark.parametrize("key", [(0, 0), (2**64 - 1, 2**63 + 5), (12345, 2**40 + 3)])
    def test_matches_numpy_philox(self, key):
        # numpy's own Philox started at counter t << 192: its first raw word
        t = [*range(1, 200), 2**32, 2**63, 2**64 - 1]
        got = _philox_words(np.array(key, dtype=np.uint64), np.array(t, dtype=np.uint64))
        want = [
            int(np.random.Philox(counter=x << 192, key=np.array(key, dtype=np.uint64)).random_raw())
            for x in t
        ]
        assert got.tolist() == want


class TestVectorizedSampler:
    CHUNK = 16  # small pass size so that short horizons cross pass boundaries

    @settings(max_examples=50, deadline=None)
    @given(
        seed=st.integers(0, 2**63 - 1),
        states=st.one_of(st.integers(1, 8), st.sampled_from([255, 256])),
        j1=st.integers(1, 8),
        j2=st.integers(1, 8),
        m=st.integers(1, 3 * CHUNK),
    )
    def test_run_samples_each_block_once(self, seed, states, j1, j2, m):
        # one run samples blocks 1..m once, in ceil(m / SAMPLE_CHUNK) passes,
        # and each pass's states are sample_block's
        fp = FadingProcess(2, j1, j2, common_state_count=states, block_count=m, seed=seed)
        passes = []
        real = ergodic._states_from_words

        def spy(fp, t, w0):
            idx, rejected = real(fp, t, w0)
            passes.append((t.tolist(), idx.tolist()))
            return idx, rejected

        with mock.patch.object(ergodic, "SAMPLE_CHUNK", self.CHUNK), \
                mock.patch.object(ergodic, "_states_from_words", spy):
            simulate_blocks(fp, PowerPolicy("equal", 1.0))
        assert len(passes) == -(-m // self.CHUNK)
        assert [x for t, _ in passes for x in t] == list(range(1, m + 1))
        assert [s + 1 for _, idx in passes for s in idx] == [
            sample_block(fp, t)[0] for t in range(1, m + 1)
        ]

    def test_rejected_draw_takes_scalar_path(self):
        # For n = 3 numpy's Lemire draw redraws when (x * 3) mod 2^32 < 2^32 mod 3 = 1,
        # so x = 0 is rejected. Natural rejections are too rare to find by search.
        fp = FadingProcess(2, 2, 1, common_state_count=3, block_count=10, seed=5)
        t = np.array([3, 5], dtype=np.uint64)
        w0 = np.array([0xC0000000_00000000, 0xC0000000_80000000], dtype=np.uint64)
        idx, rejected = _states_from_words(fp, t, w0)
        assert rejected.tolist() == [True, False]
        scalar = sample_block(fp, 3)[0]
        assert scalar != 1  # what the word gives
        assert idx[0] == scalar - 1
        # accepted lane: 3 * 2^31 >> 32 = 1, state 2
        assert idx[1] == 1

    def test_each_run_samples_again(self, monkeypatch):
        # nothing of the block sequence is kept: every run samples its blocks
        calls = []
        philox = ergodic._philox_words
        monkeypatch.setattr(
            ergodic, "_philox_words", lambda key, t: calls.append(len(t)) or philox(key, t)
        )
        fp = FadingProcess(4, 2, 2, common_state_count=4, block_count=10_000, seed=3)
        ergodic_slope_estimates(fp, "equal", (60.0, 80.0, 100.0))
        fp = FadingProcess(4, 2, 2, common_state_count=4, block_count=500, seed=3)
        simulate_blocks(fp, PowerPolicy("equal", 1.0))
        assert calls == [8192, 1808, 500]

    def test_no_cycle_holds_a_pass(self, monkeypatch):
        monkeypatch.setattr(ergodic, "SAMPLE_CHUNK", 64)
        fp = FadingProcess(7, 8, 8, common_state_count=4, block_count=1000, seed=0)
        policy = PowerPolicy("equal", 100.0)
        simulate_blocks(fp, policy)  # zero-forces the states
        gc.collect()
        gc.disable()
        try:
            simulate_blocks(fp, policy)
            found = gc.collect()
        finally:
            gc.enable()
        assert found == 0


class TestPairwiseSums:
    LENGTHS = [
        *range(1, 2049),
        *(2**k + d for k in range(11, 15) for d in (-9, -8, -1, 0, 1, 8, 9)),
        4999, 5000, 20001,
    ]

    @pytest.mark.parametrize("width", [7, 64, 129, 1000, 8192])
    def test_equals_numpy_sums(self, width):
        # magnitudes over 16 decades, so that any other order of additions
        # would show in the last bits
        rng = np.random.default_rng(width)
        for n in self.LENGTHS:
            a = rng.standard_normal((2, n)) * 10.0 ** rng.integers(-8, 8, size=(2, n))
            got = _PairwiseSums(row_passes(a, width)).sum(0, n)
            assert bits(got) == bits(np.add.reduce(a, axis=-1)), n
            assert bits((got / n).tolist()) == bits([np.mean(r) for r in a]), n

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        states=st.integers(1, 9),
        chunk=st.sampled_from([8, 13, 64, 200]),
        m=st.integers(1, 1500),
    )
    def test_means_equal_np_mean_of_block_rates(self, seed, states, chunk, m):
        # each mean is np.mean of the m block rates and the violation
        # frequency that of the m bools, across passes of SAMPLE_CHUNK blocks
        fp = FadingProcess(3, 4, 3, common_state_count=states, block_count=m, seed=seed)
        powers = [(10.0, 30.0), (1e4, 2e3)]
        with mock.patch.object(ergodic, "SAMPLE_CHUNK", chunk):
            stats, finite = ergodic._simulate(fp, powers)
        assert finite.tolist() == [True, True]
        t = np.arange(1, m + 1, dtype=np.uint64)
        idx = _states_from_words(fp, t, _philox_words(fp._block_key, t))[0]
        gains = [zero_forcing(ch) for ch in fp.states]
        for st_, p in zip(stats, powers):
            recs = [block_secrecy_rates(g, *p) for g in gains]
            secrecy = np.array([r.secrecy for r in recs])
            violated = np.array([r.leak[0] > r.tx[0] or r.leak[1] > r.tx[1] for r in recs])
            want = [np.mean(secrecy[idx, 0]), np.mean(secrecy[idx, 1]), np.mean(violated[idx])]
            assert bits([st_.r1_mean, st_.r2_mean, st_.leak_violation_freq]) == bits(want)


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

    def test_zero_forced_once_per_process(self, monkeypatch):
        # one stacked zero forcing covers every common state, once per process
        calls = []
        real = ergodic._zero_forcing_stack
        monkeypatch.setattr(
            ergodic, "_zero_forcing_stack", lambda *a, **kw: calls.append(a) or real(*a, **kw)
        )
        fp = FadingProcess(4, 2, 2, common_state_count=3, block_count=500, seed=2)
        for total in (1.0, 1e6):
            stats = simulate_blocks(fp, PowerPolicy("equal", total))
        ergodic_slope_estimates(fp, "equal", (60.0, 80.0, 100.0))
        assert len(calls) == 1
        assert calls[0][0] is fp._h[0] and calls[0][1] is fp._h[1]
        # the cached gains are zero_forcing's of each state, bit for bit, and
        # the run's per-state rates from them are block_secrecy_rates'
        rates = _block_rates(*fp._gains, 2, 2, [(5e5, 5e5)])
        for s, ch in enumerate(fp.states):
            g = zero_forcing(ch)
            assert bits(fp._gains[0][s]) == bits(g.phi1)
            assert bits(fp._gains[1][s]) == bits(g.phi2)
            run = [x[0, :, s].tolist() for x in rates]
            assert bits(run) == bits(block_secrecy_rates(g, 5e5, 5e5))
        analytic = [np.mean(rates[2][0, k]) for k in (0, 1)]
        assert bits([stats.analytic_r1, stats.analytic_r2]) == bits(analytic)

    def test_process_errors_name_the_common_state(self, monkeypatch):
        fp = FadingProcess(3, 2, 2, common_state_count=2, block_count=10, seed=0)
        # a "basis" that nulls nothing: the nulling certificate catches it
        nothing = np.eye(3, 1, dtype=complex)
        monkeypatch.setattr(
            ergodic, "null_spaces",
            lambda rows: (np.repeat(nothing[None], len(rows), 0), np.ones(len(rows), bool)),
        )
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


POWER = st.floats(0.0, sys.float_info.max)


class TestStackedBitExact:
    """The stacked zero forcing and rates, bit for bit the one-state oracles."""

    @settings(max_examples=60, deadline=None)
    @given(
        M=st.integers(1, 6),
        j1=st.integers(1, 8),
        j2=st.integers(1, 8),
        S=st.integers(1, 6),
        seed=st.integers(0, 2**32 - 1),
        # rows of norm 1e7 and more put nulled gains near the screen's margin
        scales=st.lists(st.sampled_from([1e-3, 1.0, 1e7, 1e8]), min_size=1, max_size=3),
    )
    def test_zero_forcing_matches_one_state_oracle(self, M, j1, j2, S, seed, scales):
        h1, h2 = state_stacks(np.random.default_rng(seed), S, j1, j2, M, scales)
        assert_stack_matches_oracle(h1, h2)

    @settings(max_examples=60, deadline=None)
    @given(
        j1=st.integers(1, 8),
        j2=st.integers(1, 8),
        S=st.integers(1, 6),
        seed=st.integers(0, 2**32 - 1),
        nulled=st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)),
        scales=st.lists(st.sampled_from([0.0, 1e-9, 1.0, 1e100]), min_size=1, max_size=3),
        powers=st.lists(st.tuples(POWER, POWER), min_size=1, max_size=4),
    )
    @example(j1=8, j2=3, S=4, seed=0, nulled=(0.25, 1.0), scales=[1.0, 1e100],
             powers=[(sys.float_info.max, sys.float_info.max), (1e300, 0.0)])
    def test_rates_match_one_state_oracles(self, j1, j2, S, seed, nulled, scales, powers):
        # any gains: the rates read neither the beams nor how the gains arose
        stacks = state_stacks(np.random.default_rng(seed), S, j1, j2, 2, scales)
        phi1, phi2 = (h[:, :, 0, :] for h in stacks)
        n1, n2 = round(nulled[0] * j1), round(nulled[1] * j2)
        with np.errstate(all="ignore"):  # powers up to the float limit overflow
            tx, leak, secrecy = _block_rates(phi1, phi2, n1, n2, powers)
            for g, p in enumerate(powers):
                for s in range(S):
                    gains = crafted_gains(phi1[s], phi2[s], n1, n2)
                    for k in (1, 2):
                        t, lk = tx_rate(gains, k, p), leakage(gains, k, p)
                        got = (tx[g, k - 1, s], leak[g, k - 1, s], secrecy[g, k - 1, s])
                        assert bits(got) == bits((t, lk, max(0.0, t - lk)))

    @settings(max_examples=15, deadline=None)
    @given(
        M=st.integers(2, 5),
        j1=st.integers(1, 6),
        j2=st.integers(1, 6),
        # 255 and 256 states sit on either side of the uint8 / uint16 cache
        S=st.one_of(st.integers(1, 6), st.sampled_from([255, 256])),
        seed=st.integers(0, 2**32 - 1),
        m=st.integers(1, 200),
        kind=st.sampled_from(["full1", "full2", "equal", "split"]),
        frac=st.floats(0.0, 1.0),
        grid=st.sampled_from([(60.0, 80.0, 100.0), (40.0, 70.0, 100.0, 130.0), (40.0, 1500.0, 3000.0)]),
    )
    @example(M=3, j1=2, j2=4, S=255, seed=1, m=200, kind="equal", frac=0.5, grid=(60.0, 80.0, 100.0))
    @example(M=4, j1=5, j2=3, S=256, seed=2, m=200, kind="split", frac=0.3, grid=(60.0, 80.0, 100.0))
    def test_process_rates_match_oracles(self, M, j1, j2, S, seed, m, kind, frac, grid):
        fp = FadingProcess(M, j1, j2, common_state_count=S, block_count=m, seed=seed)
        frac = frac if kind == "split" else None
        stats, ests = ergodic_slope_estimates(fp, kind, grid, p1_frac=frac)
        gains = [zero_forcing(ch) for ch in fp.states]
        blocks = [sample_block(fp, t)[0] - 1 for t in range(1, m + 1)]
        for snr_db, st_ in zip(grid, stats):
            policy = PowerPolicy(kind, float(snr_db_to_power(snr_db)), frac)
            p = policy.powers()
            recs = [block_secrecy_rates(g, *p) for g in gains]
            for g, rec in zip(gains, recs):
                t = [tx_rate(g, k, p) for k in (1, 2)]
                lk = [leakage(g, k, p) for k in (1, 2)]
                want = (t, lk, [max(0.0, a - b) for a, b in zip(t, lk)])
                assert bits(rec) == bits(want)
            sec = np.array([r.secrecy for r in recs])
            bad = np.array([r.leak[0] > r.tx[0] or r.leak[1] > r.tx[1] for r in recs])
            want = (
                [float(np.mean(np.array([sec[s, k] for s in blocks]))) for k in (0, 1)],
                float(np.mean(np.array([bad[s] for s in blocks]))),
                [float(np.mean(sec[:, k].copy())) for k in (0, 1)],
            )
            got = (
                [st_.r1_mean, st_.r2_mean], st_.leak_violation_freq,
                [st_.analytic_r1, st_.analytic_r2],
            )
            assert bits(got) == bits(want)
            # the stacked run's grid point is the one-power call's
            one = simulate_blocks(fp, policy)
            assert one.m == st_.m == m and bits((
                [one.r1_mean, one.r2_mean], one.leak_violation_freq,
                [one.analytic_r1, one.analytic_r2],
            )) == bits(got)
        series = ([st_.r1_mean for st_ in stats], [st_.r2_mean for st_ in stats])
        for est, rates in zip(ests, series):
            assert est == estimate_sdof_series(grid, rates)

    def test_mixed_beam_state_in_a_stack(self):
        # state 2 takes the normalized column sum, as in test_rotation_retry_recovers:
        # with b = the basis that nulls user 2, user 1's state is b1^* + 1e-12 b0^*,
        # so stream 1's first candidate b0 has a direct gain of 1e-12, nonzero
        # but too small, and its stream 2 beam keeps its first candidate
        h1, h2 = state_stacks(np.random.default_rng(5), 4, 1, 1, 3)
        h2[1, 0, 0] = [0.3, -0.5, 0.8]
        b = null_space_basis(h2[1, 0])
        h1[1, 0, 0] = b[:, 1].conj() + 1e-12 * b[:, 0].conj()
        vs, phi1, _ = assert_stack_matches_oracle(h1, h2)
        # only state 2's stream 1 leaves the first basis column
        firsts = [[null_space_basis(h[s, :, 0])[:, 0] for h in (h2, h1)] for s in range(4)]
        taken = [[vs[s, :, i].tobytes() == firsts[s][i].tobytes() for i in (0, 1)] for s in range(4)]
        assert taken == [[True, True], [False, True], [True, True], [True, True]]
        assert abs(phi1[1, 0, 0]) == pytest.approx(1 / math.sqrt(2), abs=1e-12)

    def test_rank_deficient_state_is_zero_forced_alone(self, monkeypatch):
        # state 2's nulled rows of user 2 are one row twice: its null space
        # is wider than the stack's, so it is zero-forced as a one-state stack
        h1, h2 = state_stacks(np.random.default_rng(8), 3, 2, 2, 3)
        h2[1, 1] = h2[1, 0]
        stacks = []
        real = ergodic._zero_forcing_stack
        monkeypatch.setattr(
            ergodic, "_zero_forcing_stack", lambda *a: stacks.append(len(a[0])) or real(*a)
        )
        assert assert_stack_matches_oracle(h1, h2) is not None
        assert stacks == [1]

    def test_degenerate_state_named(self):
        h1, h2 = state_stacks(np.random.default_rng(6), 4, 1, 1, 3)
        h1[2, 0, 0] = h2[2, 0, 0] = [0.0, 0.0, 1.0]
        for named in (False, True):
            assert assert_stack_matches_oracle(h1, h2, named) is None
        with pytest.raises(DegenerateBlockError, match="^common state 3: a direct gain"):
            _zero_forcing_stack(h1, h2, name_states=True)

    def test_unnulled_state_named(self):
        # user 2's nulled rows are dependent below the rank threshold, so the
        # basis keeps a column that does not null the second row
        h1, h2 = state_stacks(np.random.default_rng(7), 3, 2, 2, 3)
        h2[1, :, 0] = [[1e4, 0.0, 0.0], [1e4, 1e-7, 0.0]]
        for named in (False, True):
            assert assert_stack_matches_oracle(h1, h2, named) is None
        with pytest.raises(ConstructionError, match="^common state 2: stream 1 not nulled at user 2"):
            _zero_forcing_stack(h1, h2, name_states=True)


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

    @pytest.mark.parametrize("kind", ["full1", "full2", "equal"])
    def test_fraction_only_for_split(self, fp_small, kind):
        message = f"^p1_frac is for the split policy only; got p1_frac=0.2 with kind '{kind}'$"
        with pytest.raises(InvalidInputError, match=message):
            PowerPolicy(kind, 10.0, 0.2)
        with pytest.raises(InvalidInputError, match=message):
            ergodic_slope_estimates(fp_small, kind, (60.0, 80.0, 100.0), p1_frac=0.2)

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

    @pytest.mark.parametrize("args, field", [
        (("split", 1.0, "0.5"), "p1_frac"),
        (("split", 1.0, True), "p1_frac"),
        (("equal", 1.0, "0.5"), "p1_frac"),
        (("equal", "1"), "total"),
        (("equal", True), "total"),
        ((["equal"], 1.0), "kind"),
    ])
    def test_malformed_fields_named(self, args, field):
        with pytest.raises(InvalidInputError, match=field):
            PowerPolicy(*args)

    def test_numpy_and_int_numbers_accepted(self):
        assert PowerPolicy("equal", np.float64(2.0)).powers() == (1.0, 1.0)
        assert PowerPolicy("split", 4, np.float64(0.25)).powers() == (1.0, 3.0)

    def test_simulation_needs_a_policy(self, fp_small):
        with pytest.raises(InvalidInputError, match="policy must be a PowerPolicy, got 'equal'"):
            simulate_blocks(fp_small, "equal")


class TestSimulation:
    def test_mc_tracks_analytic(self, fp_small):
        stats = simulate_blocks(fp_small, PowerPolicy("equal", 100.0))
        spread = np.std([block_secrecy_rates(zero_forcing(ch), 50.0, 50.0).secrecy[0]
                         for ch in fp_small.states])
        slack = 4 * spread / math.sqrt(stats.m) + 1e-12
        assert abs(stats.r1_mean - stats.analytic_r1) < slack
        assert abs(stats.r2_mean - stats.analytic_r2) < slack

    def test_no_violations_without_leakage(self, fp_small):
        stats = simulate_blocks(fp_small, PowerPolicy("equal", 1e6))
        assert stats.leak_violation_freq == 0.0

    def test_violation_freq_matches_state_rates(self, fp_leaky):
        stats = simulate_blocks(fp_leaky, PowerPolicy("equal", 100.0))
        recs = [block_secrecy_rates(zero_forcing(ch), 50.0, 50.0) for ch in fp_leaky.states]
        bad_states = {
            s + 1
            for s, r in enumerate(recs)
            if r.leak[0] > r.tx[0] or r.leak[1] > r.tx[1]
        }
        want = np.mean(
            [sample_block(fp_leaky, t)[0] in bad_states for t in range(1, 2001)]
        )
        assert stats.leak_violation_freq == pytest.approx(float(want), abs=1e-15)

    def test_reruns_bit_identical(self):
        fp = FadingProcess(4, 2, 2, common_state_count=4, block_count=500, seed=0)
        a = simulate_blocks(fp, PowerPolicy("equal", 123.0))
        b = simulate_blocks(fp, PowerPolicy("equal", 123.0))
        assert a.r1_mean == b.r1_mean
        assert a.r2_mean == b.r2_mean


class TestSlopes:
    def test_leakage_free_regime(self):
        fp = FadingProcess(4, 2, 2, common_state_count=4, block_count=2000, seed=0)
        _, (e1, e2) = ergodic_slope_estimates(fp, "equal", (60.0, 80.0, 100.0))
        t1, t2 = policy_slope_targets(4, 2, 2, "equal")
        assert e1.slope == pytest.approx(float(t1), abs=0.05)
        assert e2.slope == pytest.approx(float(t2), abs=0.05)
        assert float(t1) == 1.0 and float(t2) == 1.0

    @pytest.mark.parametrize("kind", ["full1", "full2", "equal"])
    def test_leaky_regime_policies(self, fp_leaky, kind):
        targets = policy_slope_targets(7, 8, 8, kind)
        _, ests = ergodic_slope_estimates(fp_leaky, kind, (60.0, 80.0, 100.0))
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
