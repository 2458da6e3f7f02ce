"""Beamformer certificates, closed-form rate oracles, and slope laws."""

import itertools
from fractions import Fraction as F
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from compound_bcc import gaussian
from compound_bcc.channel import (
    ChannelGenSpec,
    CompoundChannelSet,
    generate_batch,
    generate_compound,
    stacked_sets,
    swap_users,
)
from compound_bcc.ergodic import ZfBlockGains
from compound_bcc.errors import (
    CompoundBccError,
    ConstructionError,
    FeasibilityError,
    InvalidInputError,
)
from compound_bcc.gaussian import (
    BeamformerSet,
    PowerAllocation,
    build_beamformers,
    build_beamformers_batch,
    build_common_beamformer,
    build_confidential_beamformers,
    common_slope_target,
    confidential_stream_bounds,
    equal_power,
    equal_power_slopes,
    equal_power_slopes_batch,
    gaussian_confidential_region,
    gaussian_sdof_region,
    rate_common,
    rate_confidential,
    rate_leakage,
    worst_case_rates,
)
from compound_bcc.regions import nontrivial_vertices
from compound_bcc.sdof import estimate_sdof_series, snr_db_to_power


def make_channel(M, N1, N2, J1, J2, seed=0):
    return generate_compound(ChannelGenSpec(M=M, N1=N1, N2=N2, J1=J1, J2=J2, seed=seed))


def axis_channel():
    """M = 2 with h1 = e1^T and h2 = e2^T: every quantity is closed form."""
    return CompoundChannelSet(
        M=2, N1=1, N2=1, J1=1, J2=1,
        h1=(np.array([[1.0 + 0j, 0.0]]),),
        h2=(np.array([[0.0, 1.0 + 0j]]),),
    )


@pytest.mark.parametrize("k", [0, 3])
def test_user_index_outside_one_two_rejected(k):
    ch = axis_channel()
    bf = build_beamformers(ch, 1, 1)
    gains = ZfBlockGains(phi1=np.ones((1, 2)), phi2=np.ones((1, 2)), nulled1=1, nulled2=1)
    accessors = (
        lambda: ch.state(k, 1),
        lambda: ch.states(k),
        lambda: bf.confidential(k),
        lambda: equal_power(bf, 1.0).confidential(k),
        lambda: gains.phi(k),
        lambda: gains.nulled(k),
    )
    for get in accessors:
        with pytest.raises(InvalidInputError, match="user index"):
            get()


class TestStreamBounds:
    def test_plenty_of_room(self):
        assert confidential_stream_bounds(4, 1, 1, 2, 2) == (1, 1)

    def test_receiver_limited(self):
        assert confidential_stream_bounds(8, 2, 1, 2, 2) == (2, 1)

    def test_null_space_limited(self):
        assert confidential_stream_bounds(4, 2, 1, 1, 2) == (2, 1)

    def test_no_room(self):
        assert confidential_stream_bounds(2, 1, 1, 2, 2) == (0, 0)


class TestBeamformerConstruction:
    def test_infeasible_quotes_bound(self):
        ch = make_channel(4, 1, 1, 2, 2)
        with pytest.raises(FeasibilityError, match=r"r1 = 2 violates.*min\(1, 4 - 2\) = 1"):
            build_confidential_beamformers(ch, 2, 1)

    def test_negative_stream_count(self):
        ch = make_channel(4, 1, 1, 2, 2)
        with pytest.raises(FeasibilityError, match="nonnegative"):
            build_confidential_beamformers(ch, -1, 0)

    def test_certificates_over_seeds(self):
        # nulling and rank certificates must hold for every generic draw
        for seed in range(10):
            ch = make_channel(5, 2, 1, 1, 2, seed=seed)
            bf = build_beamformers(ch, 2, 1)
            assert bf.r1 == 2 and bf.r2 == 1
            for k, v in ((1, bf.v1), (2, bf.v2)):
                for h in ch.states(3 - k):
                    assert np.linalg.norm(h @ v) <= 1e-9 * np.linalg.norm(h)

    def test_common_subspace_dimension(self):
        ch = make_channel(5, 2, 1, 1, 2)
        bf = build_beamformers(ch, 2, 1)
        assert bf.K == 5 - 3
        stacked = np.hstack([bf.v1, bf.v2])
        assert np.linalg.norm(bf.v0.conj().T @ stacked) < 1e-9

    def test_k_zero_when_streams_fill_space(self):
        ch = axis_channel()
        bf = build_beamformers(ch, 1, 1)
        assert bf.K == 0
        assert bf.v0.shape == (2, 0)

    def test_no_streams_gives_full_common_space(self):
        ch = make_channel(3, 1, 1, 2, 2)
        bf = build_beamformers(ch, 0, 0)
        assert bf.K == 3
        assert np.allclose(bf.v0 @ bf.v0.conj().T, np.eye(3), atol=1e-12)

    def test_tampered_beamformer_fails_certification(self):
        ch = make_channel(4, 1, 1, 2, 2)
        bf = build_confidential_beamformers(ch, 1, 1)
        bad = BeamformerSet(v1=bf.v2, v2=bf.v2)  # v1 now lies in user 2's space
        with pytest.raises(ConstructionError):
            from compound_bcc.gaussian import certify_confidential

            certify_confidential(ch, bad)


class TestPowerAllocation:
    def test_equal_power_split(self):
        ch = make_channel(4, 1, 1, 2, 2)
        bf = build_beamformers(ch, 1, 1)  # K = 2, four streams total
        pa = equal_power(bf, 8.0)
        assert pa.p0.tolist() == [2.0, 2.0]
        assert pa.p1.tolist() == [2.0]
        assert pa.p2.tolist() == [2.0]

    def test_overspend_rejected(self):
        with pytest.raises(InvalidInputError, match="exceeds budget"):
            PowerAllocation(total=1.0, p0=np.array([1.0]), p1=np.array([0.5]), p2=np.array([]))

    def test_negative_power_rejected(self):
        with pytest.raises(InvalidInputError):
            PowerAllocation(total=1.0, p0=np.array([-0.1]), p1=np.array([]), p2=np.array([]))

    @pytest.mark.parametrize("total", [np.nan, np.inf])
    def test_non_finite_total(self, total):
        with pytest.raises(InvalidInputError, match="finite"):
            PowerAllocation(total=total, p0=np.array([]), p1=np.array([]), p2=np.array([]))

    @pytest.mark.parametrize("name", ["p0", "p1", "p2"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_stream_power_named(self, name, bad):
        powers = {"p0": np.array([0.1]), "p1": np.array([0.1]), "p2": np.array([0.1])}
        powers[name] = np.array([0.1, bad])
        with pytest.raises(InvalidInputError, match=f"^{name} must hold finite"):
            PowerAllocation(total=1.0, **powers)

    def test_zero_streams_zero_share(self):
        pa = PowerAllocation(total=0.0, p0=np.array([]), p1=np.array([]), p2=np.array([]))
        assert pa.p0.size == 0


class TestClosedFormRates:
    """Axis-aligned single-state channel where every rate is log2(1 + p)."""

    def test_confidential_rates(self):
        ch = axis_channel()
        bf = build_beamformers(ch, 1, 1)
        pa = equal_power(bf, 10.0)
        assert rate_confidential(ch, bf, pa, 1, 1) == pytest.approx(np.log2(6.0), abs=1e-12)
        assert rate_confidential(ch, bf, pa, 2, 1) == pytest.approx(np.log2(6.0), abs=1e-12)

    def test_leakage_exactly_zero(self):
        ch = axis_channel()
        bf = build_beamformers(ch, 1, 1)
        pa = equal_power(bf, 10.0)
        assert rate_leakage(ch, bf, pa, 1, 1) == 0.0
        assert rate_leakage(ch, bf, pa, 2, 1) == 0.0

    def test_worst_case_triple(self):
        ch = axis_channel()
        bf = build_beamformers(ch, 1, 1)
        triple = worst_case_rates(ch, bf, equal_power(bf, 10.0))
        assert triple.r0 == 0.0
        assert triple.r1 == pytest.approx(np.log2(6.0), abs=1e-12)
        assert triple.r2 == pytest.approx(np.log2(6.0), abs=1e-12)

    def test_rate_common_requires_v0(self):
        ch = axis_channel()
        bf = build_confidential_beamformers(ch, 1, 1)
        pa = PowerAllocation(total=1.0, p0=np.array([]), p1=np.array([0.5]), p2=np.array([0.5]))
        with pytest.raises(InvalidInputError, match="common part"):
            rate_common(ch, bf, pa, 1, 1)


def naive_rate(h, blocks):
    """Independent slogdet evaluation of the same mutual-information terms.

    blocks is a list of (V, p) pairs contributing to the covariance. Safe
    only at moderate power, which is all an oracle needs.
    """
    n = h.shape[0]
    cov = np.zeros((n, n), dtype=complex)
    for v, p in blocks:
        hv = h @ v
        cov += hv @ np.diag(p).astype(complex) @ hv.conj().T
    sign, ld = np.linalg.slogdet(np.eye(n) + cov)
    assert sign.real > 0
    return ld / np.log(2.0)


class TestRateOracle:
    """Cholesky pipeline vs an independent slogdet evaluation at P = 100."""

    def setup_method(self):
        self.ch = make_channel(4, 2, 1, 1, 2, seed=3)
        self.bf = build_beamformers(self.ch, 2, 1)
        self.pa = equal_power(self.bf, 100.0)

    def test_confidential_matches(self):
        for k in (1, 2):
            v = self.bf.confidential(k)
            p = self.pa.confidential(k)
            for j in range(1, (self.ch.J1 if k == 1 else self.ch.J2) + 1):
                want = naive_rate(self.ch.state(k, j), [(v, p)])
                got = rate_confidential(self.ch, self.bf, self.pa, k, j)
                assert got == pytest.approx(want, abs=1e-9)

    def test_common_matches(self):
        for k in (1, 2):
            v = self.bf.confidential(k)
            p = self.pa.confidential(k)
            for j in range(1, (self.ch.J1 if k == 1 else self.ch.J2) + 1):
                h = self.ch.state(k, j)
                want = naive_rate(h, [(self.bf.v0, self.pa.p0), (v, p)]) - naive_rate(h, [(v, p)])
                got = rate_common(self.ch, self.bf, self.pa, k, j)
                assert got == pytest.approx(want, abs=1e-9)

    def test_worst_case_is_min_over_states(self):
        triple = worst_case_rates(self.ch, self.bf, self.pa)
        r0 = min(
            rate_common(self.ch, self.bf, self.pa, k, j)
            for k, jmax in ((1, self.ch.J1), (2, self.ch.J2))
            for j in range(1, jmax + 1)
        )
        assert triple.r0 == pytest.approx(r0, abs=1e-12)


class TestLeakageContract:
    def test_leakage_stays_below_budget_tolerance(self):
        # the channel is applied before the powers, so the certified nulling
        # residual must not be amplified even at P = 1e10
        for seed in range(30):
            ch = make_channel(4, 1, 1, 2, 2, seed=seed)
            bf = build_beamformers(ch, 1, 1)
            for power in (1e4, 1e8, 1e10):
                assert worst_case_rates(ch, bf, equal_power(bf, power)).leakage <= 1e-8

    def test_multiantenna_leakage(self):
        for seed in range(10):
            ch = make_channel(5, 2, 2, 1, 1, seed=seed)
            bf = build_beamformers(ch, 2, 2)
            assert worst_case_rates(ch, bf, equal_power(bf, 1e10)).leakage <= 1e-8


    def test_leakage_is_worst_over_unintended_states(self):
        # beams outside the null spaces leak; the triple reports the largest
        # leakage and subtracts each stream's own worst from its rate; at
        # seed 1 the clamp at zero holds for r2 only
        ch = make_channel(4, 1, 1, 2, 2, seed=1)
        q = np.linalg.qr(np.random.default_rng(1).standard_normal((4, 4)) + 0j)[0]
        bf = BeamformerSet(v1=q[:, :1], v2=q[:, 1:2], v0=q[:, 2:])
        pa = equal_power(bf, 100.0)
        leaks = {k: max(rate_leakage(ch, bf, pa, k, l) for l in (1, 2)) for k in (1, 2)}
        rt = worst_case_rates(ch, bf, pa)
        assert rt.leakage == max(leaks.values()) > 1.0
        assert rt.r1 > 0.0 == rt.r2
        for k, r in ((1, rt.r1), (2, rt.r2)):
            own = min(rate_confidential(ch, bf, pa, k, j) for j in (1, 2))
            assert r == max(0.0, own - leaks[k])


class TestSymmetryAndMonotonicity:
    def test_user_swap_swaps_rates(self):
        ch = make_channel(4, 1, 1, 2, 2, seed=7)
        bf = build_beamformers(ch, 1, 1)
        sw = swap_users(ch)
        bf_sw = build_beamformers(sw, 1, 1)
        for total in (10.0, 1e4):
            a = worst_case_rates(ch, bf, equal_power(bf, total))
            b = worst_case_rates(sw, bf_sw, equal_power(bf_sw, total))
            assert b.r1 == pytest.approx(a.r2, abs=1e-9)
            assert b.r2 == pytest.approx(a.r1, abs=1e-9)
            assert b.r0 == pytest.approx(a.r0, abs=1e-9)

    def test_rates_nondecreasing_in_power(self):
        ch = make_channel(4, 2, 1, 1, 1, seed=2)
        bf = build_beamformers(ch, 1, 0)
        prev = (0.0, 0.0, 0.0)
        for db in (40.0, 60.0, 80.0, 100.0):
            cur = worst_case_rates(ch, bf, equal_power(bf, 10 ** (db / 10))).as_tuple()
            assert all(c >= p - 1e-9 for c, p in zip(cur, prev))
            prev = cur


def reference_rates(ch, bf, pa):
    """worst_case_rates as a loop over the scalar rate functions, in their
    order: (r0, r1, r2, leakage)."""
    if bf.K == 0 or pa.p0.sum() == 0.0:
        r0 = 0.0
    else:
        r0 = min(
            rate_common(ch, bf, pa, k, j)
            for k in (1, 2)
            for j in range(1, len(ch.states(k)) + 1)
        )
    conf = {}
    worst = 0.0
    for k in (1, 2):
        if bf.confidential(k).shape[1] == 0:
            conf[k] = 0.0
            continue
        own = min(rate_confidential(ch, bf, pa, k, j) for j in range(1, len(ch.states(k)) + 1))
        leak = max(rate_leakage(ch, bf, pa, k, l) for l in range(1, len(ch.states(3 - k)) + 1))
        worst = max(worst, leak)
        conf[k] = max(0.0, own - leak)
    return (r0, conf[1], conf[2], worst)


def unnulled(bf, seed):
    """Random orthonormal beams of bf's widths, column slices of one unitary:
    they leak, and their strides differ from a contiguous copy's."""
    m = bf.v1.shape[0]
    q = np.linalg.qr(np.random.default_rng(seed).standard_normal((m, m)) + 0j)[0]
    r1, r2 = bf.r1, bf.r2
    return BeamformerSet(v1=q[:, :r1], v2=q[:, r1:r1 + r2], v0=q[:, r1 + r2:])


@st.composite
def scenarios(draw):
    """Dimensions, feasible stream counts (K = 0 and r = 0 included), a seed
    and whether the beams are the certified ones or leaky ones."""
    M = draw(st.integers(1, 9))
    N1, N2 = draw(st.integers(1, min(M, 3))), draw(st.integers(1, min(M, 3)))
    J1, J2 = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    b1, b2 = confidential_stream_bounds(M, N1, N2, J1, J2)
    r1, r2 = draw(st.integers(0, b1)), draw(st.integers(0, b2))
    return (M, N1, N2, J1, J2, r1, r2), draw(st.integers(0, 2**16)), draw(st.booleans())


def built(dims, seed, leaky):
    M, N1, N2, J1, J2, r1, r2 = dims
    ch = make_channel(M, N1, N2, J1, J2, seed=seed)
    bf = build_beamformers(ch, r1, r2)
    return ch, unnulled(bf, seed) if leaky else bf


def raised(call):
    with pytest.raises(Exception) as exc:
        call()
    return type(exc.value), str(exc.value)


class TestStackedEvaluator:
    """The stacked evaluation against the scalar rate functions, bit for bit."""

    @settings(max_examples=80, deadline=None)
    @given(
        scenario=scenarios(),
        powers=st.lists(st.floats(1e-2, 1e12), min_size=1, max_size=3),
        split=st.lists(st.floats(0.0, 1.0), min_size=3, max_size=3),
    )
    @example(scenario=((2, 1, 1, 1, 1, 1, 1), 0, False), powers=[1e6], split=[1, 1, 1])  # K = 0
    @example(scenario=((4, 1, 1, 2, 2, 0, 0), 0, False), powers=[1e6], split=[1, 1, 1])  # r = 0
    @example(scenario=((6, 2, 2, 1, 1, 2, 2), 5, True), powers=[1e6], split=[0, 1, 1])  # p0 = 0
    # h v with v a column slice: a contiguous copy of v changes its bits
    @example(scenario=((8, 1, 1, 1, 1, 1, 1), 0, False), powers=[1e2], split=[0, 0, 0])
    def test_worst_case_rates_match_reference(self, scenario, powers, split):
        ch, bf = built(*scenario)
        for total in powers:
            allocations = [equal_power(bf, total)]
            if sum(split):
                w = [np.full(n, x / sum(split) / max(n, 1)) for n, x in zip((bf.K, bf.r1, bf.r2), split)]
                allocations.append(PowerAllocation(total, *(total * 0.999 * x for x in w)))
            for pa in allocations:
                rt = worst_case_rates(ch, bf, pa)
                assert (rt.r0, rt.r1, rt.r2, rt.leakage) == reference_rates(ch, bf, pa)

    @settings(max_examples=25, deadline=None)
    @given(
        scenario=scenarios(),
        trials=st.integers(1, 4),
        points=st.sets(st.integers(4, 14), min_size=3, max_size=5).filter(
            lambda s: max(s) - min(s) >= 2
        ),
    )
    def test_batch_matches_reference(self, scenario, trials, points):
        dims, seed, leaky = scenario
        pairs = [built(dims, seed + t, leaky) for t in range(trials)]
        grid = [10.0 * x for x in sorted(points)]
        got = equal_power_slopes_batch(pairs, grid)
        assert len(got) == trials
        for (ch, bf), (triples, ests) in zip(pairs, got):
            want = [reference_rates(ch, bf, equal_power(bf, float(p))) for p in snr_db_to_power(grid)]
            assert [(t.r0, t.r1, t.r2, t.leakage) for t in triples] == want
            assert ests == tuple(estimate_sdof_series(grid, [w[i] for w in want]) for i in range(3))
            assert equal_power_slopes(ch, bf, grid) == (triples, ests)

    def test_batch_groups_pairs_of_equal_dimensions(self):
        # mixed dimensions are evaluated group by group, in the given order
        pairs = [
            built((4, 1, 1, 2, 2, 1, 1), 0, False),
            built((4, 1, 1, 2, 2, 1, 1), 1, False),
            built((5, 2, 1, 1, 2, 2, 1), 2, False),
            built((4, 1, 1, 2, 2, 1, 1), 3, True),
        ]
        got = equal_power_slopes_batch(pairs)
        assert got == [equal_power_slopes(ch, bf) for ch, bf in pairs]
        assert equal_power_slopes_batch([]) == []

    @staticmethod
    def check_reference_error(pairs, grid):
        """The batch fails as the per-trial, per-point scalar evaluation does:
        same error type and message, or both pass."""
        def reference():
            for ch, bf in pairs:
                for p in snr_db_to_power(grid):
                    reference_rates(ch, bf, equal_power(bf, float(p)))

        with np.errstate(all="ignore"):
            try:
                reference()
            except Exception:
                assert raised(lambda: equal_power_slopes_batch(pairs, grid)) == raised(reference)
            else:
                equal_power_slopes_batch(pairs, grid)

    @settings(max_examples=15, deadline=None)
    @given(scenario=scenarios(), trials=st.integers(1, 3), top=st.floats(2900.0, 3082.0))
    def test_failure_near_the_float_limit_is_the_reference_error(self, scenario, trials, top):
        # near the float limit the grams overflow or lose definiteness
        dims, seed, leaky = scenario
        pairs = [built(dims, seed + t, leaky) for t in range(trials)]
        self.check_reference_error(pairs, [60.0, top - 20.0, top])

    @pytest.mark.parametrize("dims, leaky, top", [
        # a later trial fails in an earlier log-det kind than the first
        # failing trial does
        ((4, 2, 2, 1, 1, 1, 1), True, 3082.0),
        ((5, 3, 1, 1, 2, 1, 1), False, 3044.5),
        ((7, 3, 3, 1, 1, 1, 1), True, 3052.0),
        # a common-rate numerator overflows before its denominator, which
        # is indefinite, is reached
        ((5, 3, 1, 1, 2, 1, 1), False, 3082.0),
        ((6, 3, 2, 1, 1, 1, 1), True, 3080.5),
        # both
        ((6, 2, 2, 1, 2, 1, 1), False, 3080.5),
    ])
    def test_failure_order_across_trials_and_kinds(self, dims, leaky, top):
        pairs = [built(dims, seed, leaky) for seed in range(3)]
        self.check_reference_error(pairs, [60.0, 80.0, top])

    @pytest.mark.parametrize("seed", range(4))
    def test_failure_without_common_power_is_the_reference_error(self, seed):
        # with p0 = 0 the common rate is skipped, so the leakage of stream 1
        # is met before user 2's confidential log-det
        ch, bf = built((6, 1, 3, 1, 1, 1, 2), seed, True)
        for db in (2000.0, 3000.0, 3080.0):
            total = 10.0 ** (db / 10.0)
            p = np.full(3, total / 3.0)
            pa = PowerAllocation(total, np.zeros(bf.K), p[:1], p[1:])
            with np.errstate(all="ignore"):
                try:
                    want = reference_rates(ch, bf, pa)
                except Exception:
                    assert raised(lambda: worst_case_rates(ch, bf, pa)) == raised(
                        lambda: reference_rates(ch, bf, pa)
                    )
                else:
                    rt = worst_case_rates(ch, bf, pa)
                    assert (rt.r0, rt.r1, rt.r2, rt.leakage) == want


def per_trial_builds(chs, r1, r2, tol=gaussian.DEFAULT_TOL):
    """build_beamformers channel by channel, stopping at the first error:
    the prefix of sets built and that error's (type, message)."""
    bfs = []
    for ch in chs:
        try:
            bfs.append(build_beamformers(ch, r1, r2, tol))
        except CompoundBccError as e:
            return bfs, (type(e), str(e))
    return bfs, None


def stack_of(chs):
    """The state stacks (h1, h2) of channels of equal dimensions, C-ordered."""
    return tuple(np.array([ch.states(k) for ch in chs]) for k in (1, 2))


def batch_builds(chs, r1, r2):
    """build_beamformers_batch of the chunk of chs: (bfs, error)."""
    bfs, _, error = build_beamformers_batch(stack_of(chs), r1, r2)
    return bfs, error


def assert_same_builds(got, want):
    """Beamformer lists equal bit for bit, with the one-trial strides."""
    assert len(got) == len(want)
    for g, w in zip(got, want):
        for a, b in ((g.v0, w.v0), (g.v1, w.v1), (g.v2, w.v2)):
            assert a.shape == b.shape and a.strides == b.strides
            assert a.tobytes() == b.tobytes()


def crafted_channel(kind, seed=0):
    """M = 5, N1 = 2, N2 = 1, J = 2 channels whose construction is not generic."""
    g = make_channel(5, 2, 1, 2, 2, seed=seed)
    h1, h2 = list(g.h1), list(g.h2)
    if kind == "rank":  # a row of H_1_1 lies in user 2's row space
        h1[0] = h1[0].copy()
        h1[0][0] = h2[0][0] + 2.0 * h2[1][0]
    elif kind == "leak":  # H_2_2 is below the rank threshold of user 2's rows
        h2[1] = 1e-12 * h2[1]
    elif kind == "duplicate":  # user 2's rows have rank 1, and the build passes
        h2[1] = h2[0].copy()
    ch = CompoundChannelSet(5, 2, 1, 2, 2, tuple(h1), tuple(h2))
    if kind == "nan":
        ch.h2[0][0, 1] = np.nan  # the arrays stay writable after construction
    return ch


class TestChunkedBuild:
    """build_beamformers_batch against per-trial build_beamformers."""

    @settings(max_examples=60, deadline=None)
    @given(scenario=scenarios(), trials=st.integers(1, 5))
    @example(scenario=((2, 1, 1, 1, 1, 1, 1), 0, False), trials=3)  # K = 0
    @example(scenario=((4, 1, 1, 2, 2, 0, 0), 0, False), trials=3)  # r = 0
    @example(scenario=((9, 3, 3, 2, 2, 3, 3), 0, False), trials=2)
    @example(scenario=((8, 1, 1, 1, 1, 1, 1), 0, False), trials=2)
    def test_generic_channels_match_per_trial_build(self, scenario, trials):
        (M, N1, N2, J1, J2, r1, r2), seed, _ = scenario
        chs = [make_channel(M, N1, N2, J1, J2, seed=seed + t) for t in range(trials)]
        # generic channels pass every screen: no one-trial rebuild
        with mock.patch.object(gaussian, "build_beamformers", side_effect=AssertionError):
            bfs, error = batch_builds(chs, r1, r2)
        assert error is None
        assert_same_builds(bfs, per_trial_builds(chs, r1, r2)[0])

    @pytest.mark.parametrize("kind, message", [
        ("rank", "H_1_1 @ v1 has rank 1, expected 2"),
        ("leak", "v1 leaks into H_2_2"),
        ("nan", "non-finite"),
        ("duplicate", None),
    ])
    @pytest.mark.parametrize("where", [0, 2])
    def test_crafted_channel_is_the_per_trial_error(self, kind, message, where):
        chs = [make_channel(5, 2, 1, 2, 2, seed=s) for s in range(4)]
        chs.insert(where, crafted_channel(kind, seed=9))
        bfs, error = batch_builds(chs, 2, 1)
        want, want_error = per_trial_builds(chs, 2, 1)
        assert_same_builds(bfs, want)
        if message is None:
            assert error is None and len(bfs) == 5
        else:
            assert len(bfs) == where and message in want_error[1]
            assert (type(error), str(error)) == want_error

    @pytest.mark.parametrize("call", [0, 1, 2])  # user 2's, user 1's, the common part's
    @pytest.mark.parametrize("perturb", ["rotate", "scale"])
    def test_each_certificate_screen_catches_a_bad_stacked_basis(self, call, perturb):
        # one trial's stacked basis is replaced by a leaky orthonormal one or
        # by a slightly non-orthonormal one; the screens must send that trial
        # to build_beamformers, which builds it correctly
        real = gaussian.generic_null_spaces
        calls = []

        def tampered(a, tol):
            bases, generic = real(a, tol)
            if len(calls) == call:
                m, c = bases.shape[1:]
                rng = np.random.default_rng(call)
                q = np.linalg.qr(rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m)))[0]
                bases = bases.copy()
                bases[1] = q[:, :c] if perturb == "rotate" else bases[1] * (1 + 1e-8)
            calls.append(a)
            return bases, generic

        chs = [make_channel(5, 2, 1, 2, 2, seed=s) for s in range(3)]
        with mock.patch.object(gaussian, "generic_null_spaces", tampered):
            bfs, error = batch_builds(chs, 2, 1)
        assert len(calls) == 3 and error is None
        assert_same_builds(bfs, per_trial_builds(chs, 2, 1)[0])

    @pytest.mark.parametrize("r1, r2", [(2, 1), (-1, 0)])
    def test_infeasible_streams_fail_at_the_first_channel(self, r1, r2):
        chs = [make_channel(4, 1, 1, 2, 2, seed=s) for s in range(3)]
        bfs, error = batch_builds(chs, r1, r2)
        assert bfs == [] and isinstance(error, FeasibilityError)
        assert (type(error), str(error)) == per_trial_builds(chs, r1, r2)[1]

    def test_empty_chunk(self):
        # a chunk holds channels of one set of dimensions (generate_batch
        # rejects mixed specs); mixed pairs are grouped by the evaluator
        empty = np.zeros((0, 2, 1, 4), complex)
        assert build_beamformers_batch((empty, empty), 1, 1) == ([], None, None)


class TestStackedProducts:
    """h v of a chunk's stacks against the per-trial products, bit for bit."""

    @settings(max_examples=60, deadline=None)
    @given(scenario=scenarios(), trials=st.integers(1, 4))
    @example(scenario=((2, 1, 1, 1, 1, 1, 1), 0, False), trials=2)  # K = 0
    @example(scenario=((4, 1, 1, 2, 2, 0, 0), 0, False), trials=2)  # r = 0
    @example(scenario=((9, 3, 3, 2, 2, 3, 3), 0, False), trials=3)
    @example(scenario=((8, 1, 1, 1, 1, 1, 1), 0, False), trials=2)  # v a column slice
    def test_stacked_products_equal_per_trial_products(self, scenario, trials):
        (M, N1, N2, J1, J2, r1, r2), seed, _ = scenario
        specs = [ChannelGenSpec(M, N1, N2, J1, J2, seed=seed + t) for t in range(trials)]
        h, _ = generate_batch(specs)
        bfs, stack, error = build_beamformers_batch(h, r1, r2)
        assert error is None and stack[2].all()
        pairs = list(zip(stacked_sets(h), bfs))
        got = gaussian._beam_products(pairs, stack)
        want = gaussian._beam_products(pairs)
        for g, w in zip(sum(got, []), sum(want, [])):
            assert g.shape == w.shape and g.tobytes() == w.tobytes()
        for t, (ch, bf) in enumerate(pairs):  # the 2-D products themselves
            for k, b in itertools.product((1, 2), range(3)):
                v = (bf.v0, bf.v1, bf.v2)[b]
                for j, hj in enumerate(ch.states(k)):
                    assert got[k - 1][b][t, j].tobytes() == (hj @ v).tobytes()

    @pytest.mark.parametrize("where", [[1], [0, 3], [0, 1, 2, 3]])
    def test_chunk_mixing_stacked_and_rebuilt_trials(self, where):
        # the "duplicate" channel is rebuilt by build_beamformers; the others
        # are dropped from the stack by hand, so their one-trial rebuild and
        # per-trial products stand in
        chs = [make_channel(5, 2, 1, 2, 2, seed=s) for s in range(4)]
        chs[where[0]] = crafted_channel("duplicate", seed=9)
        h = stack_of(chs)
        real = gaussian._stacked_beamformers

        def dropping(h, r1, r2, tol):
            bfs, stack = real(h, r1, r2, tol)
            for t in where:
                bfs[t] = None
                stack[2][t] = False
            return bfs, stack

        with mock.patch.object(gaussian, "_stacked_beamformers", dropping):
            bfs, stack, error = build_beamformers_batch(h, 2, 1)
        assert error is None and stack[2].tolist() == [t not in where for t in range(4)]
        pairs = list(zip(stacked_sets(h), bfs))
        assert_same_builds(bfs, per_trial_builds(chs, 2, 1)[0])
        got = equal_power_slopes_batch(pairs, (60.0, 80.0, 100.0), stack)
        assert got == equal_power_slopes_batch(pairs, (60.0, 80.0, 100.0))
        assert got == [equal_power_slopes(ch, bf, (60.0, 80.0, 100.0)) for ch, bf in pairs]


# (M, N1, N2, J1, J2, r1, r2) across all region shapes with feasible streams
SLOPE_CONFIGS = [
    (4, 1, 1, 2, 2, 1, 1),
    (4, 2, 1, 1, 1, 1, 0),
    (6, 3, 2, 1, 1, 2, 1),
    (8, 2, 2, 2, 2, 1, 1),
    (5, 2, 2, 1, 1, 1, 2),
]


class TestSlopeLaw:
    @pytest.mark.parametrize("cfg", SLOPE_CONFIGS)
    def test_slopes_match_targets(self, cfg):
        M, N1, N2, J1, J2, r1, r2 = cfg
        for seed in range(4):
            ch = make_channel(M, N1, N2, J1, J2, seed=seed)
            bf = build_beamformers(ch, r1, r2)
            _, (e0, e1, e2) = equal_power_slopes(ch, bf)
            target0 = common_slope_target(N1, N2, r1, r2, bf.K)
            assert e0.slope == pytest.approx(target0, abs=0.05)
            assert e1.slope == pytest.approx(r1, abs=0.05)
            assert e2.slope == pytest.approx(r2, abs=0.05)

    def test_common_target_values(self):
        assert common_slope_target(1, 1, 1, 1, 2) == 0
        assert common_slope_target(2, 1, 1, 0, 3) == 1
        assert common_slope_target(2, 2, 0, 0, 4) == 2
        assert common_slope_target(3, 2, 2, 1, 3) == 1


class TestSdofRegion:
    @pytest.mark.parametrize("args", [(True, 1, 1, 2, 2), (4, 1, 1, 2.0, 2), (4, 0, 1, 2, 2)])
    def test_bad_dimensions_rejected(self, args):
        with pytest.raises(InvalidInputError, match="positive integer"):
            gaussian_sdof_region(*args)

    def test_room_for_both(self):
        r = gaussian_sdof_region(4, 1, 1, 2, 2)
        assert set(r.vertices) == {
            (F(0), F(0), F(0)), (F(1), F(0), F(0)), (F(0), F(1), F(0)),
            (F(0), F(0), F(1)), (F(0), F(1), F(1)),
        }

    def test_no_room_common_only(self):
        r = gaussian_sdof_region(2, 1, 1, 2, 2)
        assert set(nontrivial_vertices(r)) == {(F(1), F(0), F(0))}

    def test_one_sided_room(self):
        r = gaussian_sdof_region(3, 1, 1, 2, 3)
        assert set(r.vertices) == {
            (F(0), F(0), F(0)), (F(1), F(0), F(0)), (F(0), F(0), F(1)),
        }

    def test_mirror_case(self):
        a = gaussian_sdof_region(3, 1, 1, 3, 2)
        assert set(a.vertices) == {
            (F(0), F(0), F(0)), (F(1), F(0), F(0)), (F(0), F(1), F(0)),
        }

    def test_multiantenna_tradeoff(self):
        # d0 + d_k <= N_k binds: common and confidential share receive antennas
        r = gaussian_sdof_region(4, 2, 1, 1, 1)
        assert set(r.vertices) == {
            (F(0), F(0), F(0)), (F(0), F(0), F(1)), (F(0), F(2), F(0)),
            (F(0), F(2), F(1)), (F(1), F(0), F(0)), (F(1), F(1), F(0)),
        }

    def test_invalid_dimension(self):
        with pytest.raises(InvalidInputError):
            gaussian_sdof_region(0, 1, 1, 1, 1)

    def test_confidential_slice(self):
        r = gaussian_confidential_region(4, 1, 1, 2, 2)
        assert set(nontrivial_vertices(r)) == {(F(1), F(0)), (F(1), F(1)), (F(0), F(1))}
