"""Beamformer certificates, closed-form rate oracles, and slope laws."""

import itertools
import math
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
)
from compound_bcc.ergodic import ZfBlockGains
from compound_bcc.errors import (
    CompoundBccError,
    ConstructionError,
    FeasibilityError,
    InvalidGridError,
    InvalidInputError,
)
from compound_bcc.gaussian import (
    BeamformerSet,
    PowerAllocation,
    RateTriple,
    build_beamformers,
    build_beamformers_batch,
    equal_power,
    equal_power_slopes,
    run_trials,
    worst_case_rates,
)
from compound_bcc.linalg import numerical_rank
from compound_bcc.regions import nontrivial_vertices
from compound_bcc.sdof import SdofEstimate, estimate_sdof_series, snr_db_to_power
from compound_bcc.theory import (
    common_slope_target,
    confidential_stream_bounds,
    gaussian_confidential_region,
    gaussian_sdof_region,
)
from reference import (
    build_beamformers_per_trial,
    certify_beamformers,
    hermitian_gram,
    logdet2_cholesky,
    logdet2_exact,
    rate_common,
    rate_confidential,
    rate_leakage,
    rank_threshold,
    swap_users,
)


def make_channel(M, N1, N2, J1, J2, seed=0):
    return generate_compound(ChannelGenSpec(M=M, N1=N1, N2=N2, J1=J1, J2=J2, seed=seed))


def axis_channel():
    """M = 2 with h1 = e1^T and h2 = e2^T: every quantity is closed form."""
    return CompoundChannelSet(
        M=2, N1=1, N2=1, J1=1, J2=1,
        h1=(np.array([[1.0 + 0j, 0.0]]),),
        h2=(np.array([[0.0, 1.0 + 0j]]),),
    )


@pytest.mark.parametrize("k", [0, 3, True, 1.0])
def test_user_index_outside_one_two_rejected(k):
    ch = axis_channel()
    bf = build_beamformers(ch, 1, 1)
    gains = ZfBlockGains(
        phi1=np.ones((1, 2)), phi2=np.ones((1, 2)), nulled1=1, nulled2=1,
        v1=np.ones(2), v2=np.ones(2),
    )
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
            build_beamformers(ch, 2, 1)

    def test_negative_stream_count(self):
        ch = make_channel(4, 1, 1, 2, 2)
        with pytest.raises(FeasibilityError, match="nonnegative"):
            build_beamformers(ch, -1, 0)

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
        bf = build_beamformers(ch, 1, 1)
        bad = BeamformerSet(v1=bf.v2, v2=bf.v2, v0=bf.v0)  # v1 now lies in user 2's space
        with pytest.raises(ConstructionError):
            certify_beamformers(ch, bad)


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
    """The singular-value log-dets vs an independent slogdet evaluation at P = 100."""

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


def as_objects(rates, fits):
    """The (triples, estimates) of each trial, as equal_power_slopes gives them,
    from the arrays of _equal_power."""
    return [([RateTriple(*r) for r in trial], tuple(SdofEstimate(*f) for f in fit))
            for trial, fit in zip(rates.tolist(), fits.tolist())]


def evaluate_runs(products, grid):
    """_equal_power of each run's products, in order, as objects: the first
    error raised is the one that trial order meets, as in run_trials."""
    return [obj for ws in products for obj in as_objects(*gaussian._equal_power(ws, grid))]


def evaluate_chunk(pairs, grid):
    """The chunk of (channel, beams) pairs evaluated run by run, as objects:
    the trials whose beams build_beamformers_batch builds from the chunk's
    stacks take its products, any others (leaky or narrowed ones) are runs
    of their own, with their one-trial products."""
    h = stack_of([ch for ch, _ in pairs])
    bf = pairs[0][1]
    v, ws, error = build_beamformers_batch(h, bf.r1, bf.r2)
    assert error is None and len(v[0]) == len(pairs)
    products, start = [], 0
    for t, (_, bf) in enumerate(pairs):
        if any(a.tobytes() != b[t].tobytes() for a, b in zip((bf.v0, bf.v1, bf.v2), v)):
            products += [cut(ws, start, t), gaussian._beam_products([x[t:t + 1] for x in h], one_trial(bf))]
            start = t + 1
    return evaluate_runs(products + [cut(ws, start, len(pairs))], grid)


def cut(ws, start, stop):
    """The products ws of trials start..stop - 1."""
    return [[w[start:stop] for w in wk] for wk in ws]


def one_trial(bf):
    """The beams of a BeamformerSet as one-trial stacks (v0, v1, v2)."""
    return bf.v0[None], bf.v1[None], bf.v2[None]


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
        got = evaluate_chunk(pairs, grid)
        assert len(got) == trials
        for (ch, bf), (triples, ests) in zip(pairs, got):
            want = [reference_rates(ch, bf, equal_power(bf, float(p))) for p in snr_db_to_power(grid)]
            assert [(t.r0, t.r1, t.r2, t.leakage) for t in triples] == want
            assert ests == tuple(estimate_sdof_series(grid, [w[i] for w in want]) for i in range(3))
            assert equal_power_slopes(ch, bf, grid) == (triples, ests)

    @staticmethod
    def check_reference_error(pairs, grid):
        """The batch fails as the per-trial, per-point scalar evaluation does:
        same error type and message, or both pass. A non-finite log-det at a
        grid point is reported as that point's overflow."""
        def reference():
            for ch, bf in pairs:
                for db, p in zip(grid, snr_db_to_power(grid)):
                    try:
                        reference_rates(ch, bf, equal_power(bf, float(p)))
                    except InvalidInputError as e:
                        assert str(e) == "the received covariances overflow a float"
                        raise InvalidGridError(
                            f"snr_db_grid point {db:g} dB: the received covariances overflow a float"
                        ) from None

        with np.errstate(all="ignore"):
            try:
                reference()
            except Exception:
                assert raised(lambda: evaluate_chunk(pairs, grid)) == raised(reference)
            else:
                evaluate_chunk(pairs, grid)

    @settings(max_examples=15, deadline=None)
    @given(scenario=scenarios(), trials=st.integers(1, 3), top=st.floats(3070.0, 3082.5))
    def test_failure_near_the_float_limit_is_the_reference_error(self, scenario, trials, top):
        # near the float limit some log-dets overflow, and others do not
        dims, seed, leaky = scenario
        pairs = [built(dims, seed + t, leaky) for t in range(trials)]
        self.check_reference_error(pairs, [60.0, top - 20.0, top])

    @pytest.mark.parametrize("dims, leaky, grid", [
        # trial 0 overflows at the last point only, trial 1 at the middle
        # one already: the error names the last point
        ((4, 2, 2, 1, 1, 1, 1), False, [60.0, 3080.0, 3081.5]),
        ((6, 3, 2, 1, 1, 1, 1), True, [60.0, 3080.6, 3080.7]),
        # one receive antenna: trial 0 passes, trial 1 fails first
        ((4, 1, 1, 2, 2, 1, 1), False, [60.0, 3081.0, 3082.3]),
        # every trial passes just below its overflow
        ((5, 3, 1, 1, 2, 1, 1), False, [60.0, 3000.0, 3079.0]),
        # every trial fails at the last point
        ((5, 3, 1, 1, 2, 1, 1), False, [60.0, 80.0, 3082.0]),
    ])
    def test_failure_order_across_trials_and_points(self, dims, leaky, grid):
        pairs = [built(dims, seed, leaky) for seed in range(3)]
        self.check_reference_error(pairs, grid)

    def test_overflow_hidden_by_the_clamp_is_raised(self):
        # one trial, N = 1, one stream per beam, J1 = 2 and J2 = 1, at powers
        # 1 and 1e300. At 1e300 user 1's first state overflows in its own
        # and common log-dets, so its common rate is [inf - inf]+ = [nan]+ =
        # 0 and its worst own rate is the second state's: every rate is
        # finite, and the overflow shows in the log-dets alone
        def states(*xs):
            return np.array(xs, dtype=complex).reshape(1, len(xs), 1, 1)

        ws = [[states(1e10, 1.0), states(1e10, 1.0), states(1e-8, 1e-8)],
              [states(1.0), states(1e-8), states(1.0)]]
        ps = [np.array([1.0, 1e300]).reshape(1, 2, 1)] * 3
        with pytest.raises(InvalidGridError, match="^snr_db_grid point 3000 dB: the received covariances overflow a float$"):
            gaussian._stacked_rates(ws, ps, (0.0, 3000.0))
        with pytest.raises(InvalidInputError, match="^the received covariances overflow a float$"):
            gaussian._stacked_rates(ws, ps)
        assert np.isfinite(gaussian._stacked_rates(ws, [p[:, :1] for p in ps])).all()

    @pytest.mark.parametrize("seed", range(4))
    def test_failure_without_common_power_is_the_reference_error(self, seed):
        # with p0 = 0 no common-rate numerator is evaluated; without a grid
        # an overflowing log-det is an InvalidInputError (seeds 0, 1 and 3
        # overflow at 3082 dB, seed 3 at 3080 dB already)
        ch, bf = built((6, 1, 3, 1, 1, 1, 2), seed, True)
        for db in (2000.0, 3000.0, 3080.0, 3082.0):
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


def per_trial_builds(chs, r1, r2):
    """The one-trial oracle build_beamformers_per_trial channel by channel,
    stopping at the first error: the prefix of sets built and that error's
    (type, message)."""
    bfs = []
    for ch in chs:
        try:
            bfs.append(build_beamformers_per_trial(ch, r1, r2))
        except CompoundBccError as e:
            return bfs, (type(e), str(e))
    return bfs, None


def stack_of(chs):
    """The state stacks (h1, h2) of channels of equal dimensions, C-ordered."""
    return tuple(np.array([ch.states(k) for ch in chs]) for k in (1, 2))


def build_runs(h, r1, r2):
    """build_beamformers_batch over a chunk of state stacks h, run by run as
    run_trials calls it: (runs, error), runs the (v, ws) of each call."""
    runs, error = [], None
    while len(h[0]) and not error:
        v, ws, error = build_beamformers_batch(h, r1, r2)
        runs.append((v, ws))
        h = tuple(x[len(v[0]):] for x in h)
    return runs, error


def sets_of(runs):
    """The beamformer set of each trial of build_runs' runs: views of the
    beam stacks v of its run."""
    return [BeamformerSet(v1=v1, v2=v2, v0=v0) for v, _ in runs for v0, v1, v2 in zip(*v)]


def batch_builds(chs, r1, r2):
    """build_runs of the chunk of chs: (bfs, error)."""
    runs, error = build_runs(stack_of(chs), r1, r2)
    return sets_of(runs), error


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


def dropping(where, trials):
    """linalg.null_spaces, as gaussian calls it, with the trials ``where`` of
    a chunk of ``trials`` reported off the rank of every stack of more than
    one that holds them: each ends a run, and at the head of a stack is
    built as a one-trial stack. A stack of n holds the chunk's last n
    trials (see build_runs)."""
    real = gaussian.null_spaces

    def null_spaces(a):
        bases, at_rank = real(a)
        if len(a) > 1:
            at_rank[[t - trials + len(a) for t in where if t >= trials - len(a)]] = False
        return bases, at_rank

    return null_spaces


@st.composite
def degenerate_chunks(draw):
    """A chunk of generated channels (h1, h2) with stream counts, some
    channels made degenerate: a row of H_1_1 near the span of user 2's rows
    (H_1_1 v1 near zero), user 1's states near user 2's (v1 and v2 near
    parallel), a state or an antenna's column scaled, a non-finite entry."""
    M = draw(st.integers(2, 6))
    N1, N2 = draw(st.integers(1, 2)), draw(st.integers(1, 2))
    J1, J2 = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    b1, b2 = confidential_stream_bounds(M, N1, N2, J1, J2)
    r1, r2 = draw(st.integers(0, b1)), draw(st.integers(0, b2))
    seed, T = draw(st.integers(0, 2**16)), draw(st.integers(1, 4))
    h1, h2 = (x.copy() for x in stack_of(
        [make_channel(M, N1, N2, J1, J2, seed=seed + t) for t in range(T)]
    ))
    rng = np.random.default_rng(seed)
    edits = st.tuples(
        st.integers(0, 3), st.sampled_from(["span", "twin", "state", "column", "nan"]),
        st.sampled_from([0.0, 1e-12, 1e-8, 1e-4]),
    )
    for t, kind, eps in draw(st.lists(edits, max_size=3)):
        t = t % T
        noise = rng.standard_normal((N1, M)) + 1j * rng.standard_normal((N1, M))
        if kind == "span":
            coef = rng.standard_normal(J2 * N2) + 1j * rng.standard_normal(J2 * N2)
            h1[t, 0, 0] = coef @ h2[t].reshape(-1, M) + eps * noise[0]
        elif kind == "twin" and (J1, N1) == (J2, N2):
            h1[t] = h2[t] + eps * noise
        elif kind == "state":
            h2[t, 0] *= eps
        elif kind == "column":
            h1[t, ..., t % M] *= eps
        elif kind == "nan":
            h2[t, -1, 0, -1] = np.nan
    return (h1, h2), r1, r2


def generic_chunk(scenario):
    """Three generated channels of a scenario as a chunk ((h1, h2), r1, r2)."""
    (M, N1, N2, J1, J2, r1, r2), seed, _ = scenario
    return stack_of([make_channel(M, N1, N2, J1, J2, seed=seed + t) for t in range(3)]), r1, r2


class TestChunkedBuild:
    """build_beamformers_batch against the one-trial oracle."""

    @settings(max_examples=120, deadline=None)
    @given(chunk=degenerate_chunks() | scenarios().map(generic_chunk))
    def test_built_channels_have_k_of_the_rank_of_v1_v2(self, chunk):
        # K = M - rank [v1 v2], decided once, by the null space of [v1 v2]^H
        runs, _ = build_runs(*chunk)
        for bf in sets_of(runs):
            assert bf.K == bf.v0.shape[0] - numerical_rank(np.hstack([bf.v1, bf.v2]))

    @settings(max_examples=60, deadline=None)
    @given(scenario=scenarios(), trials=st.integers(1, 5))
    @example(scenario=((2, 1, 1, 1, 1, 1, 1), 0, False), trials=3)  # K = 0
    @example(scenario=((4, 1, 1, 2, 2, 0, 0), 0, False), trials=3)  # r = 0
    @example(scenario=((9, 3, 3, 2, 2, 3, 3), 0, False), trials=2)
    @example(scenario=((8, 1, 1, 1, 1, 1, 1), 0, False), trials=2)
    def test_generic_channels_match_per_trial_build(self, scenario, trials):
        (M, N1, N2, J1, J2, r1, r2), seed, _ = scenario
        chs = [make_channel(M, N1, N2, J1, J2, seed=seed + t) for t in range(trials)]
        # generic channels are at the stack's ranks: one run
        v, ws, error = build_beamformers_batch(stack_of(chs), r1, r2)
        assert error is None and len(v[0]) == trials
        bfs = sets_of([(v, ws)])
        assert_same_builds(bfs, per_trial_builds(chs, r1, r2)[0])
        assert_same_builds([build_beamformers(ch, r1, r2) for ch in chs], bfs)

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
        # by a slightly non-orthonormal one: that trial fails with the error
        # the oracle's certificates give its beams, after the trial before it
        message = {
            "rotate": ("v1 leaks into H_2_1", "v2 leaks into H_1_1", "v0 is not orthogonal"),
            "scale": ("v1 is not orthonormal", "v2 is not orthonormal", "v0 is not orthonormal"),
        }[perturb][call]
        real = gaussian.null_spaces
        calls = []

        def tampered(a):
            bases, at_rank = real(a)
            if len(calls) == call:
                m, c = bases.shape[1:]
                rng = np.random.default_rng(call)
                q = np.linalg.qr(rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m)))[0]
                bases = bases.copy()
                bases[1] = q[:, :c] if perturb == "rotate" else bases[1] * (1 + 1e-8)
            calls.append(bases)
            return bases, at_rank

        chs = [make_channel(5, 2, 1, 2, 2, seed=s) for s in range(3)]
        with mock.patch.object(gaussian, "null_spaces", tampered):
            bfs, error = batch_builds(chs, 2, 1)
        assert len(calls) == 3
        assert_same_builds(bfs, per_trial_builds(chs[:1], 2, 1)[0])
        null2, null1, v0 = (b[1] for b in calls)
        bad = BeamformerSet(v1=null2[:, :2], v2=null1[:, :1], v0=v0)
        with pytest.raises(ConstructionError) as want:
            certify_beamformers(chs[1], bad)
        assert (type(error), str(error)) == (ConstructionError, str(want.value))
        assert str(error).startswith(message)

    @settings(max_examples=120, deadline=None)
    @given(chunk=degenerate_chunks())
    def test_builds_are_the_per_trial_builds(self, chunk):
        h, r1, r2 = chunk
        runs, error = build_runs(h, r1, r2)
        want, want_error = per_trial_builds(stacked_sets(h), r1, r2)
        assert_same_builds(sets_of(runs), want)
        assert (error and (type(error), str(error))) == want_error

    @pytest.mark.parametrize("crafted", [None, 2])
    def test_stack_whose_svd_fails_is_built_channel_by_channel(self, crafted):
        # a stacked SVD that does not converge sends the stack's first
        # channel to its own one-trial build, a run of one, in trial order
        def null_spaces(a, real=gaussian.null_spaces):
            if len(a) > 1:
                raise np.linalg.LinAlgError("SVD did not converge")
            return real(a)

        chs = [make_channel(5, 2, 1, 2, 2, seed=s) for s in range(4)]
        if crafted is not None:
            chs[crafted] = crafted_channel("leak", seed=9)
        with mock.patch.object(gaussian, "null_spaces", null_spaces):
            runs, error = build_runs(stack_of(chs), 2, 1)
        want, want_error = per_trial_builds(chs, 2, 1)
        assert [len(v[0]) for v, _ in runs] == [1] * len(want) + [0] * bool(want_error)
        assert_same_builds(sets_of(runs), want)
        assert (error and (type(error), str(error))) == want_error
        grid = (60.0, 80.0, 100.0)
        got = evaluate_runs([ws for _, ws in runs], grid)
        assert got == [equal_power_slopes(ch, bf, grid) for ch, bf in zip(chs, want)]

    @pytest.mark.parametrize("r1, r2", [(2, 1), (-1, 0)])
    def test_infeasible_streams_fail_at_the_first_channel(self, r1, r2):
        chs = [make_channel(4, 1, 1, 2, 2, seed=s) for s in range(3)]
        bfs, error = batch_builds(chs, r1, r2)
        assert bfs == [] and isinstance(error, FeasibilityError)
        assert (type(error), str(error)) == per_trial_builds(chs, r1, r2)[1]

    def test_empty_chunk(self):
        # a chunk holds channels of one set of dimensions (generate_batch
        # rejects mixed specs)
        h = (np.zeros((0, 2, 1, 4), complex),) * 2
        v, ws, error = build_beamformers_batch(h, 1, 1)
        assert [x.shape for x in v] == [(0, 4, 2), (0, 4, 1), (0, 4, 1)]
        assert [[w.shape for w in wk] for wk in ws] == [[(0, 2, 1, 2), (0, 2, 1, 1), (0, 2, 1, 1)]] * 2
        assert error is None
        rates, fits = gaussian._equal_power(ws, (60.0, 80.0, 100.0))
        assert rates.shape == (0, 3, 4) and fits.shape == (0, 3, 3)


class TestChunkRule:
    """Trials per chunk of a constant-model run."""

    def test_constant_trials_is_one_chunk(self):
        # the benchmark's 150 trials of M = 4, N = 1, J = 2 at 3 points
        assert gaussian._trials_per_chunk(4, 1, 1, 2, 2, 1, 1, 3) >= 150

    @pytest.mark.parametrize("dims", [
        (4, 1, 1, 12, 12, 0, 0),  # C(24, 4) subsets
        (26, 4, 4, 6, 6, 2, 2),  # sampled subsets, K = 22
        (12, 4, 4, 2, 2, 4, 4),
        (26, 4, 4, 2, 2, 4, 4),  # no rank check, wide arrays
    ])
    def test_rank_heavy_and_wide_keep_the_old_chunk(self, dims):
        assert gaussian._trials_per_chunk(*dims, 3) == 64

    def test_chunks_shrink_with_what_a_trial_holds(self):
        sizes = [gaussian._trials_per_chunk(4, 1, 1, 2, 2, 1, 1, g) for g in (3, 9, 30, 300)]
        assert sizes == sorted(sizes, reverse=True) and sizes[-1] == 64

    def test_scaled_products_not_grams_are_counted(self):
        # N = 3 receive antennas and c = 2 streams: 3 x 2 scaled products
        # per state and point (no 3 x 3 Grams), and one 6 x 6 rank subset
        held = 2 * 3 * 3 * 2 + 6 * 6
        assert gaussian._trials_per_chunk(6, 3, 3, 1, 1, 2, 2, 3) == gaussian.CHUNK_ENTRIES // held == 113

    @pytest.mark.parametrize("M, trials", [(100, 17), (300, 1), (2000, 1)])
    def test_null_spaces_cap_wide_chunks(self, M, trials):
        # three M x M SVD right factors per trial: at most 64 * 8192 of
        # their entries per chunk, or one trial's
        assert gaussian._trials_per_chunk(M, 1, 1, 1, 1, 1, 1, 3) == trials


class TestStackedProducts:
    """h v of a chunk's runs against the per-trial products, bit for bit,
    and runs of one trial that take their own."""

    @settings(max_examples=60, deadline=None)
    @given(scenario=scenarios(), trials=st.integers(1, 4))
    @example(scenario=((2, 1, 1, 1, 1, 1, 1), 0, False), trials=2)  # K = 0
    @example(scenario=((4, 1, 1, 2, 2, 0, 0), 0, False), trials=2)  # r = 0
    @example(scenario=((9, 3, 3, 2, 2, 3, 3), 0, False), trials=3)
    @example(scenario=((8, 1, 1, 1, 1, 1, 1), 0, False), trials=2)  # v a column slice
    def test_stacked_products_equal_per_trial_products(self, scenario, trials):
        (M, N1, N2, J1, J2, r1, r2), seed, _ = scenario
        h, _ = generate_batch((M, N1, N2, J1, J2), range(seed, seed + trials))
        v, got, error = build_beamformers_batch(h, r1, r2)
        assert error is None and len(v[0]) == trials
        pairs = list(zip(stacked_sets(h), sets_of([(v, got)])))
        for t, (ch, bf) in enumerate(pairs):
            for k, b in itertools.product((1, 2), range(3)):  # the 2-D products themselves
                v_b = (bf.v0, bf.v1, bf.v2)[b]
                for j, hj in enumerate(ch.states(k)):
                    assert got[k - 1][b][t, j].tobytes() == (hj @ v_b).tobytes()

    @pytest.mark.parametrize("where", [[1], [0, 3], [0, 1, 2, 3]])
    def test_chunk_mixing_stacked_and_rebuilt_trials(self, where):
        # the "duplicate" channel's user 2 rows lack the stack's rank, so it
        # ends a run and is built as a one-trial stack; the others are
        # dropped from the stacks by hand, so their one-trial builds and
        # per-trial products stand in
        chs = [make_channel(5, 2, 1, 2, 2, seed=s) for s in range(4)]
        chs[where[0]] = crafted_channel("duplicate", seed=9)
        with mock.patch.object(gaussian, "null_spaces", dropping(where, 4)):
            got, error = build_runs(stack_of(chs), 2, 1)
        runs = {(1,): [1, 1, 2], (0, 3): [1, 2, 1], (0, 1, 2, 3): [1, 1, 1, 1]}[tuple(where)]
        assert error is None and [len(v[0]) for v, _ in got] == runs
        bfs = per_trial_builds(chs, 2, 1)[0]
        assert_same_builds(sets_of(got), bfs)
        got = evaluate_runs([ws for _, ws in got], (60.0, 80.0, 100.0))
        assert got == [equal_power_slopes(ch, bf, (60.0, 80.0, 100.0)) for ch, bf in zip(chs, bfs)]

    @pytest.mark.parametrize("odd, grid", [
        (2, (60.0, 80.0, 100.0)),
        (0, (60.0, 80.0, 100.0)),
        (3, (60.0, 80.0, 100.0)),
        # trial 0 overflows at 3081 dB, before the narrow trial 3, which
        # overflows at 3079.5 dB already
        (3, (60.0, 3079.5, 3081.0)),
        # the narrow trial 0 overflows at 3081.5 dB, before trial 1, which
        # overflows at 3080 dB already
        (0, (60.0, 3080.0, 3081.5)),
    ])
    def test_rebuilt_trial_with_another_k_is_evaluated_alone(self, odd, grid):
        # trial ``odd``, as if built as a one-trial stack, has an orthonormal
        # v0 with one column fewer: that trial, a run of its own, gets
        # exactly its one-trial rates and fits, the others those of the
        # stack, and the error raised is the first that trial order meets
        chs = [make_channel(5, 2, 1, 2, 2, seed=s) for s in range(4)]
        bfs = [build_beamformers(ch, 2, 1) for ch in chs]
        assert all(bf.K == 2 for bf in bfs)
        bfs[odd] = BeamformerSet(v1=bfs[odd].v1, v2=bfs[odd].v2, v0=bfs[odd].v0[:, :-1])
        pairs = list(zip(chs, bfs))

        def per_trial():
            return [equal_power_slopes(ch, bf, grid) for ch, bf in pairs]

        with np.errstate(all="ignore"):
            try:
                want = per_trial()
            except InvalidGridError:
                assert raised(lambda: evaluate_chunk(pairs, grid)) == raised(per_trial)
            else:
                assert evaluate_chunk(pairs, grid) == want


class TestRunTrials:
    """run_trials against per-seed generation, construction and evaluation."""

    @pytest.mark.parametrize("chunk", [1, 2, None])
    @pytest.mark.parametrize("dims, r1, r2, seeds", [
        ((4, 1, 1, 2, 2), 1, 1, range(3, 8)),
        ((5, 2, 1, 2, 2), 2, 1, range(11, 14)),
        ((4, 1, 1, 2, 2), 0, 0, [40, 7, 9]),  # K = M
        ((2, 1, 1, 1, 1), 1, 1, range(1, 4)),  # K = 0
    ])
    def test_run_is_the_per_seed_calls(self, dims, r1, r2, seeds, chunk):
        grid = (60.0, 80.0, 100.0)
        with mock.patch.object(gaussian, "_trials_per_chunk", lambda *a, real=gaussian._trials_per_chunk: (
            chunk or real(*a)
        )):
            rates, slopes, K = run_trials(dims, r1, r2, grid, seeds)
        assert rates.shape == (len(seeds), 3, 4) and len(slopes) == len(seeds)
        for t, seed in enumerate(seeds):
            ch = generate_compound(ChannelGenSpec(*dims, seed=seed))
            bf = build_beamformers(ch, r1, r2)
            triples, estimates = equal_power_slopes(ch, bf, grid)
            want = [[r.r0, r.r1, r.r2, r.leakage] for r in triples]
            assert rates[t].tobytes() == np.array(want).tobytes()
            assert slopes[t] == [e.slope for e in estimates]
        assert K == bf.K

    def test_rebuilt_last_trial_gives_its_k(self):
        # the last trial is a run of its own, with one common beam fewer
        dims, seeds = (5, 2, 1, 2, 2), range(2, 5)
        chs = [generate_compound(ChannelGenSpec(*dims, seed=s)) for s in seeds]
        bf = build_beamformers(chs[-1], 2, 1)
        narrow = BeamformerSet(v1=bf.v1, v2=bf.v2, v0=bf.v0[:, :-1])

        def build(h, r1, r2, real=gaussian.build_beamformers_batch):
            if len(h[0]) == 1:
                return one_trial(narrow), gaussian._beam_products(h, one_trial(narrow)), None
            v, ws, error = real(h, r1, r2)
            return tuple(x[:-1] for x in v), cut(ws, 0, -1), error

        with mock.patch.object(gaussian, "build_beamformers_batch", build):
            rates, slopes, K = run_trials(dims, 2, 1, (60.0, 80.0, 100.0), seeds)
        assert K == 1 and bf.K == 2
        triples, estimates = equal_power_slopes(chs[-1], narrow, (60.0, 80.0, 100.0))
        assert rates[-1].tolist() == [[r.r0, r.r1, r.r2, r.leakage] for r in triples]

    def test_grid_is_checked_once(self):
        calls = []
        with mock.patch.object(gaussian, "_trials_per_chunk", lambda *a: 1), \
                mock.patch.object(gaussian, "check_snr_grid", lambda g, real=gaussian.check_snr_grid: (
                    calls.append(g) or real(g)
                )):
            run_trials((4, 1, 1, 2, 2), 1, 1, (60.0, 80.0, 100.0), range(5))
        assert len(calls) == 1

    @pytest.mark.parametrize("dims, seeds, message", [
        ((4, 1, 1, 2, 2), [], "at least one seed"),
        ((0, 1, 1, 2, 2), range(3), "M must be a positive integer"),
        ((4.0, 1, 1, 2, 2), range(3), "M must be a positive integer"),
    ])
    def test_bad_input_rejected_before_the_chunk_rule(self, dims, seeds, message):
        with pytest.raises(InvalidInputError, match=message):
            run_trials(dims, 1, 1, (60.0, 80.0, 100.0), seeds)


def test_benchmark_run_takes_no_rank_or_log_det_svd(monkeypatch):
    # constant-trials' dims, seeds and grid: the vector rule decides every
    # h v_k rank, the null space of [v1 v2]^H its rank, and the exact rule
    # every 1 x 1 log-det, so LAPACK runs only the three null-space SVDs
    # and the 4 x 4 slogdets of the rank check, with no 2 x 2 Gram's
    calls = []
    for name in ("svd", "cholesky", "slogdet"):
        def wrapped(a, *args, real=getattr(np.linalg, name), name=name, **kwargs):
            calls.append((name, np.shape(a)))
            return real(a, *args, **kwargs)
        monkeypatch.setattr(np.linalg, name, wrapped)
    run_trials((4, 1, 1, 2, 2), 1, 1, (60.0, 80.0, 100.0), range(150))
    assert [c for c in calls if c[0] != "slogdet"] == [("svd", (150, 2, 4))] * 3
    slogdets = [shape for name, shape in calls if name == "slogdet"]
    assert slogdets and all(shape[-2:] == (4, 4) for shape in slogdets)
    assert (150, 2, 2) not in slogdets


def thresholds():
    return st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)


@st.composite
def moduli_stacks(draw):
    """Stacks of columns or rows whose entries are 0 or have exponents from
    subnormal to near overflow, the edges of [2^-500, 2^500] among them."""
    count, n = draw(st.integers(1, 4)), draw(st.integers(1, 5))
    exponents = st.one_of(
        st.sampled_from([-1074, -1022, -600, -501, -500, -499, 0, 499, 500, 501, 1000, 1024]),
        st.integers(-1074, 1024),
    )
    mantissas = st.floats(0.5, 1.0, exclude_max=True) | st.floats(-1.0, -0.5, exclude_min=True)
    parts = st.just(0.0) | st.builds(math.ldexp, mantissas, exponents)
    entries = draw(st.lists(st.builds(complex, parts, parts), min_size=count * n, max_size=count * n))
    shape = (count, n, 1) if draw(st.booleans()) else (count, 1, n)
    return np.array(entries).reshape(shape)


class TestExactRanks:
    """The vector rank rule of the constant model's certificates against
    numerical_rank's singular values, which decide every other rank."""

    @settings(max_examples=400, deadline=None)
    @given(a=moduli_stacks(), rel=thresholds())
    def test_vector_rule_is_numerical_rank(self, a, rel):
        with rank_threshold(rel):
            assert gaussian._ranks(a).tolist() == [numerical_rank(m) for m in a]

    def test_vector_rule_leaves_the_svd_to_products_outside_its_range(self, monkeypatch):
        svds = []

        def svd(a, real=np.linalg.svd, **kwargs):
            svds.append(a.shape)
            return real(a, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", svd)
        a = np.array([[1.0], [0.0], [2.0 ** -500], [2.0 ** 500]]).reshape(4, 1, 1)
        assert gaussian._ranks(a).tolist() == [1, 0, 1, 1] and not svds
        a[1, 0, 0] = 2.0 ** -501
        assert gaussian._ranks(a).tolist() == [1, 1, 1, 1] and svds == [(1, 1, 1)]

    def test_rank_one_product_near_underflow_fails_its_certificate(self):
        # H_1_1 of rank 1 scaled by 1e-160: the entries of its Gram would
        # underflow, and its two-column product's rank is its singular values'
        g = make_channel(5, 2, 1, 2, 2, seed=9)
        rng = np.random.default_rng(1)
        u = rng.standard_normal((2, 1)) + 1j * rng.standard_normal((2, 1))
        w = rng.standard_normal((1, 5)) + 1j * rng.standard_normal((1, 5))
        ch = CompoundChannelSet(5, 2, 1, 2, 2, (1e-160 * (u @ w), g.h1[1]), g.h2)
        _, want = per_trial_builds([ch], 2, 1)
        assert want == (ConstructionError, "H_1_1 @ v1 has rank 1, expected 2")
        with pytest.raises(ConstructionError) as e:
            build_beamformers(ch, 2, 1)
        assert (type(e.value), str(e.value)) == want


EPS = np.finfo(float).eps
# the error of a log-det of _logdets, in ulps: of the largest singular
# value for each singular value, and of max(1, |log-det|) for the roundings
# that follow; at most 4 were needed over 8,000 random states
LOGDET_ULPS = 16


def capped(beams):
    """The beams [[w_b, p_b]] with every power lowered by one power of two,
    where needed, so that sum_b max(p_b) ||w_b||_F^2 < 2^1021: no s^2, and
    no doubled 1 x 1 Gram, overflows."""
    load = max([math.log2(float(p.max())) + math.log2(float(np.sum(np.abs(w) ** 2))) + 1
                for w, p in beams if np.any(w) and np.any(p)] or [0.0])
    if load > 1020.0:
        for beam in beams:
            beam[1] = beam[1] * 2.0 ** (1020 - math.ceil(load))
    return beams


POWER_EXPONENTS = st.sampled_from([-1074, -1022, 0, 1000, 1023]) | st.integers(-1074, 1023)


@st.composite
def logdet_beams(draw):
    """One state's beams [[w_b, p_b]]: N of 1-4 receive antennas, one beam
    or two (as a common-rate numerator takes them), each w_b of 0-5 columns
    and rank r of 1 to min(N, c_b), the product of complex Gaussian N x r
    and r x c_b factors (rank 1, and rank below N, among them), sometimes
    with a column zeroed, scaled by a power of two; stream powers from
    subnormal to the float limit, then capped."""
    n = draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    beams = []
    for _ in range(draw(st.integers(1, 2))):
        c = draw(st.integers(0, 5))
        r = draw(st.integers(1, min(n, c))) if c else 0
        a = rng.standard_normal((n, r)) + 1j * rng.standard_normal((n, r))
        b = rng.standard_normal((r, c)) + 1j * rng.standard_normal((r, c))
        w = (a @ b) * 2.0 ** draw(st.integers(-40, 40))
        if c and draw(st.booleans()):
            w[:, draw(st.integers(0, c - 1))] = 0.0
        beams.append([w, rng.uniform(1.0, 2.0, c) * 2.0 ** draw(POWER_EXPONENTS)])
    return capped(beams)


@st.composite
def one_antenna_stacks(draw):
    """Products (T, J, 1, c_b) and powers (T, G, c_b) of one beam or two, as
    _stacked_rates passes them to _logdets, the powers capped per trial."""
    T, J, G = draw(st.integers(1, 3)), draw(st.integers(1, 3)), draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    widths = draw(st.lists(st.integers(0, 4), min_size=1, max_size=2))
    ws = [(rng.standard_normal((T, J, 1, c)) + 1j * rng.standard_normal((T, J, 1, c)))
          * 2.0 ** draw(st.integers(-40, 40)) for c in widths]
    ps = [rng.uniform(1.0, 2.0, (T, G, c)) * 2.0 ** draw(POWER_EXPONENTS) for c in widths]
    for t in range(T):
        beams = capped([[w[t], p[t]] for w, p in zip(ws, ps)])
        for p, (_, capped_p) in zip(ps, beams):
            p[t] = capped_p
    return ws, ps


class TestLogdetRule:
    """gaussian._logdets, the one log-det rule of the constant model, against
    the exact log-det of its float inputs and, with one receive antenna,
    bit for bit against the Cholesky factor of the explicitly Hermitian
    Gram that it replaces."""

    @settings(max_examples=300, deadline=None)
    @given(beams=logdet_beams())
    @example(beams=[[np.zeros((3, 0), dtype=complex), np.zeros(0)]])
    @example(beams=[[np.ones((1, 1), dtype=complex), np.array([2.0 ** 1020])]])
    def test_rule_is_the_exact_log_det(self, beams):
        # a backward stable SVD gives each singular value within a few ulps
        # of the largest (Weyl): the log-det lies within the log-dets of
        # singular values LOGDET_ULPS ulps of s_max from the computed ones,
        # and LOGDET_ULPS ulps of max(1, |log-det|) more
        got = gaussian._logdets([w[None, None] for w, _ in beams], [p[None, None] for _, p in beams])
        exact = logdet2_exact(beams)
        s = np.linalg.svd(np.hstack([w * np.sqrt(p) for w, p in beams]), compute_uv=False)
        d = LOGDET_ULPS * EPS * s.max(initial=0.0)
        width = np.sum(np.log2(1.0 + (s + d) ** 2) - np.log2(1.0 + np.maximum(s - d, 0.0) ** 2))
        assert got.shape == (1, 1, 1)
        assert abs(got[0, 0, 0] - exact) <= width + LOGDET_ULPS * EPS * max(1.0, abs(exact))

    @settings(max_examples=300, deadline=None)
    @given(stacks=one_antenna_stacks())
    def test_one_antenna_rule_is_the_cholesky_path(self, stacks):
        ws, ps = stacks
        got = gaussian._logdets(ws, ps)
        grams = [hermitian_gram(w[:, None], p[:, :, None, None, :]) for w, p in zip(ws, ps)]
        want = logdet2_cholesky(np.eye(1) + sum(grams))
        assert got.shape == want.shape and got.tobytes() == want.tobytes()

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(1, 4),
        widths=st.lists(st.integers(0, 4), min_size=1, max_size=2),
        shape=st.sampled_from([(1, 1, 1), (2, 3, 1), (3, 1, 2), (2, 2, 3)]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_stack_is_its_one_matrix_calls(self, n, widths, shape, seed):
        # each trial, point and state of a stack gets the bits of its own call
        rng = np.random.default_rng(seed)
        T, G, J = shape
        ws = [rng.standard_normal((T, J, n, c)) + 1j * rng.standard_normal((T, J, n, c)) for c in widths]
        ps = [10.0 ** rng.uniform(-2.0, 12.0, (T, G, c)) for c in widths]
        got = gaussian._logdets(ws, ps)
        assert got.shape == shape
        for t, g, j in np.ndindex(*shape):
            one = gaussian._logdets([w[t:t + 1, j:j + 1] for w in ws], [p[t:t + 1, g:g + 1] for p in ps])
            assert one.tobytes() == got[t, g, j].tobytes()

    def test_closed_forms(self):
        # det(I + a a^H) = 1 + ||a||^2; no columns give log2 det I = 0
        rng = np.random.default_rng(9)
        for n in (1, 2, 4):
            a = rng.standard_normal((1, 1, n, 1)) + 1j * rng.standard_normal((1, 1, n, 1))
            got = gaussian._logdets([a], [np.ones((1, 1, 1))])
            assert got[0, 0, 0] == pytest.approx(np.log2(1.0 + np.sum(np.abs(a) ** 2)), rel=1e-14)
            empty = gaussian._logdets([a[..., :0]], [np.ones((1, 2, 0))])
            assert empty.tolist() == [[[0.0], [0.0]]]

    def test_only_an_overflowing_s2_is_infinite(self):
        # 1.5e308 doubles past the float limit in (g + g^H) / 2, which the
        # rule no longer forms
        p, one = np.full((1, 1, 1), 1.5e308), np.ones((1, 1, 1, 1), dtype=complex)
        assert gaussian._logdets([one], [p]).tolist() == [[[2.0 * np.log2(np.sqrt(1.5e308))]]]
        eye, big = np.eye(2, dtype=complex)[None, None], np.full((1, 1, 2, 2), 1e200 + 0j)
        assert np.isfinite(gaussian._logdets([eye], [np.full((1, 1, 2), 1.5e308)])).all()
        with np.errstate(over="ignore", invalid="ignore"):
            assert logdet2_cholesky(np.eye(1) + hermitian_gram(one[:, None], p[:, :, None, None, :])).tolist() == [[[np.inf]]]
            # s^2 overflows: with one antenna, and with two
            assert gaussian._logdets([one, one], [p, p]).tolist() == [[[np.inf]]]
            assert gaussian._logdets([2.0 * eye], [np.full((1, 1, 2), 1.5e308)]).tolist() == [[[np.inf]]]
            # a scaled product overflows, next to one that does not
            stack = np.concatenate([big, eye], axis=1)
            assert gaussian._logdets([stack], [np.full((1, 1, 2), 1e300)]).tolist()[0][0][0] == np.inf
            assert np.isfinite(gaussian._logdets([stack], [np.full((1, 1, 2), 1e300)])[0, 0, 1])

    @staticmethod
    def products(rng, T, J, n, c):
        return rng.standard_normal((T, J, n, c)) + 1j * rng.standard_normal((T, J, n, c))

    @pytest.mark.parametrize("n", [1, 3])
    def test_zero_power_is_exactly_zero(self, n):
        # log2 det I = 0, bit for bit, whatever the products
        rng = np.random.default_rng(n)
        ws = [self.products(rng, 2, 3, n, c) for c in (2, 1)]
        got = gaussian._logdets(ws, [np.zeros((2, 4, c)) for c in (2, 1)])
        assert got.shape == (2, 4, 3) and (got == 0.0).all()

    @pytest.mark.parametrize("n", [1, 3])
    def test_empty_stacks_keep_their_shape(self, n):
        # no trials, or no states, give an empty (T, G, J) array
        for T, J in ((0, 2), (2, 0)):
            w = np.zeros((T, J, n, 2), dtype=complex)
            assert gaussian._logdets([w], [np.ones((T, 4, 2))]).shape == (T, 4, J)

    @pytest.mark.parametrize("n", [1, 2, 4])
    def test_matches_slogdet_of_the_gram(self, n):
        # an independent oracle: LU of I + sum_b W_b diag(p_b) W_b^H, at
        # powers small enough that the Gram keeps its identity part
        rng = np.random.default_rng(10 + n)
        for _ in range(30):
            widths = rng.integers(1, 5, size=int(rng.integers(1, 3)))
            ws = [self.products(rng, 1, 1, n, c) for c in widths]
            ps = [10.0 ** rng.uniform(-2.0, 6.0, (1, 1, c)) for c in widths]
            m = np.eye(n) + sum((w[0, 0] * p[0, 0]) @ w[0, 0].conj().T for w, p in zip(ws, ps))
            sign, logabs = np.linalg.slogdet(m)
            assert sign.real == pytest.approx(1.0)
            got = gaussian._logdets(ws, ps)[0, 0, 0]
            assert got == pytest.approx(logabs / np.log(2.0), rel=1e-10, abs=1e-12)

    @pytest.mark.parametrize(
        "n, c, r, db",
        [(1, 2, 1, 100), (3, 2, 2, 100), (4, 4, 1, 100), (4, 3, 2, 100), (3, 4, 3, 1500), (2, 5, 2, 3000)],
    )
    def test_high_snr_slope_is_the_rank(self, n, c, r, db):
        # the s.d.o.f. of a term is the rank r of its product W = A B: per
        # decade of power the log-det gains r log2(10). A rank-deficient
        # product's computed null singular values are ~eps |W|, so its
        # slope is read below 1e20; full-rank ones hold to the float limit
        rng = np.random.default_rng(n * 100 + c * 10 + r)
        w = self.products(rng, 1, 1, n, r) @ self.products(rng, 1, 1, r, c)
        power = 10.0 ** (db / 10.0)
        lo, hi = (gaussian._logdets([w], [np.full((1, 1, c), p)])[0, 0, 0] for p in (power, 10.0 * power))
        assert (hi - lo) / np.log2(10.0) == pytest.approx(r, abs=1e-3)

    @pytest.mark.parametrize("n", [1, 3])
    def test_receive_rotation_and_beam_order_leave_it(self, n):
        # the singular values of [U W_0 sqrt(p_0), U W_1 sqrt(p_1)] are those
        # of [W_1 sqrt(p_1), W_0 sqrt(p_0)] for unitary U
        rng = np.random.default_rng(20 + n)
        for _ in range(20):
            u, _ = np.linalg.qr(self.products(rng, 1, 1, n, n)[0, 0])
            ws = [self.products(rng, 1, 2, n, c) for c in (2, 3)]
            ps = [10.0 ** rng.uniform(-2.0, 6.0, (1, 3, c)) for c in (2, 3)]
            base = gaussian._logdets(ws, ps)
            rotated = gaussian._logdets([u @ w for w in ws], ps)
            swapped = gaussian._logdets(ws[::-1], ps[::-1])
            np.testing.assert_allclose(rotated, base, rtol=1e-12, atol=1e-12)
            np.testing.assert_allclose(swapped, base, rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("n", [1, 3])
    def test_numerator_is_at_least_the_denominator(self, n):
        # a common beam adds a PSD term: log2 det(I + G_0 + G_k) is at least
        # log2 det(I + G_k), the common rate's two log-dets, up to rounding
        rng = np.random.default_rng(30 + n)
        for _ in range(20):
            w0, wk = (self.products(rng, 2, 2, n, c) for c in (1, 2))
            p0, pk = (10.0 ** rng.uniform(-2.0, 4.0, (2, 3, c)) for c in (1, 2))
            num = gaussian._logdets([w0, wk], [p0, pk])
            den = gaussian._logdets([wk], [pk])
            assert (num >= den - 1e-9 * np.maximum(1.0, den)).all()


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
