"""One-trial references that the tests hold the package's stacked paths to.

The package computes each quantity one way, over stacks; these are the
plain evaluations, one attempt or one state at a time, that its results
must equal bit for bit:

* per_state_draw and generate_per_attempt: channel generation, attempt by
  attempt, against channel.generate_batch;
* build_beamformers_per_trial and certify_beamformers: the construction
  of one channel's beamformers, one 2-D null space, norm and rank at a
  time, against gaussian.build_beamformers_batch and its one-trial call
  build_beamformers;
* rate_common, rate_confidential and rate_leakage: the rates of one state,
  against gaussian.worst_case_rates and the stacked evaluation of a run of
  a chunk (gaussian._equal_power);
* swap_users: the same channel with the users' roles exchanged;
* logdet2_hpd_cholesky: the HPD log-dets of a stack, every order through
  numpy.linalg.cholesky, against linalg.logdet2_hpd's 1 x 1 rule;
* tx_rate and leakage: the ergodic rates of one common state at one power
  pair, against ergodic.block_secrecy_rates and the stacked evaluation of
  ergodic.simulate_blocks and ergodic_slope_estimates;
* zero_forcing_state: the zero forcing of one common state, one 2-D null
  space and one dot product per candidate beam at a time, against
  ergodic._zero_forcing_stack and its one-state call zero_forcing (the
  stack decides on the gains it reports, whose last bits may differ);
* ergodic_sdof_region and policy_slope_targets: the region branch by
  branch on J vs M and each policy's own slope pair, against theory's
  time-share of the policies' pairs.

rank_threshold sets the rank threshold that both sides read.
"""

from fractions import Fraction
from unittest import mock

import numpy as np

from compound_bcc import channel, linalg
from compound_bcc.channel import CompoundChannelSet, attempt_seed, verify_rank_condition
from compound_bcc.ergodic import DIRECT_GAIN_MIN, NULLED_GAIN_MAX
from compound_bcc.errors import (
    ConstructionError,
    DegenerateBlockError,
    FeasibilityError,
    GenerationError,
    InvalidInputError,
    NotPositiveDefiniteError,
    check_count,
)
from compound_bcc.gaussian import CERT_RTOL, BeamformerSet, _gram, _logdet_i_plus
from compound_bcc.linalg import (
    _first_failing_minor,
    _hermitian_error,
    null_space_basis,
    numerical_rank,
)
from compound_bcc.regions import time_share
from compound_bcc.theory import confidential_stream_bounds, symmetric_point_margin


def per_state_draw(spec, attempt):
    """The states h1 + h2 of one attempt, as two standard_normal calls per state."""
    rng = np.random.default_rng(attempt_seed(spec.seed, attempt))

    def draw(n):
        re = rng.standard_normal((n, spec.M))
        im = rng.standard_normal((n, spec.M))
        return (re + 1j * im) / np.sqrt(2.0)

    h1 = tuple(draw(spec.N1) for _ in range(spec.J1))
    h2 = tuple(draw(spec.N2) for _ in range(spec.J2))
    return h1 + h2


def rank_threshold(t):
    """A patch of linalg.RANK_RTOL to t, the threshold of every rank
    decision, the package's and these references' alike."""
    return mock.patch.object(linalg, "RANK_RTOL", t)


def generate_per_attempt(spec):
    """The channel set of ``spec``: the draw of the first attempt whose
    CompoundChannelSet passes verify_rank_condition, or a GenerationError
    after channel.MAX_RESAMPLES failed attempts."""
    for name in ("M", "N1", "N2", "J1", "J2"):
        check_count(getattr(spec, name), name)
    dims = (spec.M, spec.N1, spec.N2, spec.J1, spec.J2)
    for attempt in range(channel.MAX_RESAMPLES):
        states = per_state_draw(spec, attempt)
        ch = CompoundChannelSet(*dims, states[:spec.J1], states[spec.J1:])
        if verify_rank_condition(ch).passed:
            return ch
    raise GenerationError(
        f"rank condition still failing after {channel.MAX_RESAMPLES} attempts "
        f"(seed {spec.seed}); the requested dimensions are degenerate for this tolerance"
    )


def build_beamformers_per_trial(ch, r1, r2):
    """The beamformers of gaussian.build_beamformers, built from one channel
    set: v_k the first r_k columns of null_space_basis of the other user's
    stacked states, v0 that of [v1 v2]^H; then certify_beamformers."""
    b1, b2 = confidential_stream_bounds(ch.M, ch.N1, ch.N2, ch.J1, ch.J2)
    for name, r, b, nk, js in (
        ("r1", r1, b1, ch.N1, ch.J2 * ch.N2),
        ("r2", r2, b2, ch.N2, ch.J1 * ch.N1),
    ):
        if r < 0:
            raise FeasibilityError(f"{name} must be nonnegative, got {r}")
        if r > b:
            raise FeasibilityError(
                f"{name} = {r} violates {name} <= min(N_k, M - sum of the other "
                f"user's stacked rows) = min({nk}, {ch.M} - {js}) = {b}"
            )
    v1 = null_space_basis(np.vstack(ch.h2))[:, :r1]
    v2 = null_space_basis(np.vstack(ch.h1))[:, :r2]
    bf = BeamformerSet(v1=v1, v2=v2, v0=null_space_basis(np.hstack([v1, v2]).conj().T))
    certify_beamformers(ch, bf)
    return bf


def _check_orthonormal(v, what):
    if v.shape[1] == 0:
        return
    gram = v.conj().T @ v
    resid = np.linalg.norm(gram - np.eye(v.shape[1]))
    if resid > CERT_RTOL:
        raise ConstructionError(f"{what} is not orthonormal (residual {resid:.3e})")


def certify_beamformers(ch, bf):
    """The certificates of gaussian.build_beamformers, in its order, each a
    ConstructionError when it fails."""
    _check_orthonormal(bf.v1, "v1")
    _check_orthonormal(bf.v2, "v2")
    for k, v, r in ((1, bf.v1, bf.r1), (2, bf.v2, bf.r2)):
        if r == 0:
            continue
        other = 3 - k
        for j, h in enumerate(ch.states(other), start=1):
            resid = np.linalg.norm(h @ v)
            limit = CERT_RTOL * np.linalg.norm(h)
            if resid > limit:
                raise ConstructionError(
                    f"v{k} leaks into H_{other}_{j}: residual {resid:.3e} "
                    f"exceeds {limit:.3e}"
                )
        for j, h in enumerate(ch.states(k), start=1):
            got = numerical_rank(h @ v)
            if got != r:
                raise ConstructionError(
                    f"H_{k}_{j} @ v{k} has rank {got}, expected {r}"
                )
    _check_orthonormal(bf.v0, "v0")
    stacked = np.hstack([bf.v1, bf.v2])
    if bf.K:
        resid = np.linalg.norm(bf.v0.conj().T @ stacked)
        if resid > CERT_RTOL:
            raise ConstructionError(
                f"v0 is not orthogonal to [v1 v2] (residual {resid:.3e})"
            )
    expected_k = ch.M - numerical_rank(stacked)
    if bf.K != expected_k:
        raise ConstructionError(f"common subspace has {bf.K} columns, expected {expected_k}")


def zero_forcing_state(h1, h2, n1, n2):
    """Beams (M, 2) and gains (J1, 2), (J2, 2) of one channel set, given as
    state stacks h1 (J1, 1, M) and h2 (J2, 1, M) of which the first n1 and
    n2 are nulled, as ergodic.zero_forcing states them."""

    def pick_beam(nulled, own_states):
        # at most M-1 nulled rows, so the basis has at least one column
        basis = null_space_basis(nulled[:, 0])
        candidates = [basis[:, 0]]
        if basis.shape[1] >= 2:
            mixed = basis.sum(axis=1)
            candidates.append(mixed / np.linalg.norm(mixed))
        for v in candidates:
            gains = np.array([h[0] @ v for h in own_states])
            if np.all(np.abs(gains) > DIRECT_GAIN_MIN):
                return v
        raise DegenerateBlockError(
            f"a direct gain stays below {DIRECT_GAIN_MIN:g} "
            "after the deterministic null-space rotation"
        )

    vs = np.column_stack([pick_beam(h2[:n2], h1), pick_beam(h1[:n1], h2)])
    phi1, phi2 = ((h @ vs)[:, 0] for h in (h1, h2))
    for phi, nulled, k, i in ((phi1, n1, 1, 2), (phi2, n2, 2, 1)):
        bad = np.abs(phi[:nulled, i - 1])
        if bad.size and bad.max() > NULLED_GAIN_MAX:
            raise ConstructionError(
                f"stream {i} not nulled at user {k} (gain {bad.max():.3e})"
            )
    return vs, phi1, phi2


def logdet2_hpd_cholesky(m):
    """linalg.logdet2_hpd with every matrix order, 1 x 1 included, factored
    by one numpy.linalg.cholesky call over the stack."""
    a = np.asarray(m, dtype=complex)
    n = a.shape[-1]
    stack = a[None] if a.ndim == 2 else a.reshape(-1, n, n)
    finite = np.isfinite(stack).all(axis=(1, 2))
    good = finite & ~(stack != stack.conj().swapaxes(1, 2)).any(axis=(1, 2))
    for i in np.flatnonzero(finite & ~good):
        good[i] = _hermitian_error(stack[i]) is None
    bad = len(stack) if good.all() else int(np.argmin(good))
    try:
        c = np.linalg.cholesky(stack[:bad])
    except np.linalg.LinAlgError:
        raise NotPositiveDefiniteError(_first_failing_minor(stack[:bad])) from None
    if bad < len(stack):
        if not finite[bad]:
            raise InvalidInputError("matrix contains non-finite entries")
        raise _hermitian_error(stack[bad])
    d = np.diagonal(c, axis1=1, axis2=2).real
    logdets = 2.0 * np.sum(np.log2(d), axis=-1)
    return float(logdets[0]) if a.ndim == 2 else logdets.reshape(a.shape[:-2])


def swap_users(ch):
    """The same channel set with the two users' roles exchanged."""
    return CompoundChannelSet(ch.M, ch.N2, ch.N1, ch.J2, ch.J1, ch.h2, ch.h1)


def _received_gram(h, v, p):
    """(h v) diag(p) (h v)^H, explicitly Hermitian, the channel applied
    before the powers."""
    return _gram(h @ v, p)


def rate_common(ch, bf, pa, k, j):
    """Common-stream rate at user k, state j, decoding u_k first as noise.

    Zero when there is no common subspace or no common power.
    """
    h = ch.state(k, j)
    g0 = _received_gram(h, bf.v0, pa.p0)
    gk = _received_gram(h, bf.confidential(k), pa.confidential(k))
    num = _logdet_i_plus(g0 + gk)
    den = _logdet_i_plus(gk)
    return max(0.0, num - den)


def rate_confidential(ch, bf, pa, k, j):
    """Confidential-stream rate at the intended user k in state j."""
    h = ch.state(k, j)
    return _logdet_i_plus(_received_gram(h, bf.confidential(k), pa.confidential(k)))


def rate_leakage(ch, bf, pa, k, l):
    """Rate of user k's stream observed at the other user's state l.

    Vanishes (below 1e-8 at any sane power) for certified beamformers.
    """
    h = ch.state(3 - k, l)
    return _logdet_i_plus(_received_gram(h, bf.confidential(k), pa.confidential(k)))


def tx_rate(gains, k, powers):
    """Transmission rate of stream k, averaged uniformly over user k's states.

    powers = (p1, p2). With phi = gains.phi(k), the rate is the mean over
    user k's J_k states j of log2(1 + p_k |phi[j, k]|^2 / (1 + I_j)), where
    I_j = 0 in the nulled states j <= nulled(k) and p_other |phi[j, other]|^2
    in the rest, which see the other stream as noise.
    """
    pk = powers[k - 1]
    po = powers[2 - k]
    phi = gains.phi(k)
    own = np.abs(phi[:, k - 1]) ** 2
    cross = np.abs(phi[:, 2 - k]) ** 2
    denom = np.ones(phi.shape[0])
    nulled = gains.nulled(k)
    denom[nulled:] += po * cross[nulled:]
    return float(np.mean(np.log2(1.0 + pk * own / denom)))


def leakage(gains, k, powers):
    """Rate of stream k observable at the other user, averaged over its states.

    With phi = gains.phi(other), the leakage is the sum over the other
    user's non-nulled states j of log2(1 + p_k |phi[j, k]|^2), divided by
    all J_other of its states: a uniform average in which nulled states
    contribute zero. Identically zero when every state is nulled
    (J_other <= M-1).
    """
    pk = powers[k - 1]
    other = 3 - k
    phi = gains.phi(other)
    nulled = gains.nulled(other)
    total = phi.shape[0]
    if nulled >= total:
        return 0.0
    cross = np.abs(phi[nulled:, k - 1]) ** 2
    return float(np.sum(np.log2(1.0 + pk * cross)) / total)


def _check_counts(M, J1, J2):
    for name, v in (("M", M), ("J1", J1), ("J2", J2)):
        check_count(v, name)


def ergodic_sdof_region(M, J1, J2):
    """The (d1, d2) region of the block-fading scheme, case by case: the
    unit square with both state counts below M, the constrained user's
    leakage price (M-1)/J with one large, and with both large the corners
    joined through the symmetric point iff its margin is positive."""
    _check_counts(M, J1, J2)
    one = Fraction(1)
    zero = Fraction(0)
    if J1 < M and J2 < M:
        points = [(one, one)]
    elif J1 < M <= J2:
        a = Fraction(M - 1, J2)
        points = [(zero, one), (a, a), (a, zero)]
    elif J2 < M <= J1:
        b = Fraction(M - 1, J1)
        points = [(one, zero), (b, b), (zero, b)]
    else:
        corner1 = Fraction(M - 1, J2)
        corner2 = Fraction(M - 1, J1)
        points = [(corner1, zero), (zero, corner2)]
        f, advantage = symmetric_point_margin(M, J1, J2)
        rs = Fraction(M - 1, J1) + Fraction(M - 1, J2) - 1
        if advantage:
            points.append((rs, rs))
    return time_share(points)


def policy_slope_targets(M, J1, J2, policy_kind):
    """A named policy's slope pair from each user's leakage and interfered
    states; None for 'split'."""
    _check_counts(M, J1, J2)
    if policy_kind == "split":
        return None
    leak1 = Fraction(max(J2 - (M - 1), 0), J2)  # slope lost by user 1 to leakage
    leak2 = Fraction(max(J1 - (M - 1), 0), J1)
    interf1 = Fraction(max(J1 - (M - 1), 0), J1)  # user 1's interfered states
    interf2 = Fraction(max(J2 - (M - 1), 0), J2)
    if policy_kind == "full1":
        return (max(Fraction(0), 1 - leak1), Fraction(0))
    if policy_kind == "full2":
        return (Fraction(0), max(Fraction(0), 1 - leak2))
    t1 = max(Fraction(0), (1 - interf1) - leak1)
    t2 = max(Fraction(0), (1 - interf2) - leak2)
    return (t1, t2)
