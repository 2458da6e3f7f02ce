"""Null-space beamforming with Gaussian superposition for the constant model.

The transmit signal is x = V0 u0 + V1 u1 + V2 u2: a common stream plus one
confidential stream per user. V1 lies in the common null space of every
state of user 2 (and vice versa), so each confidential stream is received
by its intended user only, whichever states are realized; V0 spans the
orthogonal complement of [V1 V2]. Worst-case rates minimize over states.

run_trials is the pipeline of a constant-model run. Each of its steps is
one construction over stacks of trials, exact at every certificate and
rate: build_beamformers, worst_case_rates and equal_power_slopes are their
one-trial calls.
"""

import itertools
from dataclasses import dataclass

import numpy as np

from .channel import generate_batch
from .errors import (
    CompoundBccError,
    ConstructionError,
    FeasibilityError,
    InvalidGridError,
    InvalidInputError,
    NotPositiveDefiniteError,
    check_counts,
    user_index,
)
from .linalg import (
    SCREEN_MARGIN,
    _screen_passes,
    frobenius_norms,
    logdet2_hpd,
    null_spaces,
    rank_from_singular_values,
)
from .rankcheck import subset_count
from .sdof import DEFAULT_SNR_GRID_DB, SdofEstimate, _fit_stack, check_snr_grid, snr_db_to_power
from .theory import confidential_stream_bounds

__all__ = [
    "BeamformerSet",
    "PowerAllocation",
    "RateTriple",
    "build_beamformers",
    "equal_power",
    "worst_case_rates",
    "equal_power_slopes",
    "run_trials",
]

CERT_RTOL = 1e-9
# moduli within which a vector's rank is decided by its nonzero entries
VECTOR_MIN, VECTOR_MAX = 2.0 ** -500, 2.0 ** 500

# A constant-model chunk takes as many trials as hold CHUNK_ENTRIES complex
# entries, at least CHUNK_MIN_TRIALS. A trial holds points * J_k * N_k *
# max(N_k, c) evaluation entries per user (c the widest beam's streams) and
# the M x M subsets its rank check takes (rankcheck.subset_count, which
# computes no binomial of a huge row count). 150 trials of M = 4, N = 1,
# J = 2 at 3 points (40 entries each) are one chunk. Heavy trials stay at
# 64: fewer let a chunk's fixed costs show (2-vCPU Xeon: --M 4 --J1 12
# --J2 12 --r1 0 --r2 0 --trials 300 took 1.43 s at 1 per chunk, 0.97 s at
# 64), more raise memory (--M 26 --N1 4 --N2 4 --J1 2 --J2 2 --r1 4 --r2 4
# --trials 1024 peaked at 46 MB RSS at 64 per chunk, 69 MB at 303). But a
# chunk's null-space SVDs, three M x M right factors per trial, hold at most
# CHUNK_MIN_TRIALS * CHUNK_ENTRIES entries, or one trial's (--M 300 --J1 1
# --J2 1 --trials 64 peaked at 572 MB RSS in one chunk, 55 MB at one trial).
CHUNK_ENTRIES = 1 << 13
CHUNK_MIN_TRIALS = 64


def _trials_per_chunk(M, N1, N2, J1, J2, r1, r2, points):
    """Trials per chunk of a constant-model run with these dimensions, stream
    counts and grid points (see CHUNK_ENTRIES)."""
    c = max(M - r1 - r2, r1, r2)
    held = sum(points * J * N * max(N, c) for J, N in ((J1, N1), (J2, N2)))
    held += subset_count(J1 * N1 + J2 * N2, M)[0] * M * M
    cap = max(1, CHUNK_MIN_TRIALS * CHUNK_ENTRIES // (3 * M * M))
    return min(max(CHUNK_MIN_TRIALS, CHUNK_ENTRIES // held), cap)


@dataclass(frozen=True)
class BeamformerSet:
    """Beamformers for the superposition scheme.

    v1 (M x r1) and v2 (M x r2) carry the confidential streams and v0
    (M x K) the common stream. All blocks have orthonormal columns and v0
    is orthogonal to [v1 v2].
    """

    v1: np.ndarray
    v2: np.ndarray
    v0: np.ndarray

    @property
    def r1(self):
        return self.v1.shape[1]

    @property
    def r2(self):
        return self.v2.shape[1]

    @property
    def K(self):
        return self.v0.shape[1]

    def confidential(self, k):
        return (self.v1, self.v2)[user_index(k)]


def build_beamformers(ch, r1, r2):
    """Certified confidential and common beamformers: the one-trial call of
    build_beamformers_batch.

    v_k is the first r_k columns of the deterministic null-space basis of
    the other user's stacked states, and v0 the deterministic orthonormal
    basis of the orthogonal complement of [v1 v2], so K = M minus the rank
    of [v1 v2]; with no confidential streams v0 is the M x M identity
    basis. Infeasible stream counts raise FeasibilityError quoting the
    violated bound, and non-finite entries InvalidInputError. Then the
    certificates, in order, each a ConstructionError when it fails: v1 and
    v2 are orthonormal, ||v^H v - I||_F <= CERT_RTOL; for k = 1 then 2,
    v_k leaks into no state h of the other user, ||h v_k||_F <= CERT_RTOL
    ||h||_F, and h v_k has rank r_k at each of user k's states; v0 is
    orthonormal and orthogonal to [v1 v2], ||v0^H [v1 v2]||_F <=
    CERT_RTOL; and K is M minus the numerical rank of [v1 v2].
    """
    h = (np.stack(ch.h1)[None], np.stack(ch.h2)[None])
    v, _, error = build_beamformers_batch(h, r1, r2)
    if error:
        raise error
    return BeamformerSet(v1=v[1][0], v2=v[2][0], v0=v[0][0])


def build_beamformers_batch(h, r1, r2):
    """build_beamformers of the leading run of a chunk's channels, built and
    certified as stacks.

    h = (h1, h2) holds the chunk's states, (T, J1, N1, M) and
    (T, J2, N2, M), as channel.generate_batch returns them. A run is a
    stretch of consecutive channels whose null spaces of h1, h2 and
    [v1 v2]^H have the same ranks. Returns (v, ws, error): the beam stacks
    v = (v0, v1, v2), (n, M, c) each, of the run's n channels; their
    products h v, as _beam_products gives them; and the error of the
    channel that ends the run (None when it is off the run's ranks, or
    n = T). The caller builds the channels after the run by calling again
    with their states.

    The null spaces are taken at the stack's highest ranks
    (linalg.null_spaces). A first channel off them, or the first channel of
    a stack whose SVD fails to converge, is built by this function as a
    one-trial stack, a run of its own. The trade-off: a channel off the
    ranks at position t > 0 ends the run there, and the stacks of the
    channels after it are built again by the next call. Every certificate
    is decided exactly: stacked SVDs, and matmuls of views with the
    one-trial strides, give each matrix the bits of its one-trial call,
    and the norms are the 2-D ones (linalg.frobenius_norms). Each rank is
    numerical_rank's, mostly without an SVD (_ranks): h v_k of one column
    has rank 1 iff it is nonzero, where its entries' moduli lie in
    [VECTOR_MIN, VECTOR_MAX], and h v_k or [v1 v2] of c > 1 columns has
    rank c where the rank screen passes on its Gram. The error is the
    failing channel's first failing check, in build_beamformers' order.
    """
    try:
        v, ws, checks = _stacked_beamformers(h, r1, r2)
    except np.linalg.LinAlgError:
        if len(h[0]) == 1:
            raise
        return build_beamformers_batch(tuple(x[:1] for x in h), r1, r2)
    failing = np.logical_or.reduce([bad.any(axis=tuple(range(1, bad.ndim))) for bad, _ in checks])
    n = int(np.argmax(failing)) if failing.any() else len(failing)
    error = None
    if n < len(failing):
        bad, make_error = next(check for check in checks if check[0][n].any())
        if make_error:
            error = make_error(n, int(np.argmax(bad[n])))
        elif not n:  # the first channel is off the stack's ranks
            return build_beamformers_batch(tuple(x[:1] for x in h), r1, r2)
    return tuple(x[:n] for x in v), [[w[:n] for w in wk] for wk in ws], error


def _feasibility_error(M, N1, N2, J1, J2, r1, r2):
    """The FeasibilityError of stream counts that violate their bounds, or None."""
    b1, b2 = confidential_stream_bounds(M, N1, N2, J1, J2)
    for name, r, b, nk, js in (("r1", r1, b1, N1, J2 * N2), ("r2", r2, b2, N2, J1 * N1)):
        if r < 0:
            return FeasibilityError(f"{name} must be nonnegative, got {r}")
        if r > b:
            return FeasibilityError(
                f"{name} = {r} violates {name} <= min(N_k, M - sum of the other "
                f"user's stacked rows) = min({nk}, {M} - {js}) = {b}"
            )
    return None


def _stacked_beamformers(h, r1, r2):
    """(v, ws, checks) of a chunk of channels: the beam stacks v = (v0, v1,
    v2), (T, M, c) each, their products ws = _beam_products(h, v), each
    computed once, and the checks of build_beamformers in its order, each
    (bad, make_error): bad, (T,) or (T, J) per state j, marks the failures,
    and make_error(t, j) gives channel t's error. The check whose
    make_error is None marks the channels whose null spaces are not at the
    stack's ranks. Infeasible stream counts fail every channel."""
    (T, J1, N1, M), (J2, N2) = h[0].shape, h[1].shape[1:3]
    infeasible = _feasibility_error(M, N1, N2, J1, J2, r1, r2)
    finite = np.isfinite(h[0]).all(axis=(1, 2, 3)) & np.isfinite(h[1]).all(axis=(1, 2, 3))
    if not finite.all():  # zeros in their place keep the stacked SVDs finite
        h = [np.where(finite[:, None, None, None], x, 0.0) for x in h]
    null2, at2 = null_spaces(h[1].reshape(T, J2 * N2, M))
    null1, at1 = null_spaces(h[0].reshape(T, J1 * N1, M))
    v = [null2[..., :r1], null1[..., :r2]]
    stacked = np.concatenate(v, axis=-1)
    v0, at0 = null_spaces(stacked.conj().swapaxes(-1, -2))
    ws = _beam_products(h, (v0, *v))
    checks = [
        (np.full(T, infeasible is not None), lambda t, j: infeasible),
        (~finite, lambda t, j: InvalidInputError("matrix contains non-finite entries")),
        (~(at0 & at1 & at2), None),
        *_orthonormality(v[0], "v1"),
        *_orthonormality(v[1], "v2"),
        *_user_checks(h, ws, 1),
        *_user_checks(h, ws, 2),
        *_orthonormality(v0, "v0"),
    ]
    K = v0.shape[-1]
    if K:
        resid = frobenius_norms(v0.conj().swapaxes(-1, -2) @ stacked)
        checks.append((resid > CERT_RTOL, lambda t, j: ConstructionError(
            f"v0 is not orthogonal to [v1 v2] (residual {resid[t]:.3e})"
        )))
    if stacked.shape[-1]:
        expected = M - _ranks(stacked)
        checks.append((expected != K, lambda t, j: ConstructionError(
            f"common subspace has {K} columns, expected {expected[t]}"
        )))
    return (v0, *v), ws, checks


def _ranks(a):
    """numerical_rank of each finite matrix of a stack (..., n, c), the rank
    of a non-finite one unspecified, without an SVD where a rule decides
    it. A column (c = 1) whose nonzero entries have moduli in [VECTOR_MIN,
    VECTOR_MAX] has rank 1 iff it has a nonzero entry: its singular value
    is then 0 or a normal float s, and s > t s for the rank threshold t =
    linalg.RANK_RTOL < 1. A wider matrix has rank c where
    linalg._screen_passes passes on its Gram a^H a, whose determinant is
    prod sigma^2 and whose trace is ||a||_F^2, with a floor of SCREEN_MARGIN
    sqrt((n + c) eps) >= 2.5e-4 on the bound sigma_min / sigma_max, above
    linalg.rank_screen() = 1e-6 and far above the Gram's rounding of about
    (n + c) eps ||a||_F^2, and where the determinant's sign is positive and
    ||a||_F^2 >= VECTOR_MIN^2: below that, the underflow of the Gram's
    products (2^-1075 each) is no longer small against its rounding.
    Singular values decide the rest."""
    n, c = a.shape[-2:]
    with np.errstate(all="ignore"):
        if c == 1:
            modulus = np.abs(a[..., 0])
            ranks = (modulus != 0.0).any(axis=-1).astype(int)
            sure = (modulus == 0.0) | ((modulus >= VECTOR_MIN) & (modulus <= VECTOR_MAX))
            sure = sure.all(axis=-1)
        else:
            gram = a.conj().swapaxes(-1, -2) @ a
            sign, logdet = np.linalg.slogdet(gram)
            fro2 = np.trace(gram, axis1=-2, axis2=-1).real
            floor = SCREEN_MARGIN * np.sqrt((n + c) * np.finfo(float).eps)
            sure = _screen_passes(0.5 * logdet, fro2, c, floor)
            sure &= (sign.real > 0.0) & (fro2 >= VECTOR_MIN ** 2)
            ranks = np.full(a.shape[:-2], c)
    unsure = ~sure & np.isfinite(a).all(axis=(-2, -1))
    if unsure.any():
        ranks[unsure] = rank_from_singular_values(np.linalg.svd(a[unsure], compute_uv=False))
    return ranks


def _orthonormality(v, name):
    """The check ||v^H v - I||_F <= CERT_RTOL of the beam stack v (T, M, c),
    as a list of _stacked_beamformers' checks; none when c = 0."""
    if not v.shape[-1]:
        return []
    resid = frobenius_norms(v.conj().swapaxes(-1, -2) @ v - np.eye(v.shape[-1]))
    return [(resid > CERT_RTOL, lambda t, j: ConstructionError(
        f"{name} is not orthonormal (residual {resid[t]:.3e})"
    ))]


def _user_checks(h, ws, k):
    """The checks of v_k of _stacked_beamformers, read from the products ws
    of _beam_products: at each state h of the other user, ||h v_k||_F <=
    CERT_RTOL ||h||_F, then at each of user k's, h v_k of rank r_k (a
    product with a non-finite entry is InvalidInputError, as
    numerical_rank raises it); none when r_k = 0. The ranks are _ranks':
    a one-column product (r_k = 1) whose nonzero entries have moduli in
    [VECTOR_MIN, VECTOR_MAX] has rank 1 iff it has a nonzero entry, a
    wider one rank r_k where its Gram passes the rank screen with _ranks'
    floor of at least 2.5e-4, and singular values decide the rest."""
    other, own = 2 - k, ws[k - 1][k]
    r = own.shape[-1]
    if not r:
        return []
    resid = frobenius_norms(ws[other][k])
    limit = CERT_RTOL * frobenius_norms(h[other])
    finite = np.isfinite(own).all(axis=(-2, -1))
    ranks = _ranks(own)

    def leak_error(t, j):
        return ConstructionError(
            f"v{k} leaks into H_{other + 1}_{j + 1}: residual {resid[t, j]:.3e} "
            f"exceeds {limit[t, j]:.3e}"
        )

    def rank_error(t, j):
        if not finite[t, j]:
            return InvalidInputError("matrix contains non-finite entries")
        return ConstructionError(f"H_{k}_{j + 1} @ v{k} has rank {ranks[t, j]}, expected {r}")

    return [(resid > limit, leak_error), (~finite | (ranks != r), rank_error)]


@dataclass(frozen=True)
class PowerAllocation:
    """Per-stream powers for (common, user 1, user 2) streams.

    The total over all streams must not exceed ``total`` (up to rounding).
    """

    total: float
    p0: np.ndarray
    p1: np.ndarray
    p2: np.ndarray

    def __post_init__(self):
        for name in ("p0", "p1", "p2"):
            arr = np.asarray(getattr(self, name), dtype=float)
            if arr.ndim != 1 or (arr.size and arr.min() < 0):
                raise InvalidInputError(f"{name} must be a 1-D nonnegative array")
            if not np.isfinite(arr).all():
                raise InvalidInputError(
                    f"{name} must hold finite stream powers, got {arr.tolist()!r}"
                )
            object.__setattr__(self, name, arr)
        if not (0 <= self.total < np.inf):
            raise InvalidInputError(
                f"total power must be finite and nonnegative, got {self.total!r}"
            )
        spent = self.p0.sum() + self.p1.sum() + self.p2.sum()
        if spent > self.total * (1 + 1e-12) + 1e-300:
            raise InvalidInputError(
                f"allocated power {spent!r} exceeds budget {self.total!r}"
            )

    def confidential(self, k):
        return (self.p1, self.p2)[user_index(k)]


def equal_power(bf, total):
    """Split the budget uniformly over all K + r1 + r2 streams."""
    n = bf.K + bf.r1 + bf.r2
    share = total / n if n else 0.0
    return PowerAllocation(
        total=total,
        p0=np.full(bf.K, share),
        p1=np.full(bf.r1, share),
        p2=np.full(bf.r2, share),
    )


@dataclass(frozen=True)
class RateTriple:
    """Worst-case rates in bits (common, user 1 and user 2 confidential) and
    the largest leakage of a confidential stream at an unintended state."""

    r0: float
    r1: float
    r2: float
    leakage: float

    def as_tuple(self):
        return (self.r0, self.r1, self.r2)


def _gram(w, p):
    """w diag(p) w^H over the last two axes, explicitly Hermitian."""
    g = (w * p) @ w.conj().swapaxes(-1, -2)
    return (g + g.conj().swapaxes(-1, -2)) / 2.0


def _logdet_i_plus(gram):
    return logdet2_hpd(np.eye(gram.shape[-1]) + gram)


def _beam_products(h, v):
    """h v for every receiving user, beam, trial and state.

    ws[k][b] has shape (T, J, N, c) for receiving user k + 1 and beam b (0
    common, 1 and 2 confidential), T the trials of the stacks h and v. The
    channel is applied before the powers, so that a beam lying in the null
    space of h keeps its ~1e-16 projection residual; scaling a covariance
    by a large power first would bury that cancellation under rounding
    proportional to the power. Each product takes the state and the
    beamformer as stored: the bits of a product depend on its operands'
    strides, through the kernel numpy picks. h[k] v[b] is one stacked
    matmul of views with the one-trial strides (see
    build_beamformers_batch), so that each product is the 2-D one.
    """
    return [[h[k] @ b[:, None] for b in v] for k in (0, 1)]


def _grams(w, p):
    """(h v) diag(p) (h v)^H at every grid point, explicitly Hermitian: w
    (T, J, N, c) the products h v of _beam_products, p (T, G, c) the stream
    powers; (T, G, J, N, N)."""
    return _gram(w[:, None], p[:, :, None, None, :])


def _clamp(x):
    """max(0.0, x) elementwise."""
    return np.where(x > 0.0, x, 0.0)


def _stacked_rates(ws, ps):
    """worst_case_rates of T trials at G power allocations each.

    ws are the products h v of _beam_products and ps[b] (T, G, c) the powers
    of beam b's streams. Returns a (T, G, 4) array of r0, r1, r2 and
    leakage. Per receiving user, one logdet2_hpd call takes the common-rate
    numerators with the intended-state confidential log-dets, which are
    also the common rate's denominators, and one more the leakages.
    """
    shape = ps[0].shape[:2]
    own = [_grams(ws[k][k + 1], ps[k + 1]) for k in (0, 1)]
    conf = [None, None]
    r0 = np.zeros(shape)
    # as worst_case_rates, no common rate without common beams or power
    if ws[0][0].shape[-1] and ps[0].any():
        worst = []
        for k in (0, 1):
            common = _grams(ws[k][0], ps[0]) + own[k]
            # numerator then denominator for each state
            num, conf[k] = np.moveaxis(_logdet_i_plus(np.stack([common, own[k]], -3)), -1, 0)
            worst.append(_clamp(num - conf[k]).min(axis=-1))
        r0 = np.where(ps[0].sum(axis=-1) == 0.0, 0.0, np.minimum(*worst))
    rates = [np.zeros(shape), np.zeros(shape)]
    leakage = np.zeros(shape)
    for k in (0, 1):
        if ws[k][k + 1].shape[-1] == 0:
            continue
        if conf[k] is None:
            conf[k] = _logdet_i_plus(own[k])
        leak = _logdet_i_plus(_grams(ws[1 - k][k + 1], ps[k + 1])).max(axis=-1)
        leakage = np.where(leak > leakage, leak, leakage)
        rates[k] = _clamp(conf[k].min(axis=-1) - leak)
    return np.stack([r0, *rates, leakage], axis=-1)


def _worst_case_stack(ws, ps, grid=None):
    """_stacked_rates; when it fails, each trial and grid point is evaluated
    on its own, in order, so that the error raised is the one the first
    failing point meets when each state's matrices are taken in order: the
    common rate's numerator then denominator, then the confidential rate,
    then the leakage. Channels, beams and powers are finite, and every
    received covariance I + sum p G is positive definite
    in exact arithmetic, so a non-finite covariance is an overflow and one
    that fails to factor has lost its identity part to rounding at a huge
    power: given the grid (dB) of the points, either raises InvalidGridError
    naming the point."""
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            return _stacked_rates(ws, ps)
        except CompoundBccError:
            trials, points = ps[0].shape[:2]
            for t, g in itertools.product(range(trials), range(points)):
                try:
                    _stacked_rates(
                        [[w[t:t + 1] for w in wk] for wk in ws],
                        [p[t:t + 1, g:g + 1] for p in ps],
                    )
                except (InvalidInputError, NotPositiveDefiniteError) as e:
                    if grid is None:
                        raise
                    failure = (
                        "overflow a float" if isinstance(e, InvalidInputError)
                        else "lose positive definiteness to rounding "
                        f"(leading minor of order {e.minor})"
                    )
                    raise InvalidGridError(
                        f"snr_db_grid point {grid[g]:g} dB: the received "
                        f"covariances {failure}"
                    ) from None
            raise


def worst_case_rates(ch, bf, pa):
    """Rates guaranteed over every state combination.

    With G_b = (h v_b) diag(p_b) (h v_b)^H for a state's matrix h, the
    common rate at user k's state is [log2 det(I + G_0 + G_k) -
    log2 det(I + G_k)]+ (u_k decoded as noise; 0 without common beams or
    power), stream k's rate at its own state is log2 det(I + G_k), and its
    leakage at the other user's state is that expression with that state's
    h. The common rate is the minimum over both users and all their
    states; each confidential rate is the worst intended-state rate minus
    the worst-case leakage, clamped at zero. The larger of the two
    worst-case leakages (0.0 without confidential streams) is returned as
    leakage. Evaluated as a stack of one trial and one point.
    """
    h = [np.stack(ch.h1)[None], np.stack(ch.h2)[None]]
    ws = _beam_products(h, [bf.v0[None], bf.v1[None], bf.v2[None]])
    ps = [p[None, None] for p in (pa.p0, pa.p1, pa.p2)]
    return RateTriple(*_worst_case_stack(ws, ps)[0, 0].tolist())


def _equal_power(ws, grid):
    """Rates and slope fits of products ws under equal power at each point
    of the checked grid (dB): rates (T, G, 4) of r0, r1, r2 and leakage
    per trial and grid point, fits (T, 3, 3) of slope, intercept and
    residual per trial and component."""
    widths = [w.shape[-1] for w in ws[0]]
    powers = snr_db_to_power(grid)
    share = powers / sum(widths) if sum(widths) else np.zeros_like(powers)
    ps = [np.broadcast_to(share[:, None], (len(ws[0][0]), len(grid), c)) for c in widths]
    rates = _worst_case_stack(ws, ps, grid)
    # one series per trial and component
    return rates, _fit_stack(grid, np.moveaxis(rates[..., :3], -1, -2))


def equal_power_slopes(ch, bf, snr_db_grid=DEFAULT_SNR_GRID_DB):
    """Slope estimates of the three worst-case rates under equal power.

    Returns (triples, estimates): the RateTriple at each grid point and an
    SdofEstimate per message component. A grid point at which a received
    covariance overflows raises InvalidGridError naming it.
    """
    h = [np.stack(ch.h1)[None], np.stack(ch.h2)[None]]
    ws = _beam_products(h, [bf.v0[None], bf.v1[None], bf.v2[None]])
    rates, fits = _equal_power(ws, check_snr_grid(snr_db_grid))
    triples = [RateTriple(*r) for r in rates[0].tolist()]
    return triples, tuple(SdofEstimate(*f) for f in fits[0].tolist())


def run_trials(dims, r1, r2, snr_db_grid, seeds):
    """Equal-power rates and slopes of the channel drawn from each seed.

    dims = (M, N1, N2, J1, J2), r1 and r2 the confidential streams, the
    grid in dB. Returns (rates, slopes, K): rates (trials, points, 4) of
    r0, r1, r2 and leakage, each trial's three slopes, and the last
    trial's K. The trials go in order, _trials_per_chunk at a time, each
    chunk as stacks alone, the states h = (h1, h2) and the beams v = (v0,
    v1, v2), through stacked paths, each bit for bit equal to a one-trial
    reference:

    * generate_batch draws the chunk, its rank checks decided together;
    * build_beamformers_batch builds and certifies the chunk's leading
      run, the channels at the same null-space ranks (most often the whole
      chunk), with its products h v;
    * _equal_power evaluates the run's rates over (trials, grid points,
      states) and fits every slope in one sdof._fit_stack call; then the
      next run of the chunk is built and evaluated.

    The error raised is the first that trial order meets: the trials
    before a failing one are evaluated first, and the grid is checked
    once, by the first trial evaluated.
    """
    check_counts(**dict(zip(("M", "N1", "N2", "J1", "J2"), dims)))
    if not len(seeds):
        raise InvalidInputError("run_trials needs at least one seed")
    grid, blocks, slopes = None, [], []
    chunk = _trials_per_chunk(*dims, r1, r2, np.size(snr_db_grid))
    for start in range(0, len(seeds), chunk):
        h, error = generate_batch(dims, seeds[start:start + chunk])
        build_error = None
        while len(h[0]) and not build_error:
            v, ws, build_error = build_beamformers_batch(h, r1, r2)
            if len(v[0]):
                grid = check_snr_grid(snr_db_grid) if grid is None else grid
                rates, fits = _equal_power(ws, grid)
                blocks.append(rates)
                slopes.extend(fits[..., 0].tolist())
                K = v[0].shape[-1]
            h = tuple(x[len(v[0]):] for x in h)
        # a construction error belongs to an earlier trial than any generation error
        if build_error or error:
            raise build_error or error
    return np.concatenate(blocks), slopes, K
