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

from dataclasses import dataclass

import numpy as np

from .channel import generate_batch
from .errors import (
    ConstructionError,
    FeasibilityError,
    InvalidGridError,
    InvalidInputError,
    check_counts,
    user_index,
)
from .linalg import frobenius_norms, null_spaces, rank_from_singular_values
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
# entries, at least CHUNK_MIN_TRIALS. A trial holds points * J_k * N_k * c
# entries of scaled products h v diag(sqrt(p)) per user (c the widest
# beam's streams; see _logdets) and the M x M subsets its rank check takes
# (rankcheck.subset_count, which computes no binomial of a huge row
# count). 150 trials of M = 4, N = 1, J = 2 at 3 points (40 entries each)
# are one chunk. Heavy trials stay at 64: fewer let a chunk's fixed costs
# show (2-vCPU Xeon: --M 4 --J1 12 --J2 12 --r1 0 --r2 0 --trials 300 took
# 1.43 s at 1 per chunk, 0.97 s at 64), more raise memory (--M 26 --N1 4
# --N2 4 --J1 2 --J2 2 --r1 4 --r2 4 --trials 1024 peaked at 46 MB RSS at
# 64 per chunk, 69 MB at 303). But a chunk's null-space SVDs, three M x M
# right factors per trial, hold at most CHUNK_MIN_TRIALS * CHUNK_ENTRIES
# entries, or one trial's (--M 300 --J1 1 --J2 1 --trials 64 peaked at
# 572 MB RSS in one chunk, 55 MB at one trial).
CHUNK_ENTRIES = 1 << 13
CHUNK_MIN_TRIALS = 64


def _trials_per_chunk(M, N1, N2, J1, J2, r1, r2, points):
    """Trials per chunk of a constant-model run with these dimensions, stream
    counts and grid points (see CHUNK_ENTRIES)."""
    c = max(M - r1 - r2, r1, r2)
    held = sum(points * J * N * c for J, N in ((J1, N1), (J2, N2)))
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
    basis of the orthogonal complement of [v1 v2]: the null space of [v1
    v2]^H, so K = M minus the numerical rank of [v1 v2], decided once by
    that null space's SVD; with no confidential streams v0 is the M x M
    identity basis. Infeasible stream counts raise FeasibilityError quoting
    the violated bound, and non-finite entries InvalidInputError. Then the
    certificates, in order, each a ConstructionError when it fails: v1 and
    v2 are orthonormal, ||v^H v - I||_F <= CERT_RTOL; for k = 1 then 2,
    v_k leaks into no state h of the other user, ||h v_k||_F <= CERT_RTOL
    ||h||_F, and h v_k has rank r_k at each of user k's states; and v0 is
    orthonormal and orthogonal to [v1 v2], ||v0^H [v1 v2]||_F <=
    CERT_RTOL.
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
    numerical_rank's: the ranks of the null spaces, and so K, are those of
    their SVDs, and the rank of h v_k is decided by _ranks, without an SVD
    where h v_k has one column whose entries' moduli lie in [VECTOR_MIN,
    VECTOR_MAX] (rank 1 iff it is nonzero). The error is the failing
    channel's first failing check, in build_beamformers' order.
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
    stack's ranks; every other channel has K = M - rank [v1 v2], the rank
    that null_spaces takes of [v1 v2]^H. Infeasible stream counts fail
    every channel."""
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
    if v0.shape[-1]:
        resid = frobenius_norms(v0.conj().swapaxes(-1, -2) @ stacked)
        checks.append((resid > CERT_RTOL, lambda t, j: ConstructionError(
            f"v0 is not orthogonal to [v1 v2] (residual {resid[t]:.3e})"
        )))
    return (v0, *v), ws, checks


def _ranks(a):
    """numerical_rank of each finite matrix of a stack (..., n, c), the rank
    of a non-finite one unspecified. A column (c = 1) whose nonzero entries
    have moduli in [VECTOR_MIN, VECTOR_MAX] has rank 1 iff it has a nonzero
    entry: its singular value is then 0 or a normal float s, and s > t s
    for the rank threshold t = linalg.RANK_RTOL < 1. Stacked singular
    values decide the rest, wider matrices among them."""
    if a.shape[-1] == 1:
        with np.errstate(all="ignore"):
            modulus = np.abs(a[..., 0])
        ranks = (modulus != 0.0).any(axis=-1).astype(int)
        sure = (modulus == 0.0) | ((modulus >= VECTOR_MIN) & (modulus <= VECTOR_MAX))
        sure = sure.all(axis=-1)
    else:
        ranks = np.zeros(a.shape[:-2], dtype=int)
        sure = np.zeros(a.shape[:-2], dtype=bool)
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
    [VECTOR_MIN, VECTOR_MAX] has rank 1 iff it has a nonzero entry, and
    singular values decide the rest."""
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
    share = _share(total, bf.K + bf.r1 + bf.r2)
    return PowerAllocation(
        total=total,
        p0=np.full(bf.K, share),
        p1=np.full(bf.r1, share),
        p2=np.full(bf.r2, share),
    )


def _share(total, streams):
    """Each stream's power when the power ``total`` (a float or an array of
    them) is split uniformly over ``streams`` streams; 0.0 without streams."""
    return total / streams if streams else 0.0 * total


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


def _beam_products(h, v):
    """h v for every receiving user, beam, trial and state.

    ws[k][b] has shape (T, J, N, c) for receiving user k + 1 and beam b (0
    common, 1 and 2 confidential), T the trials of the stacks h and v. The
    channel is applied before the powers, so that a beam lying in the null
    space of h keeps its ~1e-16 projection residual; scaling by a large
    power first would bury that cancellation under rounding proportional
    to the power. Each product takes the state and the beamformer as
    stored: the bits of a product depend on its operands' strides, through
    the kernel numpy picks. h[k] v[b] is one stacked matmul of views with
    the one-trial strides (see build_beamformers_batch), so that each
    product is the 2-D one.
    """
    return [[h[k] @ b[:, None] for b in v] for k in (0, 1)]


def _logdets(ws, ps):
    """log2 det(I + sum_b W_b diag(p_b) W_b^H) at every trial, grid point and
    state, (T, G, J): ws the products W_b = h v_b of _beam_products, (T, J,
    N, c_b) each, ps their streams' powers p_b, (T, G, c_b) each.

    By Sylvester's determinant identity the log-det is sum_i log2(1 +
    s_i^2), s_i the singular values of [W_b diag(sqrt(p_b))]_b, the scaled
    products side by side: one values-only SVD of them when N > 1. When N =
    1, s^2 is the sum over the beams, in order, of re((W_b * p_b) W_b^H),
    and the log-det 2 log2(sqrt(1 + s^2)), the one step of a 1 x 1 Cholesky
    factor of 1 + s^2. No Gram is formed for N > 1, so no rounding of a
    power-sized Gram can swamp its identity part. Finite products and
    powers give a non-finite log-det only where s^2 overflows, and a scaled
    product that overflows gives an infinite one.
    """
    ws = [w[:, None] for w in ws]
    ps = [p[:, :, None, None, :] for p in ps]
    if ws[0].shape[-2] == 1:
        s2 = sum(((w * p) @ w.conj().swapaxes(-1, -2))[..., 0, 0].real for w, p in zip(ws, ps))
        return 2.0 * np.log2(np.sqrt(1.0 + s2))
    scaled = np.concatenate([w * np.sqrt(p) for w, p in zip(ws, ps)], axis=-1)
    finite = np.isfinite(scaled).all(axis=(-2, -1))
    if not finite.all():  # LAPACK's scaling rejects an infinite entry
        scaled = np.where(finite[..., None, None], scaled, 0.0)
    s = np.linalg.svd(scaled, compute_uv=False)
    return np.where(finite, np.log2(1.0 + s * s).sum(axis=-1), np.inf)


def _clamp(x):
    """max(0.0, x) elementwise."""
    return np.where(x > 0.0, x, 0.0)


def _stacked_rates(ws, ps, grid=None):
    """worst_case_rates of T trials at G power allocations each.

    ws are the products h v of _beam_products and ps[b] (T, G, c) the powers
    of beam b's streams. Returns a (T, G, 4) array of r0, r1, r2 and
    leakage. With G_b as in worst_case_rates, _logdets gives, per
    receiving user k, log2 det(I + G_k) at its own states (the
    confidential rate and the common rate's denominator) and at the other
    user's states (the leakage); and, when there are common beams and
    power, log2 det(I + G_0 + G_k) at its own states (the common rate's
    numerator).

    Channels, beams and powers are finite, so a log-det that is not is an
    overflow. Every log-det is checked before any is clamped or compared,
    since [x]+ would take NaN to 0: the first trial and point, in C order,
    with a non-finite one raises InvalidGridError naming the point of the
    grid (dB), or InvalidInputError without a grid.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        conf = [_logdets([ws[k][k + 1]], [ps[k + 1]]) for k in (0, 1)]
        leaks = [_logdets([ws[1 - k][k + 1]], [ps[k + 1]]) for k in (0, 1)]
        # as worst_case_rates, no common rate without common beams or power
        common = ws[0][0].shape[-1] and ps[0].any()
        num = [_logdets([ws[k][0], ws[k][k + 1]], [ps[0], ps[k + 1]]) for k in (0, 1) if common]
    finite = np.logical_and.reduce([np.isfinite(x).all(axis=-1) for x in conf + leaks + num])
    if not finite.all():
        _, g = np.unravel_index(np.argmin(finite), finite.shape)
        if grid is None:
            raise InvalidInputError("the received covariances overflow a float")
        raise InvalidGridError(
            f"snr_db_grid point {grid[g]:g} dB: the received covariances overflow a float"
        )
    r0 = np.zeros(finite.shape)
    if num:
        worst = np.minimum(*[_clamp(n - d).min(axis=-1) for n, d in zip(num, conf)])
        r0 = np.where(ps[0].sum(axis=-1) == 0.0, 0.0, worst)
    worst_leaks = [x.max(axis=-1) for x in leaks]
    leakage = np.zeros(finite.shape)
    for x in worst_leaks:
        leakage = np.where(x > leakage, x, leakage)
    rates = [_clamp(c.min(axis=-1) - x) for c, x in zip(conf, worst_leaks)]
    return np.stack([r0, *rates, leakage], axis=-1)


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
    leakage. Each log-det is sum log2(1 + s^2) over the singular values s
    of the scaled products [h v_b diag(sqrt(p_b))]_b, by Sylvester's
    determinant identity (_logdets). Evaluated as a stack of one trial and
    one point; a log-det that overflows a float raises InvalidInputError.
    """
    h = [np.stack(ch.h1)[None], np.stack(ch.h2)[None]]
    ws = _beam_products(h, [bf.v0[None], bf.v1[None], bf.v2[None]])
    ps = [p[None, None] for p in (pa.p0, pa.p1, pa.p2)]
    return RateTriple(*_stacked_rates(ws, ps)[0, 0].tolist())


def _equal_power(ws, grid):
    """Rates and slope fits of products ws under equal power at each point
    of the checked grid (dB): rates (T, G, 4) of r0, r1, r2 and leakage
    per trial and grid point, fits (T, 3, 3) of slope, intercept and
    residual per trial and component."""
    widths = [w.shape[-1] for w in ws[0]]
    powers = snr_db_to_power(grid)
    share = _share(powers, sum(widths))
    ps = [np.broadcast_to(share[:, None], (len(ws[0][0]), len(grid), c)) for c in widths]
    rates = _stacked_rates(ws, ps, grid)
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
