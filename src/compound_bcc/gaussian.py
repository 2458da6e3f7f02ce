"""Null-space beamforming with Gaussian superposition for the constant model.

The transmit signal is x = V0 u0 + V1 u1 + V2 u2: a common stream plus one
confidential stream per user. V1 lies in the common null space of every
state of user 2 (and vice versa), so each confidential stream is received
by its intended user only, whichever states are realized; V0 spans the
orthogonal complement of [V1 V2]. Worst-case rates minimize over states.

The CLI carries TRIAL_CHUNK trials at a time as one channel stack through
stacked paths, each bit for bit equal to a one-trial reference:

* build_beamformers_batch builds a chunk's null spaces and common parts
  with stacked SVDs and screens their certificates over the stack; a
  channel that does not clear every screen is rebuilt by build_beamformers,
  the reference, so each decision and error is the one-trial one.
* Rates are evaluated as stacked arrays over (trials, grid points,
  states): h v as one matmul per user and beam (per trial for rebuilt
  channels), the grams of every grid point in one pass, and two
  logdet2_hpd calls per receiving user. rate_common, rate_confidential
  and rate_leakage evaluate one state and are the reference.
* The slopes of every trial and component are fitted in one
  sdof.fit_sdof_stack call.
"""

import itertools
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .channel import stacked_sets
from .errors import (
    CompoundBccError,
    ConstructionError,
    FeasibilityError,
    InvalidInputError,
    check_count,
    user_index,
)
from .linalg import (
    DEFAULT_TOL,
    generic_null_spaces,
    logdet2_hpd,
    null_space_basis,
    numerical_rank,
    rank_from_singular_values,
    rank_screen,
)
from .regions import RateRegion, region_from_inequalities, time_share
from .sdof import (
    DEFAULT_SNR_GRID_DB,
    check_snr_grid,
    fit_sdof_stack,
    snr_db_to_power,
)

__all__ = [
    "BeamformerSet",
    "PowerAllocation",
    "RateTriple",
    "confidential_stream_bounds",
    "build_confidential_beamformers",
    "build_common_beamformer",
    "build_beamformers",
    "equal_power",
    "rate_common",
    "rate_confidential",
    "rate_leakage",
    "worst_case_rates",
    "equal_power_slopes",
    "equal_power_slopes_batch",
    "common_slope_target",
    "gaussian_sdof_region",
    "gaussian_confidential_region",
]

CERT_RTOL = 1e-9

# Trials per stacked evaluation in the CLI. A chunk's memory grows linearly
# with it: its arrays hold TRIAL_CHUNK * G * J_k * N_k * max(N_k, c) complex
# entries for G grid points and the widest beam's c streams, and about ten
# are alive at the peak. Measured peaks (tracemalloc, 64 trials, 9 grid
# points): 0.3 MB at M = 4, N = 1, J = 2; 3.1 MB at M = 12, N = 4, J = 2,
# r = 4; 10.3 MB at M = 26, N = 4, J = 6, where K = 22.
TRIAL_CHUNK = 64


@dataclass(frozen=True)
class BeamformerSet:
    """Beamformers for the superposition scheme.

    v1 (M x r1) and v2 (M x r2) carry the confidential streams; v0 (M x K)
    carries the common stream and is None until build_common_beamformer has
    run. All blocks have orthonormal columns and v0 is orthogonal to
    [v1 v2].
    """

    v1: np.ndarray
    v2: np.ndarray
    v0: np.ndarray | None = None

    @property
    def r1(self):
        return self.v1.shape[1]

    @property
    def r2(self):
        return self.v2.shape[1]

    @property
    def K(self):
        return self.v0.shape[1] if self.v0 is not None else 0

    def confidential(self, k):
        return (self.v1, self.v2)[user_index(k)]


def confidential_stream_bounds(M, N1, N2, J1, J2):
    """Largest feasible confidential stream counts (r1_max, r2_max).

    Stream k must fit in both the intended receiver (N_k) and the common
    null space of the other user's stacked states (M - J_k' * N_k'); a
    non-positive null-space dimension forces zero streams.
    """
    b1 = max(0, min(N1, M - J2 * N2))
    b2 = max(0, min(N2, M - J1 * N1))
    return b1, b2


def _check_orthonormal(v, what):
    if v.shape[1] == 0:
        return
    gram = v.conj().T @ v
    resid = np.linalg.norm(gram - np.eye(v.shape[1]))
    if resid > CERT_RTOL:
        raise ConstructionError(f"{what} is not orthonormal (residual {resid:.3e})")


def build_confidential_beamformers(ch, r1, r2, tol=DEFAULT_TOL):
    """Confidential beamformers from the cross-user null spaces.

    v_k is the first r_k columns of the deterministic null-space basis of
    the other user's stacked states. Infeasible stream counts raise
    FeasibilityError quoting the violated bound; the returned beamformers
    are certified (exact nulling at the unintended user, full rank at the
    intended one) and a certificate failure raises ConstructionError.
    """
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
    null2 = null_space_basis(np.vstack(ch.h2), tol)
    null1 = null_space_basis(np.vstack(ch.h1), tol)
    v1 = null2[:, :r1]
    v2 = null1[:, :r2]
    bf = BeamformerSet(v1=v1, v2=v2)
    certify_confidential(ch, bf, tol)
    return bf


def certify_confidential(ch, bf, tol=DEFAULT_TOL):
    """Numerical certificates for the confidential beamformers."""
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
            got = numerical_rank(h @ v, tol)
            if got != r:
                raise ConstructionError(
                    f"H_{k}_{j} @ v{k} has rank {got}, expected {r}"
                )


def build_common_beamformer(bf, M, tol=DEFAULT_TOL):
    """Complete a beamformer set with the common part.

    v0 is the deterministic orthonormal basis of the orthogonal complement
    of [v1 v2]; K = M minus the rank of [v1 v2]. With no confidential
    streams v0 is the M x M identity basis.
    """
    stacked = np.hstack([bf.v1, bf.v2])
    if stacked.shape[0] != M:
        raise InvalidInputError(
            f"beamformers have {stacked.shape[0]} rows, expected M = {M}"
        )
    v0 = null_space_basis(stacked.conj().T, tol)
    out = BeamformerSet(v1=bf.v1, v2=bf.v2, v0=v0)
    _check_orthonormal(v0, "v0")
    if v0.shape[1]:
        resid = np.linalg.norm(v0.conj().T @ stacked)
        if resid > CERT_RTOL:
            raise ConstructionError(
                f"v0 is not orthogonal to [v1 v2] (residual {resid:.3e})"
            )
    expected_k = M - numerical_rank(stacked, tol)
    if out.K != expected_k:
        raise ConstructionError(f"common subspace has {out.K} columns, expected {expected_k}")
    return out


def build_beamformers(ch, r1, r2, tol=DEFAULT_TOL):
    """Confidential and common beamformers in one call."""
    return build_common_beamformer(build_confidential_beamformers(ch, r1, r2, tol), ch.M, tol)


def build_beamformers_batch(h, r1, r2, tol=DEFAULT_TOL):
    """build_beamformers of each channel of a chunk, built and certified as stacks.

    h = (h1, h2) holds the chunk's states, (T, J1, N1, M) and
    (T, J2, N2, M), as channel.generate_batch returns them. Returns
    (bfs, stack, error): the beamformer sets of the channels before the
    first whose construction fails, in order, the chunk's stacks for
    equal_power_slopes_batch, and that channel's error (None when every
    channel passes). Each set equals build_beamformers' bit for bit:
    stacked SVDs and stacked phase normalization see each matrix's values
    as the one-trial calls do, and each beamformer is a view with the
    strides of the one-trial result. The certificates are screened over
    the stack; a channel is rebuilt by build_beamformers, whose decisions
    and error messages are therefore the ones reported, unless its entries
    are finite, every residual is below half its limit, each H_k_j v_k has
    full rank with the margin of linalg.rank_screen, and its null spaces
    and [v1 v2] have the generic rank.
    """
    bfs, stack = _stacked_beamformers(h, r1, r2, tol)
    for t, bf in enumerate(bfs):
        if bf is None:
            try:
                bfs[t] = build_beamformers(stacked_sets([x[t:t + 1] for x in h])[0], r1, r2, tol)
            except CompoundBccError as e:
                return bfs[:t], stack, e
    return bfs, stack, None


def _stacked_beamformers(h, r1, r2, tol):
    """(bfs, stack): the BeamformerSet of each channel that passes the screens
    of build_beamformers_batch (None for the others), and (h, v, built): the
    beam stacks v = (v0, v1, v2), (T, M, c) each, and which sets hold their
    views. stack is None when no set does."""
    T = len(h[0])
    (J1, N1, M), (J2, N2) = h[0].shape[1:], h[1].shape[1:3]
    b1, b2 = confidential_stream_bounds(M, N1, N2, J1, J2)
    if not T or not (0 <= r1 <= b1 and 0 <= r2 <= b2):
        return [None] * T, None
    sure = np.isfinite(h[0]).all(axis=(1, 2, 3)) & np.isfinite(h[1]).all(axis=(1, 2, 3))
    try:
        null2, generic2 = generic_null_spaces(h[1].reshape(T, -1, M), tol)
        null1, generic1 = generic_null_spaces(h[0].reshape(T, -1, M), tol)
        v = [null2[..., :r1], null1[..., :r2]]
        sure &= generic1 & generic2
        screen = rank_screen(tol)
        for k in (0, 1):
            if v[k].shape[-1] == 0:
                continue
            sure &= _surely_orthonormal(v[k])
            limit = CERT_RTOL * np.linalg.norm(h[1 - k], axis=(-2, -1))
            resid = np.linalg.norm(h[1 - k] @ v[k][:, None], axis=(-2, -1))
            sure &= (np.isfinite(limit) & (resid <= limit / 2)).all(axis=1)
            s = np.linalg.svd(h[k] @ v[k][:, None], compute_uv=False)
            sure &= (s[..., -1] > screen * s[..., 0]).all(axis=1)
        stacked = np.concatenate(v, axis=-1)
        if stacked.shape[-1]:
            v0, generic0 = generic_null_spaces(stacked.conj().swapaxes(-1, -2), tol)
            # the singular values of build_common_beamformer's numerical_rank
            s = np.linalg.svd(stacked, compute_uv=False)
            sure &= generic0 & (rank_from_singular_values(s, tol) == stacked.shape[-1])
            if v0.shape[-1]:
                resid = np.linalg.norm(v0.conj().swapaxes(-1, -2) @ stacked, axis=(-2, -1))
                sure &= _surely_orthonormal(v0) & (resid <= CERT_RTOL / 2)
        else:
            v0 = np.repeat(np.eye(M, dtype=complex)[None], T, axis=0)
    except np.linalg.LinAlgError:
        return [None] * T, None
    bfs = [BeamformerSet(v1=v[0][t], v2=v[1][t], v0=v0[t]) if sure[t] else None for t in range(T)]
    return bfs, ((h, (v0, *v), sure) if sure.any() else None)


def _surely_orthonormal(v):
    """Whether each stacked v's orthonormality residual is below half of CERT_RTOL."""
    gram = v.conj().swapaxes(-1, -2) @ v
    return np.linalg.norm(gram - np.eye(v.shape[-1]), axis=(-2, -1)) <= CERT_RTOL / 2


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


def _received_gram(h, v, p):
    """(h v) diag(p) (h v)^H, explicitly Hermitian.

    The channel is applied before the powers so that a beamformer lying in
    the null space of h keeps its ~1e-16 projection residual; scaling a
    covariance by a large power first would bury that cancellation under
    rounding proportional to the power.
    """
    return _gram(h @ v, p)


def _logdet_i_plus(gram):
    return logdet2_hpd(np.eye(gram.shape[-1]) + gram)


def rate_common(ch, bf, pa, k, j):
    """Common-stream rate at user k, state j, decoding u_k first as noise.

    Zero when there is no common subspace or no common power.
    """
    if bf.v0 is None:
        raise InvalidInputError("beamformer set has no common part; run build_common_beamformer")
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


def _beam_products(pairs, stack=None, window=slice(None)):
    """h v for every receiving user, beam, trial and state.

    ws[k][b] has shape (T, J, N, c) for receiving user k + 1 and beam b (0
    common, 1 and 2 confidential). Each product takes the state and the
    beamformer as stored, as _received_gram does: the bits of a product
    depend on its operands' strides, through the kernel numpy picks. When
    the pairs are the trials ``window`` of a chunk's stack (see
    build_beamformers_batch), h[k] v[b] is one stacked matmul of views with
    the one-trial strides, so that each product is the 2-D one; only the
    trials not built from the stack take their own products.
    """
    beams = [
        (np.zeros((ch.M, 0), complex) if bf.v0 is None else bf.v0, bf.v1, bf.v2)
        for ch, bf in pairs
    ]
    built = np.zeros(len(pairs), dtype=bool) if stack is None else stack[2][window]
    ws = [[None] * 3, [None] * 3]
    for k, b in itertools.product((0, 1), range(3)):
        own = [[x @ beams[t][b] for x in pairs[t][0].states(k + 1)]
               for t in np.flatnonzero(~built)]
        if not built.any():
            ws[k][b] = np.array(own)
            continue
        with np.errstate(all="ignore"):  # the trials not built are overwritten
            ws[k][b] = stack[0][k][window] @ stack[1][b][window][:, None]
        if own:
            ws[k][b][~built] = own
    return ws


def _grams(w, p):
    """_received_gram at every grid point: w (T, J, N, c) from
    _beam_products, p (T, G, c) the stream powers; (T, G, J, N, N)."""
    return _gram(w[:, None], p[:, :, None, None, :])


def _clamp(x):
    """max(0.0, x) elementwise."""
    return np.where(x > 0.0, x, 0.0)


def _stacked_rates(ws, ps):
    """worst_case_rates of T trials at G power allocations each.

    ws are the products of _beam_products and ps[b] (T, G, c) the powers
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
            # numerator then denominator for each state, as rate_common
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


def _worst_case_stack(ws, ps):
    """_stacked_rates; when it fails, each trial and grid point is evaluated
    on its own, in order, so that the error raised is the one the first
    failing point meets, in the order rate_common, rate_confidential and
    rate_leakage take their matrices."""
    try:
        return _stacked_rates(ws, ps)
    except CompoundBccError:
        trials, points = ps[0].shape[:2]
        for t, g in itertools.product(range(trials), range(points)):
            _stacked_rates(
                [[w[t:t + 1] for w in wk] for wk in ws], [p[t:t + 1, g:g + 1] for p in ps]
            )
        raise


def worst_case_rates(ch, bf, pa):
    """Rates guaranteed over every state combination.

    The common rate is the minimum of rate_common over both users and all
    their states; each confidential rate is the worst intended-state rate
    minus the worst-case leakage, clamped at zero. The larger of the two
    worst-case leakages (0.0 without confidential streams) is returned as
    leakage. Evaluated as a stack of one trial and one point, bit for bit
    equal to the rate_* functions.
    """
    ps = [p[None, None] for p in (pa.p0, pa.p1, pa.p2)]
    return RateTriple(*_worst_case_stack(_beam_products([(ch, bf)]), ps)[0, 0].tolist())


def _dimensions(pair):
    ch, bf = pair
    return (ch.M, ch.N1, ch.N2, ch.J1, ch.J2, bf.K, bf.r1, bf.r2)


def equal_power_slopes_batch(pairs, snr_db_grid=DEFAULT_SNR_GRID_DB, stack=None):
    """equal_power_slopes of every (channel, beamformer) pair, in order.

    Consecutive pairs with the same dimensions (M, N_k, J_k, K and r_k)
    are evaluated together as stacked arrays: h v once per trial, state and
    beam, then every grid point's grams and a few batched log-dets. The
    pairs of a chunk from build_beamformers_batch may come with its stack,
    so that h v is one matmul per receiving user and beam. Each trial
    keeps its own slope fits.
    """
    grid = check_snr_grid(snr_db_grid)
    powers = snr_db_to_power(grid)
    out = []
    for _, group in itertools.groupby(pairs, key=_dimensions):
        group = list(group)
        bf = group[0][1]
        n = bf.K + bf.r1 + bf.r2
        share = powers / n if n else np.zeros_like(powers)
        ps = [np.broadcast_to(share[:, None], (len(group), grid.size, c))
              for c in (bf.K, bf.r1, bf.r2)]
        window = slice(len(out), len(out) + len(group))
        rates = _worst_case_stack(_beam_products(group, stack, window), ps)
        # one series per trial and component, trial-major
        ests = fit_sdof_stack(grid, np.moveaxis(rates[..., :3], -1, -2))
        for t, trial in enumerate(rates.tolist()):
            out.append(([RateTriple(*r) for r in trial], tuple(ests[3 * t:3 * t + 3])))
    return out


def equal_power_slopes(ch, bf, snr_db_grid=DEFAULT_SNR_GRID_DB):
    """Slope estimates of the three worst-case rates under equal power.

    Returns (triples, estimates): the RateTriple at each grid point and an
    SdofEstimate per message component.
    """
    return equal_power_slopes_batch([(ch, bf)], snr_db_grid)[0]


def common_slope_target(N1, N2, r1, r2, K):
    """Expected high-SNR slope of the worst-case common rate.

    At user k the common stream rides on K + r_k generic beam directions of
    which r_k are spent on the confidential stream, so its rate grows like
    min(N_k, K + r_k) - r_k; the worst case takes the smaller user.
    """
    return min(min(N1, K + r1) - r1, min(N2, K + r2) - r2)


def gaussian_sdof_region(M, N1, N2, J1, J2):
    """Achievable (d0, d1, d2) degrees-of-freedom region, exact.

    The shape depends on whether each user's stacked states still leave a
    null space (J_k * N_k < M). When neither does, only the common message
    survives, with d0 up to min(M, N1, N2).
    """
    for name, v in (("M", M), ("N1", N1), ("N2", N2), ("J1", J1), ("J2", J2)):
        check_count(v, name)
    zero = Fraction(0)
    one = Fraction(1)
    nonneg = [
        ((-one, zero, zero), zero),
        ((zero, -one, zero), zero),
        ((zero, zero, -one), zero),
    ]
    b1, b2 = confidential_stream_bounds(M, N1, N2, J1, J2)
    room1 = J1 * N1 < M
    room2 = J2 * N2 < M
    if room1 and room2:
        ineqs = [
            ((zero, one, zero), Fraction(b1)),
            ((zero, zero, one), Fraction(b2)),
            ((one, one, zero), Fraction(N1)),
            ((one, zero, one), Fraction(N2)),
        ]
    elif room1:
        # user 2's states exhaust the space: no stream for user 1
        ineqs = [
            ((zero, one, zero), zero),
            ((zero, zero, one), Fraction(b2)),
            ((one, zero, zero), Fraction(N1)),
            ((one, zero, one), Fraction(N2)),
        ]
    elif room2:
        ineqs = [
            ((zero, zero, one), zero),
            ((zero, one, zero), Fraction(b1)),
            ((one, zero, zero), Fraction(N2)),
            ((one, one, zero), Fraction(N1)),
        ]
    else:
        ineqs = [
            ((zero, one, zero), zero),
            ((zero, zero, one), zero),
            ((one, zero, zero), Fraction(min(M, N1, N2))),
        ]
    return region_from_inequalities(nonneg + ineqs, 3)


def gaussian_confidential_region(M, N1, N2, J1, J2):
    """The (d1, d2) slice of the region with no common message, exact 2-D."""
    b1, b2 = confidential_stream_bounds(M, N1, N2, J1, J2)
    return time_share([(Fraction(b1), Fraction(b2))])
