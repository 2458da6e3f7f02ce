"""Per-block zero-forcing over a finite-state ergodic fading model.

Each fading block draws a common transmitter-side state (the channel
realization H[t], uniform over a small finite alphabet) and, independently,
one state index per user (A_k[t], uniform over its J_k candidates). The
transmitter points each user's beam into the null space of the first
min(J_other, M-1) candidate vectors of the other user. Per block, the
transmission rate of stream k is log2(1 + SINR) averaged uniformly over
user k's J_k states, where the other stream is noise in the states it is
not nulled in. The leakage of stream k is log2(1 + p_k |gain|^2) averaged
uniformly over the other user's J_other states, zero in the nulled ones.
The secrecy rate [tx - leakage]+ is accounted per block and averaged over
blocks; these state averages give the analytic (M-1)/J slope targets.

Beams and gains depend on the common state only. A FadingProcess keeps
its states as stacks and zero-forces all of them at once
(_zero_forcing_stack), redoing one by one the states that miss a screen;
zero_forcing is the one-state call. The rates of every (SNR point, state)
pair are one stacked evaluation too (_block_rates). sample_block draws the
state indices of one block; simulate_blocks reads only the common state,
one byte per block for at most 255 states.
"""

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .channel import generate_batch, stacked_sets
from .errors import (
    ConstructionError,
    DegenerateBlockError,
    InvalidGridError,
    InvalidInputError,
    check_count,
    check_real,
    user_index,
)
from .linalg import DEFAULT_TOL, generic_null_spaces, null_space_basis
from .regions import time_share
from .sdof import check_snr_grid, fit_sdof_stack, snr_db_to_power

__all__ = [
    "FadingProcess",
    "ZfBlockGains",
    "BlockRateRecord",
    "PowerPolicy",
    "ErgodicRunStats",
    "sample_block",
    "zero_forcing",
    "block_secrecy_rates",
    "simulate_blocks",
    "ergodic_slope_estimates",
    "policy_slope_targets",
    "symmetric_point_margin",
    "ergodic_sdof_region",
]

DIRECT_GAIN_MIN = 1e-9
NULLED_GAIN_MAX = 1e-9

# Blocks per vectorized sampling pass: bounds the pass's temporaries to a
# few hundred kB whatever the horizon (4M blocks: 1.4 s, 1.8 s at 2^16).
SAMPLE_CHUNK = 1 << 13

# Philox4x64-10 multipliers and Weyl key increments (Salmon et al., SC'11).
_PHILOX_M0 = np.uint64(0xD2E7470EE14C6C93)
_PHILOX_M1 = np.uint64(0xCA5A826395121157)
_PHILOX_W = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)
_PHILOX_ROUNDS = 10
_LOW32 = np.uint64(0xFFFFFFFF)
_SHIFT32 = np.uint64(32)


class FadingProcess:
    """Finite-alphabet fading model shared by transmitter and receivers.

    For each of ``common_state_count`` common states the process holds one
    length-M vector per user state (J1 + J2 vectors), drawn i.i.d. CN(0,1)
    and verified to satisfy the generic rank condition: the states are one
    channel.generate_batch call over the per-state seeds, so degenerate
    draws are resampled exactly as for compound channel sets, and a state
    that exhausts its attempts raises its GenerationError. ``states[s - 1]``
    is the single-antenna channel set of common state s, a view of the
    stacks (S, J_k, 1, M) that generate_batch returns and the process keeps.
    Immutable after construction; the zero forcing of all common states and
    the common state of each block (one byte per block for at most 255
    common states) are cached lazily.
    """

    def __init__(self, M, J1, J2, common_state_count=4, block_count=10_000, seed=0,
                 tol=DEFAULT_TOL):
        for name, v in (("M", M), ("J1", J1), ("J2", J2),
                        ("common_state_count", common_state_count), ("block_count", block_count)):
            check_count(v, name)
        check_count(seed, "seed", minimum=0)
        self.M = M
        self.J1 = J1
        self.J2 = J2
        self.common_state_count = common_state_count
        self.block_count = block_count
        self.seed = seed
        self.tol = tol
        seeds = [self._state_seed(s) for s in range(1, common_state_count + 1)]
        h, error = generate_batch((M, 1, 1, J1, J2), seeds, tol)
        if error is not None:
            raise error
        self._h = h
        self.states = tuple(stacked_sets(h))
        self._block_key = np.random.SeedSequence(seed, spawn_key=(1,)).generate_state(2, np.uint64)
        self._gains = None
        self._states_cache = np.empty(0, dtype=np.min_scalar_type(common_state_count))

    def _state_seed(self, s):
        ss = np.random.SeedSequence(self.seed, spawn_key=(0, s))
        return int(ss.generate_state(1, np.uint64)[0])


@dataclass(frozen=True)
class ZfBlockGains:
    """Zero-forcing beams of one common state and the scalar gains they give.

    v1 and v2 are the unit-norm beams of streams 1 and 2. phi1[j-1, i-1] is
    the gain of stream i at user 1's state j (and phi2 likewise at user 2).
    nulled1 = min(J1, M-1) is the number of user 1's leading states in which
    the other stream is forced to zero; states beyond it see it as
    interference (and, swapped, as leakage).
    """

    phi1: np.ndarray
    phi2: np.ndarray
    nulled1: int
    nulled2: int
    v1: np.ndarray
    v2: np.ndarray

    def phi(self, k):
        return (self.phi1, self.phi2)[user_index(k)]

    def nulled(self, k):
        return (self.nulled1, self.nulled2)[user_index(k)]


def sample_block(fp, t):
    """State (h_state, a1, a2) of block t, all 1-based: a pure function of
    (process seed, t).

    Uses a counter-based generator keyed by the process seed with the block
    index in the counter's high word, so blocks can be sampled in any order
    or in parallel and always reproduce the same draw. Draw order within a
    block: common state, then A1, then A2; each marginal is uniform and the
    three are independent.

    This is the reference definition of the block sequence: the vectorized
    common-state sampler of simulate_blocks is tested bit for bit against it
    and falls back to it for the rare draws that numpy's bounded draw rejects.
    """
    if isinstance(t, bool) or not isinstance(t, int) or not (1 <= t <= fp.block_count):
        raise InvalidInputError(
            f"block index must be in 1..{fp.block_count}, got {t!r}"
        )
    bitgen = np.random.Philox(counter=int(t) << 192, key=fp._block_key)
    rng = np.random.Generator(bitgen)
    s = int(rng.integers(1, fp.common_state_count + 1))
    a1 = int(rng.integers(1, fp.J1 + 1))
    a2 = int(rng.integers(1, fp.J2 + 1))
    return s, a1, a2


def _mulhilo(a, b):
    """High and low 64-bit words of the 128-bit product a * b, elementwise.

    numpy has no 128-bit integers, so the high word is assembled from the
    four 32-bit partial products; the low word is the wrapping uint64 product.
    """
    a0, a1 = a & _LOW32, a >> _SHIFT32
    b0, b1 = b & _LOW32, b >> _SHIFT32
    p01 = a0 * b1
    p10 = a1 * b0
    mid = ((a0 * b0) >> _SHIFT32) + (p01 & _LOW32) + (p10 & _LOW32)
    hi = a1 * b1 + (p01 >> _SHIFT32) + (p10 >> _SHIFT32) + (mid >> _SHIFT32)
    return hi, a * b


def _philox_words(key, t):
    """First output word of Philox4x64-10 for each block index in t.

    t is a uint64 array. numpy's Philox started at counter t << 192
    increments the counter before its first output, so block t is the
    single evaluation at counter (1, 0, 0, t) under key; the round keys are
    bumped by the Weyl increments before every round but the first.
    """
    c0 = np.ones_like(t)
    c1 = np.zeros_like(t)
    c2 = np.zeros_like(t)
    c3 = t
    for r in range(_PHILOX_ROUNDS):
        k0 = np.uint64((int(key[0]) + r * _PHILOX_W[0]) % 2**64)
        k1 = np.uint64((int(key[1]) + r * _PHILOX_W[1]) % 2**64)
        hi0, lo0 = _mulhilo(_PHILOX_M0, c0)
        hi1, lo1 = _mulhilo(_PHILOX_M1, c2)
        c0, c1, c2, c3 = hi1 ^ c1 ^ k0, lo1, hi0 ^ c3 ^ k1, lo0
    return c0


def _states_from_words(fp, t, w0):
    """Common states of blocks t from each block's first Philox output word.

    Replays numpy's Generator.integers(1, n + 1), the block's first draw
    (A1 and A2 come after it and cannot change it): it takes the word's low
    uint32 x and returns (x * n >> 32) + 1 (Lemire). numpy redraws when the
    leftover x * n mod 2^32 is below 2^32 mod n (about 2^-32 per draw, never
    for a power-of-two n); such lanes are flagged and recomputed with
    sample_block.

    Returns (states, rejected): states[i] is the common state of block t[i]
    as uint64, rejected[i] whether that lane took the scalar path.
    """
    prod = (w0 & _LOW32) * np.uint64(fp.common_state_count)
    states = (prod >> _SHIFT32) + np.uint64(1)
    rejected = (prod & _LOW32) < np.uint64(2**32 % fp.common_state_count)
    for i in np.flatnonzero(rejected):
        states[i] = sample_block(fp, int(t[i]))[0]
    return states, rejected


def _block_states(fp, m):
    """Common states of blocks 1..m, one byte each for at most 255 states.

    Entry t-1 is sample_block(fp, t)[0], in the smallest unsigned dtype that
    holds common_state_count. The sequence is a pure function of (seed, t),
    so it is sampled once per process, SAMPLE_CHUNK blocks per vectorized
    pass, and cached; a longer horizon extends the cached prefix. A horizon
    whose states, or whose sampling passes' temporaries, cannot be allocated
    raises InvalidInputError, and the cache keeps its prefix.
    """
    have = len(fp._states_cache)
    if have < m:
        try:
            states = np.empty(m, dtype=fp._states_cache.dtype)
        except (MemoryError, ValueError):
            nbytes = m * fp._states_cache.itemsize
            raise InvalidInputError(
                f"block horizon {m}: cannot allocate {nbytes} bytes of block states"
            ) from None
        states[:have] = fp._states_cache
        try:
            for lo in range(have + 1, m + 1, SAMPLE_CHUNK):
                t = np.arange(lo, min(lo + SAMPLE_CHUNK, m + 1), dtype=np.uint64)
                words = _philox_words(fp._block_key, t)
                states[lo - 1 : lo - 1 + len(t)] = _states_from_words(fp, t, words)[0]
        except MemoryError:
            raise InvalidInputError(
                f"block horizon {m}: cannot allocate a sampling pass of "
                f"{SAMPLE_CHUNK} blocks"
            ) from None
        states.setflags(write=False)
        fp._states_cache = states
    return fp._states_cache[:m]


def zero_forcing(ch, tol=DEFAULT_TOL):
    """ZfBlockGains of a single-antenna channel set (N1 = N2 = 1).

    Stream k's beam lies in the null space of the other user's first
    min(J_other, M-1) states: the first column of the deterministic basis,
    or, when one of its direct gains at user k's states is at most
    DIRECT_GAIN_MIN, the normalized sum of the basis columns. A direct gain
    that stays that small raises DegenerateBlockError, and a nulled gain
    above NULLED_GAIN_MAX raises ConstructionError. The one-state call of
    _zero_forcing_stack.
    """
    if (ch.N1, ch.N2) != (1, 1):
        raise InvalidInputError(
            f"zero forcing needs single-antenna users, got N1={ch.N1}, N2={ch.N2}"
        )
    vs, phi1, phi2 = _zero_forcing_stack(np.stack(ch.h1)[None], np.stack(ch.h2)[None], tol)
    return ZfBlockGains(
        phi1=phi1[0], phi2=phi2[0], nulled1=min(ch.J1, ch.M - 1),
        nulled2=min(ch.J2, ch.M - 1), v1=vs[0, :, 0], v2=vs[0, :, 1],
    )


def _zero_forcing_stack(h1, h2, tol, name_states=False):
    """zero_forcing of S channel sets, given as state stacks h1 (S, J1, 1, M)
    and h2 (S, J2, 1, M): beams vs (S, M, 2) and gains phi1 (S, J1, 2) and
    phi2 (S, J2, 2), each state's bit for bit those of _zero_forcing_state.

    One generic_null_spaces call per user gives every state's first basis
    column, and one matmul per user its gains, one 1 x M by M x 2 product
    per state as in _zero_forcing_state. A state whose nulled rows lack the
    generic rank, whose direct gains are not all above 2 DIRECT_GAIN_MIN or
    whose nulled gains are not all at most NULLED_GAIN_MAX / 2 is redone by
    _zero_forcing_state, in state order: the first state whose zero forcing
    fails raises its error, prefixed "common state s: " if name_states.
    """
    S, J1, _, M = h1.shape
    n1, n2 = min(J1, M - 1), min(h2.shape[1], M - 1)
    vs = np.zeros((S, M, 2), dtype=complex)
    sure = np.ones(S, dtype=bool)
    if M > 1:  # with M = 1 no row is nulled, every gain is 0 and every state redone
        for i, (rows, n) in enumerate(((h2, n2), (h1, n1))):
            basis, generic = generic_null_spaces(rows[:, :n, 0], tol)
            vs[..., i] = basis[..., 0]
            sure &= generic
    phi1, phi2 = ((h @ vs[:, None])[:, :, 0] for h in (h1, h2))
    for i, (phi, n) in enumerate(((phi1, n1), (phi2, n2))):
        sure &= (np.abs(phi[..., i]) > 2 * DIRECT_GAIN_MIN).all(axis=1)
        sure &= (np.abs(phi[:, :n, 1 - i]) <= NULLED_GAIN_MAX / 2).all(axis=1)
    for s in np.flatnonzero(~sure):
        try:
            vs[s], phi1[s], phi2[s] = _zero_forcing_state(h1[s], h2[s], n1, n2, tol)
        except (ConstructionError, DegenerateBlockError) as e:
            if name_states:
                raise type(e)(f"common state {s + 1}: {e}") from None
            raise
    return vs, phi1, phi2


def _zero_forcing_state(h1, h2, n1, n2, tol):
    """Beams (M, 2) and gains (J1, 2), (J2, 2) of one channel set, given as
    state stacks h1 (J1, 1, M) and h2 (J2, 1, M) of which the first n1 and n2
    are nulled, as zero_forcing states them."""

    def pick_beam(nulled, own_states):
        # at most M-1 nulled rows, so the basis has at least one column
        basis = null_space_basis(nulled[:, 0], tol)
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


@dataclass(frozen=True)
class BlockRateRecord:
    """Rates of one block: transmission, leakage, and clamped secrecy, per user."""

    tx: tuple
    leak: tuple
    secrecy: tuple


def _block_rates(phi1, phi2, n1, n2, powers):
    """Rates of S common states' gain stacks phi1 (S, J1, 2) and phi2
    (S, J2, 2), of which the first n1 and n2 states are nulled, at G power
    pairs powers (G, 2), each (p1, p2).

    Returns tx, leak and secrecy, each (G, 2, S), with row [g, k - 1] for
    stream k. With phi = phi_k and n = n_k, stream k's transmission rate is
    the mean over user k's J_k states j of
    log2(1 + p_k |phi[j, k]|^2 / (1 + I_j)), where I_j = 0 in the nulled
    states j <= n and p_o |phi[j, o]|^2 in the rest, which see the other
    stream o as noise. Stream o leaks in those: its leakage is the sum over
    them of log2(1 + p_o |phi[j, o]|^2) divided by all J_k states, so zero
    when every state is nulled. The secrecy rate is [tx - leak]+.
    """
    p = np.asarray(powers, dtype=float)[:, None, None, :]
    tx = np.empty((len(p), 2, len(phi1)))
    leak = np.empty_like(tx)
    for k, (phi, n) in enumerate(((phi1, n1), (phi2, n2))):
        gain = np.abs(phi) ** 2
        own, cross = gain[..., k], gain[..., 1 - k]
        pk, po = p[..., k], p[..., 1 - k]
        noise = np.where(np.arange(phi.shape[1]) < n, 1.0, 1.0 + po * cross)
        tx[:, k] = np.mean(np.log2(1.0 + pk * own / noise), axis=-1)
        leak[:, 1 - k] = np.sum(np.log2(1.0 + po * cross[..., n:]), axis=-1) / phi.shape[1]
    d = tx - leak
    # np.maximum(d, 0.0) would keep a difference of -0.0
    return tx, leak, np.where(d > 0, d, 0.0)


def _records(tx, leak, secrecy):
    """The BlockRateRecords of _block_rates' rates, as records[g][s]."""
    return [tuple(BlockRateRecord(*map(tuple, r)) for r in zip(*(x.T.tolist() for x in point)))
            for point in zip(tx, leak, secrecy)]


def block_secrecy_rates(gains, p1, p2):
    """Per-block secrecy rates [tx - leakage]+ for both users: the one-state,
    one-power call of _block_rates."""
    rates = _block_rates(
        gains.phi1[None], gains.phi2[None], gains.nulled1, gains.nulled2, [(p1, p2)]
    )
    return _records(*rates)[0][0]


@dataclass(frozen=True)
class PowerPolicy:
    """Constant per-block power split; p1 + p2 equals the total budget.

    kind is one of 'full1', 'full2', 'equal', 'split'; split uses p1_frac.
    total and p1_frac are ints or floats, not bools (see check_real).
    """

    kind: str
    total: float
    p1_frac: float | None = None

    _FRACS = {"full1": 1.0, "full2": 0.0, "equal": 0.5}

    def __post_init__(self):
        if not isinstance(self.kind, str) or self.kind not in ("full1", "full2", "equal", "split"):
            raise InvalidInputError(f"unknown power policy kind {self.kind!r}")
        if check_real(self.total, "total power") < 0:
            raise InvalidInputError(f"total power must be nonnegative, got {self.total!r}")
        if self.kind == "split" or self.p1_frac is not None:
            if not 0.0 <= check_real(self.p1_frac, "p1_frac") <= 1.0:
                raise InvalidInputError(f"p1_frac must be in [0, 1], got {self.p1_frac!r}")

    def powers(self):
        frac = self._FRACS.get(self.kind, self.p1_frac)
        return (frac * self.total, (1.0 - frac) * self.total)


@dataclass(frozen=True)
class ErgodicRunStats:
    """Averaged secrecy rates plus the per-state detail.

    A block's rates are those of its common state s, state_records[s - 1].
    leak_violation_freq is the fraction of blocks where pre-clamp leakage
    exceeded the transmission rate for at least one user; it is reported,
    never asserted away. analytic_r1/r2 are the exact uniform averages over
    the finite common-state alphabet under the same powers.
    """

    m: int
    r1_mean: float
    r2_mean: float
    leak_violation_freq: float
    state_records: tuple
    analytic_r1: float
    analytic_r2: float


def simulate_blocks(fp, policy, m=None):
    """Sample m blocks in index order and average their secrecy rates: the
    one-power call of _simulate.

    A block's rates depend on its common state only (the accounting already
    averages over each user's state uncertainty), so they are computed per
    state and looked up per block, in the block sequence that is sampled
    once per process (_block_states). Fixed summation order makes reruns
    bit-identical.
    """
    if not isinstance(policy, PowerPolicy):
        raise InvalidInputError(f"policy must be a PowerPolicy, got {policy!r}")
    return _simulate(fp, [policy.powers()], m)[0]


def _simulate(fp, powers, m):
    """ErgodicRunStats of blocks 1..m (all if m is None) at each power pair
    (p1, p2) of powers.

    The common states are zero-forced once per process, errors naming the
    state, and their rates at all pairs are one _block_rates call. Each mean
    gathers one pair's rates of the m blocks, 8 bytes per block; a horizon
    whose gather cannot be allocated raises InvalidInputError.
    """
    m = fp.block_count if m is None else m
    if isinstance(m, bool) or not isinstance(m, (int, np.integer)) or not 1 <= m <= fp.block_count:
        raise InvalidInputError(
            f"block horizon must be an integer in 1..{fp.block_count}, got {m!r}"
        )
    if fp._gains is None:
        fp._gains = _zero_forcing_stack(*fp._h, fp.tol, name_states=True)[1:]
    n1, n2 = min(fp.J1, fp.M - 1), min(fp.J2, fp.M - 1)
    tx, leak, secrecy = _block_rates(*fp._gains, n1, n2, powers)
    violated = (leak > tx).any(axis=1)
    states = _block_states(fp, int(m))
    stats = []
    try:
        idx = states - 1
        for (r1, r2), v, recs in zip(secrecy, violated, _records(tx, leak, secrecy)):
            means = [float(np.mean(r[idx])) for r in (r1, r2, v)]
            stats.append(ErgodicRunStats(m, *means, recs, float(np.mean(r1)), float(np.mean(r2))))
    except MemoryError:
        raise InvalidInputError(
            f"block horizon {m}: cannot allocate {8 * m} bytes of block rates"
        ) from None
    return stats


def ergodic_slope_estimates(fp, policy_kind, snr_db_grid, m=None, p1_frac=None):
    """Simulated rates over the SNR grid and their slope fits.

    Returns (stats_list, (est1, est2)). All grid points are evaluated by one
    _simulate call over the block sequence, which is sampled once and cached
    on fp, so the fit sees a smooth function of power; one fit_sdof_stack
    call fits both users' series. Powers are finite (check_snr_grid), but
    near the float limit p |phi|^2 may not be: a grid point at which a
    per-state transmission or leakage rate overflows raises InvalidGridError
    naming the point.
    """
    grid = check_snr_grid(snr_db_grid)
    powers = [PowerPolicy(policy_kind, float(p), p1_frac).powers() for p in snr_db_to_power(grid)]
    with np.errstate(over="ignore", invalid="ignore"):
        stats = _simulate(fp, powers, m)
    for snr_db, st in zip(grid, stats):
        if not np.isfinite([r.tx + r.leak for r in st.state_records]).all():
            raise InvalidGridError(
                f"snr_db_grid point {snr_db:g} dB: the block rates overflow a float"
            )
    rates = [[st.r1_mean for st in stats], [st.r2_mean for st in stats]]
    return stats, tuple(fit_sdof_stack(grid, rates))


def symmetric_point_margin(M, J1, J2):
    """Margin of the symmetric equal-power point over the time-sharing line.

    Exact rational. Requires both state counts to be at least M (below
    that the equal-power point saturates the unit square instead). The
    returned flag says whether the symmetric point (r_s, r_s) with
    r_s = (M-1)/J1 + (M-1)/J2 - 1 lies strictly outside the segment
    between the two single-user corners, which happens iff the margin is
    positive.
    """
    _check_counts(M, J1, J2)
    if J1 < M or J2 < M:
        raise InvalidInputError(
            f"symmetric point margin needs J1, J2 >= M, got J1={J1}, J2={J2}, M={M}"
        )
    f = (
        Fraction(M - 1, J1)
        + Fraction(M - 1, J2)
        - 1
        - Fraction(M - 1, J1 + J2)
    )
    return f, f > 0


def _check_counts(M, J1, J2):
    for name, v in (("M", M), ("J1", J1), ("J2", J2)):
        check_count(v, name)


def ergodic_sdof_region(M, J1, J2):
    """Achievable (d1, d2) region of the block-fading scheme, exact.

    Built by time sharing between the power policies' high-SNR operating
    points. With both state counts below M the scheme is interference- and
    leakage-free and fills the unit square; with one large state count the
    constrained user pays the leakage price (M-1)/J; with both large, the
    symmetric equal-power point joins the two corners iff its margin is
    positive.
    """
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
    """Analytic high-SNR slope pair for a named policy; None for 'split'."""
    _check_counts(M, J1, J2)
    if policy_kind == "split":
        return None
    if policy_kind not in ("full1", "full2", "equal"):
        raise InvalidInputError(f"unknown power policy {policy_kind!r}")
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
