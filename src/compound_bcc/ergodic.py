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
its states as stacks and zero-forces all of them at once, every decision
taken exactly over the stack (_zero_forcing_stack); zero_forcing is its
one-state call. The rates of every (SNR point, state)
pair are one stacked evaluation too (_block_rates). sample_block draws the
state indices of one block. simulate_blocks reads only the common state:
a run samples its blocks SAMPLE_CHUNK at a time with a vectorized Philox
kernel (_philox_words), gathers each pass's rates and folds them into the
block means at once, bit for bit numpy's pairwise sum (_PairwiseSums). No
block is kept, so a run's memory does not grow with its horizon.
"""

from dataclasses import dataclass

import numpy as np

from .channel import generate_batch, stacked_sets
from .errors import (
    ConstructionError,
    DegenerateBlockError,
    InvalidGridError,
    InvalidInputError,
    check_count,
    check_counts,
    check_index,
    check_real,
    user_index,
)
from .linalg import frobenius_norms, null_spaces
from .sdof import SdofEstimate, _fit_stack, check_snr_grid, snr_db_to_power

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
]

DIRECT_GAIN_MIN = 1e-9
NULLED_GAIN_MAX = 1e-9

# Blocks per sampling pass: a run holds one pass's states and gathered rates,
# a few hundred kB, whatever its horizon.
SAMPLE_CHUNK = 1 << 13

# Philox4x64-10 multipliers and Weyl key increments (Salmon et al., SC'11).
_PHILOX_M0 = 0xD2E7470EE14C6C93
_PHILOX_M1 = 0xCA5A826395121157
_PHILOX_W = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)
_PHILOX_ROUNDS = 10
_LOW32 = np.uint64(0xFFFFFFFF)
_SHIFT32 = np.uint64(32)

# Longest row numpy's pairwise summation adds without splitting it.
_PAIRWISE_LEAF = 128


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
    Immutable after construction; the zero forcing of all common states is
    cached lazily. Blocks are not kept: each run samples its own, pass by
    pass (see _simulate). block_count must be below 2^64, as a block's index
    fills one 64-bit word of the Philox counter, and state stacks that
    cannot be allocated raise InvalidInputError before any state is drawn.
    """

    def __init__(self, M, J1, J2, common_state_count=4, block_count=10_000, seed=0):
        check_counts(M=M, J1=J1, J2=J2, common_state_count=common_state_count,
                     block_count=block_count)
        check_count(seed, "seed", minimum=0)
        if block_count >= 2**64:
            raise InvalidInputError(
                f"blocks must be below 2^64, the range of the counter word that holds a "
                f"block's index; got block_count={block_count}"
            )
        try:  # before the per-state seeds are listed: a list of 10^30 never ends
            np.empty((common_state_count, J1 + J2, M), dtype=complex)
        except (MemoryError, ValueError):
            raise InvalidInputError(
                f"channel dimensions M={M}, J1={J1}, J2={J2}: cannot allocate "
                f"{16 * common_state_count * (J1 + J2) * M} bytes of state stacks for "
                f"common_state_count={common_state_count}"
            ) from None
        self.M = M
        self.J1 = J1
        self.J2 = J2
        self.common_state_count = common_state_count
        self.block_count = block_count
        self.seed = seed
        seeds = [self._state_seed(s) for s in range(1, common_state_count + 1)]
        h, error = generate_batch((M, 1, 1, J1, J2), seeds)
        if error is not None:
            raise error
        self._h = h
        self.states = tuple(stacked_sets(h))
        self._block_key = np.random.SeedSequence(seed, spawn_key=(1,)).generate_state(2, np.uint64)
        self._gains = None

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
    t = check_index(t, "block index", fp.block_count)
    bitgen = np.random.Philox(counter=t << 192, key=fp._block_key)
    rng = np.random.Generator(bitgen)
    s = int(rng.integers(1, fp.common_state_count + 1))
    a1 = int(rng.integers(1, fp.J1 + 1))
    a2 = int(rng.integers(1, fp.J2 + 1))
    return s, a1, a2


def _mulhi(a, x, lo=None):
    """High 64-bit words of the 128-bit products a * x, for a Python int a
    below 2^64 and a uint64 array x; with lo, the low words a * x mod 2^64
    are written into lo, which may be x itself.

    numpy has no 128-bit integers. With a = a1 2^32 + a0 and x = x1 2^32 + x0
    in 32-bit halves, the high word is a1 x1 + hi(a0 x1) + hi(w), where
    w = a1 x0 + hi(a0 x0) + lo(a0 x1) and hi, lo are the upper and lower 32
    bits. w cannot overflow: a1 x0 <= (2^32 - 1)^2 = 2^64 - 2^33 + 1, and the
    two terms added to it are below 2^32 each.
    """
    a0, a1 = np.uint64(a & 0xFFFFFFFF), np.uint64(a >> 32)
    x0 = x & _LOW32
    x1 = x >> _SHIFT32
    w = x0 * a1
    x0 *= a0
    x0 >>= _SHIFT32
    w += x0
    hi = x1 * a1
    x1 *= a0
    np.bitwise_and(x1, _LOW32, out=x0)
    w += x0
    x1 >>= _SHIFT32
    hi += x1
    w >>= _SHIFT32
    hi += w
    if lo is not None:
        np.multiply(x, np.uint64(a), out=lo)
    return hi


def _philox_words(key, t):
    """First output word of Philox4x64-10 for each block index in t.

    t is a uint64 array. numpy's Philox started at counter t << 192
    increments the counter before its first output, so block t is the
    single evaluation at counter (1, 0, 0, t) under key = (k0, k1); the
    round keys are bumped by the Weyl increments before every round but the
    first. A round maps (c0, c1, c2, c3) to
    (hi(M1 c2) ^ c1 ^ k0, lo(M1 c2), hi(M0 c0) ^ c3 ^ k1, lo(M0 c0)).

    Only c3 = t varies at first, so the words that do not depend on t are
    Python ints: round 1 multiplies constants only, giving
    (k0, 0, t ^ k1, M0); rounds 2 and 3 have one array product each, rounds
    4-9 two, and round 10 computes c0 alone, from one high word.
    """
    keys = [((int(key[0]) + r * _PHILOX_W[0]) % 2**64, (int(key[1]) + r * _PHILOX_W[1]) % 2**64)
            for r in range(_PHILOX_ROUNDS)]
    # round 2, on (k0, 0, t ^ k1, M0)
    c1 = t ^ keys[0][1]
    c0 = _mulhi(_PHILOX_M1, c1, lo=c1)
    c0 ^= keys[1][0]
    hi0, c3 = divmod(_PHILOX_M0 * keys[0][0], 2**64)
    c2 = hi0 ^ _PHILOX_M0 ^ keys[1][1]
    # round 3, on arrays c0, c1 and ints c2, c3
    hi1, lo1 = divmod(_PHILOX_M1 * c2, 2**64)
    c2 = _mulhi(_PHILOX_M0, c0, lo=c0)
    c2 ^= c3 ^ keys[2][1]
    c1 ^= hi1 ^ keys[2][0]
    c0, c1, c3 = c1, lo1, c0
    for k0, k1 in keys[3:-1]:
        hi0 = _mulhi(_PHILOX_M0, c0, lo=c0)
        hi1 = _mulhi(_PHILOX_M1, c2, lo=c2)
        hi1 ^= c1
        hi1 ^= k0
        hi0 ^= c3
        hi0 ^= k1
        c0, c1, c2, c3 = hi1, c2, hi0, c0
    c0 = _mulhi(_PHILOX_M1, c2)
    c0 ^= c1
    c0 ^= keys[-1][0]
    return c0


def _states_from_words(fp, t, w0):
    """Common states of blocks t from each block's first Philox output word.

    Replays numpy's Generator.integers(1, n + 1), the block's first draw
    (A1 and A2 come after it and cannot change it): it takes the word's low
    uint32 x and returns (x * n >> 32) + 1 (Lemire). numpy redraws when the
    leftover x * n mod 2^32 is below 2^32 mod n (about 2^-32 per draw, never
    for a power-of-two n); such lanes are flagged and recomputed with
    sample_block.

    Returns (idx, rejected): idx[i] = s - 1 for the common state s of block
    t[i], as intp, and rejected[i] whether that lane took the scalar path.
    """
    prod = (w0 & _LOW32) * np.uint64(fp.common_state_count)
    idx = (prod >> _SHIFT32).view(np.intp)
    rejected = (prod & _LOW32) < np.uint64(2**32 % fp.common_state_count)
    for i in np.flatnonzero(rejected):
        idx[i] = sample_block(fp, int(t[i]))[0] - 1
    return idx, rejected


def _rate_passes(fp, m, table, counts):
    """The columns of table (rows, S) for blocks 1..m, in passes of
    SAMPLE_CHUNK blocks: each pass samples its blocks' common states, adds
    how often each state occurs to counts (S,), and yields table gathered by
    those states, (rows, pass length)."""
    for lo in range(1, m + 1, SAMPLE_CHUNK):
        t = np.arange(lo, min(lo + SAMPLE_CHUNK, m + 1), dtype=np.uint64)
        idx = _states_from_words(fp, t, _philox_words(fp._block_key, t))[0]
        counts += np.bincount(idx, minlength=len(counts))
        yield table.take(idx, axis=1)


class _PairwiseSums:
    """Row sums of a matrix whose columns arrive in passes, bit for bit those
    of np.add.reduce over each whole row.

    np.add.reduce of a contiguous float64 row is a recursion on its length n
    alone: below 8 in order; up to _PAIRWISE_LEAF = 128 in eight interleaved
    accumulators, combined ((r0+r1)+(r2+r3))+((r4+r5)+(r6+r7)), then the
    tail; above that, the sum of the halves split at n/2 rounded down to a
    multiple of 8 (Higham, "The accuracy of floating point summation", 1993).
    So each node of the recursion whose columns are held is one
    np.add.reduce of those columns. sum walks the tree left to right: a node
    that runs past the held columns is split if it is longer than a leaf;
    otherwise the next pass is loaded behind the columns not yet summed, so
    at most one partial leaf is carried from a pass to the next.
    """

    def __init__(self, passes):
        self._passes = passes
        self._window = next(passes)
        self._start = 0  # the column of the whole matrix at self._window[:, 0]

    def sum(self, a, n):
        """Row sums of columns a..a + n - 1, a node of the recursion whose
        left neighbours have been summed."""
        while a + n - self._start > self._window.shape[1]:
            if n > _PAIRWISE_LEAF:
                half = n // 2 - n // 2 % 8
                return self.sum(a, half) + self.sum(a + half, n - half)
            self._window = np.concatenate(
                (self._window[:, a - self._start:], next(self._passes)), axis=1
            )
            self._start = a
        return np.add.reduce(self._window[:, a - self._start : a + n - self._start], axis=-1)


def zero_forcing(ch):
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
    vs, phi1, phi2 = _zero_forcing_stack(np.stack(ch.h1)[None], np.stack(ch.h2)[None])
    return ZfBlockGains(
        phi1=phi1[0], phi2=phi2[0], nulled1=min(ch.J1, ch.M - 1),
        nulled2=min(ch.J2, ch.M - 1), v1=vs[0, :, 0], v2=vs[0, :, 1],
    )


def _zero_forcing_stack(h1, h2, name_states=False):
    """zero_forcing of S channel sets, given as state stacks h1 (S, J1, 1, M)
    and h2 (S, J2, 1, M): beams vs (S, M, 2) and gains phi1 (S, J1, 2) and
    phi2 (S, J2, 2).

    One linalg.null_spaces call per user gives the bases of every state's
    nulled rows, taken at the stack's highest rank; a state whose nulled
    rows have another rank is zero-forced alone, by this function as a
    one-state stack. The gains are h [v1 v2], one 1 x M by M x 2 product
    per state, and the direct-gain decisions are taken on them (not on
    each candidate's own dot products, whose last bits may differ): stream
    k keeps the first basis column where all of user k's gains
    |phi_k[j, k]| exceed DIRECT_GAIN_MIN, and takes the normalized column
    sum elsewhere. The first state that fails raises its error, prefixed
    "common state s: " if name_states: DegenerateBlockError where a direct
    gain stays that small, else ConstructionError where a nulled gain,
    stream 2's at user 1 before stream 1's at user 2, exceeds
    NULLED_GAIN_MAX.
    """
    S, J1, _, M = h1.shape
    n1, n2 = min(J1, M - 1), min(h2.shape[1], M - 1)
    vs = np.empty((S, M, 2), dtype=complex)
    alone = np.zeros(S, dtype=bool)
    retry = []  # each stream's second candidate: the column sum, or the only column again
    for i, nulled in enumerate((h2[:, :n2, 0], h1[:, :n1, 0])):
        basis, at_rank = null_spaces(nulled)
        alone |= ~at_rank
        vs[..., i] = basis[..., 0]
        total = basis.sum(axis=-1)
        retry.append(total / frobenius_norms(total[:, None])[:, None] if basis.shape[-1] > 1
                     else basis[..., 0])
    for second in (False, True):  # the first columns, then the second candidates of weak ones
        phi1, phi2 = ((h @ vs[:, None])[:, :, 0] for h in (h1, h2))
        weak = np.stack([~(np.abs(phi1[..., 0]) > DIRECT_GAIN_MIN).all(axis=1),
                         ~(np.abs(phi2[..., 1]) > DIRECT_GAIN_MIN).all(axis=1)], axis=1)
        if second or not weak.any():
            break
        for i in (0, 1):
            vs[weak[:, i], :, i] = retry[i][weak[:, i]]
    unnulled = np.stack([np.abs(phi1[:, :n1, 1]).max(axis=1, initial=0.0),
                         np.abs(phi2[:, :n2, 0]).max(axis=1, initial=0.0)], 1)
    failing = alone | weak.any(axis=1) | (unnulled > NULLED_GAIN_MAX).any(axis=1)
    for s in np.flatnonzero(failing).tolist():
        try:
            if alone[s]:
                one = _zero_forcing_stack(h1[s:s + 1], h2[s:s + 1])
                vs[s], phi1[s], phi2[s] = (x[0] for x in one)
            elif weak[s].any():
                raise DegenerateBlockError(
                    f"a direct gain stays below {DIRECT_GAIN_MIN:g} "
                    "after the deterministic null-space rotation"
                )
            else:
                i = int(np.argmax(unnulled[s] > NULLED_GAIN_MAX))
                raise ConstructionError(
                    f"stream {2 - i} not nulled at user {i + 1} (gain {unnulled[s, i]:.3e})"
                )
        except (ConstructionError, DegenerateBlockError) as e:
            if name_states:
                raise type(e)(f"common state {s + 1}: {e}") from None
            raise
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


def block_secrecy_rates(gains, p1, p2):
    """Per-block secrecy rates [tx - leakage]+ for both users: the one-state,
    one-power call of _block_rates."""
    rates = _block_rates(
        gains.phi1[None], gains.phi2[None], gains.nulled1, gains.nulled2, [(p1, p2)]
    )
    return BlockRateRecord(*(tuple(x[0, :, 0].tolist()) for x in rates))


@dataclass(frozen=True)
class PowerPolicy:
    """Constant per-block power split; p1 + p2 equals the total budget.

    kind is one of 'full1', 'full2', 'equal', 'split'; split uses p1_frac,
    and no other kind takes one. total and p1_frac are ints or floats, not
    bools (see check_real).
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
        if self.kind != "split" and self.p1_frac is not None:
            raise InvalidInputError(
                f"p1_frac is for the split policy only; got p1_frac={self.p1_frac!r} "
                f"with kind {self.kind!r}"
            )
        if self.kind == "split" and not 0.0 <= check_real(self.p1_frac, "p1_frac") <= 1.0:
            raise InvalidInputError(f"p1_frac must be in [0, 1], got {self.p1_frac!r}")

    def powers(self):
        frac = self._FRACS.get(self.kind, self.p1_frac)
        return (frac * self.total, (1.0 - frac) * self.total)


@dataclass(frozen=True)
class ErgodicRunStats:
    """Averaged secrecy rates of a run over blocks 1..m, m the process's
    block_count.

    r1_mean and r2_mean are np.mean of the m blocks' rates, sampled and
    summed pass by pass by the run, which keeps no block. A block's rates
    are those of its common state s, block_secrecy_rates of
    zero_forcing(fp.states[s - 1]) under the same powers.
    leak_violation_freq is the fraction of blocks where pre-clamp leakage
    exceeded the transmission rate for at least one user, an exact count
    over m; it is reported, never asserted away. analytic_r1/r2 are the
    exact uniform averages over the finite common-state alphabet under the
    same powers.
    """

    m: int
    r1_mean: float
    r2_mean: float
    leak_violation_freq: float
    analytic_r1: float
    analytic_r2: float


def simulate_blocks(fp, policy):
    """Sample the process's block_count blocks in index order and average
    their secrecy rates: the one-power call of _simulate.

    A block's rates depend on its common state only (the accounting already
    averages over each user's state uncertainty), so they are computed per
    state and looked up per block. Each call samples its blocks again, pass
    by pass; nothing of the block sequence is kept. Fixed summation order
    makes reruns bit-identical.
    """
    if not isinstance(policy, PowerPolicy):
        raise InvalidInputError(f"policy must be a PowerPolicy, got {policy!r}")
    return _simulate(fp, [policy.powers()])[0][0]


def _simulate(fp, powers):
    """ErgodicRunStats of blocks 1..m, m = fp.block_count, at each power pair
    (p1, p2) of powers, and whether each pair's per-state transmission and
    leakage rates are all finite.

    The common states are zero-forced once per process, errors naming the
    state, and their rates at all pairs are one _block_rates call. The
    blocks are sampled once per call, SAMPLE_CHUNK at a time (_rate_passes):
    each pass gathers every (pair, user) secrecy rate of its blocks at once,
    and is folded into the block sums (_PairwiseSums) before the next is
    sampled, so each mean is np.mean of that row of m block rates, bit for
    bit, from memory that does not grow with m. The violation frequency is
    an exact count over m: how often each common state occurs, dotted with
    the states whose leakage exceeds a transmission rate.
    """
    m = fp.block_count
    if fp._gains is None:
        fp._gains = _zero_forcing_stack(*fp._h, name_states=True)[1:]
    n1, n2 = min(fp.J1, fp.M - 1), min(fp.J2, fp.M - 1)
    tx, leak, secrecy = _block_rates(*fp._gains, n1, n2, powers)
    counts = np.zeros(fp.common_state_count, dtype=np.intp)
    passes = _rate_passes(fp, m, secrecy.reshape(-1, fp.common_state_count), counts)
    means = (_PairwiseSums(passes).sum(0, m) / m).reshape(-1, 2).tolist()
    violations = ((leak > tx).any(axis=1) @ counts / m).tolist()
    stats = [
        ErgodicRunStats(m, r1, r2, v, float(np.mean(s[0])), float(np.mean(s[1])))
        for (r1, r2), v, s in zip(means, violations, secrecy)
    ]
    return stats, (np.isfinite(tx) & np.isfinite(leak)).all(axis=(1, 2))


def ergodic_slope_estimates(fp, policy_kind, snr_db_grid, p1_frac=None):
    """Simulated rates over the SNR grid and their slope fits.

    Returns (stats_list, (est1, est2)). All grid points are evaluated by one
    _simulate call, which samples the process's block sequence once for all
    of them, so the fit sees a smooth function of power; one sdof._fit_stack
    call fits both users' series. Powers are finite (check_snr_grid), but
    near the float limit p |phi|^2 may not be: a grid point at which a
    per-state transmission or leakage rate overflows raises InvalidGridError
    naming the point.
    """
    grid = check_snr_grid(snr_db_grid)
    powers = [PowerPolicy(policy_kind, float(p), p1_frac).powers() for p in snr_db_to_power(grid)]
    with np.errstate(over="ignore", invalid="ignore"):
        stats, finite = _simulate(fp, powers)
    if not finite.all():
        raise InvalidGridError(
            f"snr_db_grid point {grid[np.argmin(finite)]:g} dB: the block rates overflow a float"
        )
    rates = [[st.r1_mean for st in stats], [st.r2_mean for st in stats]]
    return stats, tuple(SdofEstimate(*f) for f in _fit_stack(grid, rates).tolist())
