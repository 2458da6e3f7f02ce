"""Compound channel sets: generation, genericity verification, persistence.

A compound channel set holds, for each of two users, a finite collection of
candidate channel matrices (states). User k has J_k states, each an N_k x M
complex matrix; the transmitter knows the collection but not which state is
realized. Noise variance is 1 by convention throughout the package, so
transmit power doubles as SNR.

Each generation attempt draws all entries as one standard_normal vector
from its own seeded generator, default_rng(attempt_seed(seed, attempt)).
generate_batch is the one generator: it draws the seeds of one set of
dimensions into one array, decides their rank checks together, resamples
only the failures, and returns the channels as two state stacks (see
stacked_sets). generate_compound is its one-spec call. An attempt of at
least REPLAY_MIN draws replays the seeding instead of building a generator
per draw: it computes every seed's SeedSequence state at once, as uint32
array arithmetic, and draws each row from one PCG64 set to the state
numpy would seed from it, so every draw is the same bit for bit.
"""

import json
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    ChannelFormatError,
    GenerationError,
    InvalidInputError,
    check_count,
    check_counts,
    check_index,
    read_json,
    user_index,
)
from .linalg import as_matrix
from .rankcheck import rank_chunks, subset_count

__all__ = [
    "CompoundChannelSet",
    "ChannelGenSpec",
    "RankConditionReport",
    "generate_compound",
    "verify_rank_condition",
    "save_channel",
    "load_channel",
]

@dataclass(frozen=True)
class CompoundChannelSet:
    """Finite collection of channel states for a two-user broadcast setting.

    h1 and h2 hold the states of user 1 and user 2; h1[j] is the N1 x M
    matrix of user 1's (j+1)-th state. Construction validates shapes and
    finiteness only; the generic rank condition is checked by
    verify_rank_condition, not assumed.
    """

    M: int
    N1: int
    N2: int
    J1: int
    J2: int
    h1: tuple
    h2: tuple

    def __post_init__(self):
        check_counts(M=self.M, N1=self.N1, N2=self.N2, J1=self.J1, J2=self.J2)
        if len(self.h1) != self.J1 or len(self.h2) != self.J2:
            raise InvalidInputError(
                f"expected {self.J1}+{self.J2} states, got {len(self.h1)}+{len(self.h2)}"
            )
        h1 = tuple(as_matrix(m, f"H_1_{j + 1}") for j, m in enumerate(self.h1))
        h2 = tuple(as_matrix(m, f"H_2_{j + 1}") for j, m in enumerate(self.h2))
        for k, states, n in ((1, h1, self.N1), (2, h2, self.N2)):
            for j, m in enumerate(states):
                if m.shape != (n, self.M):
                    raise InvalidInputError(
                        f"H_{k}_{j + 1} has shape {m.shape}, expected ({n}, {self.M})"
                    )
        object.__setattr__(self, "h1", h1)
        object.__setattr__(self, "h2", h2)

    def state(self, k, j):
        """State matrix H_k^j (k in {1,2}, j in 1..J_k)."""
        states = self.states(k)
        return states[check_index(j, "state index j", len(states)) - 1]

    def states(self, k):
        """All states of user k, in order."""
        return (self.h1, self.h2)[user_index(k)]

    def stacked_rows(self):
        """All rows of all states stacked: (J1*N1 + J2*N2) x M."""
        return np.vstack([*self.h1, *self.h2])

    def row_label(self, i):
        """Human-readable label of stacked row i (0-based): matrix name plus local row."""
        rows = self.J1 * self.N1 + self.J2 * self.N2
        i = check_index(i, "stacked row index i", rows - 1, start=0)
        if i < self.J1 * self.N1:
            j, r = divmod(i, self.N1)
            return f"H_1_{j + 1}[{r}]"
        i -= self.J1 * self.N1
        j, r = divmod(i, self.N2)
        return f"H_2_{j + 1}[{r}]"


def stacked_sets(h):
    """The CompoundChannelSet of each trial of state stacks h = (h1, h2),
    (T, J1, N1, M) and (T, J2, N2, M), as generate_batch returns them: views
    of the stacks, whose finite entries are not validated again."""
    (_, J1, N1, M), (_, J2, N2, _) = h[0].shape, h[1].shape
    sets = []
    for a, b in zip(*h):
        ch = object.__new__(CompoundChannelSet)
        ch.__dict__.update(M=M, N1=N1, N2=N2, J1=J1, J2=J2, h1=tuple(a), h2=tuple(b))
        sets.append(ch)
    return sets


@dataclass(frozen=True)
class ChannelGenSpec:
    """Parameters for seeded channel generation. seed is checked here, the
    dimensions by the generator."""

    M: int
    N1: int
    N2: int
    J1: int
    J2: int
    seed: int

    def __post_init__(self):
        check_count(self.seed, "seed", minimum=0)


@dataclass(frozen=True)
class RankConditionReport:
    """Outcome of the generic rank check.

    failures lists the offending row subsets (tuples of stacked-row indices)
    together with their labels; exhaustive says whether every M-subset was
    checked or a fixed-seed sample of rankcheck.SAMPLED_SUBSET_COUNT subsets
    was used.
    """

    passed: bool
    checked: int
    exhaustive: bool
    failures: tuple = field(default_factory=tuple)
    failure_labels: tuple = field(default_factory=tuple)


def attempt_seed(seed, attempt):
    """Sub-seed for resampling attempt ``attempt``; injective in (seed, attempt).

    default_rng of it defines the stream of every draw: seeding.replay_draws
    reproduces that stream bit for bit without building the generator.
    """
    return np.random.SeedSequence(seed, spawn_key=(attempt,))


# An attempt of at least REPLAY_MIN pending draws replays their seeding in
# one pass (seeding.replay_draws); smaller ones build a generator per draw. The
# pass costs ~90 us whatever its size, mostly its ~45 numpy calls, then
# ~4 us per draw, where a draw's own default_rng(SeedSequence) costs
# ~19 us. Measured on a 2-vCPU Xeon, per draw against replayed, draws of
# 24 and 32 entries: 1 draw 19 against 90-100 us, 8 draws 130-150 against
# 140-170 us (the crossover, 6-10 draws), 12 draws 230-255 against 155-205
# us, 150 draws 1.95-2.04 against 0.64 ms. rank-census draws 1 per
# attempt and fading-blocks 4, which stay per draw; constant-trials 150.
REPLAY_MIN = 12
# Attempts per seed before generation gives up with a GenerationError.
MAX_RESAMPLES = 8


def generate_compound(spec):
    """Draw a compound channel set with i.i.d. CN(0,1) entries.

    Entries are circularly symmetric complex Gaussian with unit variance.
    The generic rank condition (every selection of M stacked rows has rank
    M) is verified on each draw; failing draws are resampled with a fresh
    sub-seed derived from (seed, attempt). After MAX_RESAMPLES failed
    attempts a GenerationError is raised. Identical specs produce
    bit-identical channel sets. This is generate_batch of the one seed.
    """
    dims = spec.M, spec.N1, spec.N2, spec.J1, spec.J2
    h, error = generate_batch(dims, [spec.seed])
    if error is not None:
        raise error
    return stacked_sets(h)[0]


def _states(z, M, N1, N2, J1, J2):
    """The state stacks (..., J_k, N_k, M) of both users from draws z
    (..., entries): state by state, user 1's states first, the N_k x M real
    parts then the N_k x M imaginary parts, each state scaled to CN(0, 1)."""
    split = 2 * J1 * N1 * M
    parts = ((z[..., :split], J1, N1), (z[..., split:], J2, N2))
    re_im = [part.reshape(*z.shape[:-1], J, 2, N, M) for part, J, N in parts]
    return [(x[..., 0, :, :] + 1j * x[..., 1, :, :]) / np.sqrt(2.0) for x in re_im]


def _draw(z, seeds, attempt):
    """Fill row i of z with the standard normals of the generator of
    attempt_seed(seeds[i], attempt): replayed in one pass (see seeding)
    when there are at least REPLAY_MIN rows, each from its own generator
    otherwise and where the replay does not reach."""
    rest = range(len(seeds))
    if len(seeds) >= REPLAY_MIN:
        from .seeding import replay_draws

        replay_draws(z, seeds, attempt)
        rest = [i for i, s in enumerate(seeds) if s >> 128]
    for i in rest:
        np.random.default_rng(attempt_seed(seeds[i], attempt)).standard_normal(out=z[i])


def generate_batch(dims, seeds):
    """The channel set of each seed, in order, drawn and checked as one chunk.

    dims = (M, N1, N2, J1, J2) are checked once, as CompoundChannelSet
    checks them; seeds are non-negative ints, as ChannelGenSpec checks
    them. Returns (h, error): h = (h1, h2)
    holds the states of the seeds before the first whose generation fails,
    as stacks (T, J1, N1, M) and (T, J2, N2, M) (see stacked_sets), and
    error is that seed's GenerationError (None when every seed passes).
    Each attempt of every pending seed is one row of an array, drawn from
    the generator of attempt_seed(seed, attempt) (see _draw) and laid out
    as _states reads it; the rank conditions of all draws of one attempt
    are decided together (see _rank_conditions_hold), and only the draws
    that fail are resampled, up to MAX_RESAMPLES attempts per seed.
    """
    M, N1, N2, J1, J2 = dims
    check_counts(M=M, N1=N1, N2=N2, J1=J1, J2=J2)
    total = J1 * N1 + J2 * N2
    try:
        rows = np.empty((len(seeds), total, M), dtype=complex)
        z = np.empty((len(seeds), 2 * total * M))
    except (MemoryError, ValueError):
        nbytes = 32 * len(seeds) * total * M
        raise InvalidInputError(
            f"channel dimensions M={M}, N1={N1}, N2={N2}, J1={J1}, J2={J2}: cannot "
            f"allocate {nbytes} bytes to draw {len(seeds)} channel sets"
        ) from None
    pending = np.arange(len(seeds))
    for attempt in range(MAX_RESAMPLES):
        if not pending.size:
            break
        draws = z[:pending.size]
        _draw(draws, [seeds[i] for i in pending.tolist()], attempt)
        if not np.isfinite(draws).all():
            raise InvalidInputError("drawn channel entries must be finite")
        drawn = np.concatenate([h.reshape(pending.size, -1, M) for h in _states(draws, *dims)], 1)
        held = _rank_conditions_hold(drawn)
        rows[pending[held]] = drawn[held]
        pending = pending[~held]
    n = int(pending[0]) if pending.size else len(seeds)
    h = (rows[:n, :J1 * N1].reshape(n, J1, N1, M), rows[:n, J1 * N1:].reshape(n, J2, N2, M))
    if n == len(seeds):
        return h, None
    return h, GenerationError(
        f"rank condition still failing after {MAX_RESAMPLES} attempts (seed {seeds[n]}); "
        "the requested dimensions are degenerate for this tolerance"
    )


def _rank_conditions_hold(rows):
    """verify_rank_condition(ch).passed for the channel of each stack of
    stacked rows in ``rows`` (T, rows, M), T >= 1, whose entries must be
    finite (generated draws are; verify_rank_condition checks).

    The channels share their subsets, which rank_chunks decides for every
    channel still held; a channel stops being checked at the first chunk
    holding one of its failing subsets.
    """
    held = np.ones(len(rows), dtype=bool)
    total, m = rows.shape[1:]
    if total < m:
        return held
    for _, full in rank_chunks(rows, held):
        held[held] = full.all(axis=1)
        if not held.any():
            break
    return held


def verify_rank_condition(ch):
    """Check that every selection of M stacked rows has numerical rank M.

    All C(rows, M) subsets are enumerated, in lexicographic order, with at
    most EXHAUSTIVE_ROW_LIMIT stacked rows or at most SAMPLED_SUBSET_COUNT
    subsets; otherwise a deterministic sample of SAMPLED_SUBSET_COUNT
    subsets is drawn with a fixed-seed generator (seed
    rankcheck.SAMPLE_SEED), so the report is reproducible
    (rankcheck.subset_count). Fewer than M stacked rows means there is
    nothing to check and the condition holds vacuously.

    A subset A (M x M) has rank M iff sigma_min(A) > t * sigma_max(A), with
    t = linalg.RANK_RTOL = 1e-10 (the rule of
    linalg.rank_from_singular_values).
    Each subset is first screened by its determinant. With sigma_1 >= ... >=
    sigma_M the singular values of A, |det A| = sigma_1 ... sigma_M and
    sigma_1 <= ||A||_F; by the AM-GM inequality, sigma_1 ... sigma_{M-1} <=
    (||A||_F^2 / (M-1))^((M-1)/2). Hence

        sigma_min / sigma_max >= |det A| / (||A||_F * (||A||_F^2 / (M-1))^((M-1)/2)),

    the right side read as 1 at M = 1. The bound is evaluated in logs, with
    ||A||_F^2 summed from the squared row norms, which are computed once per
    channel. On the exhaustive path, log |det A| is shared over prefixes:
    write A = [P; R], P its first M - d rows and R its last d, d =
    min(M, rankcheck.SCREEN_TAIL) = min(M, 4), and let P^H = Q [S; 0] be a
    complete QR factorization, N = Q_2 the last d columns of Q (a basis of
    P's null space). Then A Q = [[S^H, 0], [R Q_1, R N]] is block lower
    triangular, so

        |det A| = vol(P) |det(R N)|,   vol(P) = prod |diag S|.

    The QR factorization is built one Householder reflection per row of P,
    and a prefix reuses the reflections of the prefix one row shorter (see
    rankcheck._reflect). It gives vol(P) and G = rows N. det(R N) is
    expanded along the first two of its rows r_1..r_d of G (the generalized
    Laplace expansion): det = sum over the column pairs S of sign(S)
    minor(r_1 r_2; S) minor(r_3 r_4; S^c), the second minor a single entry
    at d = 3 and 1 at d = 2. The pair minors of the rows of G after a
    prefix are computed once, and every tail determinant of every prefix
    ending at the same row is an entry of one matrix product of them. The
    rows are scaled to unit norm first, their log norms added back, so no
    step overflows; rows of G then have norm at most 1, every minor and,
    by Cauchy-Schwarz, the sum of the terms' moduli are at most 1, and the
    computed det(R N) is off by tens of ulps absolute. The sampled path
    takes one batched slogdet per chunk instead, as its subsets share no
    prefixes, and so do a channel of more than EXHAUSTIVE_ROW_LIMIT rows
    whose subsets are all checked and one of at most
    rankcheck.PREFIX_SCREEN_MIN subsets, too few for the sharing to pay.

    A subset passes on the screen only when the bound is finite and exceeds
    rankcheck.rank_screen() = 1e4 * t = 1e-6. The margin absorbs the rounding
    of the computed determinant and of the SVD: on unit rows a pass needs
    |det(R N)| >= |det A| > rank_screen() = 1e-6, so those tens of ulps
    move it by 1e-8 relative at most, and a subset that clears the
    margin has a true ratio far above t and above machine precision; its
    SVD decision would be rank M as well. Every other subset (a singular
    or badly scaled one, one with a rank-deficient or ill-conditioned
    prefix, or one whose squared row norms overflow or underflow) is
    decided by its batched singular values. The report is therefore the same as that of one
    numerical_rank call per subset, failures in enumeration order.
    """
    rows = ch.stacked_rows()
    total = rows.shape[0]
    if total < ch.M:
        return rank_report(ch)
    rows = as_matrix(rows, "stacked rows")
    failures = []
    for subsets, full in rank_chunks(rows[None], np.ones(1, dtype=bool)):
        if not full.all():
            failures.extend(tuple(s) for s in subsets(np.flatnonzero(~full[0])).tolist())
    return rank_report(ch, tuple(failures))


def rank_report(ch, failures=()):
    """The RankConditionReport of channel ``ch`` whose rank check found the
    failing row subsets ``failures``, in check order; with none, the report
    of a channel that passes, such as every generated one.

    checked and exhaustive follow from the stacked row count
    (rankcheck.subset_count).
    """
    rows = ch.J1 * ch.N1 + ch.J2 * ch.N2
    checked, exhaustive = subset_count(rows, ch.M)
    labels = [ch.row_label(i) for i in range(rows)] if failures else []
    return RankConditionReport(
        passed=not failures,
        checked=checked,
        exhaustive=exhaustive,
        failures=failures,
        failure_labels=tuple(tuple(labels[i] for i in s) for s in failures),
    )


def _matrix_to_pairs(m):
    flat = np.asarray(m, dtype=complex).reshape(-1)
    return [[float(z.real), float(z.imag)] for z in flat]


def channel_to_dict(ch):
    """JSON-ready dict: dimensions plus 'H_k_j' -> row-major [re, im] pairs."""
    matrices = {}
    for k in (1, 2):
        for j, m in enumerate(ch.states(k), start=1):
            matrices[f"H_{k}_{j}"] = _matrix_to_pairs(m)
    return {
        "M": ch.M,
        "N1": ch.N1,
        "N2": ch.N2,
        "J1": ch.J1,
        "J2": ch.J2,
        "matrices": matrices,
    }


def save_channel(ch, path):
    """Write a channel set as JSON. Round-trips entries bit for bit."""
    with open(path, "w") as fh:
        json.dump(channel_to_dict(ch), fh, indent=1)
        fh.write("\n")


def _pairs_to_matrix(pairs, n, m, name):
    if not isinstance(pairs, list) or len(pairs) != n * m:
        got = len(pairs) if isinstance(pairs, list) else type(pairs).__name__
        raise ChannelFormatError(f"{name}: expected {n * m} [re, im] pairs, got {got}")
    out = np.empty(n * m, dtype=complex)
    for i, pair in enumerate(pairs):
        if (
            not isinstance(pair, list)
            or len(pair) != 2
            or not all(
                isinstance(x, (int, float)) and not isinstance(x, bool) for x in pair
            )
        ):
            raise ChannelFormatError(f"{name}: entry {i} is not a [re, im] pair")
        try:
            out[i] = complex(pair[0], pair[1])
        except OverflowError:
            raise ChannelFormatError(f"{name}: entry {i} is out of range") from None
    return out.reshape(n, m)


def channel_from_dict(data):
    """Inverse of channel_to_dict for a dict ``data``, with field-level
    diagnostics."""
    dims = {}
    for name in ("M", "N1", "N2", "J1", "J2"):
        if name not in data:
            raise ChannelFormatError(f"missing field {name!r}")
        dims[name] = check_count(data[name], f"field {name!r}", ChannelFormatError)
    matrices = data.get("matrices")
    if not isinstance(matrices, dict):
        raise ChannelFormatError("missing or malformed field 'matrices'")
    states = {1: [], 2: []}
    for k in (1, 2):  # key by key: a J_k of 10^12 ends at the first missing matrix
        for j in range(1, dims[f"J{k}"] + 1):
            key = f"H_{k}_{j}"
            if key not in matrices:
                raise ChannelFormatError(f"missing matrix {key!r}")
            states[k].append(_pairs_to_matrix(matrices[key], dims[f"N{k}"], dims["M"], key))
    extra = set(matrices) - {f"H_{k}_{j}" for k in (1, 2) for j in range(1, dims[f"J{k}"] + 1)}
    if extra:
        raise ChannelFormatError(f"unexpected matrix keys: {sorted(extra)}")
    return CompoundChannelSet(
        dims["M"], dims["N1"], dims["N2"], dims["J1"], dims["J2"],
        tuple(states[1]), tuple(states[2]),
    )


def load_channel(path):
    """Read a channel set written by save_channel; ChannelFormatError if malformed."""
    return channel_from_dict(read_json(path, ChannelFormatError, "channel file"))

