"""Compound channel sets: generation, genericity verification, persistence.

A compound channel set holds, for each of two users, a finite collection of
candidate channel matrices (states). User k has J_k states, each an N_k x M
complex matrix; the transmitter knows the collection but not which state is
realized. Noise variance is 1 by convention throughout the package, so
transmit power doubles as SNR.

Each generation attempt draws all entries as one standard_normal vector
from its own seeded generator. generate_compound draws and checks one spec
at a time; generate_batch takes many specs and decides the rank checks of
all their draws together, resampling only the draws that fail, with the
same channels as a result.
"""

import itertools
import json
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    ChannelFormatError,
    GenerationError,
    InvalidInputError,
    check_count,
    user_index,
)
from .linalg import DEFAULT_TOL, as_matrix, rank_from_singular_values, rank_screen

__all__ = [
    "CompoundChannelSet",
    "ChannelGenSpec",
    "RankConditionReport",
    "generate_compound",
    "verify_rank_condition",
    "save_channel",
    "load_channel",
    "swap_users",
]

# Above this many stacked rows, rank verification samples subsets instead of
# enumerating them all.
EXHAUSTIVE_ROW_LIMIT = 24
SAMPLED_SUBSET_COUNT = 10_000
# Fixed seed for the sampled verification path, so reports are reproducible.
SAMPLE_SEED = 0
# Subsets are checked in chunks of this many, which bounds the memory of the
# stacked M x M submatrices: all C(24, 12) subsets at M = 12 would take
# 6.2 GB, a chunk 1.2 MB. Larger chunks ran no faster at M = 4 and raised the
# peak memory of a verify-channel process.
RANK_CHUNK = 512


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
        for name in ("M", "N1", "N2", "J1", "J2"):
            check_count(getattr(self, name), name)
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
        """State matrix H_k^j (k in {1,2}, j 1-based)."""
        return self.states(k)[j - 1]

    def states(self, k):
        """All states of user k, in order."""
        return (self.h1, self.h2)[user_index(k)]

    def stacked_rows(self):
        """All rows of all states stacked: (J1*N1 + J2*N2) x M."""
        return np.vstack([*self.h1, *self.h2])

    def row_label(self, i):
        """Human-readable label of stacked row i: matrix name plus local row."""
        if i < self.J1 * self.N1:
            j, r = divmod(i, self.N1)
            return f"H_1_{j + 1}[{r}]"
        i -= self.J1 * self.N1
        j, r = divmod(i, self.N2)
        return f"H_2_{j + 1}[{r}]"


@dataclass(frozen=True)
class ChannelGenSpec:
    """Parameters for seeded channel generation."""

    M: int
    N1: int
    N2: int
    J1: int
    J2: int
    seed: int
    max_resamples: int = 8

    def __post_init__(self):
        check_count(self.seed, "seed", minimum=0)


@dataclass(frozen=True)
class RankConditionReport:
    """Outcome of the generic rank check.

    failures lists the offending row subsets (tuples of stacked-row indices)
    together with their labels; exhaustive says whether every M-subset was
    checked or a fixed-seed sample of SAMPLED_SUBSET_COUNT subsets was used.
    """

    passed: bool
    checked: int
    exhaustive: bool
    failures: tuple = field(default_factory=tuple)
    failure_labels: tuple = field(default_factory=tuple)


def attempt_seed(seed, attempt):
    """Sub-seed for resampling attempt ``attempt``; injective in (seed, attempt)."""
    return np.random.SeedSequence(seed, spawn_key=(attempt,))


def generate_compound(spec, tol=DEFAULT_TOL):
    """Draw a compound channel set with i.i.d. CN(0,1) entries.

    Entries are circularly symmetric complex Gaussian with unit variance.
    The generic rank condition (every selection of M stacked rows has rank
    M) is verified on each draw; failing draws are resampled with a fresh
    sub-seed derived from (seed, attempt). After max_resamples failed
    attempts a GenerationError is raised. Identical specs produce
    bit-identical channel sets.
    """
    return _generate(spec, tol)[0]


def _generate(spec, tol=DEFAULT_TOL):
    """generate_compound, also returning the passing draw's rank report."""
    if spec.max_resamples < 1:
        raise _generation_error(spec)
    for attempt in range(spec.max_resamples):
        ch = _draw(spec, attempt)
        report = verify_rank_condition(ch, tol)
        if report.passed:
            return ch, report
    raise _generation_error(spec)


def _generation_error(spec):
    """The error of a spec none of whose draws passes the rank check."""
    if spec.max_resamples < 1:
        return InvalidInputError("max_resamples must be at least 1")
    return GenerationError(
        f"rank condition still failing after {spec.max_resamples} attempts "
        f"(seed {spec.seed}); the requested dimensions are degenerate for this tolerance"
    )


def _draw(spec, attempt):
    """The channel set of resampling attempt ``attempt``.

    One standard_normal vector from the attempt's generator holds every
    entry: state by state, user 1's states first, the N_k x M real parts
    then the N_k x M imaginary parts, each state scaled to CN(0, 1).
    """
    rng = np.random.default_rng(attempt_seed(spec.seed, attempt))
    sizes = (spec.J1 * spec.N1 * spec.M, spec.J2 * spec.N2 * spec.M)
    z = rng.standard_normal(2 * sum(sizes))
    states = []
    for part, J, N in (
        (z[:2 * sizes[0]], spec.J1, spec.N1),
        (z[2 * sizes[0]:], spec.J2, spec.N2),
    ):
        re_im = part.reshape(J, 2, N, spec.M)
        states.append(tuple((re_im[:, 0] + 1j * re_im[:, 1]) / np.sqrt(2.0)))
    return CompoundChannelSet(spec.M, spec.N1, spec.N2, spec.J1, spec.J2, *states)


def generate_batch(specs, tol=DEFAULT_TOL):
    """generate_compound of each spec, in order, rank checks decided together.

    Returns (channels, error): the channels of the specs before the first
    whose generation fails, and that spec's error (None when every spec
    passes). Each spec draws its attempts as generate_compound does, so
    each channel is the one generate_compound returns; the rank conditions
    of all draws of one attempt are decided together (see
    _rank_conditions_hold), and only the draws that fail are resampled.
    """
    chs = [None] * len(specs)
    pending = list(range(len(specs)))
    for attempt in itertools.count():
        pending = [i for i in pending if attempt < specs[i].max_resamples]
        if not pending:
            break
        draws = [_draw(specs[i], attempt) for i in pending]
        held = _rank_conditions_hold(draws, tol)
        for i, ch, ok in zip(pending, draws, held):
            if ok:
                chs[i] = ch
        pending = [i for i, ok in zip(pending, held) if not ok]
    n = chs.index(None) if None in chs else len(chs)
    return chs[:n], (_generation_error(specs[n]) if n < len(chs) else None)


def _rank_conditions_hold(chs, tol=DEFAULT_TOL):
    """verify_rank_condition(ch, tol).passed for each channel, whose entries
    must be finite (generated draws are; verify_rank_condition checks).

    Channels with the same M and stacked row count share their subsets,
    which are gathered RANK_CHUNK (channel, subset) pairs at a time and
    decided by _full_rank; a channel stops being checked at its first
    failing subset.
    """
    held = np.ones(len(chs), dtype=bool)
    groups = {}
    for i, ch in enumerate(chs):
        groups.setdefault((ch.M, ch.J1 * ch.N1 + ch.J2 * ch.N2), []).append(i)
    screen = rank_screen(tol)
    for (m, total), idx in groups.items():
        if total < m:
            continue
        rows = np.array([chs[i].stacked_rows() for i in idx])
        subsets, _ = _subsets(total, m)
        alive = np.ones(len(idx), dtype=bool)
        per_chunk = max(1, RANK_CHUNK // len(idx))
        while alive.any() and (chunk := list(itertools.islice(subsets, per_chunk))):
            live = np.flatnonzero(alive)
            stack = rows[live][:, np.array(chunk)].reshape(-1, m, m)
            alive[live] = _full_rank(stack, m, tol, screen).reshape(len(live), -1).all(axis=1)
        held[idx] = alive
    return held


def _subsets(total, m):
    """The row subsets the rank check takes, and whether they are all of them.

    All C(total, m) subsets in lexicographic order up to
    EXHAUSTIVE_ROW_LIMIT rows, else SAMPLED_SUBSET_COUNT sorted subsets from
    a generator seeded with SAMPLE_SEED.
    """
    if total <= EXHAUSTIVE_ROW_LIMIT:
        return itertools.combinations(range(total), m), True
    rng = np.random.default_rng(SAMPLE_SEED)
    return (
        tuple(sorted(rng.choice(total, size=m, replace=False)))
        for _ in range(SAMPLED_SUBSET_COUNT)
    ), False


def verify_rank_condition(ch, tol=DEFAULT_TOL):
    """Check that every selection of M stacked rows has numerical rank M.

    With at most EXHAUSTIVE_ROW_LIMIT stacked rows all C(rows, M) subsets
    are enumerated; otherwise a deterministic sample of SAMPLED_SUBSET_COUNT
    subsets is drawn with a fixed-seed generator (seed SAMPLE_SEED), so the
    report is reproducible. Fewer than M stacked rows means there is
    nothing to check and the condition holds vacuously.

    A subset A (M x M) has rank M iff sigma_min(A) > t * sigma_max(A), with
    t = tol.relative_threshold (the rule of linalg.rank_from_singular_values).
    Subsets are taken RANK_CHUNK at a time, and each chunk is first screened
    with a batched inverse: since ||A||_F >= sigma_max and ||A^-1||_F >=
    1 / sigma_min,

        sigma_min / sigma_max >= 1 / (||A||_F * ||A^-1||_F).

    A subset passes on the screen only when this bound is finite and exceeds
    linalg.rank_screen(tol) = max(1e4 * t, 1e-8). The margin absorbs the
    rounding of the computed inverse and of the SVD: a subset that clears
    it has a true ratio far above t and above machine precision, so its SVD
    decision would be rank M as well. Every other subset, and the whole chunk when
    the inverse finds an exactly singular member, is decided by its batched
    singular values. The report is therefore the same as that of one
    numerical_rank call per subset, failures in enumeration order.
    """
    rows = ch.stacked_rows()
    total = rows.shape[0]
    if total < ch.M:
        return RankConditionReport(passed=True, checked=0, exhaustive=True)
    rows = as_matrix(rows, "stacked rows")
    subsets, exhaustive = _subsets(total, ch.M)
    screen = rank_screen(tol)
    failures = []
    checked = 0
    while chunk := list(itertools.islice(subsets, RANK_CHUNK)):
        checked += len(chunk)
        full = _full_rank(rows[np.array(chunk)], ch.M, tol, screen)
        failures.extend(chunk[i] for i in np.flatnonzero(~full))
    labels = tuple(tuple(ch.row_label(i) for i in s) for s in failures)
    return RankConditionReport(
        passed=not failures,
        checked=checked,
        exhaustive=exhaustive,
        failures=tuple(failures),
        failure_labels=labels,
    )


def _full_rank(stack, m, tol, screen):
    """Whether each m x m matrix of ``stack`` has numerical rank m."""
    full = np.zeros(len(stack), dtype=bool)
    try:
        with np.errstate(all="ignore"):
            inv = np.linalg.inv(stack)
            bound = 1.0 / (
                np.linalg.norm(stack, axis=(1, 2)) * np.linalg.norm(inv, axis=(1, 2))
            )
        full = np.isfinite(bound) & (bound > screen)
    except np.linalg.LinAlgError:
        pass
    rest = np.flatnonzero(~full)
    if rest.size:
        s = np.linalg.svd(stack[rest], compute_uv=False)
        full[rest] = rank_from_singular_values(s, tol) == m
    return full


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
    """Inverse of channel_to_dict, with field-level diagnostics."""
    if not isinstance(data, dict):
        raise ChannelFormatError("channel file must contain a JSON object")
    dims = {}
    for name in ("M", "N1", "N2", "J1", "J2"):
        if name not in data:
            raise ChannelFormatError(f"missing field {name!r}")
        dims[name] = check_count(data[name], f"field {name!r}", ChannelFormatError)
    matrices = data.get("matrices")
    if not isinstance(matrices, dict):
        raise ChannelFormatError("missing or malformed field 'matrices'")
    expected = [
        (k, j, dims[f"N{k}"])
        for k in (1, 2)
        for j in range(1, dims[f"J{k}"] + 1)
    ]
    states = {1: [], 2: []}
    for k, j, n in expected:
        key = f"H_{k}_{j}"
        if key not in matrices:
            raise ChannelFormatError(f"missing matrix {key!r}")
        states[k].append(_pairs_to_matrix(matrices[key], n, dims["M"], key))
    extra = set(matrices) - {f"H_{k}_{j}" for k, j, _ in expected}
    if extra:
        raise ChannelFormatError(f"unexpected matrix keys: {sorted(extra)}")
    return CompoundChannelSet(
        dims["M"], dims["N1"], dims["N2"], dims["J1"], dims["J2"],
        tuple(states[1]), tuple(states[2]),
    )


def load_channel(path):
    """Read a channel set written by save_channel."""
    try:
        with open(path) as fh:
            data = json.load(fh)
    except json.JSONDecodeError as e:
        raise ChannelFormatError(
            f"invalid JSON at line {e.lineno} column {e.colno}: {e.msg}"
        ) from e
    return channel_from_dict(data)


def swap_users(ch):
    """The same channel set with the two users' roles exchanged."""
    return CompoundChannelSet(ch.M, ch.N2, ch.N1, ch.J2, ch.J1, ch.h2, ch.h1)
