"""The row subsets of the generic rank check, and their rank decisions.

channel.verify_rank_condition states the rule and the determinant screen;
rank_chunks decides the subsets chunk by chunk, for one channel or for a
stack of channels that share their subsets. Up to EXHAUSTIVE_ROW_LIMIT
stacked rows every subset is checked, in lexicographic order, and each
determinant factors over the subset's prefix, whose QR factorization it
shares with every subset that starts with it; above that limit a
fixed-seed sample is checked, each subset by its own slogdet, as are the
subsets of a channel that has too few of them for the sharing to pay.
"""

import functools
import itertools
import math

import numpy as np

from .linalg import _screen_passes, rank_from_singular_values, rank_screen

# Above this many stacked rows, rank verification samples subsets instead of
# enumerating them all.
EXHAUSTIVE_ROW_LIMIT = 24
SAMPLED_SUBSET_COUNT = 10_000
# Fixed seed for the sampled verification path, so reports are reproducible.
SAMPLE_SEED = 0
# The rank check holds about this many complex entries of stacked matrices
# at a time, divided among the channels checked together: the m x m subsets
# of a slogdet chunk, the G arrays of a chunk of prefixes, and the d x d
# matrices of a piece of the prefix-shared screen; the subsets that a chunk
# or piece refers go to one SVD. Measured in-process on a 2-vCPU Xeon:
# verify-channel --M 4 --J1 12 --J2 12 took 7.2 ms (5.9 ms at 16384 or
# 65536, whose pieces of 1820 or 7281 subsets raised peak RSS by 0.5 and
# 1.9 MB), and --M 12 2.8 s (2.2 s at 8192, at 1.4 MB more peak RSS).
RANK_CHUNK = 4096
# The exhaustive rank check factors the determinant of each subset over its
# prefix, all but its last SCREEN_TAIL rows (see channel.verify_rank_condition).
SCREEN_TAIL = 3
# A channel of at most this many subsets is screened subset by subset, by
# slogdet: there the prefix-shared screen's fixed cost per call (its
# reflections, tail sums and enumeration) outweighs what it saves per
# subset. Measured on a 2-vCPU Xeon, one channel: 215 against 194 us for
# C(10, 4) = 210 subsets, 489 against 536 us for C(12, 4) = 495; 64
# channels of C(4, 4) = 1 subset, as a constant-model chunk holds: 406
# against 169 us.
PREFIX_SCREEN_MIN = 256


def rank_chunks(rows, live, tol):
    """The rank decisions of the row subsets of the channels of ``rows``
    (T, rows, M), rows >= M, chunk by chunk: (subsets, full) per chunk, in
    check order. full (L, k) says whether each of the chunk's k subsets has
    rank M in each of the L channels that ``live`` (T,) marks when the
    chunk starts, and subsets(i) gives the rows (len(i), M) of the subsets
    at positions i of the chunk. The caller may clear ``live`` between
    chunks.

    A determinant screen passes the subsets it proves full rank: the
    prefix-shared _exhaustive_screen for more than PREFIX_SCREEN_MIN
    subsets up to EXHAUSTIVE_ROW_LIMIT rows, else _slogdet_screen over all
    subsets or the sample. One batched SVD per chunk decides the rest.
    """
    T, total, m = rows.shape
    size = max(1, RANK_CHUNK // (T * m * m))
    if total > EXHAUSTIVE_ROW_LIMIT:
        screen = _slogdet_screen(rows, live, tol, _sampled_chunks(total, m, size))
    elif math.comb(total, m) <= PREFIX_SCREEN_MIN:
        table = _subsets(total, m)
        chunks = (table[a:a + size] for a in range(0, len(table), size))
        screen = _slogdet_screen(rows, live, tol, chunks)
    else:
        screen = _exhaustive_screen(rows, live, tol)
    for subsets, full in screen:
        ch, pos = np.nonzero(~full)
        if ch.size:
            stack = rows[np.flatnonzero(live)[ch][:, None], subsets(pos)]
            full[ch, pos] = rank_from_singular_values(np.linalg.svd(stack, compute_uv=False), tol) == m
        yield subsets, full


def _slogdet_screen(rows, live, tol, chunks):
    """(subsets, passed) per index chunk (k, M) of ``chunks``, for the
    channels of ``rows`` (T, rows, M) that ``live`` marks, as rank_chunks
    takes them: each subset's determinant bound from one batched slogdet."""
    m = rows.shape[-1]
    norms2 = _squared_row_norms(rows)
    for idx in chunks:
        sel = np.flatnonzero(live)
        fro2 = norms2[sel][:, idx].sum(axis=-1)
        with np.errstate(all="ignore"):
            logdet = np.linalg.slogdet(rows[sel][:, idx])[1]
        yield idx.__getitem__, _screen_passes(logdet, fro2, m, tol)


def _exhaustive_screen(rows, live, tol):
    """(subsets, passed) per chunk of all row subsets of the channels of
    ``rows`` (T, rows, M), for those ``live`` marks, in the order of
    _exhaustive_chunks and as rank_chunks takes them: each subset's
    determinant bound with log |det A| = log vol(P) + log |det(R N)| (see
    verify_rank_condition).

    The rows are scaled to unit norm, their log norms added back. The state
    of a prefix is (channels, G, log vol(P)): the root's G is the rows
    themselves, and each row a prefix gains is one Householder reflection
    (see _reflect). A piece gathers the d x d matrices R N from G, stored
    column by column, each entry as one array over the piece (the
    transposes, which have the same determinants). A zero row, or one whose
    squared norm overflows or is subnormal, has log norm -inf, so its
    subsets' bounds are not finite.
    """
    T, total, m = rows.shape
    d = min(m, SCREEN_TAIL)
    norms2 = _squared_row_norms(rows)
    scaled = (norms2 >= np.finfo(float).tiny) & (norms2 < np.inf)
    with np.errstate(all="ignore"):
        norms = np.sqrt(norms2)
        lognorm = np.where(scaled, np.log(norms), -np.inf)
        unit = np.where(scaled[..., None], rows / norms[..., None], 0.0)
    log_screen = math.log(rank_screen(tol))

    def extend(state, owner, row):
        sel, g, logvol = state
        keep = np.flatnonzero(live[sel])[:, None]
        return (sel[keep[:, 0]], *_reflect(g[keep, owner], logvol[keep, owner], row, log_screen))

    sel = np.flatnonzero(live)
    root = (sel, unit[sel][:, None], np.zeros((len(sel), 1)))
    tails, blocks = _exhaustive_chunks(
        total, m, RANK_CHUNK // T, max(1, RANK_CHUNK // (T * d * d)), extend, root
    )
    tail_lognorm = lognorm[:, tails].sum(axis=-1)
    tail_norms2 = norms2[:, tails].sum(axis=-1)
    tails = np.ascontiguousarray(tails.T)
    for prefixes, (sel, g, logvol), pieces in blocks:
        logvol = logvol + lognorm[sel][:, prefixes].sum(axis=-1)
        fro2 = norms2[sel][:, prefixes].sum(axis=-1)
        g = np.moveaxis(g, -1, 0).reshape(d, -1)
        channel_offset = np.arange(len(sel))[:, None] * (len(prefixes) * total)
        sel_lognorm, sel_norms2 = tail_lognorm[sel], tail_norms2[sel]
        for owner, tail in pieces:
            tail_rows = tails.take(tail, axis=1)
            entries = g.take(tail_rows[:, None] + (channel_offset + owner * total), axis=1)
            with np.errstate(divide="ignore"):
                logdet = (
                    logvol.take(owner, axis=1)
                    + sel_lognorm.take(tail, axis=1)
                    + np.log(np.abs(_det(entries)))
                )
            f = fro2.take(owner, axis=1) + sel_norms2.take(tail, axis=1)
            passed = _screen_passes(logdet, f, m, tol)
            yield _subset_rows(prefixes, owner, tail_rows), passed[live[sel]]


def _reflect(g, logvol, row, log_screen):
    """(G, log vol) of prefixes P extended by one row each, ``row``.

    g (L, K, rows, e) holds each prefix's G = rows N, N an orthonormal basis
    of its null space, and logvol (L, K) its log vol(P) over unit-norm rows.
    The new row contributes v = G[row], and vol(P) grows by ||v||. With x =
    conj(v), the Householder reflection W = I - 2 u u^H / (u^H u), u = x +
    (x_1 / |x_1|) ||x|| e_1, maps x onto a multiple of e_1, so its last e - 1
    columns H span the null space of v, and G H = G[:, 1:] - (G u) v[1:] *
    2 / (u^H u), with u^H u = 2 ||x|| (||x|| + |x_1|). A prefix whose vol
    falls to rank_screen or below gets log vol -inf and G = 0: its vol
    bounds the screen's bound of each subset it starts, so none could pass.
    """
    v = g[:, np.arange(g.shape[1]), row]
    with np.errstate(all="ignore"):
        norm = np.sqrt(np.sum(v.real**2 + v.imag**2, axis=-1))
        logvol = logvol + np.log(norm)
        u = v.conj()
        head = np.abs(u[..., 0])
        u[..., 0] += np.where(head > 0, u[..., 0] / head, 1.0) * norm
        scale = 1.0 / (norm * (norm + head))
        step = (g @ u[..., None]) * (scale[..., None] * v[..., 1:])[:, :, None]
        g = np.subtract(g[..., 1:], step, out=step)
    dead = ~(logvol > log_screen)
    logvol[dead] = -np.inf
    g[dead] = 0.0
    return g, logvol


def _subset_rows(prefixes, owner, tail_rows):
    """The rows of the subsets at positions i of a piece, prefixes[owner[i]]
    followed by tail_rows[:, i], as a function of i."""
    return lambda i: np.concatenate([prefixes[owner[i]], tail_rows[:, i].T], axis=1)


def _det(g):
    """Determinant of the d x d matrices with entries g[r, c] (d <= 3), each
    an array over the matrices, in closed form."""
    if len(g) == 1:
        return g[0, 0]
    if len(g) == 2:
        return g[0, 0] * g[1, 1] - g[0, 1] * g[1, 0]
    (a0, a1, a2), (b0, b1, b2), (c0, c1, c2) = g
    return a0 * (b1 * c2 - b2 * c1) - a1 * (b0 * c2 - b2 * c0) + a2 * (b0 * c1 - b1 * c0)


def _exhaustive_chunks(total, m, block, size, extend, root):
    """All C(total, m) m-subsets of range(total) in lexicographic order,
    the order of itertools.combinations, as blocks of prefixes each followed
    by the tails that complete them.

    A subset is its prefix, its first m - d rows, followed by its tail, its
    last d rows, d = min(m, SCREEN_TAIL). Returns (tails, blocks): tails
    holds all d-subsets of range(total) in lexicographic order, and blocks
    yields (prefixes, state, pieces) per block of consecutive prefixes, a
    (K, m - d) intp array. pieces yields (owner, tail) per at most ``size``
    consecutive subsets of the block, subset i being prefixes[owner[i]]
    followed by tails[tail[i]].

    Prefixes grow from the empty one, one row at a time and depth first: a
    prefix of j rows ending at row l gains each row of l + 1, ...,
    total - m + j, which leaves room for the rest, and each chunk of the
    prefixes one row longer is completed before the next. A chunk of
    prefixes of j + 1 rows holds at most max(1, block // (total (m - j -
    1))) of them: ``block`` entries of their G arrays (see
    _exhaustive_screen). The state of the empty prefix is ``root``, and
    extend(state, owner, row) is the state of the chunk's prefixes, the
    parents' prefixes[owner] each followed by its ``row``. The tails of a
    prefix ending at row l are the d-subsets of range(l + 1, total): the
    last C(total - 1 - l, d) rows of tails.
    """
    d = min(m, SCREEN_TAIL)
    tails = _subsets(total, d)
    # the tail count of a prefix ending at row l, at index l + 1
    tail_counts = np.array([math.comb(total - 1 - l, d) for l in range(-1, total)])

    def grow(prefixes, state):
        j = prefixes.shape[1]
        last = prefixes[:, -1] if j else np.full(1, -1)
        if j == m - d:
            counts = tail_counts[last + 1]
            pieces = _children(counts, size)
            yield prefixes, state, ((o, len(tails) - counts[o] + k) for o, k in pieces)
            return
        chunk = max(1, block // (total * (m - j - 1)))
        for owner, k in _children(total - m + j - last, chunk):
            row = last[owner] + 1 + k
            yield from grow(np.column_stack([prefixes[owner], row]), extend(state, owner, row))

    return tails, grow(np.zeros((1, 0), dtype=np.intp), root)


@functools.lru_cache(maxsize=None)
def _subsets(total, k):
    """All k-subsets of range(total) in lexicographic order, one per row,
    as a read-only (C(total, k), k) intp array. Built column by column,
    each subset followed by the rows that can extend it; the rank check
    asks for k <= SCREEN_TAIL or for at most PREFIX_SCREEN_MIN rows."""
    table = np.zeros((1, 0), dtype=np.intp)
    for j in range(k):
        last = table[:, -1] if j else np.full(1, -1)
        owner, child = next(_children(total - k + j - last, math.comb(total, k)))
        table = np.column_stack([table[owner], last[owner] + 1 + child])
    table.flags.writeable = False
    return table


def _children(counts, size):
    """(owner, k) per ``size`` consecutive children of nodes with ``counts``
    children each: child k of node owner, both intp arrays."""
    ends = np.cumsum(counts)
    for a in range(0, int(ends[-1]), size):
        pos = np.arange(a, min(a + size, int(ends[-1])))
        owner = np.searchsorted(ends, pos, side="right")
        yield owner, pos - ends.take(owner) + counts.take(owner)


def _sampled_chunks(total, m, size):
    """The SAMPLED_SUBSET_COUNT row subsets of the sampled rank check, as
    (k, m) intp arrays of at most ``size`` subsets each, one row per subset:
    each one rng.choice(total, m, replace=False) of a generator seeded with
    SAMPLE_SEED, sorted."""
    rng = np.random.default_rng(SAMPLE_SEED)
    subsets = (
        np.sort(rng.choice(total, size=m, replace=False))
        for _ in range(SAMPLED_SUBSET_COUNT)
    )
    flat = itertools.chain.from_iterable(subsets)
    while (chunk := np.fromiter(itertools.islice(flat, size * m), np.intp)).size:
        yield chunk.reshape(-1, m)


def _squared_row_norms(rows):
    """Squared norm of each row of ``rows`` (..., M), inf where it overflows."""
    with np.errstate(over="ignore"):
        return np.sum(rows.real**2 + rows.imag**2, axis=-1)

