"""The row subsets of the generic rank check, and their rank decisions.

channel.verify_rank_condition states the rule and the determinant screen;
rank_chunks decides the subsets chunk by chunk, for one channel or for a
stack of channels that share their subsets. Up to EXHAUSTIVE_ROW_LIMIT
stacked rows every subset is checked, in lexicographic order. A subset's
determinant factors over its prefix, whose QR factorization it shares with
every subset that starts with it, and its last four rows (its tail): the
tail determinants of the prefixes that end at the same row are entries of
one product of 2 x 2 minors (the Laplace expansion). Above that limit a
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
# The rank check holds about this many complex entries at a time, divided
# among the channels checked together: the m x m subsets of a slogdet chunk
# or of an SVD of referred subsets, the G arrays of a chunk of prefixes, and
# a span's products of pair minors with its tails' work arrays. A span's
# product then stays below 65,536 complex multiply-adds (54,810 at most for
# 24 rows), above which OpenBLAS splits a zgemm over threads; on a 2-vCPU
# Xeon such a split call stalled for up to 16 ms. Against 8192, measured there as the median
# ratio of alternating in-process checks of one channel of 24 rows: 0.63x
# the time at M = 4, 0.5x at M = 8 and M = 10, and 0.93x for 64 channels
# at M = 4; a verify-channel process peaked at the same RSS at M = 4 and
# 2.3 MB higher at M = 8. 65536 raised the M = 4 peak by 0.6 MB more.
RANK_CHUNK = 32768
# The exhaustive rank check factors the determinant of each subset over its
# prefix, all but its last SCREEN_TAIL rows, whose determinants it expands
# along their first two (see channel.verify_rank_condition).
SCREEN_TAIL = 4
# A channel of at most this many subsets is screened subset by subset, by
# slogdet: there the prefix-shared screen's fixed cost per call (tables,
# minors and spans) outweighs what it saves per subset. Measured on a
# 2-vCPU Xeon, one channel: 234 against 341 us for C(10, 4) = 210 subsets,
# 508 against 374 us for C(12, 4) = 495; 150 channels of C(4, 4) = 1
# subset, as constant-trials' chunk holds: 205 against 627 us; 4 of C(6, 3)
# = 20, as fading-blocks checks: 111 against 338 us.
PREFIX_SCREEN_MIN = 256


def subset_count(rows, m):
    """(count, exhaustive): how many m x m subsets the rank check of
    ``rows`` stacked rows takes, and whether they are all of them. None
    below m rows (the condition holds vacuously), all C(rows, m) up to
    EXHAUSTIVE_ROW_LIMIT rows, SAMPLED_SUBSET_COUNT sampled ones above, so
    no binomial of a huge row count is computed."""
    if rows < m:
        return 0, True
    if rows <= EXHAUSTIVE_ROW_LIMIT:
        return math.comb(rows, m), True
    return SAMPLED_SUBSET_COUNT, False


def rank_chunks(rows, live):
    """The rank decisions of the row subsets of the channels of ``rows``
    (T, rows, M), rows >= M, chunk by chunk: (subsets, full) per chunk, in
    check order. full (L, k) says whether each of the chunk's k subsets has
    rank M in each of the L channels that ``live`` (T,) marks when the
    chunk starts, and subsets(i) gives the rows (len(i), M) of the subsets
    at positions i of the chunk. The caller may clear ``live`` between
    chunks.

    A determinant screen passes the subsets whose bound on sigma_min /
    sigma_max exceeds linalg.rank_screen() = 1e-6: the prefix-shared
    _exhaustive_screen for more than PREFIX_SCREEN_MIN subsets up to
    EXHAUSTIVE_ROW_LIMIT rows, else _slogdet_screen over all subsets or the
    sample. Batched SVDs of at most RANK_CHUNK // (T M^2) subsets each
    decide the rest, rank M iff sigma_min > linalg.RANK_RTOL sigma_max =
    1e-10 sigma_max.
    """
    T, total, m = rows.shape
    size = max(1, RANK_CHUNK // (T * m * m))
    count, exhaustive = subset_count(total, m)
    if not exhaustive:
        screen = _slogdet_screen(rows, live, _sampled_chunks(total, m, size))
    elif count <= PREFIX_SCREEN_MIN:
        table = _subsets(total, m)
        chunks = (table[a:a + size] for a in range(0, len(table), size))
        screen = _slogdet_screen(rows, live, chunks)
    else:
        screen = _exhaustive_screen(rows, live)
    for subsets, full in screen:
        ch, pos = np.nonzero(~full)
        for a in range(0, ch.size, size):
            c, p = ch[a:a + size], pos[a:a + size]
            stack = rows[np.flatnonzero(live)[c][:, None], subsets(p)]
            full[c, p] = rank_from_singular_values(np.linalg.svd(stack, compute_uv=False)) == m
        yield subsets, full


def _slogdet_screen(rows, live, chunks):
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
        yield idx.__getitem__, _screen_passes(logdet, fro2, m)


def _exhaustive_screen(rows, live):
    """(subsets, passed) per block of all row subsets of the channels of
    ``rows`` (T, rows, M), for those ``live`` marks, in lexicographic order
    and as rank_chunks takes them: each subset's determinant bound with
    log |det A| = log vol(P) + log |det(R N)| (see verify_rank_condition).

    The rows are scaled to unit norm, their log norms added back. The state
    of a prefix is (channels, G, log vol(P)): the root's G is the rows
    themselves, and each row a prefix gains is one Householder reflection
    (see _reflect). A batch of _exhaustive_chunks takes the rows of G after
    its prefixes' last row, and each span of heads reads its tails'
    determinants det(R N) off one product of _tail_factors. The verdicts
    of a block are placed at the tails' lexicographic positions. A zero
    row, or one whose squared norm overflows or is subnormal, has log norm
    -inf, so its subsets' bounds are not finite.
    """
    T, total, m = rows.shape
    d = min(m, SCREEN_TAIL)
    norms2 = _squared_row_norms(rows)
    scaled = (norms2 >= np.finfo(float).tiny) & (norms2 < np.inf)
    with np.errstate(all="ignore"):
        norms = np.sqrt(norms2)
        lognorm = np.where(scaled, np.log(norms), -np.inf)
        unit = np.where(scaled[..., None], rows / norms[..., None], 0.0)
    log_screen = math.log(rank_screen())

    def extend(state, owner, row):
        sel, g, logvol = state
        keep = np.flatnonzero(live[sel])[:, None]
        return (sel[keep[:, 0]], *_reflect(g[keep, owner], logvol[keep, owner], row, log_screen))

    sel = np.flatnonzero(live)
    root = (sel, unit[sel][:, None], np.zeros((len(sel), 1)))
    # the log norm and the squared norm of every head and every rest of all
    # rows, (T, 2, subsets) in lexicographic order: those of the rows after
    # row l are the last
    h = min(d, 2)
    sums = [np.concatenate([lognorm[:, None, t], norms2[:, None, t]], axis=1).sum(axis=-1)
            for t in (_subsets(total, h), _subsets(total, d - h))]
    done = 0
    blocks = _exhaustive_chunks(total, m, max(1, RANK_CHUNK // T), extend, root)
    for prefixes, (sel, g, logvol), count, batches in blocks:
        logvol = logvol + lognorm[sel][:, prefixes].sum(axis=-1)
        fro2 = norms2[sel][:, prefixes].sum(axis=-1)
        head_sums, rest_sums = (x[sel] for x in sums)
        passed = np.empty((len(sel), count), dtype=bool)
        for ks, n, at, spans in batches:
            tables = order, rests, start, shift, _ = _tail_tables(n, d)
            head_minors, rest_minors = _tail_factors(g[:, ks, total - n:], order, d)
            batch_heads = head_sums[..., -len(order):].take(order, axis=-1)
            batch_rests = rest_sums[..., -len(rests):]
            batch_logvol, batch_fro2 = logvol[:, ks, None], fro2[:, ks, None]
            for a, b in spans:
                o, r, pos = _span_tails(tables, a, b)
                first = start[a] + shift[a]
                products = head_minors[:, :, a:b] @ rest_minors[..., first:]
                entry = (o - a) * (len(rests) - first) + r - first
                det = products.reshape(*products.shape[:2], -1).take(entry, axis=-1)
                tail = batch_heads.take(o, axis=-1) + batch_rests.take(r, axis=-1)
                with np.errstate(divide="ignore"):
                    logdet = np.log(np.abs(det))
                logdet += batch_logvol + tail[:, None, 0]
                passes = _screen_passes(logdet, batch_fro2 + tail[:, None, 1], m)
                passed[:, at[:, None] + pos] = passes
        yield functools.partial(_subset_rows, total, m, done), passed[live[sel]]
        done += count


def _reflect(g, logvol, row, log_screen):
    """(G, log vol) of prefixes P extended by one row each, ``row``.

    g (L, K, rows, e) holds each prefix's G = rows N, N an orthonormal basis
    of its null space, and logvol (L, K) its log vol(P) over unit-norm rows.
    The new row contributes v = G[row], and vol(P) grows by ||v||. With x =
    conj(v), the Householder reflection W = I - 2 u u^H / (u^H u), u = x +
    (x_1 / |x_1|) ||x|| e_1, maps x onto a multiple of e_1, so its last e - 1
    columns H span the null space of v, and G H = G[:, 1:] - (G u) v[1:] *
    2 / (u^H u), with u^H u = 2 ||x|| (||x|| + |x_1|). A prefix whose vol
    falls to exp(log_screen) = linalg.rank_screen() = 1e-6 or below gets
    log vol -inf and G = 0: its vol bounds the screen's bound of each
    subset it starts, so none could pass.
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


def _tail_factors(window, order, d):
    """(H, K), with H @ K (..., C(n, h), C(n, d - h)) holding the
    determinant of every d-row tail of ``window`` (..., n, d), d <= 4, that
    is a head of h = min(d, 2) rows, in the order ``order`` of the
    _subsets(n, h), followed by a rest, one of the _subsets(n, d - h), by
    the generalized Laplace expansion along its first h rows:

        det = sum over h-column sets S of sign(S) minor(head; S) minor(rest; S^c),

    sign(S) = (-1)^(h (h - 1) / 2 + sum S) over 0-based columns. H holds the
    h x h minors of the heads, and K the signed minors of the rests on the
    complements (at d = 4 the heads' minors again); the complement of the
    k-th h-column set in lexicographic order is the k-th last of the
    (d - h)-column sets. Entry (p, q) of the product is the determinant of
    head p followed by rest q: a tail when rest q lies after head p, as
    _tail_tables reads them. On rows of norm at most 1 every minor and
    every term is at most 1 in modulus.
    """
    n, h = window.shape[-2], min(d, 2)
    columns = _subsets(d, h)
    sign = [(-1.0) ** (sum(c) + h * (h - 1) // 2) for c in columns.tolist()]
    head = _minors(window, _subsets(n, h), columns)
    rest = head if 2 * h == d else _minors(window, _subsets(n, d - h), _subsets(d, d - h))
    rest = np.ascontiguousarray((rest[..., ::-1] * sign).swapaxes(-1, -2))
    return head.take(order, axis=-2), rest


def _minors(g, rows, columns):
    """The q x q minors of g (..., n, d) on the row subsets ``rows`` (P, q)
    and the column subsets ``columns`` (S, q), q <= 2, as (..., P, S); the
    one minor of order 0 is 1."""
    if rows.shape[1] == 0:
        return np.ones(g.shape[:-2] + (1, 1))
    x = g[..., rows[:, 0], :]
    if rows.shape[1] == 1:
        return x[..., columns[:, 0]]
    y, a, b = g[..., rows[:, 1], :], columns[:, 0], columns[:, 1]
    return x[..., a] * y[..., b] - x[..., b] * y[..., a]


@functools.lru_cache(maxsize=None)
def _tail_tables(n, d):
    """The d-subsets of range(n), d <= 4, as the entries of the products of
    _tail_factors that hold their determinants: (order, rests, start,
    shift, place).

    A tail is a head, its first h = min(d, 2) rows, followed by a rest, its
    other rows. rests are the (d - h)-subsets in lexicographic order, and
    the heads _subsets(n, h)[order] in colexicographic order, by last row
    and then by first. The tails of a head ending at row y are its rows
    followed by each rest after y, the last C(n - 1 - y, d - h) rests, so
    a head's first rest comes no earlier than that of any head before it.
    Taken head by head, the tails of head p are tails start[p]:start[p + 1]
    (start has one entry more than there are heads). Tail t of head p is
    rest t + shift[p], and it is tail t + place[p] in lexicographic order,
    in which the tails of a head are consecutive too. Read-only intp arrays.
    """
    h = min(d, 2)
    lex = list(itertools.combinations(range(n), h))
    order = np.array(sorted(range(len(lex)), key=lambda p: lex[p][::-1]), dtype=np.intp)
    counts = np.array([math.comb(n - 1 - c[-1], d - h) for c in lex], dtype=np.intp)
    start = np.concatenate([[0], np.cumsum(counts[order])])
    shift = math.comb(n, d - h) - counts[order] - start[:-1]
    place = (np.cumsum(counts) - counts)[order] - start[:-1]
    for table in (order, start, shift, place):
        table.flags.writeable = False
    return order, _subsets(n, d - h), start, shift, place


def _span_tails(tables, a, b):
    """(o, r, pos): the head, the rest and the lexicographic position of
    each tail of the heads a:b of the _tail_tables ``tables``, in order."""
    _, _, start, shift, place = tables
    t = np.arange(start[a], start[b])
    o = start.searchsorted(t, side="right") - 1
    return o, t + shift.take(o), t + place.take(o)


def _exhaustive_chunks(total, m, block, extend, root):
    """All C(total, m) m-subsets of range(total) in lexicographic order,
    the order of itertools.combinations, as blocks of prefixes each followed
    by the tails that complete them.

    A subset is its prefix, its first m - d rows, followed by its tail, its
    last d rows, d = min(m, SCREEN_TAIL). Yields (prefixes, state, count,
    batches) per block of consecutive prefixes, a (K, m - d) intp array
    whose ``count`` subsets are each prefix followed by each of its tails,
    the d-subsets of the n rows after its last row. batches yields (ks, n,
    at, spans) per batch of the block's prefixes ks with the same n: the
    tails of prefix ks[i] are at positions at[i] + place of the block, for
    the place of each tail in _tail_tables(n, d) (see _span_tails). spans
    cuts the heads with tails into ranges a:b, in order, one product each:
    a span's products (heads x rests from the first rest of head a, see
    _tail_factors), with about ten entries of work arrays per tail, fill
    at most ``block`` entries, or it is one head. A batch holds as many
    prefixes as one span of all their heads allows, and one otherwise.

    Prefixes grow from the empty one, one row at a time and depth first: a
    prefix of j rows ending at row l gains each row of l + 1, ...,
    total - m + j, which leaves room for the rest, and each chunk of the
    prefixes one row longer is completed before the next. A chunk of
    prefixes of j + 1 rows holds at most max(1, block // (total (m - j -
    1))) of them: ``block`` entries of their G arrays (see
    _exhaustive_screen). The state of the empty prefix is ``root``, and
    extend(state, owner, row) is the state of the chunk's prefixes, the
    parents' prefixes[owner] each followed by its ``row``.
    """
    d = min(m, SCREEN_TAIL)
    counts = np.array([math.comb(x, d) for x in range(total + 1)])

    @functools.cache  # for this enumeration only
    def spans(n):
        _, rests, start, shift, _ = _tail_tables(n, d)
        end = int(start.searchsorted(start[-1]))  # the heads with tails
        cuts, a = [], 0
        while a < end:
            cost = np.arange(len(start)) * (len(rests) - start[a] - shift[a]) + 10 * start
            b = int(cost.searchsorted(cost[a] + block, side="right")) - 1
            cuts.append((a, min(end, max(a + 1, b))))
            a = cuts[-1][1]
        return cuts, (max(1, block // (cost[end] - cost[0])) if len(cuts) == 1 else 1)

    def batches(after, offset):
        for n in set(after.tolist()):
            ks = np.flatnonzero(after == n)
            cuts, per = spans(n)
            for i in range(0, len(ks), per):
                yield ks[i:i + per], n, offset[ks[i:i + per]], cuts

    def grow(prefixes, state):
        j = prefixes.shape[1]
        last = prefixes[:, -1] if j else np.full(1, -1)
        if j == m - d:
            after = total - 1 - last
            offset = np.cumsum(counts[after]) - counts[after]
            yield prefixes, state, int(counts[after].sum()), batches(after, offset)
            return
        chunk = max(1, block // (total * (m - j - 1)))
        for owner, k in _children(total - m + j - last, chunk):
            row = last[owner] + 1 + k
            yield from grow(np.column_stack([prefixes[owner], row]), extend(state, owner, row))

    return grow(np.zeros((1, 0), dtype=np.intp), root)


def _subset_rows(total, m, first, i):
    """The m-subsets of range(total) at lexicographic ranks first + i, one
    per row (len(i), m). The rank of c_1 < ... < c_m is C(total, m) - 1 -
    sum_j C(total - 1 - c_j, m + 1 - j), so each x_j = total - 1 - c_j is
    the largest x with C(x, m + 1 - j) at most what is left of that sum
    (the combinatorial number system)."""
    binomials = np.array([[math.comb(x, j) for x in range(total + 1)] for j in range(m + 1)])
    left = math.comb(total, m) - 1 - first - np.asarray(i, dtype=np.int64)
    out = np.empty((len(left), m), dtype=np.intp)
    for j in range(m):
        x = np.searchsorted(binomials[m - j], left, side="right") - 1
        left = left - binomials[m - j].take(x)
        out[:, j] = total - 1 - x
    return out


@functools.lru_cache(maxsize=None)
def _subsets(total, k):
    """All k-subsets of range(total) in lexicographic order, one per row,
    as a read-only (C(total, k), k) intp array. The rank check asks for
    k <= 2, for column subsets of at most SCREEN_TAIL columns, and for at
    most PREFIX_SCREEN_MIN rows."""
    table = np.array(list(itertools.combinations(range(total), k)), dtype=np.intp)
    table = table.reshape(math.comb(total, k), k)
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

