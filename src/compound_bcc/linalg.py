"""Complex linear-algebra kernel: ranks, null spaces, and HPD log-determinants.

All routines are deterministic: identical input bits produce identical
output bits. Rank decisions use a relative singular-value threshold so
they are invariant under rescaling. null_spaces, frobenius_norms and
logdet2_hpd take stacks of matrices, and each matrix of a stack gets the
bits that the one-matrix call gives it: null_space_basis is the
one-matrix call of null_spaces.
"""

import math

import numpy as np

from .errors import InvalidInputError, NotHermitianError, NotPositiveDefiniteError

__all__ = [
    "singular_values",
    "numerical_rank",
    "null_space_basis",
    "logdet2_hpd",
]

HERMITIAN_RTOL = 1e-10
# The rank rule of the package: a singular value counts toward the rank iff
# it exceeds RANK_RTOL * sigma_max. Every rank decision reads it at call
# time, through rank_from_singular_values or rank_screen.
RANK_RTOL = 1e-10
# A fast path may take a matrix as full rank, without its exact singular
# values, when a computed bound on sigma_min / sigma_max exceeds
# rank_screen() = SCREEN_MARGIN * RANK_RTOL = 1e-6: so far above the
# threshold and machine precision that the bound's rounding cannot change
# the decision. _screen_passes bounds A of m columns: sigma_max <=
# ||A||_F, and by the AM-GM inequality the m-1 largest singular values have
# a product of at most (||A||_F^2 / (m-1))^((m-1)/2), so
#   sigma_min / sigma_max >= prod sigma / (||A||_F (||A||_F^2 / (m-1))^((m-1)/2)).
# The rank check (rankcheck) takes prod sigma = |det A| of square A.
SCREEN_MARGIN = 1e4


def as_matrix(m, name="matrix"):
    """Validate and convert input to a 2-D complex array.

    Raises InvalidInputError on wrong dimensionality or non-finite entries.
    """
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2:
        raise InvalidInputError(f"{name} must be 2-D, got shape {a.shape}")
    if a.size and not np.all(np.isfinite(a)):
        raise InvalidInputError(f"{name} contains non-finite entries")
    return a


def singular_values(m):
    """Singular values of ``m`` in non-increasing order (LAPACK ordering)."""
    a = as_matrix(m)
    if min(a.shape) == 0:
        return np.zeros(0)
    return np.linalg.svd(a, compute_uv=False)


def rank_from_singular_values(s):
    """Ranks from singular values ``s[..., :]`` in non-increasing order.

    The rank rule of the package: the number of singular values strictly
    above ``RANK_RTOL * sigma_max``. A zero matrix (all
    singular values 0) therefore has rank 0, as has an empty one. ``s``
    holds one matrix's values (1-D) or a stack of them (one row each).
    """
    if s.shape[-1] == 0:
        return np.zeros(s.shape[:-1], dtype=int)
    above = s > RANK_RTOL * s[..., :1]
    return np.count_nonzero(above) if s.ndim == 1 else above.sum(axis=-1)


def rank_screen():
    """Ratio sigma_min / sigma_max above which a fast path may decide full rank."""
    return SCREEN_MARGIN * RANK_RTOL


def _screen_passes(logdet, fro2, m, floor=0.0):
    """Whether the bound prod sigma / (||A||_F * (||A||_F^2 / (m-1))^((m-1)/2))
    on sigma_min / sigma_max of matrices A of m columns, from log prod sigma
    in ``logdet`` and ||A||_F^2 in ``fro2``, is finite and above
    rank_screen() and ``floor``."""
    with np.errstate(all="ignore"):
        log_bound = logdet - 0.5 * m * np.log(fro2) + 0.5 * (m - 1) * math.log(max(m - 1, 1))
    return np.isfinite(log_bound) & (log_bound > math.log(max(rank_screen(), floor)))


def numerical_rank(m):
    """Number of singular values above ``RANK_RTOL * sigma_max``.

    The zero matrix (and any empty matrix) has rank 0; see
    rank_from_singular_values.
    """
    return int(rank_from_singular_values(singular_values(m)))


def _normalize_phases(b):
    """Rotate each column so its first significantly nonzero entry is real positive.

    ``b`` is one matrix or a stack (..., n, c); a C-ordered copy is
    returned. Columns are assumed unit-norm; entries below 1e-12 in
    magnitude are skipped when picking the anchor so the choice is stable
    under rounding, and a column with no such entry is left as it is.
    """
    big = np.abs(b) > 1e-12
    found = big.any(axis=-2, keepdims=True)
    anchor = np.take_along_axis(b, big.argmax(axis=-2)[..., None, :], axis=-2)
    anchor = np.where(found, anchor, 1.0)
    # hypot is the modulus of a complex scalar; np.abs of a complex array
    # may round it differently
    factor = np.hypot(anchor.real, anchor.imag) / anchor
    return np.ascontiguousarray(np.where(found, b * factor, b))


def _basis_from_vh(vh, rank):
    """Phase-normalized null-space basis from SVD right factors ``vh`` (..., n, n)
    of matrices of the given rank: the last n - rank rows, conjugate-transposed."""
    return _normalize_phases(vh[..., rank:, :].conj().swapaxes(-1, -2))


def null_space_basis(m):
    """Orthonormal basis of the right null space of ``m``.

    Returns a cols x (cols - rank) array B with m @ B ~ 0 and B^H B = I.
    The basis is a deterministic function of the input bits: it is taken
    from the SVD right factor and phase-normalized so the first nonzero
    entry of each column is real positive. A full-column-rank input yields
    a cols x 0 array; an input with no rows yields the identity. An SVD
    too large to allocate raises InvalidInputError naming cols as M. The
    one-matrix call of null_spaces.
    """
    a = as_matrix(m)
    if a.shape[1] < 1:
        raise InvalidInputError("null_space_basis requires at least one column")
    return null_spaces(a[None])[0][0]


def null_spaces(a):
    """null_space_basis of each matrix of a finite stack (T, rows, cols), at
    the stack's highest rank r (an empty stack's: min(rows, cols)), from one
    stacked SVD: (bases, at_rank), bases (T, cols, cols - r) bit for bit
    null_space_basis's for the matrices of rank r, at_rank whether each
    has it (a one-matrix stack does). The basis of another matrix is not
    its null space. With no rows every basis is the identity. An SVD too
    large to allocate raises InvalidInputError naming cols as M.
    """
    T, rows, cols = a.shape
    if not rows:
        return np.repeat(np.eye(cols, dtype=complex)[None], T, axis=0), np.ones(T, dtype=bool)
    try:
        # a tall matrix's reduced right factor is already cols x cols
        _, s, vh = np.linalg.svd(a, full_matrices=rows < cols)
        ranks = rank_from_singular_values(s)
        rank = ranks.max() if T else min(rows, cols)
        return _basis_from_vh(vh, rank), ranks == rank
    except MemoryError:
        raise _unallocatable_null_spaces(a) from None


def frobenius_norms(x):
    """np.linalg.norm of each matrix of a complex stack (..., n, m), bit for
    bit the 2-D call on the matrix in C order: the square root of re . re +
    im . im over its entries in row-major order, each dot product one numpy
    dot of a strided vector, as a 1 x nm by nm x 1 matmul
    (np.linalg.norm(x, axis=(-2, -1)) sums another way, to other bits)."""
    flat = np.ascontiguousarray(x).reshape(*x.shape[:-2], 1, x.shape[-2] * x.shape[-1])
    re, im = flat.real, flat.imag
    return np.sqrt(re @ re.swapaxes(-1, -2) + im @ im.swapaxes(-1, -2))[..., 0, 0]


def _unallocatable_null_spaces(a):
    """The InvalidInputError of null spaces of ``a`` (..., rows, M) whose
    SVD cannot be allocated: its right factors alone hold M^2 complex
    entries per matrix."""
    count, M = math.prod(a.shape[:-2]), a.shape[-1]
    return InvalidInputError(
        f"null space of M={M} columns: cannot allocate {16 * count * M * M} "
        f"bytes of SVD right factors ({count} x {M} x {M})"
    )


def logdet2_hpd(m):
    """log2 det of Hermitian positive definite matrices, via Cholesky.

    ``m`` is one n x n matrix, for which a float is returned, or a stack
    (..., n, n), for which an array of the stack's shape is returned. Each
    matrix must be Hermitian up to a relative Frobenius residual of 1e-10
    (NotHermitianError otherwise); the rule is applied to every matrix that
    differs from its conjugate transpose at all. One numpy.linalg.cholesky
    call factors the lower triangles of the whole stack, and each log-det is
    twice the sum of log2 of its factor's diagonal. A 1 x 1 matrix a is
    factored without LAPACK, as potf2's one step does it: its log-det is
    2 log2(sqrt(re a)), and re a <= 0 fails the minor of order 1. A stack
    raises the error of its first failing matrix in C order, the error the
    2-D call on that matrix raises: InvalidInputError for non-finite
    entries, NotHermitianError, or NotPositiveDefiniteError carrying the
    1-based index of the first leading minor that fails to factor. The
    empty 0x0 matrix has log-det 0.
    """
    a = np.asarray(m, dtype=complex)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise InvalidInputError(
            f"logdet2_hpd requires a square matrix or a stack of them, got shape {a.shape}"
        )
    n = a.shape[-1]
    # a 2-D input keeps its own layout, so the residual rule sees the same bits
    stack = a[None] if a.ndim == 2 else a.reshape(math.prod(a.shape[:-2]), n, n)
    finite = np.isfinite(stack).all(axis=(1, 2))
    good = finite & ~(stack != stack.conj().swapaxes(1, 2)).any(axis=(1, 2))
    for i in np.flatnonzero(finite & ~good):
        good[i] = _hermitian_error(stack[i]) is None
    bad = len(stack) if good.all() else int(np.argmin(good))
    if n == 1:
        d = stack[:bad, 0].real
        if not (d > 0.0).all():
            raise NotPositiveDefiniteError(1)
        d = np.sqrt(d)
    else:
        try:
            c = np.linalg.cholesky(stack[:bad])
        except np.linalg.LinAlgError:
            raise NotPositiveDefiniteError(_first_failing_minor(stack[:bad])) from None
        d = np.diagonal(c, axis1=1, axis2=2).real
    if bad < len(stack):
        if not finite[bad]:
            raise InvalidInputError("matrix contains non-finite entries")
        raise _hermitian_error(stack[bad])
    logdets = 2.0 * np.sum(np.log2(d), axis=-1)
    return float(logdets[0]) if a.ndim == 2 else logdets.reshape(a.shape[:-2])


def _hermitian_error(a):
    """NotHermitianError for a finite square ``a`` whose residual ||a - a^H||_F
    exceeds 1e-10 * ||a||_F, else None."""
    norm = np.linalg.norm(a)
    resid = np.linalg.norm(a - a.conj().T)
    if resid > HERMITIAN_RTOL * max(norm, 1e-300):
        return NotHermitianError(
            f"matrix is not Hermitian: residual {resid:.3e} exceeds "
            f"{HERMITIAN_RTOL:.0e} * ||m||_F = {HERMITIAN_RTOL * norm:.3e}"
        )
    return None


def _first_failing_minor(stack):
    """1-based order of the first leading minor that fails to factor, in the
    first matrix of ``stack`` (C order) whose factorization fails; the
    matrix's own order when all smaller minors factor."""
    for a in stack:
        try:
            np.linalg.cholesky(a)
        except np.linalg.LinAlgError:
            break
    for i in range(1, len(a)):
        try:
            np.linalg.cholesky(a[:i, :i])
        except np.linalg.LinAlgError:
            return i
    return len(a)
