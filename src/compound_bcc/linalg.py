"""Complex linear-algebra kernel: ranks, null spaces, and HPD log-determinants.

All routines operate on 2-D complex numpy arrays and are deterministic:
identical input bits produce identical output bits. Rank decisions use a
relative singular-value threshold so they are invariant under rescaling.
"""

from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError, NotHermitianError, NotPositiveDefiniteError

__all__ = [
    "RankTolerance",
    "as_matrix",
    "singular_values",
    "numerical_rank",
    "null_space_basis",
    "logdet2_hpd",
]

HERMITIAN_RTOL = 1e-10


@dataclass(frozen=True)
class RankTolerance:
    """Relative singular-value threshold for rank decisions.

    A singular value counts toward the rank iff it exceeds
    ``relative_threshold * sigma_max``.
    """

    relative_threshold: float = 1e-10

    def __post_init__(self):
        if not (0.0 < self.relative_threshold < 1.0):
            raise InvalidInputError(
                "relative_threshold must lie strictly between 0 and 1, got "
                f"{self.relative_threshold}"
            )


DEFAULT_TOL = RankTolerance()


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


def rank_from_singular_values(s, tol=DEFAULT_TOL):
    """Ranks from singular values ``s[..., :]`` in non-increasing order.

    The rank rule of the package: the number of singular values strictly
    above ``tol.relative_threshold * sigma_max``. A zero matrix (all
    singular values 0) therefore has rank 0, as has an empty one. ``s``
    holds one matrix's values (1-D) or a stack of them (one row each).
    """
    if s.shape[-1] == 0:
        return np.zeros(s.shape[:-1], dtype=int)
    above = s > tol.relative_threshold * s[..., :1]
    return np.count_nonzero(above) if s.ndim == 1 else above.sum(axis=-1)


def numerical_rank(m, tol=DEFAULT_TOL):
    """Number of singular values above ``tol.relative_threshold * sigma_max``.

    The zero matrix (and any empty matrix) has rank 0; see
    rank_from_singular_values.
    """
    return int(rank_from_singular_values(singular_values(m), tol))


def _normalize_phases(b):
    """Rotate each column so its first significantly nonzero entry is real positive.

    Columns are assumed unit-norm; entries below 1e-12 in magnitude are
    skipped when picking the anchor so the choice is stable under rounding.
    """
    b = b.copy()
    for j in range(b.shape[1]):
        col = b[:, j]
        idx = np.flatnonzero(np.abs(col) > 1e-12)
        if idx.size == 0:
            continue
        anchor = col[idx[0]]
        b[:, j] = col * (abs(anchor) / anchor)
    return b


def null_space_basis(m, tol=DEFAULT_TOL):
    """Orthonormal basis of the right null space of ``m``.

    Returns a cols x (cols - rank) array B with m @ B ~ 0 and B^H B = I.
    The basis is a deterministic function of the input bits: it is taken
    from the SVD right factor and phase-normalized so the first nonzero
    entry of each column is real positive. A full-column-rank input yields
    a cols x 0 array; an input with no rows yields the identity.
    """
    a = as_matrix(m)
    rows, cols = a.shape
    if cols < 1:
        raise InvalidInputError("null_space_basis requires at least one column")
    if rows == 0:
        return np.eye(cols, dtype=complex)
    u, s, vh = np.linalg.svd(a)
    rank = int(rank_from_singular_values(s, tol))
    basis = vh[rank:].conj().T
    return _normalize_phases(basis)


def logdet2_hpd(m):
    """log2 det of a Hermitian positive definite matrix, via Cholesky.

    The input must be Hermitian up to a relative Frobenius residual of
    1e-10 (NotHermitianError otherwise). The lower triangle is factored
    with numpy.linalg.cholesky and the log-det is twice the sum of log2 of
    the factor's diagonal. A failed factorization raises
    NotPositiveDefiniteError carrying the 1-based index of the first
    leading minor that fails to factor. The empty 0x0 matrix has log-det 0.
    """
    a = as_matrix(m)
    n, ncol = a.shape
    if n != ncol:
        raise InvalidInputError(f"logdet2_hpd requires a square matrix, got {a.shape}")
    if n == 0:
        return 0.0
    norm = np.linalg.norm(a)
    resid = np.linalg.norm(a - a.conj().T)
    if resid > HERMITIAN_RTOL * max(norm, 1e-300):
        raise NotHermitianError(
            f"matrix is not Hermitian: residual {resid:.3e} exceeds "
            f"{HERMITIAN_RTOL:.0e} * ||m||_F = {HERMITIAN_RTOL * norm:.3e}"
        )
    try:
        c = np.linalg.cholesky(a)
    except np.linalg.LinAlgError:
        raise NotPositiveDefiniteError(_first_failing_minor(a)) from None
    d = np.diag(c).real
    return float(2.0 * np.sum(np.log2(d)))


def _first_failing_minor(a):
    """1-based order of the first leading minor of ``a`` that fails to factor;
    len(a) when all smaller ones factor, as ``a`` itself failed."""
    for i in range(1, len(a)):
        try:
            np.linalg.cholesky(a[:i, :i])
        except np.linalg.LinAlgError:
            return i
    return len(a)
