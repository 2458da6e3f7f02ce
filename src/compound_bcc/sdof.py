"""High-SNR slope estimation.

The degrees-of-freedom of a rate curve is its asymptotic slope against
log2(P). We estimate it by least squares over a grid of SNR points that is
wide and high enough for the pre-log to dominate the fit. _fit_stack
fits a whole stack of series on one checked grid in one LAPACK-backed call,
bit for bit as np.polyfit fits each series; estimate_sdof_series is its
one-series form.
"""

import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import InvalidGridError

__all__ = [
    "SdofEstimate",
    "DEFAULT_SNR_GRID_DB",
    "snr_db_to_power",
    "check_snr_grid",
    "estimate_sdof_series",
]

DEFAULT_SNR_GRID_DB = (60.0, 80.0, 100.0)

MIN_POINTS = 3
MIN_SPAN_DB = 20.0
MIN_SNR_DB = 40.0
# 10 log10 of the largest float: the highest SNR whose power is finite
MAX_SNR_DB = 10.0 * math.log10(sys.float_info.max)


def snr_db_to_power(snr_db):
    """Transmit power for a given SNR in dB (noise variance is 1)."""
    return 10.0 ** (np.asarray(snr_db, dtype=float) / 10.0)


@dataclass(frozen=True)
class SdofEstimate:
    """Least-squares fit of rate against log2(P).

    slope is the degrees-of-freedom estimate, intercept the fitted rate at
    log2(P) = 0, residual the root-mean-square misfit over the grid.
    """

    slope: float
    intercept: float
    residual: float


def check_snr_grid(snr_db_grid):
    """Validate a slope-estimation grid; returns it as a float array.

    Every point's power must be a finite float (InvalidGridError naming the
    first point that overflows otherwise).
    """
    grid = np.asarray(snr_db_grid, dtype=float)
    if grid.ndim != 1 or grid.size < MIN_POINTS:
        raise InvalidGridError(
            f"slope estimation needs at least {MIN_POINTS} SNR points, got {grid.size}"
        )
    if not np.all(np.isfinite(grid)):
        raise InvalidGridError("SNR grid contains non-finite values")
    if np.any(np.diff(grid) <= 0):
        raise InvalidGridError("SNR grid must be strictly increasing")
    if grid[0] < MIN_SNR_DB:
        raise InvalidGridError(
            f"all grid points must be at least {MIN_SNR_DB:.0f} dB, got {grid[0]:g}"
        )
    if grid[-1] - grid[0] < MIN_SPAN_DB:
        raise InvalidGridError(
            f"grid must span at least {MIN_SPAN_DB:.0f} dB, got {grid[-1] - grid[0]:g}"
        )
    with np.errstate(over="ignore"):
        overflow = ~np.isfinite(snr_db_to_power(grid))
    if overflow.any():
        raise InvalidGridError(
            f"snr_db_grid point {grid[np.argmax(overflow)]:g} dB gives a power that "
            f"overflows a float (the limit is about {MAX_SNR_DB:.1f} dB)"
        )
    return grid


def estimate_sdof_series(snr_db_grid, rates):
    """Slope fit for rates already evaluated on the grid, in grid order."""
    grid = check_snr_grid(snr_db_grid)
    y = np.asarray(rates, dtype=float)
    if y.shape != grid.shape:
        raise InvalidGridError(
            f"got {y.size} rates for a grid of {grid.size} points"
        )
    return SdofEstimate(*_fit_stack(grid, y).tolist())


def _raise_lstsq_error(err, flag):
    raise np.linalg.LinAlgError("SVD did not converge in Linear Least Squares")


def _fit_stack(grid, rates):
    """Slope fits of ``rates`` (..., G), series in the order of ``grid``, a
    grid returned by check_snr_grid: an array (..., 3) of slope, intercept
    and residual per series. Each fit is bit for bit the one of
    ``np.polyfit(x, y, 1)`` with x = log2(P), and its residual that of
    ``np.polyval``: polyfit's column scaling is replayed, and one call to
    the gufunc behind ``np.linalg.lstsq`` solves every series with the
    signature and floating-point error handling that lstsq uses, one LAPACK
    gelsd call per series. That gufunc's module is private to numpy, so it
    is imported here, and no other path depends on its name.
    """
    from numpy.linalg import _umath_linalg

    # C order, so that each residual's mean reduces its series as a 1-D mean
    y = np.ascontiguousarray(rates, dtype=float)
    x = np.log2(snr_db_to_power(grid))
    lhs = np.vander(x, 2)
    scale = np.sqrt((lhs * lhs).sum(axis=0))
    lhs /= scale
    with np.errstate(call=_raise_lstsq_error, invalid="call",
                     over="ignore", divide="ignore", under="ignore"):
        # polyfit's rcond, len(x) * eps
        c = _umath_linalg.lstsq(lhs, y[..., None], len(x) * sys.float_info.epsilon,
                                signature="ddd->ddid")[0][..., 0]
    c = c / scale
    fit = np.zeros_like(y)
    for i in range(2):  # np.polyval's Horner steps
        fit = fit * x + c[..., i:i + 1]
    residual = np.sqrt(np.mean((y - fit) ** 2, axis=-1))
    return np.concatenate([c, residual[..., None]], axis=-1)
