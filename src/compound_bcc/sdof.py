"""High-SNR slope estimation.

The degrees-of-freedom of a rate curve is its asymptotic slope against
log2(P). We estimate it by least squares over a grid of SNR points that is
wide and high enough for the pre-log to dominate the fit.
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
    "estimate_sdof",
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
    x = np.log2(snr_db_to_power(grid))
    coeffs = np.polyfit(x, y, 1)
    fit = np.polyval(coeffs, x)
    residual = float(np.sqrt(np.mean((y - fit) ** 2)))
    return SdofEstimate(slope=float(coeffs[0]), intercept=float(coeffs[1]), residual=residual)


def estimate_sdof(rate_evaluator, snr_db_grid=DEFAULT_SNR_GRID_DB):
    """Fit rate(P) ~ slope * log2(P) + intercept over the grid.

    rate_evaluator maps a linear power P to a rate in bits. The grid must
    have at least 3 strictly increasing points, span at least 20 dB, and
    sit entirely at or above 40 dB; otherwise InvalidGridError is raised.
    """
    grid = check_snr_grid(snr_db_grid)
    y = [float(rate_evaluator(p)) for p in snr_db_to_power(grid)]
    return estimate_sdof_series(grid, y)
