"""Slope fits against closed-form rate curves."""

import math
import warnings

import numpy as np
import pytest

from compound_bcc.errors import InvalidGridError
from compound_bcc.sdof import (
    DEFAULT_SNR_GRID_DB,
    check_snr_grid,
    estimate_sdof,
    estimate_sdof_series,
    snr_db_to_power,
)


def test_power_conversion():
    assert snr_db_to_power(0.0) == pytest.approx(1.0)
    assert snr_db_to_power(30.0) == pytest.approx(1e3)
    assert snr_db_to_power(100.0) == pytest.approx(1e10)


def test_unit_slope_scalar_awgn():
    # log2(1 + P) has slope 1 in log2 P, up to the +1 which dies at high SNR
    est = estimate_sdof(lambda p: math.log2(1.0 + p), DEFAULT_SNR_GRID_DB)
    assert est.slope == pytest.approx(1.0, abs=1e-3)
    assert est.residual < 1e-6


def test_constant_rate_zero_slope():
    est = estimate_sdof(lambda p: 2.5, DEFAULT_SNR_GRID_DB)
    assert est.slope == pytest.approx(0.0, abs=1e-12)
    assert est.intercept == pytest.approx(2.5)


def test_known_affine_series():
    grid = (40.0, 60.0, 80.0, 100.0)
    x = np.log2(snr_db_to_power(np.asarray(grid)))
    rates = 0.5 * x + 3.0
    est = estimate_sdof_series(grid, rates)
    assert est.slope == pytest.approx(0.5, abs=1e-12)
    assert est.intercept == pytest.approx(3.0, abs=1e-9)
    assert est.residual == pytest.approx(0.0, abs=1e-9)


def test_residual_reports_misfit():
    grid = (40.0, 70.0, 100.0)
    est = estimate_sdof_series(grid, [0.0, 5.0, 0.0])
    assert est.residual > 1.0


def test_multistream_slope():
    est = estimate_sdof(lambda p: 3 * math.log2(1.0 + p / 3), DEFAULT_SNR_GRID_DB)
    assert est.slope == pytest.approx(3.0, abs=1e-3)


class TestGridValidation:
    def test_too_few_points(self):
        with pytest.raises(InvalidGridError):
            check_snr_grid((60.0, 100.0))

    def test_span_too_small(self):
        with pytest.raises(InvalidGridError):
            check_snr_grid((60.0, 70.0, 79.0))

    def test_below_minimum_snr(self):
        with pytest.raises(InvalidGridError):
            check_snr_grid((30.0, 60.0, 100.0))

    def test_not_increasing(self):
        with pytest.raises(InvalidGridError):
            check_snr_grid((60.0, 60.0, 100.0))
        with pytest.raises(InvalidGridError):
            check_snr_grid((100.0, 80.0, 60.0))

    @pytest.mark.parametrize("grid, first", [
        ((60.0, 80.0, 4000.0), "4000"),
        ((60.0, 3083.0, 5000.0), "3083"),
    ])
    def test_overflowing_power_names_first_point(self, grid, first):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidGridError, match=f"snr_db_grid point {first} dB"):
                check_snr_grid(grid)

    def test_power_just_below_the_float_limit_accepted(self):
        grid = check_snr_grid((60.0, 80.0, 3082.0))
        assert np.isfinite(snr_db_to_power(grid)).all()

    def test_default_grid_valid(self):
        check_snr_grid(DEFAULT_SNR_GRID_DB)

    def test_series_length_mismatch(self):
        with pytest.raises(InvalidGridError):
            estimate_sdof_series((60.0, 80.0, 100.0), [1.0, 2.0])
