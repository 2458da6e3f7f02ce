"""Slope fits against closed-form rate curves."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from compound_bcc.errors import InvalidGridError
from compound_bcc.sdof import (
    DEFAULT_SNR_GRID_DB,
    MIN_SPAN_DB,
    SdofEstimate,
    check_snr_grid,
    estimate_sdof_series,
    snr_db_to_power,
    _fit_stack,
)


def test_power_conversion():
    assert snr_db_to_power(0.0) == pytest.approx(1.0)
    assert snr_db_to_power(30.0) == pytest.approx(1e3)
    assert snr_db_to_power(100.0) == pytest.approx(1e10)


def rates_on(grid, rate):
    """rate(P) at each grid point's power P."""
    return [rate(p) for p in snr_db_to_power(grid)]


def test_unit_slope_scalar_awgn():
    # log2(1 + P) has slope 1 in log2 P, up to the +1 which dies at high SNR
    grid = DEFAULT_SNR_GRID_DB
    est = estimate_sdof_series(grid, rates_on(grid, lambda p: math.log2(1.0 + p)))
    assert est.slope == pytest.approx(1.0, abs=1e-3)
    assert est.residual < 1e-6


def test_constant_rate_zero_slope():
    grid = DEFAULT_SNR_GRID_DB
    est = estimate_sdof_series(grid, rates_on(grid, lambda p: 2.5))
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
    grid = DEFAULT_SNR_GRID_DB
    est = estimate_sdof_series(grid, rates_on(grid, lambda p: 3 * math.log2(1.0 + p / 3)))
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


def polyfit_estimate(grid, y):
    """The per-series oracle: np.polyfit against log2(P), np.polyval residual."""
    x = np.log2(snr_db_to_power(grid))
    c = np.polyfit(x, y, 1)
    residual = np.sqrt(np.mean((y - np.polyval(c, x)) ** 2))
    return SdofEstimate(slope=float(c[0]), intercept=float(c[1]), residual=float(residual))


def bits(est):
    return np.array([est.slope, est.intercept, est.residual]).tobytes()


@st.composite
def grids(draw):
    """Valid grids of 3 to 12 points: at least 40 dB, spanning at least 20 dB."""
    size = draw(st.integers(3, 12))
    start = draw(st.floats(40.0, 200.0))
    steps = draw(st.lists(st.floats(10.0, 60.0), min_size=size - 1, max_size=size - 1))
    grid = start + np.concatenate([[0.0], np.cumsum(steps)])
    # two 10 dB steps span 20 dB only up to rounding (108.32... + 10 + 10
    # lands a hair short); nudge the last point until the span really holds
    while grid[-1] - grid[0] < MIN_SPAN_DB:
        grid[-1] = np.nextafter(grid[-1], np.inf)
    return check_snr_grid(grid)


class TestStackedFit:
    """_fit_stack against per-series np.polyfit, bit for bit: each row of
    its (..., 3) array is a series' slope, intercept and residual."""

    @settings(max_examples=150, deadline=None)
    @given(
        grid=grids(),
        scale=st.sampled_from([1e-9, 1e-6, 1e-3, 1.0, 1e3]),
        seed=st.integers(0, 2**32 - 1),
        series=st.integers(1, 6),
    )
    @example(grid=check_snr_grid(DEFAULT_SNR_GRID_DB), scale=1.0, seed=0, series=1)
    @example(grid=check_snr_grid(np.arange(40.0, 160.0, 10.0)), scale=1e3, seed=1, series=3)
    def test_matches_polyfit(self, grid, scale, seed, series):
        rng = np.random.default_rng(seed)
        x = np.log2(snr_db_to_power(grid))
        rates = np.concatenate([
            scale * (rng.uniform(0, 4, (series, 1)) * x
                     + rng.standard_normal((series, grid.size))),
            np.full((1, grid.size), scale * 2.5),  # constant series
            np.zeros((1, grid.size)),
        ])
        got = _fit_stack(grid, rates)
        assert got.shape == (len(rates), 3)
        for y, fit in zip(rates, got):
            assert fit.tobytes() == bits(polyfit_estimate(grid, y))

    @pytest.mark.parametrize("points", [4, 9, 12])
    def test_stack_shape_is_c_order(self, points):
        grid = check_snr_grid(40.0 + 10.0 * np.arange(points))
        rates = np.random.default_rng(3).standard_normal((2, 3, points))
        got = _fit_stack(grid, rates)
        want = [polyfit_estimate(grid, y) for y in rates.reshape(-1, points)]
        assert [f.tobytes() for f in got.reshape(-1, 3)] == [bits(e) for e in want]
        # series read from a strided view, as the evaluator passes them
        # (from 8 points on, a mean over a strided axis may round differently)
        rates = np.random.default_rng(4).standard_normal((2, points, 4))
        strided = np.moveaxis(rates[..., :3], -1, -2)
        got = _fit_stack(grid, strided)
        want = [polyfit_estimate(grid, y) for y in strided.reshape(-1, points)]
        assert [f.tobytes() for f in got.reshape(-1, 3)] == [bits(e) for e in want]

    def test_series_fit_is_a_one_series_stack(self):
        grid = (60.0, 80.0, 100.0)
        y = [1.0, 8.0, 12.5]
        stack = _fit_stack(check_snr_grid(grid), [y])
        assert estimate_sdof_series(grid, y) == SdofEstimate(*stack[0].tolist())
        assert bits(estimate_sdof_series(grid, y)) == bits(polyfit_estimate(grid, np.array(y)))
