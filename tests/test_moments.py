"""Moment quadrature, its sampling window, and size predictions."""

import math
from dataclasses import replace

import numpy as np
import pytest

from zetacorr import moments, zeta
from zetacorr.errors import CoverageError, DomainError
from zetacorr.moments import ShiftSpec

# composite Simpson on |zeta(1/2+it)|^2 over [100, 200], checked against
# an adaptive Gauss-Legendre integration at 30 digits
SECOND_MOMENT_100_200 = 441.19761150674876


def test_spec_validation():
    with pytest.raises(DomainError):
        ShiftSpec(alpha=(), beta=(), t_height=100.0)
    with pytest.raises(DomainError):
        ShiftSpec(alpha=(0.0,), beta=(1.0, 2.0), t_height=100.0)
    with pytest.raises(DomainError):
        ShiftSpec(alpha=(0.0,), beta=(1.0,), t_height=15.0)
    with pytest.raises(DomainError):
        ShiftSpec(alpha=(60.0,), beta=(1.0,), t_height=100.0)
    with pytest.raises(DomainError):
        ShiftSpec(alpha=(0.0,), beta=(-0.5,), t_height=100.0)
    spec = ShiftSpec(alpha=(0, 1), beta=(1, 1), t_height=100.0)
    assert spec.m == 2
    assert spec.alpha == (0.0, 1.0)


def test_zero_exponents_integrate_the_constant(grid_100_200):
    spec = ShiftSpec(alpha=(0.0, 3.0), beta=(0.0, 0.0), t_height=100.0)
    assert moments.shifted_moment(spec, grid_100_200) == 100.0


def test_duplicate_shifts_collapse_exactly(grid_100_200):
    merged = ShiftSpec(alpha=(0.5, 0.5), beta=(0.4, 0.6), t_height=100.0)
    single = ShiftSpec(alpha=(0.5,), beta=(1.0,), t_height=100.0)
    v1 = moments.shifted_moment(merged, grid_100_200)
    v2 = moments.shifted_moment(single, grid_100_200)
    assert v1 == v2


def test_permutation_invariance(grid_100_200):
    a = ShiftSpec(alpha=(0.0, 1.5, 3.0), beta=(1.0, 0.5, 0.25),
                  t_height=100.0)
    b = ShiftSpec(alpha=(3.0, 0.0, 1.5), beta=(0.25, 1.0, 0.5),
                  t_height=100.0)
    va = moments.shifted_moment(a, grid_100_200)
    vb = moments.shifted_moment(b, grid_100_200)
    assert va == vb


def test_snap_shifts_and_warning(grid_100_200):
    snapped, residuals = moments.snap_shifts((0.03, 0.05), 0.025)
    assert snapped == (0.025, 0.05)
    assert math.isclose(residuals[0], 0.005, abs_tol=1e-15)
    assert residuals[1] == 0.0
    spec = ShiftSpec(alpha=(0.0, 0.03), beta=(1.0, 1.0), t_height=100.0)
    results, warnings = moments.moment_report(spec, grid_100_200)
    assert results["snapped_alpha"] == [0.0, 0.025]
    assert any("snapped" in w for w in warnings)
    clean = ShiftSpec(alpha=(0.0, 0.05), beta=(1.0, 1.0), t_height=100.0)
    assert moments.moment_report(clean, grid_100_200)[1] == []


def test_moment_window_covers_the_quadrature():
    # T off the step grid ends in a partial cell, whose coverage check
    # reaches furthest past 2T; a grid over exactly the window passes it
    t, alpha, step = 100.01, (-1.0, 0.52), 0.025
    t_lo, t_hi = moments.moment_window(t, alpha, step)
    assert math.isclose(t_lo, t - 1.0) and math.isclose(t_hi, 2 * t + 0.525 + 0.1)
    grid = zeta.sample_critical_line(t_lo, t_hi, step / 2, correction_terms=0)
    spec = ShiftSpec(alpha=alpha, beta=(1.0, 1.0), t_height=t)
    assert moments.moment_report(spec, grid)[0]["moment"] > 0.0
    # shift 0 is always in the window
    assert moments.moment_window(t, (2.0,), step)[0] == t


def test_step_resolution_bound(grid_100_200):
    coarse = replace(grid_100_200, step=8 * grid_100_200.step,
                     values=grid_100_200.values[::8])  # step 0.1
    spec = ShiftSpec(alpha=(0.0,), beta=(1.0,), t_height=100.0)
    with pytest.raises(CoverageError):
        moments.shifted_moment(spec, coarse)


def test_coverage_errors(grid_100_200):
    # grid spans [98, 204]; a +5 shift pushes the window past the top
    spec = ShiftSpec(alpha=(5.0,), beta=(1.0,), t_height=100.0)
    with pytest.raises(CoverageError):
        moments.shifted_moment(spec, grid_100_200)
    spec = ShiftSpec(alpha=(-3.0,), beta=(1.0,), t_height=100.0)
    with pytest.raises(CoverageError):
        moments.shifted_moment(spec, grid_100_200)


def test_second_moment_against_quadrature_oracle(grid_100_200):
    spec = ShiftSpec(alpha=(0.0,), beta=(1.0,), t_height=100.0)
    results, _ = moments.moment_report(spec, grid_100_200)
    rel = abs(results["moment"] - SECOND_MOMENT_100_200) / SECOND_MOMENT_100_200
    assert rel < 1e-8
    assert results["quadrature_step"] == 0.025
    assert results["rule"] == "simpson"


def test_odd_interval_count_ends_in_one_trapezoid_cell(grid_100_200):
    # 8001 intervals: Simpson weights over nodes 0..8000, then h/2 on
    # each end of the last cell; one chunk, so the sum order is known
    h = grid_100_200.step
    n = 8001
    spec = ShiftSpec(alpha=(0.0,), beta=(1.0,), t_height=100.0 + h)
    w = np.array([1.0] + [4.0 if i % 2 else 2.0 for i in range(1, n - 1)]
                 + [1.0]) / 3.0
    w[-1] += 0.5
    w = np.append(w, 0.5)
    base = grid_100_200.index_of(100.0 + h)
    vals = np.power(grid_100_200.values[base:base + n + 1], 2.0)
    expect = float(np.add.reduce(vals * w)) * h
    assert moments.shifted_moment(spec, grid_100_200) == expect


def test_halving_delta_matches_recomputation(grid_100_200):
    spec = ShiftSpec(alpha=(0.0, 2.0), beta=(1.0, 1.0), t_height=100.0)
    results, _ = moments.moment_report(spec, grid_100_200)
    pub = replace(grid_100_200, step=2 * grid_100_200.step,
                  values=grid_100_200.values[::2])
    coarse = moments.shifted_moment(spec, pub)
    fine = moments.shifted_moment(spec, grid_100_200)
    assert results["moment"] == coarse
    assert results["step_halving_delta"] == abs(coarse - fine) / abs(fine)
    assert results["step_halving_delta"] < 1e-6


def test_prediction_closed_form_single_shift():
    spec = ShiftSpec(alpha=(0.0,), beta=(1.0,), t_height=100.0)
    expect = 100.0 * math.log(100.0)
    assert math.isclose(moments.predict_bound(spec), expect, rel_tol=1e-15)
    spec2 = ShiftSpec(alpha=(0.0,), beta=(1.5,), t_height=1e4)
    expect2 = 1e4 * math.log(1e4) ** 2.25
    assert math.isclose(moments.predict_bound(spec2), expect2, rel_tol=1e-15)


def test_prediction_pair_factor():
    t = 1e4
    log_t = math.log(t)
    spec = ShiftSpec(alpha=(0.0, 2.0), beta=(1.0, 1.0), t_height=t)
    point = zeta.zeta_one_line(2.0, 1.0 / log_t)
    expect = t * log_t ** 2 * abs(point) ** 2
    assert math.isclose(moments.predict_bound(spec), expect, rel_tol=1e-14)
    # a zero exponent silences its pair terms
    spec0 = ShiftSpec(alpha=(0.0, 2.0), beta=(1.0, 0.0), t_height=t)
    assert math.isclose(moments.predict_bound(spec0), t * log_t,
                        rel_tol=1e-15)


def test_nsw_factor_branches():
    t = 1e6
    log_t = math.log(t)
    assert moments.nsw_F(0.0, 0.0, t) == log_t
    # |d| = 1/100 still sits on the reciprocal branch
    assert moments.nsw_F(0.0, 0.01, t) == min(100.0, log_t)
    assert moments.nsw_F(0.0, 0.02, t) == math.log(2.02)
    assert moments.nsw_F(3.0, 0.0, t) == math.log(5.0)
    # tiny separations cap at log T
    assert moments.nsw_F(0.0, 1e-9, t) == log_t
    assert moments.nsw_F(0.0, 0.005, t) == min(200.0, log_t)
    with pytest.raises(DomainError):
        moments.nsw_F(0.0, 1.0, 8.0)


def test_surrogate_majorant_shapes(table_small):
    one = moments.lemma21_rhs([150.0], 0.0, 1e3, table_small, t_height=150.0)
    vec = moments.lemma21_rhs(
        [150.0, 160.0], 0.0, 1e3, table_small, t_height=150.0)
    assert one.shape == (1,) and vec.shape == (2,)
    assert vec[0] == one[0]
    with pytest.raises(DomainError):
        moments.lemma21_rhs([150.0], 0.0, 1.5, table_small, t_height=150.0)
    with pytest.raises(DomainError):
        moments.lemma21_rhs([150.0], 0.0, 1e9, table_small, t_height=100.0)


def test_surrogate_tracks_log_zeta(table_small):
    # the surrogate drops a bounded remainder, so it should sit within
    # a few units of log|zeta| at typical points
    t = np.linspace(120.0, 180.0, 121)
    rhs = moments.lemma21_rhs(t, 0.0, 1e3, table_small, t_height=120.0)
    # |zeta(1/2 + it)| = |Z(t)|
    lhs = np.log(np.abs(zeta.riemann_siegel_Z(t, 6)))
    gap = lhs - rhs
    assert float(np.mean(gap)) < 2.0
    assert float(np.max(gap)) < 6.0
