"""Critical-line evaluators, the one-line helper, and grid caches."""

import importlib.util
import inspect
import io
import math
import pathlib
import random
import struct
import sys
import threading
import warnings
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zetacorr import _rs_series, blocks, cli, dirichlet, moments, primes, sums, zeta
from zetacorr.errors import (
    CacheFormatError,
    ConfigError,
    DomainError,
    ResourceError,
)


def test_em_classical_values():
    got = zeta.zeta_euler_maclaurin(2.0 + 0.0j)
    assert abs(got - math.pi ** 2 / 6.0) <= 1e-10
    got = zeta.zeta_euler_maclaurin(0.0 + 0.0j)
    assert abs(got - (-0.5)) <= 1e-10


def test_em_near_pole_value():
    # zeta(1.1) = 10.58444846495081 (independent multiprecision run)
    got = zeta.zeta_euler_maclaurin(1.1 + 0.0j)
    assert abs(got - 10.58444846495081) <= 1e-9


def _bernoulli_over_factorial(count):
    """B(2k)/(2k)! for k = 1..count by the exact recurrence
    sum_{j<=m} C(m+1, j) B(j) = 0, then rounded."""
    top = 2 * count
    bern = [Fraction(1)]
    for m in range(1, top + 1):
        bern.append(-sum(math.comb(m + 1, j) * bern[j] for j in range(m)) / (m + 1))
    return [float(bern[n] / math.factorial(n)) for n in range(2, top + 1, 2)]


def test_bernoulli_ratios_match_the_recurrence():
    assert zeta._B_RATIO == _bernoulli_over_factorial(len(zeta._B_RATIO))
    assert zeta._B_RATIO[:2] == [1.0 / 12.0, -1.0 / 720.0]


def test_em_oracle_spot_values():
    # frozen from an independent multiprecision evaluation
    cases = [
        (0.2411 - 10.1350j, 1.6475294702803356 + 0.1697169852799268j),
        (-2.0302 + 29.3249j, -31.5174136341318373 - 39.6748211620652314j),
        (3.2881 - 33.5348j, 0.9699392125781040 - 0.1139183463142826j),
        (0.8799 + 9.3320j, 1.3982398866012809 + 0.0634233293334644j),
    ]
    for s, want in cases:
        got = zeta.zeta_euler_maclaurin(s)
        assert abs(got - want) <= 1e-9 * max(1.0, abs(want))


def test_em_conjugate_symmetry():
    rng = random.Random(0xC05)
    for _ in range(20):
        s = complex(rng.uniform(-2.0, 3.0), rng.uniform(0.5, 80.0))
        a = zeta.zeta_euler_maclaurin(s)
        b = zeta.zeta_euler_maclaurin(s.conjugate())
        assert abs(a.conjugate() - b) <= 1e-12 * max(1.0, abs(a))


def test_em_domain_errors():
    with pytest.raises(DomainError):
        zeta.zeta_euler_maclaurin(1.0 + 0.0j)
    with pytest.raises(DomainError):
        zeta.zeta_euler_maclaurin(complex(0.5, 2e5))
    # outside -3 <= Re s <= 100; below it the float64 sum goes wrong
    # (5e-2 relative at -8 + 1e5 i, 5e3 at -10 + 1e5 i) or overflows
    for s in (100.01, -3.01, complex(-8.0, 1e5), complex(-10.0, 1e5),
              complex(-49.9, 10.0)):
        with pytest.raises(DomainError, match="reference strip"):
            zeta.zeta_euler_maclaurin(s)


def test_em_matches_mpmath_at_the_strips_corners():
    for sigma in (-3.0, 0.5, 3.0, 100.0):
        for height in (3.0, 3e3, 1e5):
            for s in (complex(sigma, height), complex(sigma, -height)):
                want = mpmath.zeta(mpmath.mpc(s.real, s.imag))
                got = mpmath.mpc(zeta.zeta_euler_maclaurin(s))
                assert abs(got - want) <= 1e-6 * abs(want), s


def test_em_tail_bound_not_met_is_a_resource_error(monkeypatch):
    monkeypatch.setattr(zeta, "_EM_TAIL", 0.0)
    with pytest.raises(ResourceError, match="tail bound"):
        zeta.zeta_euler_maclaurin(2.0 + 3.0j)
    with pytest.raises(ResourceError, match="tail bound"):
        zeta.zeta_one_line(3.0, 0.5)


def test_first_zero_by_bisection():
    # sign change of Z brackets the first zero near 14.1347251417
    lo, hi = 14.0, 14.3
    assert zeta.riemann_siegel_Z(lo, 6) * zeta.riemann_siegel_Z(hi, 6) < 0
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if zeta.riemann_siegel_Z(lo, 6) * zeta.riemann_siegel_Z(mid, 6) <= 0:
            hi = mid
        else:
            lo = mid
    root = 0.5 * (lo + hi)
    assert abs(root - 14.1347251417346937) <= 1e-6
    assert abs(zeta.riemann_siegel_Z(root, 6)) <= 1e-4
    assert abs(zeta.zeta_euler_maclaurin(complex(0.5, root))) <= 1e-4


def test_rs_cross_validation_spot():
    got = abs(zeta.riemann_siegel_Z(100.0, 6))
    want = abs(zeta.zeta_euler_maclaurin(complex(0.5, 100.0)))
    assert abs(got - want) <= 1e-6
    # independent multiprecision value of |zeta(1/2 + 100i)|
    assert abs(want - 2.6926970566644635) <= 1e-9


def test_rs_sign_constant_between_zeros():
    # no zeros lie in [15, 20]; sign census must be constant there
    t = np.linspace(15.0, 20.0, 101)
    z = zeta.riemann_siegel_Z(t, 4)
    assert np.all(np.sign(z) == np.sign(z[0]))


def test_rs_vectorized_matches_scalar():
    t = np.array([25.0, 111.5, 1234.25])
    vec = zeta.riemann_siegel_Z(t, 4)
    for i, ti in enumerate(t):
        assert vec[i] == zeta.riemann_siegel_Z(float(ti), 4)


def test_rs_range_and_terms_validation():
    with pytest.raises(DomainError):
        zeta.riemann_siegel_Z(5.0, 2)
    with pytest.raises(ConfigError):
        zeta.riemann_siegel_Z(50.0, 7)
    with pytest.raises(ConfigError):
        zeta.riemann_siegel_Z(50.0, -1)


def test_rs_refuses_points_past_t_max_and_non_finite_points():
    # refused before any arithmetic: no RuntimeWarning, no bare ValueError
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for t in (2e8, math.nan, math.inf, -math.inf,
                  np.array([20.0, math.nan, 30.0])):
            with pytest.raises(DomainError, match="finite"):
                zeta.riemann_siegel_Z(t, 4)
        assert math.isfinite(zeta.riemann_siegel_Z(zeta.T_MAX, 4))


def test_one_line_values():
    assert abs(zeta.zeta_one_line(0.0, 1.0) - math.pi ** 2 / 6.0) <= 1e-9
    assert abs(zeta.zeta_one_line(0.0, 0.1) - 10.58444846495081) <= 1e-8
    assert 0.1 <= abs(zeta.zeta_one_line(100.0, 0.05)) <= 10.0


def test_one_line_routes_agree_at_the_crossover():
    # Euler-Maclaurin up to |delta| = 1e5, mpmath.zeta past it: at the
    # crossover the two meet within 1e-9, and at delta = 1e8 the second
    # meets mpmath at 30 digits
    for delta, offset in ((1e5, 1.0 / math.log(1e8)), (-1e5, 0.5)):
        above = math.nextafter(delta, 2.0 * delta)
        em = zeta.zeta_one_line(delta, offset)
        assert em == zeta._euler_maclaurin(complex(1.0 + offset, delta))
        assert zeta.zeta_one_line(above, offset) == complex(
            mpmath.zeta(complex(1.0 + offset, above)))
        assert abs(em - complex(mpmath.zeta(complex(1.0 + offset, delta)))) <= 1e-9
    with mpmath.workdps(30):
        want = complex(mpmath.zeta(mpmath.mpc(1.05, 1e8)))
    assert abs(zeta.zeta_one_line(1e8, 0.05) - want) <= 1e-12 * abs(want)


def test_one_line_even_modulus():
    rng = random.Random(0x11E)
    for _ in range(20):
        d = rng.uniform(0.0, 300.0)
        s = rng.uniform(0.01, 1.0)
        a = abs(zeta.zeta_one_line(d, s))
        b = abs(zeta.zeta_one_line(-d, s))
        assert abs(a - b) <= 1e-12 * max(1.0, a)


def test_one_line_refuses_a_gap_beyond_t_max(monkeypatch):
    # mpmath.zeta takes about sqrt(|delta|) terms: past T_MAX it is not called
    monkeypatch.setattr(zeta.mpmath, "zeta", None)
    for far in (math.nextafter(zeta.T_MAX, math.inf), -1e12, 1e300):
        with pytest.raises(DomainError, match="exceeds 1e"):
            zeta.zeta_one_line(far, 0.1)


def test_one_line_offset_validation():
    with pytest.raises(DomainError):
        zeta.zeta_one_line(0.0, 0.0)
    with pytest.raises(DomainError):
        zeta.zeta_one_line(0.0, 1.5)
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(DomainError, match="delta must be finite"):
            zeta.zeta_one_line(bad, 0.1)
        with pytest.raises(DomainError):
            zeta.zeta_one_line(0.0, bad)


def test_grid_shapes_and_coverage():
    # the samples interpolate, and meet siegelz within depth 2's RS
    # truncation bound c_2 t^(-7/4) (`riemann_siegel_Z`), 4.7e-6 at t = 100
    grid = zeta.sample_critical_line(100.0, 100.1, 0.05, correction_terms=2)
    assert grid.count == 3 and zeta._coarse_factor(100.0, 0.05, 0) > 0
    for k in range(3):
        want = abs(float(mpmath.siegelz(grid.t_at(k))))
        assert abs(grid.values[k] - want) <= 0.015 * 100.0 ** -1.75
    single = zeta.sample_critical_line(100.0, 100.0, 0.05, correction_terms=2)
    assert single.count == 1
    assert single.t_at(0) == 100.0


def test_grid_last_sample_covers_t1():
    grid = zeta.sample_critical_line(50.0, 51.0, 0.09, correction_terms=2)
    assert grid.t_stop >= 51.0 - 0.09
    assert grid.t_stop <= 51.0 + 0.09


def test_a_float_position_names_the_node_it_was_formed_from():
    # seeded single-shift moment windows within the sample cap, T from 20
    # to 1e8: the first node of the window from its float start is the
    # shift snapped to the publication step, counted in fine steps.  The
    # float error reaches about 2e-8 steps, past a 1e-9 step tolerance
    rng = random.Random(29)
    steps = (0.001, 0.002, 0.005, 0.006, 0.01, 0.02, 0.025, 0.05)
    for _ in range(10_000):
        step = rng.choice(steps)
        t = round(math.exp(rng.uniform(math.log(20.0), math.log(1e8))), 2)
        a = round(rng.uniform(-t / 2, t / 2), rng.randrange(4))
        if 3.0 * t / step >= zeta._COUNT_MAX:
            continue
        k = round(a / step)
        t_lo = moments.moment_window(t, [a], step)[0]
        assert zeta.lattice_bracket((t_lo - t) / (step / 2)) == (2 * k, 2 * k)
    # a position further than 1e-6 steps from a node lies between two
    assert zeta.lattice_bracket(2.5) == (2, 3)
    assert zeta.lattice_bracket(-2.0 + 2e-6) == (-2, -1)
    assert zeta.lattice_bracket(7.0 - 9e-7) == (7, 7)


def test_a_window_ending_on_a_node_keeps_it():
    # t1 is node 977 from t0 to within 1e-7 steps
    t0, t1 = 11494764.63, 11494862.33
    assert zeta.grid_count(t0, t1, 0.1) == 978
    grid = zeta.sample_critical_line(t0, t1, 0.1, correction_terms=4)
    assert grid.count == 978 and abs(grid.t_stop - t1) <= 1e-6


def test_grid_spot_check_against_direct():
    rng = random.Random(0x5A17)
    grid = zeta.sample_critical_line(1000.0, 1010.0, 0.01, correction_terms=4)
    for _ in range(50):
        k = rng.randrange(grid.count)
        direct = abs(zeta.riemann_siegel_Z(grid.t_at(k), 4))
        assert abs(grid.values[k] - direct) <= 1e-8


def test_grid_drops_the_terms_above_each_nodes_cut():
    # N(t) = floor(sqrt(t / 2 pi)) steps from 39 to 40 at 2 pi 40^2 =
    # 10053.1 inside the first sampling chunk, whose last lattice node,
    # 10367.7, has N = 40: the chunk sums 40 terms, and the nodes below
    # the step take the 40th off, also in a window that ends below it
    for t_stop, top in ((10070.0, 40), (10050.0, 39)):
        grid = zeta.sample_critical_line(10040.0, t_stop, 0.005, correction_terms=4)
        t = grid.t_start + np.arange(grid.count) * grid.step
        cut = np.floor(np.sqrt(t / (2.0 * math.pi)))
        assert cut[0] == 39 and cut[-1] == top and grid.count < zeta._GRID_CHUNK
        direct = np.abs(zeta.riemann_siegel_Z(t, 4))
        assert np.max(np.abs(grid.values - direct)) <= 1e-9


def test_grid_chunk_folds_in_its_origin_shift():
    # a chunk from the real number 1000 + 1e-7, given as its float start
    # 1000 and that shift: its main sum, theta and the terms taken off
    # above N(t) (which steps from 12 to 16) all move with the shift
    chunk = sums.UniformGrid(1000.0, 0.01, zeta._GRID_CHUNK)
    got = zeta._z_on_grid(chunk, 1e-7, 0, chunk.count, 4)
    t = 1000.0 + 1e-7 + np.arange(chunk.count) * chunk.step
    assert np.max(np.abs(got - zeta.riemann_siegel_Z(t, 4))) <= 1e-8


def test_grid_and_scattered_paths_against_siegelz():
    # at each height, nodes over four rows of the grid kernel, the last of
    # chunk 0, the first of chunk 1 and one at lattice index -3.  The grid
    # path is compared at the real node t0 + k h, the scattered path at its
    # own float64 node; the grid path's worst error is at most twice the
    # scattered path's, and t_at is within two ulp of the real node
    h = 0.01
    nodes = np.array([-3, 0, 37, 255, 256, 411, 512, 700, 999, 65_535, 65_536])
    for t0 in (1000.37, 100000.37, 1000000.37):
        grid = zeta.sample_critical_line(t0 - 3 * h, t0 + 65_537 * h, h,
                                         anchor=t0, correction_terms=4)
        assert grid.count >= 65_540
        t = np.array([grid.t_at(k) for k in nodes + 3])
        with mpmath.workdps(30):
            real = [mpmath.mpf(t0) + int(k) * mpmath.mpf(h) for k in nodes]
            assert all(abs(float(x - y)) <= 2 * np.spacing(y) for x, y in zip(real, t))
            at_node = np.array([abs(float(mpmath.siegelz(x))) for x in real])
            at_float = np.array([abs(float(mpmath.siegelz(x))) for x in t])
        scattered = np.max(np.abs(np.abs(zeta.riemann_siegel_Z(t, 4)) - at_float))
        on_grid = np.max(np.abs(grid.values[nodes + 3] - at_node))
        assert on_grid <= 2.0 * scattered


def _direct_chunk(anchor, step, c, depth):
    """Chunk c of the lattice anchor + k step, sampled directly."""
    start, shift = sums.lattice_node(anchor, step, c * zeta._GRID_CHUNK)
    chunk = sums.UniformGrid(start, step, zeta._GRID_CHUNK)
    return zeta._z_on_grid(chunk, shift, 0, chunk.count, depth)


def test_interpolated_chunks_against_siegelz():
    # 12 seeded nodes of chunk 0 at each height: the band-limited
    # interpolant's worst error is at most twice the direct chunk's, both
    # being float64 phase rounding, and at every node the two are within
    # 1e-13 T of each other
    h, rng, known = 0.01, random.Random(0x2E4), {}

    def siegelz(T, h, ks):
        with mpmath.workdps(20):
            for k in ks:
                if (T, h, k) not in known:
                    known[T, h, k] = abs(float(mpmath.siegelz(
                        mpmath.mpf(T) + k * mpmath.mpf(h))))
        return np.array([known[T, h, k] for k in ks])

    seeded = {}
    for T in (2e4, 1e5):
        assert zeta._coarse_factor(T, h, 0) > 0
        grid = zeta.sample_critical_line(T, T + (zeta._GRID_CHUNK - 1) * h, h,
                                         correction_terms=4)
        direct = np.abs(_direct_chunk(T, h, 0, 4))
        assert np.max(np.abs(grid.values - direct)) <= 1e-13 * T
        ks = seeded[T] = [rng.randrange(zeta._GRID_CHUNK) for _ in range(12)]
        want = siegelz(T, h, ks)
        worst = np.max(np.abs(grid.values[ks] - want))
        assert worst <= 2.0 * np.max(np.abs(direct[ks] - want)), T
    # where the RS series is coarse (low heights, low depths) it steps
    # where N(t) does, and chunks 0 and 1 interpolate there too.  On 4
    # seeded nodes (2e4's 12 above at depth 1), the 6 nodes where the two
    # ways differ most and the nodes on either side of each step of N(t),
    # the interpolant's worst error is again at most twice the direct
    # chunks' (it reads 0.84-1.0 times it)
    n = 2 * zeta._GRID_CHUNK
    for T, h, depth in ((2e4, 0.01, 1), (200.0, 0.01, 4), (1e3, 0.01, 0),
                        (1e3, 0.005, 6)):
        ks = seeded.get(T) or [rng.randrange(n) for _ in range(4)]
        assert zeta._coarse_factor(T, h, 0) > 0
        grid = zeta.sample_critical_line(T, T + (n - 1) * h, h, correction_terms=depth)
        direct = np.abs(np.concatenate([_direct_chunk(T, h, c, depth) for c in (0, 1)]))
        cut = np.floor(np.sqrt(grid.t_at(np.arange(n)) / (2.0 * math.pi)))
        jumps = np.flatnonzero(np.diff(cut))
        assert jumps.size >= 2, T
        ks = [*ks, *np.argsort(np.abs(grid.values - direct))[-6:], *jumps, *(jumps + 1)]
        want = siegelz(T, h, ks)
        worst = np.max(np.abs(grid.values[ks] - want))
        assert worst <= 2.0 * np.max(np.abs(direct[ks] - want)), (T, h, depth)


def test_band_limited_weights_reproduce_a_band_limited_signal():
    # on coarse spacing H = 1, a signal whose frequencies stay below the
    # band pi / 3 that `_coarse_factor` allows: the windowed sinc meets it
    # to about exp(-pi _HALO / 3) times its size, and takes a coarse
    # node's own value at residue 0, bit for bit; q stops at _Q_MAX
    assert zeta._coarse_factor(2e4, 1e-4, 0) == zeta._Q_MAX

    def signal(x):
        return 2.0 * np.cos(np.pi / 3.0 * x + 0.3) + np.sin(0.2 * x) + 0.5
    for q in (2, 7, 25, zeta._Q_MAX):
        weights = zeta._sinc_weights(q)
        coarse = signal(np.arange(-zeta._HALO, 40 + zeta._HALO, dtype=np.float64))
        windows = np.lib.stride_tricks.sliding_window_view(coarse[1:], 2 * zeta._HALO)
        got = (np.ascontiguousarray(windows[:40]) @ weights).ravel()
        assert np.max(np.abs(got - signal(np.arange(40 * q) / q))) <= 1e-12, q
        assert got[::q].tobytes() == coarse[zeta._HALO:zeta._HALO + 40].tobytes()


def test_chunks_whose_halo_does_not_fit_are_sampled_directly():
    # a chunk takes the direct path, bit for bit, only when the coarse
    # spacing would be under two steps or its halo would dip under 2 T_MIN;
    # at any depth and height otherwise it interpolates, also at T = 4 000
    # (depth 4) and at depth 1, where the RS series steps coarsely with N(t)
    h = 0.01
    assert zeta._coarse_factor(15.0, h, 0) == 0
    assert zeta._coarse_factor(9e7, 0.1, 0) == 0
    grid = zeta.sample_critical_line(9e7, 9e7 + 3000 * 0.1, 0.1, correction_terms=6)
    direct = np.abs(_direct_chunk(9e7, 0.1, 0, 6))
    assert grid.values.tobytes() == direct[:grid.count].tobytes()
    for T, depth in ((4000.0, 4), (2e4, 1)):
        q = zeta._coarse_factor(T, h, 0)
        assert q > 0
        grid = zeta.sample_critical_line(T, T + 3000 * h, h, correction_terms=depth)
        inter = np.abs(zeta._z_interpolated(T, h, 0, q, depth))
        assert grid.values.tobytes() == inter[:grid.count].tobytes(), T
    # so does chunk -1 of the lattice from 80 at step 0.001, whose halo
    # reaches down to 6.3, beside its chunk 0, which interpolates
    h = 0.001
    assert zeta._coarse_factor(80.0, h, -1) == 0
    q = zeta._coarse_factor(80.0, h, 0)
    assert q > 0
    below = zeta.sample_critical_line(79.0, 81.0, h, anchor=80.0, correction_terms=4)
    assert below.values[:1000].tobytes() == np.abs(
        _direct_chunk(80.0, h, -1, 4))[-1000:].tobytes()
    assert below.values[1000:].tobytes() == np.abs(
        zeta._z_interpolated(80.0, h, 0, q, 4))[:1001].tobytes()


def test_interpolated_bytes_depend_only_on_the_lattice_node(monkeypatch):
    # every chunk from T = 2e4 at depth 4 and from T = 200 at depth 0
    # interpolates: workers 1, 2 and 3, windows that end in chunks 1 and
    # 2, a window from below its anchor (chunks -1 and 0; chunk -1 from
    # 200 is direct, its halo dipping under 2 T_MIN) and OpenBLAS left at
    # its own thread count all give the same bytes
    h = 0.01
    ones = {}
    for T, depth in ((2e4, 4), (200.0, 0)):
        assert zeta._coarse_factor(T, h, 0) > 0 and zeta._coarse_factor(T, h, 2) > 0
        one = ones[T] = zeta.sample_critical_line(T, T + 150_000 * h, h,
                                                  correction_terms=depth)
        assert one.count == 150_001
        for workers in (2, 3):
            got = zeta.sample_critical_line(T, T + 150_000 * h, h,
                                            correction_terms=depth, workers=workers)
            assert got.values.tobytes() == one.values.tobytes()
        short = zeta.sample_critical_line(T, T + 70_000 * h, h, correction_terms=depth)
        assert short.values.tobytes() == one.values[:70_001].tobytes()
        below = zeta.sample_critical_line(T - 500 * h, T + 1000 * h, h, anchor=T,
                                          correction_terms=depth, workers=2)
        assert below.count == 1501
        assert below.values[500:].tobytes() == one.values[:1001].tobytes()
        q = zeta._coarse_factor(T, h, -1)
        alone = (np.abs(zeta._z_interpolated(T, h, -1, q, depth))[-500:] if q else
                 zeta.sample_critical_line(T - 500 * h, T - h, h, anchor=T,
                                           correction_terms=depth).values)
        assert below.values[:500].tobytes() == alone.tobytes(), T
    monkeypatch.setattr(sums, "_OPENBLAS", None)
    for T, depth in ((2e4, 4), (200.0, 0)):
        free = zeta.sample_critical_line(T, T + 150_000 * h, h,
                                         correction_terms=depth, workers=2)
        assert free.values.tobytes() == ones[T].values.tobytes()


def test_grid_workers_bit_identical():
    a = zeta.sample_critical_line(200.0, 260.0, 0.01, correction_terms=2, workers=1)
    b = zeta.sample_critical_line(200.0, 260.0, 0.01, correction_terms=2, workers=3)
    assert np.array_equal(a.values, b.values)
    # 80 001 nodes: two chunks, so more than one thread runs
    one = zeta.sample_critical_line(200.0, 1000.0, 0.01, correction_terms=2, workers=1)
    assert one.count == 80_001 > zeta._GRID_CHUNK
    for workers in (2, 3):
        got = zeta.sample_critical_line(200.0, 1000.0, 0.01,
                                        correction_terms=2, workers=workers)
        assert got.values.tobytes() == one.values.tobytes()


def test_grid_samples_depend_only_on_their_lattice_node():
    # chunks are aligned on the lattice from the anchor, and each sums
    # every n up to the N of its last node, so windows that end 4 464 and
    # 34 464 nodes into the second chunk agree bit for bit
    h = 0.0125
    short = zeta.sample_critical_line(100.0, 100.0 + 69_999 * h, h,
                                      correction_terms=4)
    long = zeta.sample_critical_line(100.0, 100.0 + 99_999 * h, h,
                                     correction_terms=4)
    assert (short.count, long.count) == (70_000, 100_000)
    assert short.values.tobytes() == long.values[:70_000].tobytes()
    # so do windows from nodes -80 and -3 of the lattice from 100, the
    # second ending in the first row of chunk 0
    below = zeta.sample_critical_line(99.0, 100.0 + 69_999 * h, h, anchor=100.0,
                                      correction_terms=4)
    assert below.t_start == 99.0 and below.count == 70_080
    assert below.values[80:].tobytes() == short.values.tobytes()
    near = zeta.sample_critical_line(100.0 - 3 * h, 100.0 + 200 * h, h,
                                     anchor=100.0, correction_terms=4)
    assert near.count == 204
    assert near.values.tobytes() == below.values[77:281].tobytes()


def test_grid_chunk_values_do_not_depend_on_the_window():
    # windows that start and stop mid-chunk, one node, and windows over
    # an N jump (56 -> 57 at node 20 704) give the bytes of the whole
    # chunk's run
    chunk = sums.UniformGrid(2e4, 0.02, zeta._GRID_CHUNK)
    whole = zeta._z_on_grid(chunk, 3e-12, 0, chunk.count, 4)
    for lo, stop in ((1000, 1900), (3000, 4200), (3584, 4096),
                     (777, 778), (0, 1), (20_600, 20_800), (20_704, 20_705),
                     (65_535, 65_536), (40_000, 65_536)):
        got = zeta._z_on_grid(chunk, 3e-12, lo, stop, 4)
        assert got.tobytes() == whole[lo:stop].tobytes(), (lo, stop)


def test_sample_bytes_match_across_threads(tmp_path, monkeypatch):
    # three chunks at T = 2e4 over which N steps from 56 to 61
    monkeypatch.chdir(tmp_path)
    blobs = set()
    for threads in (1, 2, 3):
        assert cli.main(["sample", "--t0", "20000", "--t1", "23932.14",
                         "--step", "0.02", "--threads", str(threads),
                         "--out", f"g{threads}.zgrd"]) == 0
        blobs.add((tmp_path / f"g{threads}.zgrd").read_bytes())
    grid = zeta.cache_read(tmp_path / "g1.zgrd")
    assert grid.count == 196_608 and len(blobs) == 1
    cut = np.floor(np.sqrt(grid.t_at(grid.count - 1) / (2.0 * math.pi)))
    assert (np.floor(np.sqrt(grid.t_start / (2.0 * math.pi))), cut) == (56, 61)


def test_grid_workers_are_threads_sized_by_chunks(monkeypatch):
    one = zeta.sample_critical_line(200.0, 1000.0, 0.01, correction_terms=2, workers=1)

    def no_fork():
        raise AssertionError("sampling forked a process")

    monkeypatch.setattr("os.fork", no_fork)
    two = zeta.sample_critical_line(200.0, 1000.0, 0.01, correction_terms=2, workers=2)
    assert two.values.tobytes() == one.values.tobytes()

    sizes = []

    class InlinePool:
        """Records the pool size and runs every task in the caller."""

        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(zeta, "ThreadPoolExecutor", InlinePool)
    zeta.sample_critical_line(200.0, 260.0, 0.01, correction_terms=2, workers=10 ** 6)
    assert sizes == [1]


@pytest.fixture
def blas_threads():
    """OpenBLAS's (get, set) pair, its count set to 2 for the test so
    that one thread under the sampler shows, and restored after."""
    if sums._OPENBLAS is None:
        pytest.skip("numpy's OpenBLAS thread count is not reachable")
    get, put = sums._OPENBLAS
    before = get()
    put(2)
    yield get
    put(before)


def _recording_chunks(monkeypatch, get, seen, barrier=None):
    """Wrap `zeta._z_on_grid` so that each chunk records the BLAS thread
    count it runs under, after waiting at `barrier` if one is given."""
    z_on_grid = zeta._z_on_grid

    def recorded(*args):
        if barrier is not None:
            barrier.wait(timeout=60)
        seen.append(get())
        return z_on_grid(*args)

    monkeypatch.setattr(zeta, "_z_on_grid", recorded)


def test_sampler_runs_blas_at_one_thread_and_restores_it(blas_threads, monkeypatch):
    get, seen = blas_threads, []
    _recording_chunks(monkeypatch, get, seen)
    for workers in (1, 2):
        # 80 001 nodes: two chunks
        zeta.sample_critical_line(200.0, 1000.0, 0.01,
                                  correction_terms=2, workers=workers)
        assert get() == 2
    assert seen == [1] * 4


def test_sampler_restores_blas_threads_after_a_chunk_raises(blas_threads,
                                                            monkeypatch):
    get = blas_threads

    def fails(*args):
        assert get() == 1
        raise ResourceError("chunk failed")

    monkeypatch.setattr(zeta, "_z_on_grid", fails)
    for workers in (1, 2):
        with pytest.raises(ResourceError):
            zeta.sample_critical_line(200.0, 1000.0, 0.01,
                                      correction_terms=2, workers=workers)
        assert get() == 2


def test_concurrent_samplers_leave_the_blas_count_they_found(blas_threads,
                                                             monkeypatch):
    # four one-chunk samplers are inside their pools at once, under a
    # short switch interval; the last to exit restores the count from
    # before the first
    get, seen, errors = blas_threads, [], []
    _recording_chunks(monkeypatch, get, seen, threading.Barrier(4))

    def sample():
        try:
            zeta.sample_critical_line(200.0, 260.0, 0.01, correction_terms=2, workers=2)
        except Exception as exc:          # reported below
            errors.append(exc)

    threads = [threading.Thread(target=sample) for _ in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert errors == [] and seen == [1] * 4
    assert get() == 2


def test_sampler_threads_call_no_public_layer_function(monkeypatch):
    # a tracer that wraps every public module-level function of the
    # layers keeps one stack of spans, so none may run on a sampler thread
    main, off_main = threading.get_ident(), []
    for module in (primes, zeta, dirichlet, blocks, moments, cli):
        for name, fn in list(vars(module).items()):
            if name.startswith("_") or not inspect.isfunction(fn) \
                    or fn.__module__ != module.__name__:
                continue

            def recorded(*args, _fn=fn, _name=name, **kwargs):
                if threading.get_ident() != main:
                    off_main.append(_name)
                return _fn(*args, **kwargs)

            monkeypatch.setattr(module, name, recorded)
    # 80 001 nodes: two chunks on two threads
    zeta.sample_critical_line(200.0, 1000.0, 0.01, correction_terms=2, workers=2)
    assert off_main == []


def test_sampling_without_a_blas_handle_gives_the_same_bytes(monkeypatch):
    capped = zeta.sample_critical_line(200.0, 1000.0, 0.01,
                                       correction_terms=2, workers=2)
    monkeypatch.setattr(sums, "_OPENBLAS", None)
    free = zeta.sample_critical_line(200.0, 1000.0, 0.01, correction_terms=2, workers=2)
    assert free.values.tobytes() == capped.values.tobytes()


def test_rs_depth_has_no_default():
    for fn in (zeta.riemann_siegel_Z, zeta.sample_critical_line):
        param = inspect.signature(fn).parameters["correction_terms"]
        assert param.default is inspect.Parameter.empty
    with pytest.raises(TypeError):
        zeta.sample_critical_line(100.0, 100.1, 0.05)


def test_grid_range_validation():
    with pytest.raises(DomainError):
        zeta.sample_critical_line(5.0, 50.0, 0.05, correction_terms=2)
    with pytest.raises(DomainError):
        zeta.sample_critical_line(100.0, 50.0, 0.05, correction_terms=2)
    with pytest.raises(DomainError):
        zeta.sample_critical_line(50.0, 60.0, 0.2, correction_terms=2)
    with pytest.raises(DomainError):
        zeta.sample_critical_line(50.0, 60.0, 0.0, correction_terms=2)
    with pytest.raises(DomainError):        # no lattice node in the window
        zeta.sample_critical_line(100.0, 100.001, 0.01, anchor=99.995,
                                  correction_terms=2)
    # True is an int to isinstance, but not a worker count
    for workers in (0, -1, 1.0, True, False):
        with pytest.raises(ConfigError, match="workers"):
            zeta.sample_critical_line(100.0, 100.1, 0.05, correction_terms=2,
                                      workers=workers)


def _read_bytes(path, blob):
    path.write_bytes(blob)
    return zeta.cache_read(path)


def test_grid_cache_round_trip(tmp_path):
    grid = zeta.sample_critical_line(30.0, 31.0, 0.05, correction_terms=3)
    back = _read_bytes(tmp_path / "g.zgrd", b"".join(zeta.cache_bytes(grid)))
    assert back.t_start == grid.t_start
    assert back.step == grid.step
    assert back.correction_terms == 3
    assert np.array_equal(back.values, grid.values)
    assert not back.values.flags.writeable


def test_grid_cache_rejects_corruption(tmp_path):
    grid = zeta.sample_critical_line(30.0, 31.0, 0.05, correction_terms=2)
    blob = b"".join(zeta.cache_bytes(grid))
    path = tmp_path / "g.zgrd"
    with pytest.raises(CacheFormatError):
        _read_bytes(path, blob[: len(blob) // 2])
    with pytest.raises(CacheFormatError):
        _read_bytes(path, b"GRDZ" + blob[4:])
    bad_version = blob[:4] + b"\x09\x00\x00\x00" + blob[8:]
    with pytest.raises(CacheFormatError):
        _read_bytes(path, bad_version)
    flipped = bytearray(blob)
    flipped[60] ^= 0x01                   # one bit of the third sample
    with pytest.raises(CacheFormatError, match="checksum"):
        _read_bytes(path, bytes(flipped))
    # the version-1 layout: no RS depth, no checksum
    v1 = b"ZGRD" + struct.pack("<IIddQ", 1, 1, grid.t_start, grid.step,
                               grid.count) + grid.values.tobytes()
    with pytest.raises(CacheFormatError, match="unsupported version 1"):
        _read_bytes(path, v1)


def test_cache_read_checks_the_head_before_any_sample(tmp_path, monkeypatch):
    # 64 MB sparse files: one of zeros, as /dev/zero reads, and one with a
    # grid's head whose count disagrees with the size; each is refused
    # after the 40-byte head alone, while a good grid takes one more read
    asked = []

    class Spy(io.BufferedReader):
        def read(self, size=-1):
            asked.append(size)
            return super().read(size)

    monkeypatch.setattr(zeta, "open", lambda path, mode: Spy(io.FileIO(path, mode)),
                        raising=False)
    head, data, crc = zeta.cache_bytes(
        zeta.sample_critical_line(30.0, 30.3, 0.05, correction_terms=3))
    for blob, message in ((b"", "not a ZGRD cache"), (head, "payload length")):
        path = tmp_path / "sparse.zgrd"
        with open(path, "wb") as fh:
            fh.write(blob)
            fh.truncate(64 << 20)
        asked.clear()
        with pytest.raises(CacheFormatError, match=message):
            zeta.cache_read(path)
        assert asked == [len(head)]
    asked.clear()
    grid = _read_bytes(tmp_path / "g.zgrd", head + data.tobytes() + crc)
    assert asked == [len(head), data.nbytes + len(crc)]
    assert grid.values.tobytes() == data.tobytes()


_BLOB = b"".join(zeta.cache_bytes(
    zeta.sample_critical_line(30.0, 30.3, 0.05, correction_terms=3)))


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_any_byte_change_or_truncation_is_refused(tmp_path_factory, data):
    blob = bytearray(_BLOB)
    at = data.draw(st.integers(0, len(blob) - 1), label="at")
    if data.draw(st.booleans(), label="truncate"):
        del blob[at:]
    else:
        blob[at] ^= data.draw(st.integers(1, 255), label="xor")
    with pytest.raises(CacheFormatError):
        _read_bytes(tmp_path_factory.getbasetemp() / "changed.zgrd", bytes(blob))


def test_rs_series_matches_its_generator(tmp_path, capsys):
    # the shipped tables are exactly what the generator's emit step writes
    root = pathlib.Path(__file__).parents[1]
    spec = importlib.util.spec_from_file_location(
        "gen_rs_tables", root / "tools" / "gen_rs_tables.py")
    gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)
    out = tmp_path / "_rs_series.py"
    gen.emit(_rs_series.C_SERIES, out)
    shipped = root / "src" / "zetacorr" / "_rs_series.py"
    assert out.read_bytes() == shipped.read_bytes()
