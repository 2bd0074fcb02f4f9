"""Multiscale decomposition: scheme geometry, classification rules,
and measure bounds."""

import math
import random
import sys

import numpy as np
import pytest

from zetacorr import blocks, primes
from zetacorr.errors import DomainError
from zetacorr.sums import UniformGrid


def test_beta_star_examples():
    assert blocks.beta_star((1.0, 1.0)) == 2.0
    assert blocks.beta_star((1.5, 1.5)) == 3.0
    assert blocks.beta_star((2.0, 1.0)) == 3.0
    assert blocks.beta_star((0.2, 2.8)) == 3.8


def test_beta_star_validation():
    with pytest.raises(DomainError):
        blocks.beta_star(())
    with pytest.raises(DomainError):
        blocks.beta_star((1.0, -0.1))


def test_scheme_needs_minimum_height():
    with pytest.raises(DomainError):
        blocks.build_scheme(15.0, (1.0,))


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("name", ["t_height", "log_t"])
def test_scheme_refuses_a_non_finite_height(name, value):
    # a NaN height once gave a scheme of 0 levels, an infinite one a
    # ResourceError from its level count
    with pytest.raises(DomainError, match="finite"):
        blocks.build_scheme(**{name: value})


def test_natural_scale_is_degenerate_at_desk_heights():
    # the natural exponent scale 1/(200 beta*^2) leaves no room for
    # even one block until T is astronomically large
    scheme = blocks.build_scheme(1e5, (1.0, 1.0))
    assert scheme.levels == 0
    assert scheme.degenerate


def test_desk_override_two_levels():
    scheme = blocks.build_scheme(1e5, (1.0, 1.0), exponent_scale_override=0.5)
    assert scheme.levels == 2
    assert scheme.t_seq[0] == 2.0
    assert math.isclose(scheme.t_seq[1], 6.877714641205025, rel_tol=1e-14)
    assert math.isclose(scheme.t_seq[2], 188.97711865243915, rel_tol=1e-14)
    assert math.isclose(scheme.k_seq[0], 2.316665714374233, rel_tol=1e-14)
    assert math.isclose(scheme.k_seq[1], 1.4051287840730426, rel_tol=1e-14)
    assert scheme.block_interval(1) == primes.PrimeInterval(
        2.0, scheme.t_seq[1])
    assert scheme.block_interval(2) == primes.PrimeInterval(
        scheme.t_seq[1], scheme.t_seq[2])


def test_block_scale_closed_forms():
    # K_j = (loglog T)^(3/2) e^(-j/2) and T_1 = T^(1/(loglog T)^2),
    # checked at loglog T = 10 where K_1 = 10^(3/2) e^(-1/2)
    scheme = blocks.build_scheme(
        betas=(1.0,), log_t=math.exp(10.0), exponent_scale_override=0.02)
    assert scheme.levels == 1
    assert math.isclose(scheme.k_seq[0], 19.1801835541645, rel_tol=1e-13)
    assert math.isclose(
        scheme.log_t_seq[1], math.exp(10.0) / 100.0, rel_tol=1e-14)
    assert scheme.log_t > math.log(sys.float_info.max)  # T overflows doubles


def test_scheme_monotone_scales():
    scheme = blocks.build_scheme(1e7, (1.5, 0.5), exponent_scale_override=0.9)
    assert scheme.levels >= 2
    assert all(a < b for a, b in zip(scheme.log_t_seq, scheme.log_t_seq[1:]))
    assert all(a > b for a, b in zip(scheme.k_seq, scheme.k_seq[1:]))
    assert scheme.log_t_seq[-1] < scheme.log_t
    # from log T = log 16 up, at any scale, until log T_L overflows
    for log_t in (math.log(16.0), math.exp(2.0), 10.0, 1e5, 1e300):
        for scale in (0.02, 0.5, 1.0, 20.0):
            s = blocks.build_scheme(log_t=log_t, exponent_scale_override=scale)
            assert all(a < b for a, b in zip(s.log_t_seq, s.log_t_seq[1:]))
            assert all(a > b for a, b in zip(s.k_seq, s.k_seq[1:]))
    with pytest.raises(DomainError, match="overflows"):
        blocks.build_scheme(log_t=1.7e308, exponent_scale_override=1.0)


def test_sigma_abscissa_conventions():
    scheme = blocks.build_scheme(1e5, (1.0, 1.0), exponent_scale_override=0.5)
    log_t1 = scheme.log_t_seq[1]
    assert math.isclose(scheme.sigma0(1), 0.5 + 1.0 / log_t1, rel_tol=1e-15)
    assert math.isclose(
        scheme.sigma0(1, abscissa="one"), 1.0 + 1.0 / log_t1, rel_tol=1e-15)
    with pytest.raises(DomainError):
        scheme.sigma0(1, abscissa="third")


def test_square_threshold_decay():
    assert math.isclose(
        blocks.square_threshold(3), math.exp(-0.3), rel_tol=1e-15)
    vals = [blocks.square_threshold(l) for l in range(1, 8)]
    assert all(a > b for a, b in zip(vals, vals[1:]))


class SyntheticBlockEngines:
    """Injectable evaluators for exercising classifier logic.

    `block_fn(j, s, t_values)` and `square_fn(band, t_values)` return
    one value per node of the grid t_values.
    """

    def __init__(self, scheme, band_count, block_fn=None, square_fn=None):
        self.scheme = scheme
        self.band_count = band_count
        self._block_fn = block_fn or (
            lambda j, s, t: np.zeros(t.size, dtype=np.complex128))
        self._square_fn = square_fn or (
            lambda band, t: np.zeros(t.size, dtype=np.complex128))

    def block_sum(self, j, s, t_values):
        return np.asarray(self._block_fn(j, s, t_values))

    def square_sum(self, band, t_values):
        return np.asarray(self._square_fn(band, t_values))


def _synthetic(scheme, block_values, square_values, band_count=4):
    # block_values[j] and square_values[l] are constants per scale
    def block_fn(j, s, t):
        return np.full(t.size, block_values.get(j, 0.0),
                       dtype=np.complex128)

    def square_fn(band, t):
        return np.full(t.size, square_values.get(band, 0.0),
                       dtype=np.complex128)

    return SyntheticBlockEngines(
        scheme, band_count, block_fn=block_fn, square_fn=square_fn)


def test_classify_minimal_bad_index():
    scheme = blocks.build_scheme(1e5, (1.0, 1.0), exponent_scale_override=0.5)
    k1, k2 = scheme.k_seq
    t = UniformGrid(1e5, 2e4, 3)
    # both blocks exceed their caps: the smallest j is reported
    engines = _synthetic(scheme, {1: k1 + 1.0, 2: k2 + 1.0}, {})
    bad, _ = blocks.classify_grid(t, engines)
    assert list(bad) == [1, 1, 1]
    # only the second block exceeds
    engines = _synthetic(scheme, {1: 0.0, 2: k2 + 1.0}, {})
    bad, _ = blocks.classify_grid(t, engines)
    assert list(bad) == [2, 2, 2]
    # exact equality is not an exceedance: strict comparison
    engines = _synthetic(scheme, {1: k1, 2: k2}, {})
    bad, _ = blocks.classify_grid(t, engines)
    assert list(bad) == [0, 0, 0]


def test_classify_largest_square_band():
    scheme = blocks.build_scheme(1e5, (1.0, 1.0), exponent_scale_override=0.5)
    t = UniformGrid(1e5, 5e4, 2)
    j1 = blocks.square_threshold(1)
    j3 = blocks.square_threshold(3)
    engines = _synthetic(scheme, {}, {1: j1 + 0.5, 3: j3 + 0.5})
    _, square = blocks.classify_grid(t, engines)
    assert list(square) == [3, 3]
    # bands past the engines' count are not evaluated
    engines = _synthetic(scheme, {}, {1: j1 + 0.5, 3: j3 + 0.5}, band_count=2)
    _, square = blocks.classify_grid(t, engines)
    assert list(square) == [1, 1]
    engines = _synthetic(scheme, {}, {})
    _, square = blocks.classify_grid(t, engines)
    assert list(square) == [0, 0]


def test_classify_partition_is_exhaustive():
    scheme = blocks.build_scheme(1e5, (1.0, 1.0), exponent_scale_override=0.5)
    engines = blocks.SieveBlockEngines(scheme, 5)
    t = UniformGrid(1e5, 50.0, 2001)
    bad, square = blocks.classify_grid(t, engines)
    # one block class and one square class per point
    assert bad.shape == square.shape == (t.size,)
    assert np.all((bad >= 0) & (bad <= scheme.levels))
    assert np.all((square >= 0) & (square <= 5))


def test_classify_nesting_from_raw_engine_values():
    # a point labeled B_j must satisfy |block_r| <= K_r for r < j and
    # |block_j| > K_j, re-asserted from the raw block sums
    scheme = blocks.build_scheme(1e5, (1.0, 1.0), exponent_scale_override=0.5)
    engines = blocks.SieveBlockEngines(scheme, scheme.square_band_count)
    rng = random.Random(0xBAD)
    t = UniformGrid(rng.uniform(1e5, 1.1e5), 225.0, 400)
    bad, _ = blocks.classify_grid(t, engines)
    raw = [np.abs(engines.block_sum(r, r, t))
           for r in range(1, scheme.levels + 1)]
    for i, j in enumerate(bad):
        vals = [v[i] for v in raw]
        if j == 0:
            assert all(v <= k for v, k in zip(vals, scheme.k_seq))
        else:
            assert vals[j - 1] > scheme.k_seq[j - 1]
            assert all(vals[r] <= scheme.k_seq[r] for r in range(j - 1))


def test_degenerate_scheme_classifies_all_good():
    scheme = blocks.build_scheme(1e5, (1.0, 1.0))
    engines = SyntheticBlockEngines(scheme, scheme.square_band_count)
    t = UniformGrid(1e5, 1e4, 11)
    bad, _ = blocks.classify_grid(t, engines)
    assert scheme.degenerate
    assert np.all(bad == 0)


def test_measure_bounds_closed_forms():
    # first-block bound e^(-(loglog T)^2 / 5) at loglog T = 10
    scheme = blocks.build_scheme(
        betas=(1.0,), log_t=math.exp(10.0), exponent_scale_override=0.02)
    b1 = blocks.block_measure_bound(scheme, 1)
    assert math.isclose(b1, math.exp(-20.0), rel_tol=1e-14)
    deeper = blocks.build_scheme(
        1e7, (1.0, 1.0), exponent_scale_override=0.9)
    assert deeper.levels >= 2
    assert blocks.block_measure_bound(deeper, 2) is None
    # square-band bound e^(-l e^(3l/4)) at l=4
    assert math.isclose(blocks.square_measure_bound(4),
                        1.2818836042256615e-35, rel_tol=1e-14)
    assert blocks.square_measure_bound(1) == math.exp(-math.exp(0.75))


def test_square_fraction_decays_with_band():
    # higher bands demand larger square sums, which decay; observed
    # fractions should vanish quickly at desk scale
    scheme = blocks.build_scheme(1e5, (1.0, 1.0), exponent_scale_override=0.5)
    t = UniformGrid(1e5, 50.0, 2001)
    fr = [np.count_nonzero(blocks.classify_grid(
              t, blocks.SieveBlockEngines(scheme, l))[1] == l) / t.size
          for l in (3, 4, 5, 6)]
    assert all(a >= b for a, b in zip(fr, fr[1:]))
    assert fr[-1] <= 1e-2
