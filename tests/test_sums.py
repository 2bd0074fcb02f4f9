"""The Dirichlet-polynomial grid kernel against direct sums, and the
bytes it gives under other thread counts."""

import math
import os
import pathlib
import subprocess
import sys
from fractions import Fraction

import mpmath
import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from zetacorr import sums

K = sums._ROW
EPS = np.finfo(np.float64).eps


def _direct(amp, freqs, node):
    """sum_n amp[n] exp(-i t freqs[n]) at the real node t = hi + lo, by
    math.fsum."""
    hi, lo = node
    terms = amp * np.exp(-1j * (hi * freqs + lo * freqs))
    return complex(math.fsum(terms.real), math.fsum(terms.imag))


@settings(max_examples=40, deadline=None)
@given(terms=st.integers(1, 3000),
       count=st.sampled_from([1, K - 1, K + 1, 3 * K + 1]),
       start=st.floats(-1e5, 1e5),
       step=st.floats(1e-3, 10.0),
       seed=st.integers(0, 2 ** 32 - 1),
       rotated=st.booleans())
def test_grid_sum_matches_a_direct_sum(terms, count, start, step, seed, rotated):
    rng = np.random.default_rng(seed)
    amp = rng.uniform(-1.0, 1.0, terms)
    if rotated:         # complex amplitudes, as the sampler passes
        amp = amp * np.exp(1j * rng.uniform(0.0, 2.0 * math.pi, terms))
    freqs = np.log(rng.uniform(1.0, 1e6, terms))
    grid = sums.UniformGrid(start, step, count)
    got = sums.grid_sum(amp, freqs, grid)
    assert got.shape == (count,)
    # each phase is formed from a row phase and a column phase, each
    # within a few ulp of the largest phase; the product adds N roundings
    largest = (abs(start) + (count + K) * step) * float(freqs.max())
    tol = 4.0 * EPS * (largest + terms) * float(np.abs(amp).sum())
    width = sums._row_width(count)
    for k in sorted({0, width - 1, width, count // 2, count - 1} & set(range(count))):
        node = sums.lattice_node(start, step, k)
        assert abs(got[k] - _direct(amp, freqs, node)) <= tol


def test_grid_sum_is_taken_at_the_real_node():
    # near 1e15 a float64 node is up to 1/16 from the real node start +
    # k step, so exp(-i t) tells the two apart, also in the second row block
    grid = sums.UniformGrid(1.0e15, 0.3, 70_000)
    got = sums.grid_sum(np.array([1.0]), np.array([1.0]), grid)
    with mpmath.workdps(40):
        for k in (0, 1, 255, 256, 65_535, 65_536, 65_537, 69_999):
            t = Fraction(grid.start) + k * Fraction(grid.step)
            exact = complex(mpmath.expj(-mpmath.mpf(t.numerator) / t.denominator))
            assert abs(got[k] - exact) <= 1e-12


def test_grid_sum_ranges_and_empty_terms():
    # the row width is the grid's, so a sum cut at `stop` is the whole
    # grid's sum cut there, bit for bit, on either side of a row boundary,
    # also within the first row (a one-row product would go to gemv)
    grid = sums.UniformGrid(1e3, 0.5, 3 * K + 7)
    width = sums._row_width(grid.count)
    amp, freqs = np.array([1.0, -0.5]), np.array([0.3, 2.0])
    whole = sums.grid_sum(amp, freqs, grid)
    for stop in (1, width - 1, width, width + 1, K - 1, K + 1, 3 * K + 6):
        part = sums.grid_sum(amp, freqs, grid, stop=stop)
        assert part.tobytes() == whole[:stop].tobytes()
    assert sums.grid_sum(amp, freqs, grid, stop=0).shape == (0,)
    none = sums.grid_sum(np.zeros(0), np.zeros(0), grid)
    assert none.shape == (grid.count,) and not none.any()


_DIGEST_SCRIPT = """
import hashlib, sys
from zetacorr import primes, zeta
from zetacorr.sums import UniformGrid
grid = zeta.sample_critical_line(2.0e4, 2.14e4, 0.01, correction_terms=4,
                                 workers=int(sys.argv[1]))
# a window from 1 below its anchor: lattice chunks -1 and 0
below = zeta.sample_critical_line(1.0e4 - 1.0, 1.0e4 + 1.0, 0.01, anchor=1.0e4,
                                  correction_terms=4, workers=int(sys.argv[1]))
# 138 terms, padded to 144: OpenBLAS's threaded and serial drivers split
# a product of inner size 138 at different points
high = zeta.sample_critical_line(1.2e5, 1.2e5 + 1.0, 0.01, correction_terms=4,
                                 workers=int(sys.argv[1]))
table = primes.sieve_primes(100_000)
vals = primes.tapered_block_sum(table, primes.PrimeInterval(1.0, 1e5), 1e5,
                                0.55, UniformGrid(1.0e5, 1.0, 70_000))
# a second row block whose origin 1e5 + 0.1 + 65 536 * 0.37 is no float64
squares = primes.half_square_sum(table, primes.PrimeInterval(1.0, 1e4), 0.55,
                                 UniformGrid(1.0e5 + 0.1, 0.37, 70_000))
print(hashlib.sha256(grid.values.tobytes() + below.values.tobytes()
                     + high.values.tobytes() + vals.tobytes()
                     + squares.tobytes()).hexdigest())
"""


def test_bytes_do_not_depend_on_blas_or_sampler_threads():
    # three sampling chunks, a window over two chunks from a negative
    # lattice index, a chunk of 138 terms, a prime sum of five term blocks
    # whose products are 256 x 2048 by 2048 x 256, large enough to thread,
    # and two prime sums over two row blocks each
    src = pathlib.Path(__file__).parents[1] / "src"
    digests = set()
    for blas in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=blas,
                   PYTHONPATH=os.pathsep.join(
                       [str(src)] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
        for workers in ("1", "3"):
            done = subprocess.run(
                [sys.executable, "-c", _DIGEST_SCRIPT, workers], env=env,
                capture_output=True, text=True, timeout=300, check=True)
            digests.add(done.stdout.strip())
    assert len(digests) == 1
