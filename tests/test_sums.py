"""The Dirichlet-polynomial grid kernel against direct sums, and the
bytes it gives under other thread counts."""

import math
import os
import pathlib
import subprocess
import sys

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from zetacorr import sums

K = sums._ROW
EPS = np.finfo(np.float64).eps


def _direct(amp, freqs, t):
    """sum_n amp[n] exp(-i t freqs[n]) at one float node, by math.fsum."""
    phase = t * freqs
    return complex(math.fsum(amp * np.cos(phase)), -math.fsum(amp * np.sin(phase)))


@settings(max_examples=40, deadline=None)
@given(terms=st.integers(1, 3000),
       count=st.sampled_from([1, K - 1, K + 1, 3 * K + 1]),
       start=st.floats(-1e5, 1e5),
       step=st.floats(1e-3, 10.0),
       seed=st.integers(0, 2 ** 32 - 1))
def test_grid_sum_matches_a_direct_sum(terms, count, start, step, seed):
    rng = np.random.default_rng(seed)
    amp = rng.uniform(-1.0, 1.0, terms)
    freqs = np.log(rng.uniform(1.0, 1e6, terms))
    grid = sums.UniformGrid(start, step, count)
    got = sums.grid_sum(amp, freqs, grid)
    assert got.shape == (count,)
    # each phase is formed from a row phase and a column phase, each
    # within a few ulp of the largest phase; the product adds N roundings
    largest = (abs(start) + (count + K) * step) * float(freqs.max())
    tol = 4.0 * EPS * (largest + terms) * float(np.abs(amp).sum())
    nodes = grid.nodes()
    width = sums._row_width(count)
    for k in sorted({0, width - 1, width, count // 2, count - 1} & set(range(count))):
        assert abs(got[k] - _direct(amp, freqs, nodes[k])) <= tol


def test_grid_sum_ranges_and_empty_terms():
    grid = sums.UniformGrid(1e3, 0.5, 3 * K + 7)
    amp, freqs = np.array([1.0, -0.5]), np.array([0.3, 2.0])
    whole = sums.grid_sum(amp, freqs, grid)
    part = sums.grid_sum(amp, freqs, grid, K, 2 * K + 3)
    assert np.allclose(part, whole[K:2 * K + 3], rtol=0.0, atol=1e-12)
    assert sums.grid_sum(amp, freqs, grid, K, K).shape == (0,)
    none = sums.grid_sum(np.zeros(0), np.zeros(0), grid)
    assert none.shape == (grid.count,) and not none.any()


_DIGEST_SCRIPT = """
import hashlib, sys
from zetacorr import primes, zeta
from zetacorr.sums import UniformGrid
grid = zeta.sample_critical_line(2.0e4, 2.14e4, 0.01, correction_terms=4,
                                 workers=int(sys.argv[1]))
table = primes.sieve_primes(100_000)
vals = primes.tapered_block_sum(table, primes.PrimeInterval(1.0, 1e5), 1e5,
                                0.55, UniformGrid(1.0e5, 1.0, 70_000))
print(hashlib.sha256(grid.values.tobytes() + vals.tobytes()).hexdigest())
"""


def test_bytes_do_not_depend_on_blas_or_sampler_threads():
    # three sampling chunks; a prime sum of five term blocks whose
    # products are 256 x 2048 by 2048 x 256, large enough to thread
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
