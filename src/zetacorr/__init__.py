"""Numerical laboratory for shifted moments of zeta on the critical line.

The package splits into five layers:

* `primes`: segmented sieve, prime tables, and the tapered prime
  sums every surrogate object is built from.
* `zeta`: critical-line evaluation (Riemann-Siegel with correction
  terms, Euler-Maclaurin cross-check) and the binary |zeta| grid cache.
* `dirichlet`: truncated-exponential coefficient tables, exact
  mean-value integrals, and the inequality checks that justify
  replacing long products by short ones.
* `blocks`: the multiscale decomposition of a height range into
  good/bad/square classes, with measure bounds for the rare classes.
* `moments`: shared-grid quadrature for shifted moments, the grid it
  integrates on (sampled over the span its shifts need, or read from a
  cache), and the size prediction.  A decorrelation curve is one
  moment per separation delta.

`cli` ties the layers into reproducible experiments with canonical
JSON reports; `verify` holds the seeded drivers of its lemma checks.
The layers are imported as submodules (`from zetacorr import primes`);
the package itself re-exports nothing.
"""

__version__ = "0.1.0"
