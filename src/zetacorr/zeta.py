"""Zeta evaluation: truncated-series reference values, the fast
real-valued evaluator on the critical line, grid sampling of |zeta|,
and the `ZGRD` cache of such a grid, which records its Riemann-Siegel
depth.

Neither side of the cache holds the grid.  `sample_cache` hands the
file over in parts, sampling each chunk as it is written and folding
the CRC32 over it.  `cache_read` checks the 40-byte head (magic,
version, flags, the size against the count, the geometry and the
depth) before any sample; its `CacheGrid` then reads the samples
forward in blocks, with plain reads and never a memory map, so a file
cut short mid-run is a CacheFormatError and not a SIGBUS.  The checksum
is compared once the file's last sample is read: `moments.moment_rows`
reads the rest of the file before it returns.

Two independent routes are deliberately kept separate:

  * `zeta_euler_maclaurin` sums n^(-s) directly with tail corrections
    in one pass; it is slow but works off the critical line, on the
    strip -3 <= Re s <= 100, |Im s| <= 1e5 (relative error at most
    3e-7 at its corners; its docstring has the table), and serves as
    the cross-check reference.  `zeta_one_line` runs the same pass up
    to |Im s| = 1e5 and `mpmath.zeta` above.
  * the Riemann-Siegel form, main sum plus remainder, specific to the
    critical line.  It has two paths that share theta and the
    remainder.  `riemann_siegel_Z` takes scattered points and forms
    the main sum one term at a time; `sample_critical_line` samples the
    lattice anchor + k step in aligned chunks of 2^16 nodes.  It forms
    Z as a Dirichlet polynomial through `sums.grid_sum` at every q-th
    lattice node of a chunk and takes the rest from those by
    band-limited interpolation: Z is real, and its frequencies stay
    below log sqrt(t / 2 pi).  Only where the coarse nodes would be
    under two steps apart, or would reach down near T_MIN, does it form
    Z at every node.  Either way a sample is taken at its real lattice
    node and depends on it alone.  Its threads own the cores: OpenBLAS
    runs at one thread under them.

Do not route one through the other; agreement between them is itself a
tested claim.
"""

from __future__ import annotations

import collections
import contextlib
import functools
import itertools
import math
import os
import struct
import zlib
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from fractions import Fraction

import mpmath
import numpy as np

from . import _rs_series
from .errors import (
    CacheFormatError,
    ConfigError,
    CoverageError,
    DomainError,
    ResourceError,
)
from .sums import UniformGrid, grid_sum, lattice_node, one_blas_thread

# ZGRD cache layout, little-endian: prefix, header, the float64 moduli,
# and a zlib.crc32 of every byte before it
CACHE_VERSION = 2
_GRID_MAGIC = b"ZGRD"
_PREFIX = struct.Struct("<4sI")       # magic, version
_HEADER = struct.Struct("<IIddQ")     # flags, RS depth, t_start, step, count
_CRC = struct.Struct("<I")
_FLAGS = 1                # bit 0: moduli; set in every grid written

_GRID_CHUNK = 1 << 16     # lattice nodes per sampling chunk; fixed for determinism
_HALO = 32                # taps per side of the band-limited interpolant, and
                          # coarse nodes past each end of an interpolated chunk
_OVERSAMPLE = 3           # coarse nodes per Nyquist spacing of Z's band
_Q_MAX = 256              # widest coarse spacing, in steps: the weights stay 128 kB
_WINDOW_ROWS = 1024       # coarse windows gathered per interpolation product
_READ_BLOCK = 1 << 14     # samples per read of a cache's samples that no window asks for
_EM_MAX_K = 28            # tail-correction orders a pass may add
_EM_TAIL = 5e-13          # the tail bound a pass must meet
_EM_IMAG_MAX = 1.0e5

MAX_CORRECTION_TERMS = 6  # remainder orders shipped in _rs_series
T_MIN = 10.0              # asymptotics below this are not supported
T_MAX = 1.0e8
STEP_MAX = 0.1
_COUNT_MAX = 200_000_000
_NODE_TOL = 1e-6          # steps: a float this near a lattice node names it

# t/2*log(t/(2*pi)) - t/2 - pi/8 + sum c[n] * t^(1-2n); the c[n] are the
# standard phase-asymptotics rationals.
_THETA_C = (1.0 / 48, 7.0 / 5760, 31.0 / 80640, 127.0 / 430080,
            511.0 / 1216512)

# B(2k)/(2k)! for k = 1.._EM_MAX_K + 2, exact rationals rounded once
_B_RATIO = [float(Fraction(*mpmath.bernfrac(2 * k)) / math.factorial(2 * k))
            for k in range(1, _EM_MAX_K + 3)]


def zeta_euler_maclaurin(s: complex) -> complex:
    """Reference zeta value by direct summation with tail corrections,
    on the strip -3 <= Re s <= 100, |Im s| <= 1e5, s not within 1e-6 of
    the pole; DomainError elsewhere.

    One pass at N = max(20, 2|Im s| + 20) terms balances the partial
    sum against the correction tail.  Cost grows linearly with |Im s|;
    intended for spot checks, not grids -- the critical-line evaluator
    owns sweeps.  The tail is cut below 5e-13; the float64 rounding of
    the sum dominates the error, and grows as Re s falls.  Relative
    error against mpmath.zeta at the strip's corners, the worse of
    Im s and -Im s:

        |Im s|:     3        3e3      1e5
        Re s = -3:  5e-10    4e-9     3e-7
        Re s = 1/2: 7e-15    1e-12    3e-11
        Re s = 3:   3e-15    2e-14    6e-13
        Re s = 100: 4e-31    8e-31    2e-31

    The worst of 400 seeded points inside was 2e-8.  Below Re s = -3
    the error grows fast (5e-2 at -8 + 1e5 i, 1e22 at -20 + 1000 i), so
    the strip stops there.
    """
    s = complex(s)
    if abs(s - 1.0) < 1e-6:
        raise DomainError(f"zeta pole at s=1; got s={s}")
    if not (-3.0 <= s.real <= 100.0):
        raise DomainError(f"real part {s.real} outside the reference strip [-3, 100]")
    if abs(s.imag) > _EM_IMAG_MAX:
        raise DomainError(
            f"|Im s| = {abs(s.imag)} beyond the reference route's range; "
            "use the critical-line evaluator for sweeps")
    return _euler_maclaurin(s)


def _euler_maclaurin(s: complex) -> complex:
    """zeta(s) from the partial sum over n < N = max(20, 2|Im s| + 20)
    and tail corrections up to the first whose successor is bounded by
    _EM_TAIL; ResourceError if none is by order _EM_MAX_K."""
    n_terms = max(20, int(2.0 * abs(s.imag)) + 20)
    n = np.arange(1, n_terms, dtype=np.float64)
    nf = float(n_terms)
    val = (complex(np.add.reduce(np.exp(-s * np.log(n))))
           + nf ** (1.0 - s) / (s - 1.0) + 0.5 * nf ** (-s))
    # tail corrections with rising products s(s+1)...(s+2k-2)
    poch = 1.0 + 0.0j
    npow = nf ** (1.0 - s)  # N^(1 - s - 2k + 2) tracked incrementally
    for k in range(1, _EM_MAX_K + 1):
        poch *= (s + (2 * k - 2)) if k > 1 else s
        if k > 1:
            poch *= s + (2 * k - 3)
        npow /= nf * nf
        val += _B_RATIO[k - 1] * poch * npow
        # remainder is bounded by the next term's size scaled by
        # |s + 2k + 1| / (Re s + 2k + 1)
        nxt = abs(_B_RATIO[k] * poch * (s + 2 * k - 1) * (s + 2 * k)
                  * npow / (nf * nf))
        room = s.real + 2 * k + 1
        if room > 0 and nxt * abs(s + 2 * k + 1) / room <= _EM_TAIL:
            return val
    raise ResourceError(f"Euler-Maclaurin tail bound not met at s={s}")


def zeta_one_line(delta: float, sigma_offset: float) -> complex:
    """zeta(1 + sigma_offset + i*delta), the correlation-factor abscissa,
    for |delta| <= T_MAX, the widest shift gap at a supported height.

    Up to |delta| = 1e5 it is the Euler-Maclaurin pass, whose cost grows
    like |delta|.  Above, it is `mpmath.zeta`, 0.03 to 0.05 s a value up
    to 1e8 on a 2-CPU virtual machine; its Riemann-Siegel sum takes about
    sqrt(|delta| / 2 pi) terms past that.  They agree to 1e-9 at 1e5."""
    if not (0.0 < sigma_offset <= 1.0):
        raise DomainError(f"sigma_offset must be in (0, 1], got {sigma_offset}")
    if not math.isfinite(delta):
        raise DomainError(f"delta must be finite, got {delta}")
    if abs(delta) > T_MAX:
        raise DomainError(f"|delta| = {abs(delta)} exceeds {T_MAX:g}")
    s = complex(1.0 + sigma_offset, delta)
    if abs(delta) > _EM_IMAG_MAX:
        return complex(mpmath.zeta(s))
    return _euler_maclaurin(s)


def _theta(t: np.ndarray) -> np.ndarray:
    """Phase function for the critical line at float64 points; the grid
    path's check of t >= T_MIN (an interpolated chunk's halo may pass
    T_MAX, so `riemann_siegel_Z` checks its points' range itself)."""
    if np.any(t < T_MIN):
        raise DomainError(f"critical-line evaluator needs t >= {T_MIN}")
    half = 0.5 * t
    out = half * np.log(t / (2.0 * math.pi)) - half - math.pi / 8.0
    tp = 1.0 / t
    t2 = tp * tp
    corr = np.zeros_like(out)
    power = tp.copy()
    for c in _THETA_C:
        corr += c * power
        power = power * t2
    return out + corr


def _horner(coeffs, y):
    acc = np.full_like(y, coeffs[-1])
    for c in coeffs[-2::-1]:
        acc *= y
        acc += c
    return acc


def _correction_sum(h, x, terms):
    """Remainder correction sum_{j<=terms} C_j(h) * x^j, by Horner in x
    over orders and in h^2 within each: C_j(h) = even(h^2) + h odd(h^2)."""
    h2 = h * h
    acc = np.zeros_like(h)
    for even, odd in reversed(_rs_series.C_SERIES[:terms + 1]):
        acc *= x
        if even:
            acc += _horner(even, h2)
        if odd:
            acc += h * _horner(odd, h2)
    return acc


def _remainder(a, n_cut, correction_terms):
    """The Riemann-Siegel remainder at a = sqrt(t / 2 pi), N = floor(a)."""
    corr = _correction_sum(a - n_cut - 0.5, 1.0 / a, correction_terms)
    sign = np.where(n_cut.astype(np.int64) % 2 == 1, 1.0, -1.0)
    return sign * corr / np.sqrt(a)


def _z_kernel(t: np.ndarray, correction_terms: int) -> np.ndarray:
    """Hardy Z on scattered float64 points (t >= 10), one pass per term."""
    th = _theta(t)
    a = np.sqrt(t / (2.0 * math.pi))
    n_cut = np.floor(a)
    main = np.zeros_like(t)
    for n in range(1, int(n_cut.max()) + 1):
        mask = n_cut >= n
        if not mask.all():
            contrib = np.where(
                mask, np.cos(th - t * math.log(n)) / math.sqrt(n), 0.0)
        else:
            contrib = np.cos(th - t * math.log(n)) / math.sqrt(n)
        main += contrib
    return 2.0 * main + _remainder(a, n_cut, correction_terms)


def _z_on_grid(chunk: UniformGrid, shift: float, lo: int, stop: int,
               correction_terms: int) -> np.ndarray:
    """Hardy Z at the real nodes chunk.start + shift + j step, lo <= j <
    stop, of a sampling chunk or its coarse grid (t >= 10), for a small
    `shift`.

    The main sum is 2 Re(e^(i theta) S) with S = sum_{n <= N(t)}
    n^(-1/2) e^(-i t log n): `grid_sum` forms S at the chunk's nodes
    below `stop` over every n up to the N of its last node, with `shift`
    folded into the amplitudes; each term above N(t) comes off the nodes
    below its jump by a one-term `grid_sum`.  theta is moved from the
    float64 node t to the real node by its slope log sqrt(t / 2 pi); N(t)
    and the remainder (`_remainder`, the scattered path's series) are
    taken at t.
    """
    step = chunk.step
    off = np.arange(lo, stop, dtype=np.float64)    # j, for now
    t = chunk.start + off * step
    split = 134217729.0 * step              # 2^27 + 1: Veltkamp's split
    step_hi = split - (split - step)        # j * step_hi is exact, j < 2^26
    # the real node less t, rounded once: start - t + j step_hi is exact
    off = chunk.start - t + off * step_hi + off * (step - step_hi) + shift
    a = np.sqrt(t / (2.0 * math.pi))
    n_cut = np.floor(a)
    # theta and the remainder first, while fewer arrays are live
    th = _theta(t) + np.log(a) * off
    rem = _remainder(a, n_cut, correction_terms)
    last = chunk.start + (chunk.count - 1) * step
    n = np.arange(1.0, math.floor(math.sqrt(last / (2.0 * math.pi))) + 1.0)
    freqs = np.log(n)
    amp = 1.0 / np.sqrt(n) * np.exp(-1j * shift * freqs)
    s = grid_sum(amp, freqs, chunk, stop)[lo:]
    for m in range(int(n_cut[0]), n.size):
        below = int(np.searchsorted(n_cut, m + 1))   # nodes with N(t) <= m
        s[:below] -= grid_sum(amp[m:m + 1], freqs[m:m + 1], chunk, lo + below)[lo:]
    return 2.0 * (np.cos(th) * s.real - np.sin(th) * s.imag) + rem


def _coarse_factor(anchor: float, step: float, c: int) -> int:
    """q for chunk c of the lattice anchor + k step: Z there comes from
    every q-th lattice node, q steps being a third of the Nyquist spacing
    pi / tau of Z's band tau = log sqrt(t / 2 pi) at the chunk's top.
    0, to sample the chunk directly, when q < 2 or when the _HALO coarse
    nodes below the chunk would dip under 2 T_MIN."""
    top = anchor + ((c + 1) * _GRID_CHUNK - 1) * step
    q = min(math.floor(2.0 * math.pi / (
        _OVERSAMPLE * math.log(top / (2.0 * math.pi)) * step)), _Q_MAX)
    bottom = anchor + (c * _GRID_CHUNK - _HALO * q) * step
    return 0 if q < 2 or bottom < 2.0 * T_MIN else q


@functools.lru_cache(maxsize=16)
def _sinc_weights(q: int) -> np.ndarray:
    """The (2 _HALO, q) weights of the lattice node a q + r on the coarse
    nodes (a - _HALO + 1 + p) q, p < 2 _HALO, which lie x = r/q + _HALO -
    1 - p coarse spacings H below it: sinc(x) exp(-(x H)^2 / (2 sigma^2)),
    sigma^2 = _HALO H / (beta (1 - 1/_OVERSAMPLE)), beta = pi / H, which
    balances the Gaussian's spectral tail past the band against its value
    at the last tap.  Node a q takes its coarse node's value exactly."""
    frac = np.arange(q) / q
    m = np.arange(_HALO - 1, -_HALO - 1, -1)[:, None]
    x = frac + m
    # sin(pi x) = (-1)^m sin(pi r / q), an exact 0 at r = 0
    sin = np.where(m % 2, -1.0, 1.0) * np.sin(np.pi * frac)
    sinc = np.divide(sin, np.pi * x, out=np.ones_like(x), where=x != 0.0)
    weights = sinc * np.exp(
        -x * x * (math.pi * (1.0 - 1.0 / _OVERSAMPLE) / (2.0 * _HALO)))
    weights.flags.writeable = False
    return weights


def _z_interpolated(anchor: float, step: float, c: int, q: int,
                    correction_terms: int) -> np.ndarray:
    """Hardy Z at the 2^16 real nodes of chunk c of the lattice anchor + k
    step, band-limited interpolation from Z at every q-th of them.

    `_z_on_grid` takes Z at the ceil(2^16 / q) + 2 _HALO coarse nodes from
    lattice node c 2^16 - _HALO q, one `UniformGrid` of spacing q step in
    float64, so coarse node i lies within i ulp(q step) of its lattice
    node (under 1e-12 in t).  Row a of fine nodes a q + r is its window of
    2 _HALO coarse nodes times `_sinc_weights(q)`: one real product per
    _WINDOW_ROWS rows, gathered into one reused block.  The chunk is
    always formed whole, so its values depend on the chunk alone.
    """
    rows = -(-_GRID_CHUNK // q)
    count = rows + 2 * _HALO
    start, shift = lattice_node(anchor, step, c * _GRID_CHUNK - _HALO * q)
    coarse = _z_on_grid(UniformGrid(start, q * step, count), shift, 0, count,
                        correction_terms)
    windows = np.lib.stride_tricks.sliding_window_view(coarse[1:], 2 * _HALO)
    weights = _sinc_weights(q)
    out = np.empty((rows, q))
    block = np.empty((min(rows, _WINDOW_ROWS), 2 * _HALO))
    for a in range(0, rows, _WINDOW_ROWS):
        n = min(_WINDOW_ROWS, rows - a)
        np.copyto(block[:n], windows[a:a + n])
        np.matmul(block[:n], weights, out=out[a:a + n])
    return out.ravel()[:_GRID_CHUNK]


def _check_depth(correction_terms) -> None:
    if not isinstance(correction_terms, int) or isinstance(correction_terms, bool):
        raise ConfigError("correction_terms must be an int")
    if not (0 <= correction_terms <= MAX_CORRECTION_TERMS):
        raise ConfigError(
            f"correction_terms must be in 0..{MAX_CORRECTION_TERMS}")


def riemann_siegel_Z(t, correction_terms: int):
    """Hardy Z(t): real, with |Z(t)| = |zeta(1/2 + it)|; DomainError for
    a point that is not finite or lies outside [T_MIN, T_MAX].

    `correction_terms` = R selects the remainder depth (0..6); the
    absolute error behaves like c * t^(-(2R+3)/4).  Constants measured
    against a high-precision reference on 10 <= t <= 2000:

        R:  0      1      2      3      4
        c:  0.12   0.056  0.015  0.031  0.015

    For R = 5, 6 the measured max errors are 8.9e-8 and 5.2e-8 on
    [20, 1e4] (the asymptotic constant is masked by double-precision
    rounding there).  Depth 6 is the cap; beyond it the fitted
    remainder tables stop improving.

    A second term grows with t and does not shrink with R: theta(t)
    and the phases t log n are formed in float64, and their rounding,
    about t * 1e-16 rad, passes into Z.  Against mpmath.siegelz at the
    float64 node, the worst of 20 nodes drawn from [t, 2t] was 3.1e-8
    at t = 1e6 and 3.8e-6 at t = 1e8, at depths 2 and 4 alike; another
    20 nodes gave 4.5e-9 and 9.3e-7.

    These points are scattered: the main sum takes one pass per term.
    The grid path of `sample_critical_line` forms theta and the
    remainder as here, so it carries the same two terms, at the real
    lattice node.  Wherever its halo fits it forms Z so only at every
    q-th node and interpolates the rest, a third term of about 3e-15
    times the main sum's size, below the rounding.  Its docstring has
    their size.
    """
    _check_depth(correction_terms)
    arr = np.asarray(t, dtype=np.float64)
    if not np.all((arr >= T_MIN) & (arr <= T_MAX)):     # also nan
        raise DomainError(
            f"critical-line evaluator needs finite {T_MIN} <= t <= {T_MAX}")
    scalar = arr.ndim == 0
    out = _z_kernel(np.atleast_1d(arr), correction_terms)
    return float(out[0]) if scalar else out


@dataclass
class ZetaGrid:
    """|Z| at depth `correction_terms` on the real lattice nodes t_0 +
    k step, t_start being t_0's float64 rounding; t_at(k) is within an
    ulp of node k when t_0 = t_start (the window starts on its anchor),
    and within two otherwise."""

    t_start: float
    step: float
    values: np.ndarray
    correction_terms: int

    @property
    def count(self) -> int:
        return int(self.values.size)

    @property
    def t_stop(self) -> float:
        return self.t_at(self.count - 1)

    def t_at(self, index: int) -> float:
        return self.t_start + index * self.step

    def window(self, lo: int, hi: int) -> np.ndarray:
        """Samples lo..hi-1."""
        return self.values[lo:hi]

    def index_of(self, t: float) -> int:
        """Index of the grid node that t names (`lattice_bracket`)."""
        k, hi = lattice_bracket((t - self.t_start) / self.step)
        if k != hi or not 0 <= k < self.count:
            raise CoverageError(f"t={t} is not a node of the sample grid "
                                f"[{self.t_start}, {self.t_stop}]")
        return k


def lattice_bracket(x: float) -> tuple[int, int]:
    """(k, k) when x, a float position in steps from a lattice origin,
    names node k = round(x), |x - k| <= 1e-6; else (floor x, ceil x).
    Within the sample cap, float64 puts a node's x off by under 3e-8."""
    k = round(x)
    if abs(x - k) <= _NODE_TOL:
        return k, k
    return math.floor(x), math.ceil(x)


def grid_count(t_start: float, t_stop: float, step: float) -> int:
    """Nodes t_start + k * step up to t_stop (`lattice_bracket`'s rule).
    ResourceError when they would exceed the sample cap, or when their
    count overflows."""
    steps = (t_stop - t_start) / step
    if not steps < _COUNT_MAX:        # also inf and nan
        raise ResourceError(
            f"grid of {steps:.6g} steps exceeds cap {_COUNT_MAX} samples")
    return lattice_bracket(steps)[0] + 1


def sample_critical_line(
    t_start: float,
    t_stop: float,
    step: float,
    *,
    anchor: float | None = None,
    correction_terms: int,
    workers: int = 1,
) -> ZetaGrid:
    """Sample |zeta| at the nodes anchor + k step (k of either sign) of
    the lattice from `anchor` (default t_start) in [t_start, t_stop] by
    `lattice_bracket`'s rule.  Chunk c, the nodes c 2^16 <= k < (c + 1) 2^16, is
    always formed whole, from its own grid and however much of it the
    window uses, so a sample depends only on the anchor, step, depth and
    k.  Up to `workers` threads fill the chunks in place, at most
    workers + 1 at a time (`_sampler`), and OpenBLAS runs at one thread
    while they do (`sums.one_blas_thread`; the count before is restored,
    also when a chunk raises).

    A sample is |Z| at the real node anchor + k step.  `_coarse_factor`
    picks one of two ways for chunk c, from the anchor, step, depth and
    c alone:

      * band-limited interpolation (`_z_interpolated`).  Z is real and
        its frequencies stay within tau = log sqrt(t / 2 pi), so its
        values at every q-th lattice node, q step a third of the Nyquist
        spacing pi / tau at the chunk's top, fix it: each node is a
        Gaussian-windowed sinc over its 64 nearest coarse nodes, whose
        truncation and aliasing are each about exp(-32 pi / 3) = 3e-15
        of the sum's size.  Taken when q >= 2 and the 32 coarse nodes
        below the chunk stay above 2 T_MIN, at every depth: where N(t)
        steps, the interpolant meets the series' step as closely as the
        direct way does (`test_interpolated_chunks_against_siegelz`
        audits the nodes where the two ways differ most).
      * direct: the chunk's Dirichlet polynomial at every node, for a
        step above pi / (6 tau) (0.063 near T_MAX) or a chunk within
        about 32 q steps of 2 T_MIN.

    Both form Z at their nodes through `_z_on_grid`: the grid's start is
    formed exactly and its rounding folded into the main sum's
    amplitudes, theta moves to the node to first order, and the
    remainder is the RS series at each node.  The error is
    `riemann_siegel_Z`'s float64 phase rounding, and the two ways differ
    by about that much.  At depth 4 and step 0.005, over three seeded
    sets of 22 nodes of the first two chunks (20 drawn, chunk 0's last,
    chunk 1's first), the worst |value - mpmath.siegelz(node)| was, with
    the direct way's on the same nodes:

        T:             2e4      1e5      1e6     1e7     9.99e7
        interpolated:  8.2e-11  4.4e-10  8.1e-9  1.4e-7  9.9e-7
        direct:        2.1e-10  7.9e-10  1.6e-8  1.7e-7  2.0e-6
    """
    t_first, count, chunks = _sampler(t_start, t_stop, step, anchor,
                                      correction_terms, workers)
    values = np.empty(count, dtype=np.float64)
    for _ in chunks(values):        # each chunk lands in `values`
        pass
    return ZetaGrid(t_first, float(step), values, correction_terms)


def _sampler(t_start, t_stop, step, anchor, correction_terms, workers) -> tuple:
    """(t_first, count, chunks) of `sample_critical_line`'s window, its
    arguments checked: the generator `chunks(out=None)` yields |Z| on the
    window's nodes, one array per lattice chunk the window meets, in
    order, each in its place in `out` when given.  Up to `workers`
    threads form them, at most workers + 1 chunks ahead of the consumer,
    under `one_blas_thread` from the first chunk asked for until the
    generator finishes, is closed or raises."""
    if not (T_MIN <= t_start <= t_stop <= T_MAX):
        raise DomainError(
            f"need {T_MIN} <= t_start <= t_stop <= {T_MAX}, "
            f"got [{t_start}, {t_stop}]")
    if not (0.0 < step <= STEP_MAX):
        raise DomainError(f"step must be in (0, {STEP_MAX}]")
    if not isinstance(workers, int) or isinstance(workers, bool) or workers < 1:
        raise ConfigError(f"workers must be a positive int, got {workers}")
    anchor = t_start if anchor is None else anchor
    first = lattice_bracket((t_start - anchor) / step)[1]
    t_first = lattice_node(anchor, step, first)[0]
    count = grid_count(t_first, t_stop, step)
    if count < 1:
        raise DomainError(f"no lattice node from {anchor} in [{t_start}, {t_stop}]")
    _check_depth(correction_terms)

    def chunk(c: int, out) -> np.ndarray:
        k0 = c * _GRID_CHUNK - first      # the chunk's node 0 in the window
        lo, stop = max(-k0, 0), min(count - k0, _GRID_CHUNK)
        q = _coarse_factor(anchor, step, c)
        if q:
            z = _z_interpolated(anchor, step, c, q, correction_terms)[lo:stop]
        else:
            start, shift = lattice_node(anchor, step, c * _GRID_CHUNK)
            z = _z_on_grid(UniformGrid(start, step, _GRID_CHUNK), shift, lo,
                           stop, correction_terms)
        return np.abs(z, out=z if out is None else out[k0 + lo:k0 + stop])

    def chunks(out=None):
        cs = range(first // _GRID_CHUNK, (first + count - 1) // _GRID_CHUNK + 1)
        with one_blas_thread(), ThreadPoolExecutor(
                max_workers=min(workers, len(cs))) as pool:
            todo = iter(cs)
            ahead = collections.deque(
                pool.submit(chunk, c, out) for c in itertools.islice(todo, workers + 1))
            try:
                while ahead:
                    z = ahead.popleft().result()      # re-raises a chunk's error
                    ahead.extend(pool.submit(chunk, c, out)
                                 for c in itertools.islice(todo, 1))
                    yield z
            finally:
                for future in ahead:
                    future.cancel()

    return t_first, count, chunks


def sample_cache(t_start: float, t_stop: float, step: float, *,
                 correction_terms: int, workers: int = 1) -> tuple:
    """(count, parts): `sample_critical_line`'s grid of [t_start, t_stop]
    as a `ZGRD` cache file, in parts to write in order.  The arguments
    are checked now; the grid is sampled as the parts are taken: the
    header, each chunk's moduli as `_sampler` yields it, and the
    checksum folded over them.  No part holds more than a chunk, and
    closing `parts` stops the sampling."""
    t_first, count, chunks = _sampler(t_start, t_stop, step, None,
                                      correction_terms, workers)
    head = _PREFIX.pack(_GRID_MAGIC, CACHE_VERSION) + _HEADER.pack(
        _FLAGS, correction_terms, t_first, float(step), count)

    def parts():
        with contextlib.closing(chunks()) as blocks:
            crc = zlib.crc32(head)
            yield head
            for z in blocks:
                data = np.ascontiguousarray(z, dtype="<f8")
                crc = zlib.crc32(data, crc)
                yield data
            yield _CRC.pack(crc)

    return count, parts()


class CacheGrid(ZetaGrid):
    """The grid of an open `ZGRD` file, made by `cache_read`, which
    checks its 40-byte head first.  Its samples come through one forward
    reader, which folds the checksum over every byte it reads:

      * `window(lo, hi)`: samples lo..hi-1, read-only, valid until the
        next call.  Unread samples below lo are read _READ_BLOCK at a
        time and dropped, and a call that reads may drop the samples
        below its lo, so no later window may start below that.
      * `values`: every sample, read now unless held, and the checksum
        compared.
      * `check()`: reads the samples not yet read, _READ_BLOCK at a
        time, and compares the checksum.

    A file that ends early or fails its checksum is a CacheFormatError,
    one that cannot be read a ConfigError.  As a context manager it
    closes the file."""

    def __init__(self, path, fh):
        self._path, self._fh = path, fh
        head = bytearray(_PREFIX.size + _HEADER.size)
        head = bytes(head[:self._take(head)])
        if len(head) < _PREFIX.size or head[:4] != _GRID_MAGIC:
            raise CacheFormatError(f"{path}: not a ZGRD cache")
        version = _PREFIX.unpack_from(head)[1]
        if version != CACHE_VERSION:
            raise CacheFormatError(f"{path}: unsupported version {version}")
        if len(head) < _PREFIX.size + _HEADER.size:
            raise CacheFormatError(f"{path}: truncated header")
        flags, terms, t_start, step, count = _HEADER.unpack_from(head, _PREFIX.size)
        if flags != _FLAGS:
            raise CacheFormatError(
                f"{path}: flags {flags}, not {_FLAGS}: complex grids and other "
                "non-modulus grids are not read; sample the grid again")
        length = os.fstat(fh.fileno()).st_size - len(head) - _CRC.size
        if length != 8 * count:
            raise CacheFormatError(f"{path}: payload length {length} != 8 * {count}")
        if step <= 0 or not math.isfinite(t_start) or not math.isfinite(step):
            raise CacheFormatError(f"{path}: bad grid geometry")
        if terms > MAX_CORRECTION_TERMS:
            raise CacheFormatError(f"{path}: RS depth {terms} above {MAX_CORRECTION_TERMS}")
        self.t_start, self.step, self.correction_terms = t_start, step, terms
        self._count, self._crc, self._checked = count, zlib.crc32(head), False
        self._buf = np.empty(0, dtype="<f8")
        self._base = self._end = 0     # _buf[0] is sample _base; _end are read

    __repr__ = object.__repr__      # the dataclass's would read every sample

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._fh.close()
        return False

    @property
    def count(self) -> int:
        return self._count

    @property
    def values(self) -> np.ndarray:
        out = self.window(0, self._count)
        self.check()
        return out

    def window(self, lo: int, hi: int) -> np.ndarray:
        if lo < self._base:
            raise ValueError(f"samples below {self._base} are dropped")
        for k in range(self._end, lo, _READ_BLOCK):     # read, then dropped
            self.window(k, min(k + _READ_BLOCK, lo))
        if hi > self._end:
            if hi - self._base > self._buf.size:
                # move what is held of [lo, hi) to the front of a buffer
                # with room for twice the window, up to the grid's end
                held = self._buf[lo - self._base:self._end - self._base]
                room = min(2 * (hi - lo), self._count - lo)
                buf = self._buf if room <= self._buf.size else np.empty(room, "<f8")
                buf[:held.size] = held
                self._buf, self._base = buf, lo
            self._read(self._buf[self._end - self._base:hi - self._base])
            self._end = hi
        out = self._buf[lo - self._base:hi - self._base]
        out.flags.writeable = False
        return out

    def check(self) -> None:
        if self._checked:
            return
        for k in range(self._end, self._count, _READ_BLOCK):
            self.window(k, min(k + _READ_BLOCK, self._count))
        tail = bytearray(_CRC.size)
        if tail[:self._take(tail)] != _CRC.pack(self._crc):
            raise CacheFormatError(f"{self._path}: checksum mismatch")
        self._checked = True

    def _read(self, out: np.ndarray) -> None:
        if self._take(memoryview(out).cast("B")) != out.nbytes:
            raise CacheFormatError(f"{self._path}: file ends before sample "
                                   f"{self._count} of its head")
        self._crc = zlib.crc32(out, self._crc)

    def _take(self, out) -> int:
        try:
            return self._fh.readinto(out)
        except OSError as exc:
            raise ConfigError(f"cannot read cache {self._path}: {exc}") from exc


def cache_read(path) -> CacheGrid:
    """The grid of a `ZGRD` cache file.  Its head's magic, version and
    flags, the file's size against the head's sample count, the geometry
    and the RS depth are checked before any sample is read; the samples
    and the checksum come later, through the `CacheGrid`."""
    try:
        fh = open(path, "rb")
    except OSError as exc:      # a missing file or a directory, say
        raise ConfigError(f"cannot read cache {path}: {exc}") from exc
    try:
        return CacheGrid(path, fh)
    except BaseException:
        fh.close()
        raise
