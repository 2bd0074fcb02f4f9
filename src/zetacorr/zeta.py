"""Zeta evaluation: truncated-series reference values, the fast
real-valued evaluator on the critical line, grid sampling of |zeta|,
and the `ZGRD` cache of such a grid, which records its Riemann-Siegel
depth.

Two independent routes are deliberately kept separate:

  * `zeta_euler_maclaurin` sums n^(-s) directly with tail corrections
    in one pass; it is slow but works off the critical line, on the
    strip -3 <= Re s <= 100, |Im s| <= 1e5 (relative error at most
    3e-7 at its corners; its docstring has the table), and serves as
    the cross-check reference.  `zeta_one_line` runs the same pass.
  * the Riemann-Siegel form, main sum plus remainder, specific to the
    critical line.  It has two paths that share theta and the
    remainder.  `riemann_siegel_Z` takes scattered points and forms
    the main sum one term at a time; `sample_critical_line` samples the
    lattice anchor + k step in aligned chunks of 2^16 nodes and forms
    it as a Dirichlet polynomial per chunk through `sums.grid_sum`, so
    a sample is taken at its real lattice node and depends on it alone.
    Its threads own the cores: OpenBLAS runs at one thread under them.

Do not route one through the other; agreement between them is itself a
tested claim.
"""

from __future__ import annotations

import math
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
from .sums import KahanAccumulator, UniformGrid, grid_sum, lattice_node, one_blas_thread

# ZGRD cache layout, little-endian: prefix, header, the float64 moduli,
# and a zlib.crc32 of every byte before it
CACHE_VERSION = 2
_GRID_MAGIC = b"ZGRD"
_PREFIX = struct.Struct("<4sI")       # magic, version
_HEADER = struct.Struct("<IIddQ")     # flags, RS depth, t_start, step, count
_CRC = struct.Struct("<I")
_FLAGS = 1                # bit 0: moduli; set in every grid written

_GRID_CHUNK = 1 << 16     # lattice nodes per sampling chunk; fixed for determinism
_EM_CHUNK = 1 << 20       # partial-sum block for the reference evaluator
_EM_MAX_K = 28            # tail-correction orders a pass may add
_EM_TAIL = 5e-13          # the tail bound a pass must meet
_EM_IMAG_MAX = 1.0e5

MAX_CORRECTION_TERMS = 6  # remainder orders shipped in _rs_series
T_MIN = 10.0              # asymptotics below this are not supported
T_MAX = 1.0e8
STEP_MAX = 0.1
_COUNT_MAX = 200_000_000
_NODE_TOL = 1e-6          # index_of's tolerance, in steps

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
    acc = KahanAccumulator(0.0 + 0.0j)
    for lo in range(1, n_terms, _EM_CHUNK):
        n = np.arange(lo, min(lo + _EM_CHUNK, n_terms), dtype=np.float64)
        acc.add(complex(np.add.reduce(np.exp(-s * np.log(n)))))
    nf = float(n_terms)
    val = acc.total + nf ** (1.0 - s) / (s - 1.0) + 0.5 * nf ** (-s)
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
    """zeta(1 + sigma_offset + i*delta), the correlation-factor abscissa."""
    if not (0.0 < sigma_offset <= 1.0):
        raise DomainError(f"sigma_offset must be in (0, 1], got {sigma_offset}")
    if abs(delta) > 1.0e7:
        raise DomainError(f"|delta| = {abs(delta)} exceeds 1e7")
    # wider imaginary range than the reference wrapper: on the 1-line
    # the tail corrections stay benign, so the direct core is safe
    return _euler_maclaurin(complex(1.0 + sigma_offset, delta))


def _theta(t: np.ndarray) -> np.ndarray:
    """Phase function for the critical line at float64 points; the one
    check of t >= T_MIN on the points of both Z paths."""
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
    stop, of a sampling chunk (t >= 10), for a small `shift`.

    The main sum is 2 Re(e^(i theta) S) with S = sum_{n <= N(t)}
    n^(-1/2) e^(-i t log n): `grid_sum` forms S at the chunk's nodes
    below `stop` over every n up to the N of its last node, with `shift`
    folded into the amplitudes, and the terms above N(t) come off each
    node.  theta is moved from the float64 node t to the real node by
    its slope log sqrt(t / 2 pi); N(t) and the remainder are taken at t.
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
    amp, freqs = 1.0 / np.sqrt(n), np.log(n)
    s = grid_sum(amp * np.exp(-1j * shift * freqs), freqs, chunk, stop)[lo:]
    for m in range(int(n_cut[0]), n.size):
        below = int(np.searchsorted(n_cut, m + 1))   # nodes with N(t) <= m
        phase = t[:below] * freqs[m] + off[:below] * freqs[m]
        s[:below] -= amp[m] * np.exp(-1j * phase)
    return 2.0 * (np.cos(th) * s.real - np.sin(th) * s.imag) + rem


def _check_depth(correction_terms) -> None:
    if not isinstance(correction_terms, int) or isinstance(correction_terms, bool):
        raise ConfigError("correction_terms must be an int")
    if not (0 <= correction_terms <= MAX_CORRECTION_TERMS):
        raise ConfigError(
            f"correction_terms must be in 0..{MAX_CORRECTION_TERMS}")


def riemann_siegel_Z(t, correction_terms: int):
    """Hardy Z(t): real, with |Z(t)| = |zeta(1/2 + it)|.

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
    The grid path of `sample_critical_line` carries the same two terms,
    at the real lattice node; its docstring has their size.
    """
    _check_depth(correction_terms)
    arr = np.asarray(t, dtype=np.float64)
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
        return self.t_start + (self.count - 1) * self.step

    def t_at(self, index: int) -> float:
        return self.t_start + index * self.step

    def index_of(self, t: float) -> int:
        """Index of the grid node at t; t must lie on the grid."""
        k = round((t - self.t_start) / self.step)
        if k < 0 or k >= self.count:
            raise CoverageError(
                f"t={t} outside grid [{self.t_start}, {self.t_stop}]")
        if abs(self.t_at(k) - t) > _NODE_TOL * self.step:
            raise CoverageError(f"t={t} is not a node of the sample grid")
        return int(k)


def grid_count(t_start: float, t_stop: float, step: float) -> int:
    """Nodes t_start + k * step up to t_stop (+ tiny slack so an exact
    multiple is kept).  ResourceError when they would exceed the sample
    cap, or when their count overflows."""
    steps = (t_stop - t_start) / step + 1e-9
    if not steps < _COUNT_MAX:        # also inf and nan
        raise ResourceError(
            f"grid of {steps:.6g} steps exceeds cap {_COUNT_MAX} samples")
    return int(math.floor(steps)) + 1


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
    the lattice from `anchor` (default t_start) in [t_start, t_stop], with
    a tiny slack.  Chunk c, the nodes c 2^16 <= k < (c + 1) 2^16, is one
    `UniformGrid` from anchor + c 2^16 step whose main sum runs up to the
    N of its last node however much of it the window uses, so a sample
    depends only on the anchor, step, depth and k.  Up to `workers`
    threads (numpy and BLAS release the GIL) fill the chunks in place,
    and OpenBLAS runs at one thread while they do (`sums.one_blas_thread`;
    the count before is restored, also when a chunk raises), so
    `workers` threads use `workers` cores.

    A sample is |Z| at the real node anchor + k step: a chunk's start is
    formed exactly, its rounding folded into the main sum's amplitudes,
    and theta moved to the node to first order.  The error is
    `riemann_siegel_Z`'s float64 phase rounding; at depth 4 and step
    0.005, the worst |value - mpmath.siegelz(node)| over 22 nodes of the
    first two chunks (20 seeded, chunk 0's last, chunk 1's first) was:

        T:      2e4      1e5      1e6     1e7     9.99e7
        error:  1.1e-10  7.9e-10  1.6e-8  8.3e-8  6.1e-7
    """
    if not (T_MIN <= t_start <= t_stop <= T_MAX):
        raise DomainError(
            f"need {T_MIN} <= t_start <= t_stop <= {T_MAX}, "
            f"got [{t_start}, {t_stop}]")
    if not (0.0 < step <= STEP_MAX):
        raise DomainError(f"step must be in (0, {STEP_MAX}]")
    if not (isinstance(workers, int) and workers >= 1):
        raise ConfigError(f"workers must be a positive int, got {workers}")
    anchor = t_start if anchor is None else anchor
    first = math.ceil((t_start - anchor) / step - 1e-9)
    t_first = lattice_node(anchor, step, first)[0]
    count = grid_count(t_first, t_stop, step)
    if count < 1:
        raise DomainError(f"no lattice node from {anchor} in [{t_start}, {t_stop}]")
    _check_depth(correction_terms)
    values = np.empty(count, dtype=np.float64)

    def fill(c: int) -> None:
        k0 = c * _GRID_CHUNK - first      # the chunk's node 0 in `values`
        lo, stop = max(-k0, 0), min(count - k0, _GRID_CHUNK)
        start, shift = lattice_node(anchor, step, c * _GRID_CHUNK)
        values[k0 + lo:k0 + stop] = np.abs(_z_on_grid(
            UniformGrid(start, step, _GRID_CHUNK), shift, lo, stop,
            correction_terms))

    chunks = range(first // _GRID_CHUNK, (first + count - 1) // _GRID_CHUNK + 1)
    with one_blas_thread(), ThreadPoolExecutor(
            max_workers=min(workers, len(chunks))) as pool:
        list(pool.map(fill, chunks))      # list() re-raises a task's error
    return ZetaGrid(t_first, float(step), values, correction_terms)


def cache_bytes(grid: ZetaGrid) -> bytes:
    """The grid as a `ZGRD` cache file."""
    head = _PREFIX.pack(_GRID_MAGIC, CACHE_VERSION) + _HEADER.pack(
        _FLAGS, grid.correction_terms, grid.t_start, grid.step, grid.count)
    data = np.ascontiguousarray(grid.values, dtype="<f8")
    return b"".join((head, data, _CRC.pack(zlib.crc32(data, zlib.crc32(head)))))


def cache_read(path) -> ZetaGrid:
    """A grid from a `ZGRD` cache file (a filename or a binary file
    object).  Checks the magic, the version, the flags, the sample
    length and the checksum, in that order, then the geometry and the
    RS depth."""
    if hasattr(path, "read"):
        blob = path.read()
    else:
        try:
            with open(path, "rb") as fh:
                blob = fh.read()
        except OSError as exc:      # a missing file or a directory, say
            raise ConfigError(f"cannot read cache {path}: {exc}") from exc
    if len(blob) < _PREFIX.size or blob[:4] != _GRID_MAGIC:
        raise CacheFormatError(f"{path}: not a ZGRD cache")
    version = _PREFIX.unpack_from(blob)[1]
    if version != CACHE_VERSION:
        raise CacheFormatError(f"{path}: unsupported version {version}")
    head = _PREFIX.size + _HEADER.size
    if len(blob) < head + _CRC.size:
        raise CacheFormatError(f"{path}: truncated header")
    flags, terms, t_start, step, count = _HEADER.unpack_from(blob, _PREFIX.size)
    if flags != _FLAGS:
        raise CacheFormatError(
            f"{path}: flags {flags}, not {_FLAGS}: complex grids and other "
            "non-modulus grids are not read; sample the grid again")
    length = len(blob) - head - _CRC.size
    if length != 8 * count:
        raise CacheFormatError(f"{path}: payload length {length} != 8 * {count}")
    (crc,) = _CRC.unpack_from(blob, head + length)
    if zlib.crc32(memoryview(blob)[:-_CRC.size]) != crc:
        raise CacheFormatError(f"{path}: checksum mismatch")
    if step <= 0 or not math.isfinite(t_start) or not math.isfinite(step):
        raise CacheFormatError(f"{path}: bad grid geometry")
    if terms > MAX_CORRECTION_TERMS:
        raise CacheFormatError(f"{path}: RS depth {terms} above {MAX_CORRECTION_TERMS}")
    values = np.frombuffer(blob, dtype="<f8", count=count, offset=head)
    return ZetaGrid(t_start=t_start, step=step, values=values,
                    correction_terms=terms)
