"""Deterministic summation and the Dirichlet-polynomial grid kernel.

Accumulation order is part of this package's output contract: reports
must be byte-identical across thread counts.  Callers reduce with numpy
pairwise sums or BLAS products inside fixed-size chunks and merge the
chunk totals in index order through `KahanAccumulator`, so the result
depends only on the data, never on scheduling.

`grid_sum` evaluates sum_n a_n exp(-i t lambda_n) at the nodes of a
`UniformGrid`, node k being the real number start + k step, not its
float64 rounding.  Node k lies in row r at column j, k = r K + j, and a
block of rows starts at its first node t_b, formed exactly as a float64
pair hi + lo, so exp(-i t lambda) = exp(-i hi lambda) exp(-i lo lambda)
exp(-i r K step lambda) exp(-i j step lambda).  The last factor depends
only on the column, so one twiddle matrix serves every row, and a block
of rows is one complex matrix product (rows x N) . (N x K): the
simplest form of the Odlyzko-Schonhage scheme.  Row and column factors
are powers of one phase per term, built from one exponential per power
of two and products of those, so a block of rows takes N (2 + log2
rows) exponentials, and the twiddles N log2 K, instead of one per node
and term.  The row width K is the power of two at or above the square
root of the grid's node count, at most _ROW.  Terms are cut into blocks
of _TERMS and rows into blocks of _ROWS at fixed boundaries from node
0.  Each term block's twiddles are built once for every row block, and
each row block merges its term blocks in order with its own
`KahanAccumulator`, so each value depends only on the grid, its node
and the terms, never on a thread count or on where the sum stops, and
no temporary exceeds 8 MB.

`one_blas_thread` runs OpenBLAS at one thread for a caller that runs
these products on threads of its own, such as the critical-line
sampler: OpenBLAS's helper threads would otherwise compete with that
caller's threads for the same cores.
"""

from __future__ import annotations

import contextlib
import ctypes
import importlib
import threading
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

_ROW = 256        # widest row; a sampling chunk of 2^16 nodes has 256 rows
_TERMS = 2048     # terms per block: the twiddles are at most 8 MB
_ROWS = 256       # rows per product: the base phases are at most 8 MB


class KahanAccumulator:
    """Compensated accumulator; works for float, complex and numpy arrays."""

    __slots__ = ("total", "_c")

    def __init__(self, zero=0.0):
        self.total = zero
        self._c = zero * 0

    def add(self, x):
        y = x - self._c
        t = self.total + y
        self._c = (t - self.total) - y
        self.total = t


@dataclass(frozen=True)
class UniformGrid:
    """The nodes start + k * step for k = 0 .. count - 1."""

    start: float
    step: float
    count: int

    @property
    def size(self) -> int:
        return self.count

    def nodes(self) -> np.ndarray:
        return self.start + np.arange(self.count, dtype=np.float64) * self.step


def _row_width(nodes: int) -> int:
    """Nodes per row of `grid_sum` on a grid of `nodes` nodes."""
    return min(_ROW, 1 << ((nodes - 1).bit_length() + 1) // 2)


def _powers(lam, inc, count):
    """exp(-i j inc lam[n]) at [j, n] for j < count: one exponential for
    each power of two below count, and products of those for the rest."""
    out = np.empty((count, lam.size), dtype=np.complex128)
    out[0] = 1.0
    m = 1
    while m < count:
        k = min(m, count - m)
        np.multiply(out[:k], np.exp(-1j * (m * inc) * lam), out=out[m:m + k])
        m *= 2
    return out


def lattice_node(start: float, step: float, k: int) -> tuple[float, float]:
    """start + k step exactly, as hi + lo with hi its float64 rounding."""
    node = Fraction(start) + k * Fraction(step)
    return float(node), float(node - Fraction(float(node)))


def grid_sum(amp, freqs, grid: UniformGrid, stop: int | None = None) -> np.ndarray:
    """out[k] = sum_n amp[n] * exp(-i * t_k * freqs[n]) at the real
    nodes t_k = start + k * step, 0 <= k < stop, of `grid`: the whole
    grid's sum cut at `stop`, bit for bit; `amp` may be complex.

    A block of rows starts at its first real node t_b = hi + lo, formed
    exactly, and row r and column j stand for t_b + (r K + j) step, with
    no float64 node in between.
    """
    count = grid.count if stop is None else stop
    width = _row_width(grid.count)
    # one row past `stop` where the grid has it, so a block of one row is
    # the grid's own: numpy sends it to gemv, which rounds unlike gemm
    rows = min(-(-count // width) + 1, -(-grid.count // width))
    # zero terms to a multiple of 16, a divisor of _TERMS: OpenBLAS's
    # threaded and serial drivers split other inner sizes at other points
    pad = (0, -len(freqs) % 16)
    freqs, amp = np.pad(np.asarray(freqs, dtype=np.float64), pad), np.pad(amp, pad)
    out = np.zeros((rows, width), dtype=np.complex128)
    blocks = [(out[r:r + _ROWS], *lattice_node(grid.start, grid.step, r * width))
              for r in range(0, rows, _ROWS)]
    accs = []       # one per row block, from the second term block on
    for n in range(0, freqs.size, _TERMS):
        # the first term block writes in place; later ones are merged
        lam, a = freqs[n:n + _TERMS], amp[n:n + _TERMS]
        twiddle = _powers(lam, grid.step, width).T
        for b, (value, hi, lo) in enumerate(blocks):
            base = _powers(lam, width * grid.step, len(value))
            base *= np.exp(-1j * hi * lam) * np.exp(-1j * lo * lam) * a
            part = np.matmul(base, twiddle, out=None if n else value)
            if n:
                if b == len(accs):
                    accs.append(KahanAccumulator(value))
                accs[b].add(part)
    for (value, _, _), acc in zip(blocks, accs):
        value[...] = acc.total
    return out.ravel()[:count]


def _openblas_threads():
    """The (get, set) pair of numpy's OpenBLAS thread count, or None.

    numpy's own extension is opened, and dlsym on its handle searches
    the libraries it links, so no wheel path is looked up.
    """
    for module in ("numpy._core._multiarray_umath", "numpy.core._multiarray_umath"):
        try:
            lib = ctypes.CDLL(importlib.import_module(module).__file__)
        except (ImportError, OSError):   # no such module, or a Python shim
            continue
        for prefix in ("openblas", "scipy_openblas"):
            for suffix in ("", "64_"):
                get, put = (getattr(lib, f"{prefix}_{op}_num_threads{suffix}", None)
                            for op in ("get", "set"))
                if get is not None and put is not None:
                    get.argtypes, get.restype = [], ctypes.c_int
                    put.argtypes, put.restype = [ctypes.c_int], None
                    return get, put
        return None
    return None


_OPENBLAS = _openblas_threads()
# the thread count is the process's, so its users are counted process-wide
_blas_lock = threading.Lock()
_blas_users = 0        # the callers inside `one_blas_thread`
_blas_saved = 0        # the thread count before the first of them


@contextlib.contextmanager
def one_blas_thread():
    """OpenBLAS at one thread inside the block, where OpenBLAS is found.

    Nested and concurrent blocks are counted under one lock: the first
    to enter saves the thread count and sets one, and the last to exit,
    also by an exception, puts the saved count back.
    """
    global _blas_users, _blas_saved
    if _OPENBLAS is None:
        yield
        return
    get, put = _OPENBLAS
    with _blas_lock:
        if _blas_users == 0:
            _blas_saved = get()
            put(1)
        _blas_users += 1
    try:
        yield
    finally:
        with _blas_lock:
            _blas_users -= 1
            if _blas_users == 0:
                put(_blas_saved)
