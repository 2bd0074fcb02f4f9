"""Deterministic summation and the Dirichlet-polynomial grid kernel.

Accumulation order is part of this package's output contract: reports
must be byte-identical across thread counts.  Callers reduce with numpy
pairwise sums or BLAS products inside fixed-size chunks and merge the
chunk totals in index order through `KahanAccumulator`, so the result
depends only on the data, never on scheduling.

`grid_sum` evaluates sum_n a_n exp(-i t lambda_n) at the nodes of a
`UniformGrid`.  A block of rows starts at its first node t_b, and node
t_b + (r K + j) step lies in row r at column j, so
exp(-i t lambda) = exp(-i t_b lambda) exp(-i r K step lambda)
exp(-i j step lambda).  The last factor depends only on the column, so
one twiddle matrix serves every row, and a block of rows is one complex
matrix product (rows x N) . (N x K): the simplest form of the
Odlyzko-Schonhage scheme.  Row and column factors are powers of one
phase per term, built from one exponential per power of two and
products of those, so a block takes N (1 + log2 rows + log2 K)
exponentials instead of one per node and term.  The row width K is the
power of two at or above the square root of the node count, at most
_ROW.  Terms are cut into blocks of _TERMS and rows into blocks of
_ROWS at fixed boundaries, and the term blocks are merged in order with
`KahanAccumulator`, so each value depends only on the grid and the
terms, never on a thread count, and no temporary exceeds 8 MB.
"""

from __future__ import annotations

from dataclasses import dataclass

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
    """Nodes per row of `grid_sum` for a range of `nodes` nodes."""
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


def grid_sum(amp, freqs, grid: UniformGrid, first: int = 0,
             stop: int | None = None) -> np.ndarray:
    """out[k - first] = sum_n amp[n] * exp(-i * t_k * freqs[n]) at the
    float nodes t_k = start + k * step, first <= k < stop, of `grid`.
    With `first` a multiple of the row width, rows are keyed by the
    global node index.

    A block of rows is anchored at its first float node t_b, and its
    row r and column j stand for the real number t_b + (r K + j) step,
    a few ulp of t from the float node.  The products also give the
    slope sum_n amp[n] freqs[n] exp(-i t freqs[n]), and each value is
    moved to its float node to first order in that offset.  A range of
    one row shares nothing and is summed directly.  The per-node work
    runs in place in buffers reused from block to block.
    """
    count = (grid.count if stop is None else stop) - first
    width = _row_width(max(count, 1))
    amp = np.asarray(amp, dtype=np.float64)
    freqs = np.asarray(freqs, dtype=np.float64)
    step = grid.step
    split = 134217729.0 * step              # 2^27 + 1: Veltkamp's split
    step_hi = split - (split - step)        # j * step_hi is exact, j < 2^26
    rows = -(-count // width)
    out = np.zeros((rows, width), dtype=np.complex128)
    if not freqs.size:
        return out.ravel()[:count]
    shape = (min(rows, _ROWS), width)
    local = np.arange(shape[0] * width, dtype=np.float64).reshape(shape)
    nodes, scratch = np.empty(shape), np.empty(shape)
    slope = np.empty(shape, dtype=np.complex128)
    for r in range(0, rows, _ROWS):
        value = out[r:r + _ROWS]
        d, t, tmp, slp = (x[:len(value)] for x in (local, nodes, scratch, slope))
        np.add(d, first + r * width, out=t)
        t *= step
        t += grid.start                     # the float nodes
        anchor = t[0, 0]
        acc = None
        for n in range(0, freqs.size, _TERMS):
            # the first term block writes in place; later ones are merged
            lam, a = freqs[n:n + _TERMS], amp[n:n + _TERMS]
            if rows == 1:
                terms = np.exp(-1j * np.multiply.outer(t[0], lam)) * a
                part = np.add.reduce(terms, axis=1, out=None if n else value[0])
            else:
                twiddle = _powers(lam, step, width).T
                base = _powers(lam, width * step, len(value))
                base *= np.exp(-1j * anchor * lam) * a
                part = np.matmul(base, twiddle, out=None if n else value)
                base *= lam
                slope_part = np.matmul(base, twiddle, out=None if n else slp)
                if n:
                    slp += slope_part
            if n:
                if acc is None:
                    acc = KahanAccumulator(value)
                acc.add(part)
        if acc is not None:
            value[...] = acc.total
        if rows > 1:
            off = t                         # float node - (t_b + d step):
            off -= anchor
            np.multiply(d, step_hi, out=tmp)
            off -= tmp
            np.multiply(d, step - step_hi, out=tmp)
            off -= tmp
            np.multiply(off, slp.imag, out=tmp)
            value.real += tmp
            np.multiply(off, slp.real, out=tmp)
            value.imag -= tmp
    return out.ravel()[:count]
