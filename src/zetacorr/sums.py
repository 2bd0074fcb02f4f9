"""Deterministic summation helper.

Accumulation order is part of this package's output contract: reports
must be byte-identical across thread counts.  Callers reduce with numpy
pairwise sums inside fixed-size chunks and merge the chunk totals in
index order through `KahanAccumulator`, so the result depends only on
the data, never on scheduling.
"""

from __future__ import annotations


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
