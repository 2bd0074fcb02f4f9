"""Prime tables and the tapered prime sums built on them.

Interval convention used throughout the package: a range (lo, hi] is
open on the left and closed on the right, matching how the block
decomposition slices the primes.  `primes_between` implements exactly
that.

The sums run on `sums.grid_sum`, which blocks primes and nodes at
fixed boundaries, so results do not depend on how a caller splits the
evaluation grid across threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DomainError, InsufficientSieveError
from .sums import UniformGrid, grid_sum

SIEVE_LIMIT_MAX = 1_000_000_000
_SEGMENT_ODDS = 1 << 21  # odd numbers per sieve segment (~2 MB of flags)


@dataclass(frozen=True)
class PrimeInterval:
    """Primes p with lo < p <= hi."""

    lo: float
    hi: float

    def __post_init__(self):
        if not (self.lo < self.hi):
            raise DomainError(f"empty prime interval ({self.lo}, {self.hi}]")


@dataclass
class PrimeTable:
    """All primes up to `limit`, ascending, as uint64."""

    limit: int
    primes: np.ndarray

    def __len__(self) -> int:
        return int(self.primes.size)

    def primes_between(self, lo: float, hi: float) -> np.ndarray:
        """Primes p with lo < p <= hi, as a read-only view."""
        if hi > self.limit:
            raise InsufficientSieveError(
                f"table sieved to {self.limit}, range asks for {hi}")
        i = np.searchsorted(self.primes, lo, side="right")
        j = np.searchsorted(self.primes, hi, side="right")
        return self.primes[i:j]

    def in_interval(self, interval: PrimeInterval) -> np.ndarray:
        return self.primes_between(interval.lo, interval.hi)


def sieve_primes(limit: int) -> PrimeTable:
    """Segmented sieve of all primes <= limit."""
    limit = int(limit)
    if limit < 2 or limit > SIEVE_LIMIT_MAX:
        raise ConfigError(
            f"sieve limit must lie in [2, {SIEVE_LIMIT_MAX}], got {limit:.6g}")

    root = int(math.isqrt(limit))
    # base sieve over odds up to root
    base_flags = np.ones((root // 2) + 1, dtype=bool)  # index i -> 2i+1
    base_flags[0] = False  # 1 is not prime
    for i in range(1, (int(math.isqrt(root)) // 2) + 1):
        if base_flags[i]:
            p = 2 * i + 1
            start = (p * p) // 2
            base_flags[start::p] = False
    base_odd = (2 * np.nonzero(base_flags)[0] + 1).astype(np.uint64)

    chunks = [np.array([2], dtype=np.uint64)]
    lo = 3
    while lo <= limit:
        hi = min(lo + 2 * _SEGMENT_ODDS - 1, limit)
        n_odds = (hi - lo) // 2 + 1
        flags = np.ones(n_odds, dtype=bool)  # index i -> lo + 2i
        for p in base_odd.tolist():
            if p * p > hi:
                break
            start = max(p * p, ((lo + p - 1) // p) * p)
            if start % 2 == 0:
                start += p
            flags[(start - lo) // 2::p] = False
        seg = (np.uint64(lo) + 2 * np.nonzero(flags)[0].astype(np.uint64))
        chunks.append(seg)
        lo = hi + 2 if hi % 2 == 1 else hi + 1
    return PrimeTable(limit=limit, primes=np.concatenate(chunks))


def taper_weight(p: float, x_cutoff: float) -> float:
    """Logarithmic taper log(X/p)/log(X); 1 near p=1, 0 at p=X."""
    if x_cutoff <= 1:
        raise DomainError(f"taper cutoff must exceed 1, got {x_cutoff}")
    if not (2 <= p <= x_cutoff):
        raise DomainError(f"taper weight needs 2 <= p <= {x_cutoff}, got {p}")
    return math.log(x_cutoff / p) / math.log(x_cutoff)


def pretentious_cos_sum(table: PrimeTable, x_cutoff: float,
                        deltas: UniformGrid) -> np.ndarray:
    """sum over p <= X of cos(delta * log p) / p at each delta of the grid.

    This is the prime-side quantity that tracks log|zeta| just right of
    the 1-line at height delta; it is even in delta.
    """
    if x_cutoff < 2:
        raise DomainError(f"cutoff must be >= 2, got {x_cutoff}")
    # p <= X for a prime p just when p <= floor(X), the sieve's limit
    ps = table.primes_between(1, math.floor(x_cutoff)).astype(np.float64)
    return np.ascontiguousarray(grid_sum(1.0 / ps, np.log(ps), deltas).real)


def tapered_block_sum(
    table: PrimeTable,
    interval: PrimeInterval,
    x_cutoff: float,
    sigma: float,
    t_values: UniformGrid,
) -> np.ndarray:
    """Tapered prime Dirichlet sum over an interval at each t of the grid.

    Returns, for each t, sum over primes p in (lo, hi] of
    p^(-sigma - i t) * log(X/p) / log(X).
    """
    if x_cutoff <= 1:
        raise DomainError(f"cutoff must exceed 1, got {x_cutoff}")
    if interval.hi > x_cutoff:
        raise DomainError(
            f"interval top {interval.hi} exceeds taper cutoff {x_cutoff}")
    ps = table.in_interval(interval).astype(np.float64)
    amp = ps ** (-sigma) * (np.log(x_cutoff / ps) / math.log(x_cutoff))
    return grid_sum(amp, np.log(ps), t_values)


def half_square_sum(
    table: PrimeTable,
    interval: PrimeInterval,
    sigma: float,
    t_values: UniformGrid,
) -> np.ndarray:
    """Prime-square tail sum at each t of the grid.

    Returns, for each t, sum over p in (lo, hi] of p^(-2(sigma + i t))/2.
    """
    ps = table.in_interval(interval).astype(np.float64)
    return grid_sum(0.5 * ps ** (-2.0 * sigma), 2.0 * np.log(ps), t_values)


def square_band_interval(band: int) -> PrimeInterval:
    """The prime band (e^l, e^(l+1)] backing the l-th square sum."""
    if not (isinstance(band, int) and band >= 1):
        raise DomainError(f"band index must be an int >= 1, got {band}")
    return PrimeInterval(math.exp(band), math.exp(band + 1))
