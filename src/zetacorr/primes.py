"""Prime tables and the tapered prime sums built on them.

Interval convention used throughout the package: a range (lo, hi] is
open on the left and closed on the right, matching how the block
decomposition slices the primes.  `primes_between` implements exactly
that.

The vectorized sums reduce over primes in fixed-size chunks (see
`_P_CHUNK`) so results do not depend on how a caller splits the
evaluation grid across threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DomainError, InsufficientSieveError
from .sums import KahanAccumulator

SIEVE_LIMIT_MAX = 1_000_000_000
_SEGMENT_ODDS = 1 << 21  # odd numbers per sieve segment (~2 MB of flags)

# prime-axis chunk for the vectorized sums; fixed for determinism
_P_CHUNK = 2048
# grid-axis chunk; holds each outer-product temporary to 16 MB (512 x
# 2048 complex), so the peak footprint stays small whatever holes the
# heap has for it
_T_CHUNK = 512


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
            f"sieve limit must lie in [2, {SIEVE_LIMIT_MAX}], got {limit}")

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

    chunks = [np.array([2], dtype=np.uint64)] if limit >= 2 else []
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
            if start > hi:
                continue
            flags[(start - lo) // 2::p] = False
        seg = (np.uint64(lo) + 2 * np.nonzero(flags)[0].astype(np.uint64))
        chunks.append(seg)
        lo = hi + 2 if hi % 2 == 1 else hi + 1
    primes = np.concatenate(chunks) if chunks else np.empty(0, dtype=np.uint64)
    primes = primes[primes <= limit]
    return PrimeTable(limit=limit, primes=primes)


def taper_weight(p: float, x_cutoff: float) -> float:
    """Logarithmic taper log(X/p)/log(X); 1 near p=1, 0 at p=X."""
    if x_cutoff <= 1:
        raise DomainError(f"taper cutoff must exceed 1, got {x_cutoff}")
    if not (2 <= p <= x_cutoff):
        raise DomainError(f"taper weight needs 2 <= p <= {x_cutoff}, got {p}")
    return math.log(x_cutoff / p) / math.log(x_cutoff)


def pretentious_cos_sum(table: PrimeTable, x_cutoff: float, deltas) -> np.ndarray:
    """sum over p <= X of cos(delta * log p) / p, vectorized in delta.

    This is the prime-side quantity that tracks log|zeta| just right of
    the 1-line at height delta; it is even in delta.
    """
    if x_cutoff < 2:
        raise DomainError(f"cutoff must be >= 2, got {x_cutoff}")
    ps = table.primes_between(1, x_cutoff).astype(np.float64)
    d = np.asarray(deltas, dtype=np.float64)
    scalar = d.ndim == 0
    d = np.atleast_1d(d)
    real = np.ascontiguousarray(_chunked_weighted_phase_sum(ps, 1.0 / ps, d).real)
    return float(real[0]) if scalar else real


def _chunked_weighted_phase_sum(ps, amp, t_values) -> np.ndarray:
    """out[k] = sum_p amp[p] * exp(-i * t_values[k] * log p).

    Chunked on both axes; only the prime axis is reduced, with fixed
    chunk boundaries and compensated cross-chunk accumulation, so the
    result is independent of how callers partition the grid.
    """
    logp = np.log(ps)
    t = np.asarray(t_values, dtype=np.float64)
    out = np.empty(t.shape, dtype=np.complex128)
    for t_lo in range(0, t.size, _T_CHUNK):
        tc = t[t_lo:t_lo + _T_CHUNK]
        acc = KahanAccumulator(np.zeros(tc.shape, dtype=np.complex128))
        for lo in range(0, ps.size, _P_CHUNK):
            lp = logp[lo:lo + _P_CHUNK]
            am = amp[lo:lo + _P_CHUNK]
            # rows: grid points; columns: primes
            phase = np.multiply.outer(tc, lp)
            acc.add(np.add.reduce(am * np.exp(-1j * phase), axis=1))
        out[t_lo:t_lo + _T_CHUNK] = acc.total
    return out


def tapered_block_sum(
    table: PrimeTable,
    interval: PrimeInterval,
    x_cutoff: float,
    sigma: float,
    t_values,
) -> np.ndarray:
    """Tapered prime Dirichlet sum over an interval, vectorized in t.

    Returns, for each t, sum over primes p in (lo, hi] of
    p^(-sigma - i t) * log(X/p) / log(X).
    """
    if x_cutoff <= 1:
        raise DomainError(f"cutoff must exceed 1, got {x_cutoff}")
    if interval.hi > x_cutoff:
        raise DomainError(
            f"interval top {interval.hi} exceeds taper cutoff {x_cutoff}")
    ps = table.in_interval(interval).astype(np.float64)
    t = np.asarray(t_values, dtype=np.float64)
    if ps.size == 0:
        return np.zeros(t.shape, dtype=np.complex128)
    amp = ps ** (-sigma) * (np.log(x_cutoff / ps) / math.log(x_cutoff))
    return _chunked_weighted_phase_sum(ps, amp, t)


def half_square_sum(
    table: PrimeTable,
    interval: PrimeInterval,
    sigma: float,
    t_values,
) -> np.ndarray:
    """Prime-square tail sum, vectorized in t.

    Returns, for each t, sum over p in (lo, hi] of p^(-2(sigma + i t))/2.
    """
    ps = table.in_interval(interval).astype(np.float64)
    t = np.asarray(t_values, dtype=np.float64)
    if ps.size == 0:
        return np.zeros(t.shape, dtype=np.complex128)
    amp = 0.5 * ps ** (-2.0 * sigma)
    return _chunked_weighted_phase_sum(ps, amp, 2.0 * t)


def square_band_interval(band: int) -> PrimeInterval:
    """The prime band (e^l, e^(l+1)] backing the l-th square sum."""
    if not (isinstance(band, int) and band >= 1):
        raise DomainError(f"band index must be an int >= 1, got {band}")
    return PrimeInterval(math.exp(band), math.exp(band + 1))
