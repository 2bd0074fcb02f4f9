"""Dirichlet polynomials with explicit integer-indexed coefficients.

A table is a frozen set of arrays: exact integer frequencies, int64 and
strictly ascending, with complex coefficients beside them; a frequency
that is no int64 >= 1, and a table or product whose frequencies would
reach 2^63, are refused.  The drivers' frequencies reach 1.2e7 in
`prop34`'s tables and 11^18 < 2^63 in `lemma33`'s products.
Everything downstream -- truncated exponentials of prime sums, shifted
products, exact mean values over a window, diagonal/Euler-product
bounds -- works on these tables.  An exponential enumerates the points
of the exponent lattice of its primes once, as rows of prime indices,
and keeps the rows as its `factors`.  A product indexes that lattice
densely: a frequency's cell is its exponent vector as a mixed-radix
number, a digit per prime as wide as the degrees of the factors whose
rows use it sum to, so a pair's cell is the sum of its two.  Pairs are
added onto their cells `_PAIR_CHUNK` at a time in row-major order, rows
in ascending frequency, so each coefficient sums its pairs in that
order in any chunking; only the cells a factor reaches are sorted,
never the pairs.  Only exponentials enter a product: a table built by
hand is refused there, and so is a box past `_BOX_MAX` cells.  Three
lemma33 factors, 382 200 pairs into 7 315 of 19^4 cells, take 6.6 ms
on a 2-CPU VM.

Mean values over [T, 2T] use the closed form of the oscillatory
integral, never quadrature; the quadrature route lives in `moments` and
the two are compared in tests, so keep them independent.  The window
integral and the bound on its cross terms come from one walk over
K[i, j] = 1 / log(n_j / n_i), formed max(1, _GAP_BLOCK // n) rows at a
time: a block of rows is one real product of |K| with |c| for the bound
and one of K with a few columns for the integral, their row sums merged
in row order.  Both are an ulp or two off a per-pair sum, and as far as
it is from a 40-digit one, through the float64 log gaps, so the error
grows as the least gap shrinks.  On random tables of frequencies up to
1e4, the drivers' range, it was at most 4.2e-13 of T sum |c|^2 + bound
and the bound 7e-13 relative; up to 9e8, 1.3e-12 and 1.1e-11.  At the
gap 1e-8 of {10^8, 10^8 + 1} it is under 4e-10 of that scale and 3e-7
relative.  No bit depends on OpenBLAS's thread count.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
import types
from dataclasses import dataclass

import numpy as np
from mpmath import mp

from .errors import DomainError, ResourceError
from .primes import PrimeInterval, PrimeTable, taper_weight
from .sums import KahanAccumulator

_TABLE_MAX = 200_000
_PRODUCT_MAX = 500_000
_MEAN_VALUE_MAX = 10_000
_NEAR_LOG_EPS = 1e-9        # least log gap of adjacent mean-value frequencies
_INT64_END = 1 << 63        # frequencies are int64: every one lies below this
_PAIR_CHUNK = 1 << 16       # coefficient pairs formed at once in a product
_BOX_MAX = 1 << 22          # cells of a product's exponent box
_GAP_BLOCK = 1 << 14        # pairs per mean-value row block, to stay in L2


@dataclass
class TruncSpec:
    """Recipe for a truncated exponential of a tapered prime sum."""

    interval: PrimeInterval
    x_cutoff: float
    beta: float
    degree_cap: int

    def __post_init__(self):
        if self.x_cutoff <= 1:
            raise DomainError(f"cutoff must exceed 1, got {self.x_cutoff}")
        if self.interval.hi > self.x_cutoff:
            raise DomainError(
                f"interval top {self.interval.hi} exceeds cutoff {self.x_cutoff}")
        if self.beta < 0:
            raise DomainError(f"exponent weight must be >= 0, got {self.beta}")
        if not (isinstance(self.degree_cap, int) and self.degree_cap >= 0):
            raise DomainError(f"degree cap must be an int >= 0")


@dataclass(frozen=True, eq=False)
class CoeffTable:
    """Sparse Dirichlet coefficients: the complex128 `coeffs` at the
    int64 frequencies `ns`, strictly ascending.  Tables `truncated_exp`
    builds, the only ones a product takes, keep `factors`: row i holds
    the indices into `primes` of the prime factors of ns[i], ascending,
    with multiplicity, padded with len(primes) to `max_omega` columns."""

    ns: np.ndarray
    coeffs: np.ndarray
    primes: tuple
    interval: PrimeInterval
    max_omega: int
    factors: np.ndarray | None = None

    @classmethod
    def from_entries(cls, entries: dict, primes: tuple, interval: PrimeInterval,
                     max_omega: int) -> CoeffTable:
        """The table of `entries`, n -> c(n), built by hand; DomainError
        unless there is an n and each is an integer from 1 to 2^63 - 1."""
        try:
            ns = np.fromiter(map(operator.index, entries), np.int64, len(entries))
        except (TypeError, OverflowError):
            ns = np.zeros(1, dtype=np.int64)        # refused below
        if not len(ns) or ns.min() < 1:
            raise DomainError("a table needs integer frequencies from 1 to 2^63 - 1")
        order = np.argsort(ns)
        coeffs = np.fromiter(entries.values(), np.complex128, len(ns))
        return cls(ns[order], coeffs[order], primes, interval, max_omega)

    def __len__(self) -> int:
        return len(self.ns)

    @functools.cached_property
    def entries(self):
        """A read-only mapping n -> c(n), in ascending n."""
        return types.MappingProxyType(dict(zip(self.ns.tolist(), self.coeffs.tolist())))

    def at(self, ns) -> np.ndarray:
        """c(n) at each n of the int64 array-like `ns`, 0 where the table has no n."""
        ns = np.asarray(ns, dtype=np.int64)
        i = np.searchsorted(self.ns, ns).clip(max=len(self.ns) - 1)
        return np.where(self.ns[i] == ns, self.coeffs[i], 0)


def truncated_exp(spec: TruncSpec, table: PrimeTable) -> CoeffTable:
    """Coefficient table of sum_{d <= cap} (beta * P)^d / d!.

    P is the tapered prime sum over spec.interval with cutoff
    spec.x_cutoff, with weight w_p = taper(p).  The coefficient at
    prod p^(r_p) is prod (beta w_p)^(r_p) / r_p!, over the interval's
    primes with sum r_p <= spec.degree_cap.  ResourceError past
    `_TABLE_MAX` entries, or when the largest frequency would reach 2^63.
    """
    ps = [int(p) for p in table.in_interval(spec.interval)]
    beta_w = [spec.beta * taper_weight(p, spec.x_cutoff) for p in ps]
    live = [i for i, w in enumerate(beta_w) if w != 0]
    cap = spec.degree_cap
    size = math.comb(len(live) + cap, cap)
    if size > _TABLE_MAX:
        raise ResourceError(f"coefficient table exceeds {_TABLE_MAX} entries")
    if max((ps[i] for i in live), default=1) ** cap >= _INT64_END:
        raise ResourceError("coefficient table frequencies reach 2^63")
    # a row per multiset of at most cap live primes: their indices,
    # ascending, then the pad len(ps) for each degree left over
    rows = np.fromiter(itertools.chain.from_iterable(
        itertools.combinations_with_replacement([*live, len(ps)], cap)),
        np.int64, size * cap).reshape(size, cap)
    ns = np.array([*ps, 1], dtype=np.int64)[rows].prod(axis=1)
    # r factors of p take a row's coefficient through c -> c * beta w_p / k
    # for k = 1..r in turn; a pad step is c * 1.0 / 1
    weights, k, coeffs = np.array([*beta_w, 1.0])[rows], np.ones(size), np.ones(size)
    for s in range(cap):
        if s:
            k = np.where((rows[:, s] == rows[:, s - 1]) & (rows[:, s] < len(ps)), k + 1, 1)
        coeffs = coeffs * weights[:, s] / k
    order = np.argsort(ns)
    return CoeffTable(ns[order], coeffs[order].astype(np.complex128), tuple(ps),
                      spec.interval, cap, factors=rows[order])


def product_coeffs(factors, table: PrimeTable | None = None) -> CoeffTable:
    """Convolve coefficient tables, each twisted by a vertical shift.

    `factors` is a sequence of (factor, shift) pairs; the shift alpha
    multiplies each coefficient c(n) by n^(-i * alpha), which is how a
    factor evaluated at s + i*alpha re-indexes to the common variable.
    A factor given as a TruncSpec is expanded first (requires `table`);
    spec factors must all share one interval and cutoff.  A table built
    by hand is a DomainError; a frequency reaching 2^63, a box past
    `_BOX_MAX` cells or over `_PRODUCT_MAX` frequencies a ResourceError.
    """
    factors = list(factors)
    specs = [f for f, _ in factors if isinstance(f, TruncSpec)]
    for spec in specs[1:]:
        if (spec.interval != specs[0].interval
                or spec.x_cutoff != specs[0].x_cutoff):
            raise DomainError(
                "shifted-product factors must share interval and cutoff")
    if specs and table is None:
        raise DomainError("expanding spec factors needs a prime table")
    factors = [(truncated_exp(f, table) if isinstance(f, TruncSpec) else f, a)
               for f, a in factors]
    if not factors:
        raise DomainError("need at least one factor table")
    tables = [t for t, _ in factors]
    if any(t.factors is None for t in tables):
        raise DomainError("a product takes only tables built by truncated_exp")
    if math.prod(int(t.ns[-1]) for t in tables) >= _INT64_END:
        raise ResourceError("product table frequencies reach 2^63")
    primes = tuple(sorted({p for t in tables for p in t.primes}))
    radix = dict.fromkeys(primes, 1)        # 1 + the degrees of the tables using p
    for t in tables:
        for i in np.unique(t.factors[t.factors < len(t.primes)]).tolist():
            radix[t.primes[i]] += t.max_omega
    box = math.prod(radix.values())
    if box > _BOX_MAX:
        raise ResourceError(f"product exponent box exceeds {_BOX_MAX} cells")
    strides = dict(zip(radix, itertools.accumulate([1, *radix.values()], operator.mul)))
    keys, sums = np.zeros(box, dtype=np.int64), np.zeros(box, dtype=np.complex128)
    freqs, at, acc = np.ones(1, dtype=np.int64), np.zeros(1, dtype=np.int64), np.ones(1) + 0j
    for t, alpha in factors:
        at_b = np.array([*map(strides.get, t.primes), 0])[t.factors].sum(axis=1)
        coeffs = t.coeffs
        if alpha != 0.0:
            angle = alpha * _frequency_logs(t.ns)
            coeffs = coeffs * (np.cos(angle) - 1j * np.sin(angle))
        # pairs go onto their cells, the sum of their two, in row-major order
        step = max(1, _PAIR_CHUNK // len(t))
        for i in range(0, len(freqs), step):
            pairs = (at[i:i + step, None] + at_b).ravel()
            keys[pairs] = (freqs[i:i + step, None] * t.ns).ravel()
            np.add.at(sums, pairs, (acc[i:i + step, None] * coeffs).ravel())
        at = np.flatnonzero(keys != 0)
        if len(at) > _PRODUCT_MAX:
            raise ResourceError(f"product table exceeds {_PRODUCT_MAX} entries")
        at = at[np.argsort(keys[at])]           # the cells reached, by frequency
        freqs, acc = keys[at], sums[at]
        keys[at], sums[at] = 0, 0               # the box is clear for the next factor
    return CoeffTable(freqs, acc, primes, PrimeInterval(
        min(t.interval.lo for t in tables), max(t.interval.hi for t in tables)),
        sum(t.max_omega for t in tables))


def _frequency_logs(ns):
    # math.log per entry: np.log does not always keep its last bit
    return np.fromiter(map(math.log, ns.tolist()), np.float64, len(ns))


def _frequencies(table: CoeffTable, what: str) -> tuple:
    """(coeffs, logs) in ascending frequency: the coefficients
    (DomainError unless finite) and the logs of the frequencies."""
    if not np.isfinite(table.coeffs).all():
        raise DomainError(f"{what} needs finite coefficients")
    return table.coeffs, _frequency_logs(table.ns)


def exact_mv_integral(table: CoeffTable, t_len: float) -> tuple:
    """(integral, bound): the closed-form mean square over the window
    [T, 2T], and the window-independent bound on its cross terms, the sum
    over ordered pairs m != n of 2|c(m) c(n)| / |log(m/n)|.

    The polynomial is D(t) = sum c(n) n^(-i t); the integral of
    |D(t)|^2 over [T, 2T] is T * sum |c(n)|^2 plus the closed-form
    oscillatory cross terms (no quadrature), (e^(2iT lam) - e^(iT lam))
    / (i lam) at log gap lam.  It takes up to `_MEAN_VALUE_MAX`
    frequencies whose float64 logs lie `_NEAR_LOG_EPS` or more apart,
    which any two below 9.9e8 are; a nearer pair is a DomainError.
    The drivers' tables stay far inside that: `verify lemma23` and
    `lemma24` hand it at most 1 000 frequencies, none above 1e4.  One
    walk over the row blocks of K (module docstring) gives both values.
    Bound row i is 2|c_i| (|K| |c|)_i, and row i's cross terms are
    Im(c_i (n_i^(-2iT) (K b)_i - n_i^(-iT) (K d)_i)),
    b = conj(c) n^(2iT), d = conj(c) n^(iT): one product each a block.
    """
    bound = KahanAccumulator(0.0)
    return _mean_square(table, t_len, bound), bound.total


def _mean_square(table: CoeffTable, t_len: float, bound=None) -> float:
    """`exact_mv_integral`'s integral; its bound rows go to the
    accumulator `bound`, and are not formed without one."""
    if not 0 < t_len < math.inf:
        raise DomainError(f"window base must be positive and finite, got {t_len}")
    n = len(table)
    if n > _MEAN_VALUE_MAX:
        raise ResourceError(
            f"mean value over {n} frequencies exceeds cap {_MEAN_VALUE_MAX}")
    a, logs = _frequencies(table, "mean value")
    if n > 1 and np.diff(logs).min() < _NEAR_LOG_EPS:
        raise DomainError(
            f"mean value needs frequencies whose logs lie {_NEAR_LOG_EPS:g} apart")
    t_len = float(t_len)
    u = np.exp(1j * t_len * logs)        # (n)^(iT)
    v = u * u                            # (n)^(2iT)
    mags = np.abs(a)
    diag = t_len * float(np.add.reduce(mags ** 2))
    # the columns Re b, Im b, Re d, Im d
    bd = (np.stack([v, u], axis=1) * np.conj(a)[:, None]).view(np.float64)
    step = max(1, _GAP_BLOCK // max(1, n))
    buf, abs_buf = np.empty((2, min(step, n), n))
    acc = KahanAccumulator(0.0)
    for start in range(0, n, step):
        stop = min(start + step, n)
        inv = np.subtract(logs, logs[start:stop, None], out=buf[:stop - start])
        inv.reshape(-1)[start::n + 1] = math.inf     # whose reciprocal is 0
        np.divide(1.0, inv, out=inv)
        if bound is not None:
            k_abs = np.abs(inv, out=abs_buf[:stop - start])
            for row in (2.0 * mags[start:stop] * (k_abs @ mags)).tolist():
                bound.add(row)
        kb, kd = np.matmul(inv, bd).view(np.complex128).T
        terms = (a[start:stop] * (np.conj(v[start:stop]) * kb
                                  - np.conj(u[start:stop]) * kd)).imag
        for term in terms.tolist():
            acc.add(term)
    return float(diag + acc.total)


def diagonal_sum(table: CoeffTable, sigma0: float) -> float:
    """sum |c(n)|^2 * n^(-2*sigma0) over the table; DomainError when it is
    not finite, as a coefficient or sigma0 that is not, or an overflow,
    makes it.  At sigma0 = 0 it is the diagonal of `exact_mv_integral`."""
    coeffs, logs = _frequencies(table, "diagonal sum")
    with np.errstate(over="ignore", invalid="ignore"):
        total = float(np.add.reduce(np.abs(coeffs) ** 2 * np.exp(-2.0 * sigma0 * logs)))
    if not math.isfinite(total):
        raise DomainError(f"diagonal sum of finite terms needed, got {total}")
    return total


def prime_power_tail_c2(table: CoeffTable, sigma0: float) -> float:
    """Smallest admissible quadratic constant for `euler_bound`.

    Per prime p in the table's support, sums |c(p^r)|^2 p^(-2 r sigma0)
    over r >= 2 and rescales by p^2; returns the max over p.
    """
    rs = range(2, table.max_omega + 1)
    # a power past int64 is no frequency of the table, and neither is 0
    powers = [[p ** r if p ** r < _INT64_END else 0 for r in rs] for p in table.primes]
    worst = 0.0
    for p, cs in zip(table.primes, table.at(powers).tolist()):
        tail = 0.0
        for r, c in zip(rs, cs):
            tail += abs(c) ** 2 * math.exp(-2.0 * sigma0 * r * math.log(p))
        worst = max(worst, p * p * tail)
    return worst


def euler_bound(table: CoeffTable, sigma0: float) -> float:
    """Product bound prod_p (1 + |c(p)|^2 / p + c2 / p^2) on the diagonal.

    Valid for sigma0 >= 1/2 when the coefficients are multiplicative
    over the support primes; c2 is the tight `prime_power_tail_c2`,
    which dominates every prime-power tail.
    """
    if sigma0 < 0.5:
        raise DomainError(f"product bound needs sigma0 >= 1/2, got {sigma0}")
    c2 = prime_power_tail_c2(table, sigma0)
    acc = KahanAccumulator(0.0)
    for p, c in zip(table.primes, table.at(table.primes).tolist()):
        acc.add(math.log1p(abs(c) ** 2 / p + c2 / (p * p)))
    return math.exp(acc.total)


def prime_power_coeff(p: int, r: int, shifts, betas, x_cutoff: float) -> complex:
    """Closed form for the p^r coefficient of the shifted product.

    With w = taper(p) * sum_k beta_k * p^(-i alpha_k), the full
    (uncapped) exponential gives w^r / r!; table construction must
    reproduce this whenever r is within every factor's degree cap.
    """
    if r < 0:
        raise DomainError("power must be >= 0")
    if len(shifts) != len(betas):
        raise DomainError("shifts and betas must pair up")
    lp = math.log(p)
    s = 0.0 + 0.0j
    for alpha, beta in zip(shifts, betas):
        s += beta * complex(math.cos(alpha * lp), -math.sin(alpha * lp))
    w = taper_weight(p, x_cutoff) * s
    out = 1.0 + 0.0j
    for d in range(1, r + 1):
        out = out * w / d
    return out


def _lemma22_dps(beta_star: float, k_bound: float) -> int:
    # The margin e^(-10 K beta*) needs 10 K beta* / ln 10 digits.  The
    # ascending series would lose up to 4 K beta* / ln 10 more to
    # cancellation when beta * Re P is strongly negative (peak term
    # e^(beta |P|) against a result of size e^(beta Re P)); the tail
    # form of `lemma22_n_value` does not, so that budget is headroom.
    return 50 + int(math.ceil(14.0 * k_bound * beta_star / math.log(10.0)))


def _lemma22_domain(p_value, beta, beta_star, k_bound) -> None:
    p_value = complex(p_value)
    if not all(map(math.isfinite,
                   (p_value.real, p_value.imag, beta, beta_star, k_bound))):
        raise DomainError(
            f"need finite P, beta, beta_star and K, got "
            f"{p_value}, {beta}, {beta_star}, {k_bound}")
    if beta < 0 or beta_star < max(beta, 1.0):
        raise DomainError("need 0 <= beta <= beta_star and beta_star >= 1")
    if k_bound <= 0:
        raise DomainError(f"block bound must be positive, got {k_bound}")
    if abs(p_value) > 2.0 * k_bound * (1 + 1e-12):
        raise DomainError(
            f"|P| = {abs(p_value)} exceeds the claimed disc radius "
            f"2K = {2 * k_bound}; the inequality is not asserted there")


def _mpc_power(w, d: int):
    """w ** d for d >= 1 by binary powering in mpc products, each rounded
    once at the working precision.  mpmath's own power goes through a
    complex log and exp once d times the mantissa length passes 10 000
    bits, which is most of the cost of a tail."""
    out = None
    while True:
        if d & 1:
            out = w if out is None else out * w
        d >>= 1
        if not d:
            return out
        w = w * w


def lemma22_n_value(
    p_value: complex, beta: float, beta_star: float, k_bound: float
):
    """Truncated exponential of beta * P with the degree cap
    floor(20 * beta_star * k_bound), in extended precision.

    The domination margin sits exponentially far below double
    resolution, so the series partner of `lemma22_check` has to be
    carried at matching precision; this returns an mpmath complex.
    It is formed as e^w minus the series tail, w = beta * P, which
    takes none of the ascending series' cap terms and none of its
    cancellation: on the claimed disc |w| <= 2 K beta* < (cap + 2) / 10,
    so each tail term is under a tenth of the one before, and they are
    summed until one no longer changes the result.

    With d = cap + 1, e^w is returned at once when a float bound puts
    the first tail term |w|^d / d! more than dps + 5 digits below
    |e^w| = e^(Re w).  The tail left out is then about 1e-4 of the
    working precision's last place relative to |e^w|: the summation
    would round it away unless one part of e^w were some 1e4 times
    smaller than the other, and it lies far below the margin
    e^(-10 K beta*) of `lemma22_check`.  Otherwise w^d comes from
    binary powering in mpc products (`_mpc_power`), not from a complex
    log and exp.  Raises the DomainErrors of `lemma22_check`.
    """
    _lemma22_domain(p_value, beta, beta_star, k_bound)
    d = int(math.floor(20.0 * beta_star * k_bound)) + 1
    dps = _lemma22_dps(beta_star, k_bound)
    with mp.workdps(dps):
        w = mp.mpc(p_value) * beta
        total = mp.exp(w)
        w_float = complex(p_value) * beta
        if w_float == 0 or (
                d * math.log(abs(w_float)) - math.lgamma(d + 1) - w_float.real
                < -(dps + 5) * math.log(10.0)):
            return total
        term = _mpc_power(w, d) / mp.factorial(d)
        while total - term != total:
            total -= term
            d += 1
            term = term * w / d
        return total


@functools.lru_cache(maxsize=64)
def _one_plus_margin(beta_star: float, k_bound: float):
    """1 + e^(-10 K beta*) at the working precision of (K, beta*)."""
    with mp.workdps(_lemma22_dps(beta_star, k_bound)):
        return 1 + mp.exp(mp.mpf(-10.0) * k_bound * beta_star)


def lemma22_check(
    p_value: complex,
    beta: float,
    beta_star: float,
    k_bound: float,
    n_value,
) -> bool:
    """exp(2*beta*Re P) <= (1 + e^(-10 K beta*)) * |N|^2, claimed for
    |P| <= 2K and 0 <= beta <= beta_star.

    Note the domination factor multiplies the right side: with N the
    below-threshold truncation of exp(beta*P), |N|^2 falls short of
    exp(2*beta*Re P) by roughly the series tail, so a factor smaller
    than 1 (reciprocal form) is falsified already at P = 0.  Settled in
    extended precision; `n_value` should come from `lemma22_n_value` or
    carry comparable precision, since the margin is far below 1e-16.

    Both sides are compared as they stand, with |N|^2 as
    Re N^2 + Im N^2 and no square root or logarithm, and 1 + eps formed
    once per (K, beta*).  The margin is at least eps = e^(-10 K beta*)
    of the right side, and the working precision `_lemma22_dps` rounds
    at about 10^-50 e^(-14 K beta*) of it, so no rounding can move a
    decision.  A non-finite N is refused with DomainError, like the
    other non-finite inputs.
    """
    _lemma22_domain(p_value, beta, beta_star, k_bound)
    with mp.workdps(_lemma22_dps(beta_star, k_bound)):
        n_value = mp.mpc(n_value)
        if not mp.isfinite(n_value):
            raise DomainError(f"N must be finite, got {n_value}")
        lhs = mp.exp(2 * mp.mpf(beta) * mp.mpf(complex(p_value).real))
        n_sq = n_value.real * n_value.real + n_value.imag * n_value.imag
        return bool(lhs <= _one_plus_margin(beta_star, k_bound) * n_sq)


def splitting_check(tables, t_len: float) -> tuple:
    """(lhs, rhs): the windowed mean square of a product of polynomials
    on disjoint prime intervals, and the factored form T * prod(mean_i / T).

    Near-equality is only meaningful while the product length (largest
    product frequency) stays well under T; lengths beyond
    min(10^4, sqrt T) are refused, and so are fewer than two factors.
    """
    tables = list(tables)
    if len(tables) < 2:
        raise DomainError(f"splitting needs two or more factors, got {len(tables)}")
    spans = sorted((t.interval.lo, t.interval.hi) for t in tables)
    for (lo1, hi1), (lo2, _hi2) in zip(spans, spans[1:]):
        if lo2 < hi1:
            raise DomainError(
                f"factor intervals overlap: ({lo1}, {hi1}] and ({lo2}, ...]")
    length = math.prod(int(t.ns[-1]) for t in tables)
    cap = min(1e4, math.sqrt(t_len))
    if length > cap:
        raise ResourceError(
            f"product length {length} exceeds min(1e4, sqrt T) = {cap}")
    product = product_coeffs([(t, 0.0) for t in tables])
    lhs = _mean_square(product, t_len)
    rhs = float(t_len)
    for t in tables:
        rhs *= _mean_square(t, t_len) / float(t_len)
    return lhs, rhs
