"""Dirichlet polynomials with explicit integer-indexed coefficients.

Tables keep exact integer frequencies (python ints, so prime-power
products never overflow) with complex coefficients.  Everything
downstream -- truncated exponentials of prime sums, shifted products,
exact mean values over a window, diagonal/Euler-product bounds -- works
on these tables.  Exponentials and products are computed on arrays
of frequencies and coefficients, one entry per point of the exponent
lattice of their primes.

Mean values over [T, 2T] use the closed form of the oscillatory
integral, never quadrature; the quadrature route lives in `moments` and
the two are compared in tests, so keep them independent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from mpmath import mp

from .errors import DomainError, ResourceError
from .primes import PrimeInterval, PrimeTable, taper_weight
from .sums import KahanAccumulator

_TABLE_MAX_DEFAULT = 200_000
_PRODUCT_MAX_DEFAULT = 500_000
_MEAN_VALUE_MAX = 10_000
# |log(m/n)| below this is recomputed pairwise from integers
_NEAR_LOG_EPS = 1e-9
_PAIR_CHUNK = 1 << 16       # coefficient pairs formed at once in a product


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


@dataclass
class CoeffTable:
    """Sparse Dirichlet coefficients: n -> c(n), n a positive integer."""

    entries: dict
    primes: tuple
    interval: PrimeInterval
    x_cutoff: float
    max_omega: int

    def __len__(self) -> int:
        return len(self.entries)

    def sorted_frequencies(self) -> list:
        return sorted(self.entries)

    def coeff(self, n: int) -> complex:
        return self.entries.get(n, 0.0 + 0.0j)


def truncated_exp(
    spec: TruncSpec,
    table: PrimeTable,
    *,
    max_entries: int = _TABLE_MAX_DEFAULT,
) -> CoeffTable:
    """Coefficient table of sum_{d <= cap} (beta * P)^d / d!.

    P is the tapered prime sum over spec.interval with cutoff
    spec.x_cutoff, with weight w_p = taper(p).  The coefficient at
    prod p^(r_p) is prod (beta w_p)^(r_p) / r_p!, over the interval's
    primes with sum r_p <= spec.degree_cap.
    """
    ps = [int(p) for p in table.in_interval(spec.interval)]
    live = [(p, spec.beta * taper_weight(p, spec.x_cutoff)) for p in ps]
    live = [(p, beta_w) for p, beta_w in live if beta_w != 0]
    cap = spec.degree_cap
    size = math.comb(len(live) + cap, cap)
    if size > max_entries:
        raise ResourceError(f"coefficient table exceeds {max_entries} entries")
    wide = cap * math.log2(max(ps, default=2)) >= 62
    ns = np.ones(size, dtype=object if wide else np.int64)
    degree = np.zeros(size, dtype=np.int64)
    coeffs = np.ones(size)
    # each prime extends every entry so far that has room; r factors of
    # p take the entry's coefficient through c -> c * beta w_p / k for
    # k = 1..r in turn
    end = 1
    for p, beta_w in live:
        src = np.arange(end)
        for k in range(1, cap + 1):
            src = src[degree[src] < cap]
            new = np.arange(end, end + len(src))
            degree[new] = degree[src] + 1
            ns[new] = ns[src] * p
            coeffs[new] = coeffs[src] * beta_w / k
            src, end = new, end + len(new)
    return CoeffTable(
        entries=dict(zip(ns.tolist(), coeffs.astype(np.complex128).tolist())),
        primes=tuple(ps),
        interval=spec.interval,
        x_cutoff=spec.x_cutoff,
        max_omega=cap,
    )


def _convolve(a, b, max_entries: int):
    """Product of two tables given as (frequencies, coefficients) arrays.

    Each pair multiplies frequencies and coefficients, and the pairs
    are summed per frequency `_PAIR_CHUNK` at a time, in row-major pair
    order, onto the sums of the chunks before.  More than `max_entries`
    frequencies is refused as soon as they appear."""
    (ns_a, coeffs_a), (ns_b, coeffs_b) = a, b
    if int(ns_a.max(initial=1)) * int(ns_b.max(initial=1)) >= 1 << 63:
        ns_a, ns_b = ns_a.astype(object), ns_b.astype(object)
    ns = np.zeros(0, dtype=ns_a.dtype)
    sums = np.zeros(0, dtype=np.complex128)
    step = max(1, _PAIR_CHUNK // max(1, len(ns_b)))
    for i in range(0, len(ns_a), step):
        keys = np.concatenate([ns, (ns_a[i:i + step, None] * ns_b).ravel()])
        pair = np.concatenate([sums, (coeffs_a[i:i + step, None] * coeffs_b).ravel()])
        ns, slots = np.unique(keys, return_inverse=True)
        if len(ns) > max_entries:
            raise ResourceError(f"product table exceeds {max_entries} entries")
        sums = np.empty(len(ns), dtype=np.complex128)
        sums.real = np.bincount(slots, pair.real, len(ns))
        sums.imag = np.bincount(slots, pair.imag, len(ns))
    return ns, sums


def product_coeffs(
    factors,
    table: PrimeTable | None = None,
    *,
    max_entries: int = _PRODUCT_MAX_DEFAULT,
) -> CoeffTable:
    """Convolve coefficient tables, each twisted by a vertical shift.

    `factors` is a sequence of (factor, shift) pairs; the shift alpha
    multiplies each coefficient c(n) by n^(-i * alpha), which is how a
    factor evaluated at s + i*alpha re-indexes to the common variable.
    A factor given as a TruncSpec is expanded first (requires `table`);
    spec factors must all share one interval and cutoff.
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
    factors = [
        (truncated_exp(f, table) if isinstance(f, TruncSpec) else f, a)
        for f, a in factors
    ]
    if not factors:
        raise DomainError("need at least one factor table")
    lo = min(t.interval.lo for t, _ in factors)
    hi = max(t.interval.hi for t, _ in factors)
    primes = tuple(sorted({p for t, _ in factors for p in t.primes}))
    acc = (np.ones(1, dtype=np.int64), np.ones(1, dtype=np.complex128))
    for tab, alpha in factors:
        ns = np.array(list(tab.entries), dtype=np.int64
                      if max(tab.entries, default=1) < 1 << 63 else object)
        coeffs = np.array(list(tab.entries.values()), dtype=np.complex128)
        if alpha != 0.0:
            angle = alpha * _frequency_logs(tab.entries)
            coeffs = coeffs * (np.cos(angle) - 1j * np.sin(angle))
        acc = _convolve(acc, (ns, coeffs), max_entries)
    return CoeffTable(
        entries=dict(zip(acc[0].tolist(), acc[1].tolist())),
        primes=primes,
        interval=PrimeInterval(lo, hi),
        x_cutoff=max(t.x_cutoff for t, _ in factors),
        max_omega=sum(t.max_omega for t, _ in factors),
    )


def coeff_csv(table: CoeffTable) -> str:
    """Export a coefficient table as CSV rows (n, re, im), ascending."""
    lines = ["n,re,im"]
    for n in table.sorted_frequencies():
        c = complex(table.entries[n])
        lines.append(f"{n},{c.real!r},{c.imag!r}")
    return "\n".join(lines) + "\n"


def _frequency_logs(ns):
    # math.log takes arbitrary-size ints; per-entry loop keeps that exact
    return np.array([math.log(n) for n in ns], dtype=np.float64)


def _near_pair_log(m: int, n: int) -> float:
    """log(n/m) for n close to m, formed from the integer difference."""
    return math.log1p((n - m) / m)


def exact_mv_integral(table: CoeffTable, t_len: float) -> float:
    """Closed-form value of the mean square over the window [T, 2T].

    The polynomial is D(t) = sum c(n) n^(-i t); the integral of
    |D(t)|^2 over [T, 2T] is T * sum |c(n)|^2 plus the closed-form
    oscillatory cross terms (no quadrature).
    """
    if t_len <= 0:
        raise DomainError(f"window base must be positive, got {t_len}")
    ns = table.sorted_frequencies()
    if len(ns) > _MEAN_VALUE_MAX:
        raise ResourceError(
            f"mean value over {len(ns)} frequencies exceeds cap {_MEAN_VALUE_MAX}")
    if not ns:
        return 0.0
    a = np.array([table.entries[n] for n in ns], dtype=np.complex128)
    logs = _frequency_logs(ns)
    t_len = float(t_len)
    u = np.exp(1j * t_len * logs)        # (n)^(iT)
    v = u * u                            # (n)^(2iT)
    diag = t_len * float(np.add.reduce(np.abs(a) ** 2))
    acc = KahanAccumulator(0.0 + 0.0j)
    for i in range(len(ns)):
        lam = logs - logs[i]
        lam[i] = 1.0  # placeholder; row i excluded below
        numer = v * np.conj(v[i]) - u * np.conj(u[i])
        with np.errstate(divide="ignore", invalid="ignore"):
            integ = numer / (1j * lam)
        integ[i] = 0.0
        # pairs with nearly equal logs need the integer-difference form
        near = np.nonzero(np.abs(lam) < _NEAR_LOG_EPS)[0]
        for j in near:
            if j == i:
                continue
            lam_ij = _near_pair_log(ns[i], ns[j])
            phase2 = complex(math.cos(2 * t_len * lam_ij),
                             math.sin(2 * t_len * lam_ij))
            phase1 = complex(math.cos(t_len * lam_ij),
                             math.sin(t_len * lam_ij))
            integ[j] = (phase2 - phase1) / (1j * lam_ij)
        acc.add(a[i] * complex(np.add.reduce(np.conj(a) * integ)))
    return float(diag + acc.total.real)


def mean_value_diagonal(table: CoeffTable, t_len: float) -> float:
    """T * sum |c(n)|^2: the diagonal part of the windowed mean square."""
    if t_len <= 0:
        raise DomainError(f"window base must be positive, got {t_len}")
    acc = KahanAccumulator(0.0)
    for n in table.sorted_frequencies():
        acc.add(abs(table.entries[n]) ** 2)
    return float(t_len) * acc.total


def off_diagonal_bound(table: CoeffTable) -> float:
    """sum over ordered pairs m != n of 2|c(m) c(n)| / |log(m/n)|.

    Window-independent bound on the cross terms of the mean square.
    """
    ns = table.sorted_frequencies()
    if len(ns) > _MEAN_VALUE_MAX:
        raise ResourceError(
            f"bound over {len(ns)} frequencies exceeds cap {_MEAN_VALUE_MAX}")
    if len(ns) < 2:
        return 0.0
    mags = np.array([abs(table.entries[n]) for n in ns], dtype=np.float64)
    logs = _frequency_logs(ns)
    acc = KahanAccumulator(0.0)
    for i in range(len(ns)):
        lam = np.abs(logs - logs[i])
        lam[i] = 1.0
        with np.errstate(divide="ignore", invalid="ignore"):
            contrib = 2.0 * mags[i] * mags / lam
        contrib[i] = 0.0
        near = np.nonzero(lam < _NEAR_LOG_EPS)[0]
        for j in near:
            if j == i:
                continue
            contrib[j] = 2.0 * mags[i] * mags[j] / abs(
                _near_pair_log(ns[i], ns[j]))
        acc.add(float(np.add.reduce(contrib)))
    return acc.total


def diagonal_sum(table: CoeffTable, sigma0: float) -> float:
    """sum |c(n)|^2 * n^(-2*sigma0), ascending in n."""
    acc = KahanAccumulator(0.0)
    for n in table.sorted_frequencies():
        acc.add(abs(table.entries[n]) ** 2 * math.exp(-2.0 * sigma0 * math.log(n)))
    return acc.total


def prime_power_tail_c2(table: CoeffTable, sigma0: float) -> float:
    """Smallest admissible quadratic constant for `euler_bound`.

    Per prime p in the table's support, sums |c(p^r)|^2 p^(-2 r sigma0)
    over r >= 2 and rescales by p^2; returns the max over p.
    """
    worst = 0.0
    for p in table.primes:
        tail = 0.0
        f = p * p
        r = 2
        while r <= table.max_omega:
            c = table.entries.get(f)
            if c is not None:
                tail += abs(c) ** 2 * math.exp(-2.0 * sigma0 * r * math.log(p))
            f *= p
            r += 1
        worst = max(worst, p * p * tail)
    return worst


def euler_bound(
    table: CoeffTable, sigma0: float, c2: float | None = None
) -> float:
    """Product bound prod_p (1 + |c(p)|^2 / p + c2 / p^2) on the diagonal.

    Valid for sigma0 >= 1/2 when the coefficients are multiplicative
    over the support primes and c2 dominates every prime-power tail
    (`prime_power_tail_c2` computes the tight choice).
    """
    if sigma0 < 0.5:
        raise DomainError(f"product bound needs sigma0 >= 1/2, got {sigma0}")
    if c2 is None:
        c2 = prime_power_tail_c2(table, sigma0)
    if c2 < 0:
        raise DomainError(f"quadratic constant must be >= 0, got {c2}")
    acc = KahanAccumulator(0.0)
    for p in table.primes:
        cp = abs(table.entries.get(p, 0.0)) ** 2
        acc.add(math.log1p(cp / p + c2 / (p * p)))
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
    if beta < 0 or beta_star < max(beta, 1.0):
        raise DomainError("need 0 <= beta <= beta_star and beta_star >= 1")
    if k_bound <= 0:
        raise DomainError(f"block bound must be positive, got {k_bound}")
    if abs(complex(p_value)) > 2.0 * k_bound * (1 + 1e-12):
        raise DomainError(
            f"|P| = {abs(complex(p_value))} exceeds the claimed disc radius "
            f"2K = {2 * k_bound}; the inequality is not asserted there")


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
    summed until one no longer changes the result.  Raises the
    DomainErrors of `lemma22_check`.
    """
    _lemma22_domain(p_value, beta, beta_star, k_bound)
    cap = int(math.floor(20.0 * beta_star * k_bound))
    with mp.workdps(_lemma22_dps(beta_star, k_bound)):
        w = mp.mpc(p_value) * beta
        total = mp.exp(w)
        d = cap + 1
        term = w ** d / mp.factorial(d)
        while total - term != total:
            total -= term
            d += 1
            term = term * w / d
        return total


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
    """
    _lemma22_domain(p_value, beta, beta_star, k_bound)
    with mp.workdps(_lemma22_dps(beta_star, k_bound)):
        n_mag = abs(mp.mpc(n_value))
        if n_mag == 0:
            return False
        lhs = 2 * mp.mpf(beta) * mp.mpc(p_value).real
        eps = mp.exp(mp.mpf(-10.0) * k_bound * beta_star)
        rhs = mp.log1p(eps) + 2 * mp.log(n_mag)
        return bool(lhs <= rhs)


class SplittingCheck(NamedTuple):
    """Windowed mean square of a product polynomial (lhs) beside the
    factored form T * prod(mean_i / T) (rhs)."""

    lhs: float
    rhs: float

    @property
    def relative_gap(self) -> float:
        return abs(self.lhs - self.rhs) / abs(self.rhs)


def splitting_check(tables, t_len: float) -> SplittingCheck:
    """Compare the windowed mean square of a product of polynomials on
    disjoint prime intervals against the factored form.

    Near-equality is only meaningful while the product length (largest
    product frequency) stays well under T; lengths beyond
    min(10^4, sqrt T) are refused.
    """
    tables = list(tables)
    if not tables:
        raise DomainError("splitting needs at least one factor")
    spans = sorted((t.interval.lo, t.interval.hi) for t in tables)
    for (lo1, hi1), (lo2, _hi2) in zip(spans, spans[1:]):
        if lo2 < hi1:
            raise DomainError(
                f"factor intervals overlap: ({lo1}, {hi1}] and ({lo2}, ...]")
    length = 1
    for t in tables:
        length *= max(t.entries)
    cap = min(1e4, math.sqrt(t_len))
    if length > cap:
        raise ResourceError(
            f"product length {length} exceeds min(1e4, sqrt T) = {cap}")
    if len(tables) == 1:
        # degenerate product: both sides are the same integral
        lhs = exact_mv_integral(tables[0], t_len)
        return SplittingCheck(lhs=lhs, rhs=lhs)
    product = product_coeffs([(t, 0.0) for t in tables])
    lhs = exact_mv_integral(product, t_len)
    rhs = float(t_len)
    for t in tables:
        rhs *= exact_mv_integral(t, t_len) / float(t_len)
    return SplittingCheck(lhs=lhs, rhs=rhs)
