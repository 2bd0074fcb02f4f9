"""Coefficient tables, exact mean values, and the inequality checks."""

import math
import os
import pathlib
import random
import subprocess
import sys

import mpmath
import numpy as np
import pytest

from zetacorr import dirichlet, primes
from zetacorr.errors import DomainError, ResourceError
from zetacorr.sums import KahanAccumulator, UniformGrid


def _spec(lo, hi, x_cutoff, beta, cap):
    return dirichlet.TruncSpec(
        primes.PrimeInterval(float(lo), float(hi)), float(x_cutoff),
        float(beta), int(cap))


def g_coeff(n: int, x_cutoff: float) -> float:
    """Oracle for table coefficients: prod over p^r || n of
    taper(p)^r / r!, with n factored by trial division."""
    if not (isinstance(n, int) and n >= 1):
        raise DomainError(f"index must be an int >= 1, got {n}")
    out = 1.0
    rem = n
    p = 2
    while p * p <= rem:
        if rem % p == 0:
            r = 0
            while rem % p == 0:
                rem //= p
                r += 1
            out *= primes.taper_weight(p, x_cutoff) ** r / math.factorial(r)
        p += 1 if p == 2 else 2
    if rem > 1:
        out *= primes.taper_weight(rem, x_cutoff)
    return out


def truncated_exp_scalar(w: complex, cap: int) -> complex:
    """Oracle for table evaluation: sum_{d <= cap} w^d / d!, ascending."""
    acc = KahanAccumulator(0.0 + 0.0j)
    term = 1.0 + 0.0j
    acc.add(term)
    for d in range(1, cap + 1):
        term = term * w / d
        acc.add(term)
    return acc.total


def evaluate(table, s: complex) -> complex:
    """Oracle for a table's value: sum c(n) * n^(-s), ascending in n."""
    acc = KahanAccumulator(0.0 + 0.0j)
    for n in sorted(table.entries):
        ln = math.log(n)
        acc.add(table.entries[n] * complex(
            math.exp(-s.real * ln) * math.cos(s.imag * ln),
            -math.exp(-s.real * ln) * math.sin(s.imag * ln)))
    return acc.total


def test_g_coeff_examples():
    # multiplicative weights: g(1)=1; X=p^2 gives taper 1/2, and the
    # square then carries (1/2)^2/2! = 1/8
    assert g_coeff(1, 9.0) == 1.0
    assert math.isclose(g_coeff(3, 9.0), 0.5, rel_tol=1e-15)
    assert math.isclose(g_coeff(9, 9.0), 0.125, rel_tol=1e-15)


def test_g_coeff_general_multiplicativity():
    x = 1000.0
    got = g_coeff(2 * 2 * 3 * 5, x)
    want = (primes.taper_weight(2, x) ** 2 / 2.0
            * primes.taper_weight(3, x)
            * primes.taper_weight(5, x))
    assert math.isclose(got, want, rel_tol=1e-14)


def test_g_coeff_validation():
    with pytest.raises(DomainError):
        g_coeff(0, 10.0)
    with pytest.raises(DomainError):
        g_coeff(22, 10.0)  # contains prime 11 > cutoff


def test_truncated_exp_coefficient_identity(table_small):
    # every coefficient must equal beta^Omega(n) * g_X(n)
    spec = _spec(2, 30, 900, 1.3, 4)
    tab = dirichlet.truncated_exp(spec, table_small)
    worst = 0.0
    for n, c in tab.entries.items():
        omega = 0
        m, d = n, 2
        while m > 1:
            while m % d == 0:
                omega += 1
                m //= d
            d += 1
        want = spec.beta ** omega * g_coeff(n, spec.x_cutoff)
        worst = max(worst, abs(c - want))
    assert worst <= 1e-13


def test_truncated_exp_dual_route(table_small):
    # point evaluation of the table equals the scalar truncated
    # exponential of the directly-summed prime polynomial
    rng = random.Random(0xD0A1)
    spec = _spec(2, 50, 2500, 0.8, 5)
    tab = dirichlet.truncated_exp(spec, table_small)
    for _ in range(10):
        s = complex(rng.uniform(0.4, 1.2), rng.uniform(-30.0, 30.0))
        p_val = spec.beta * complex(primes.tapered_block_sum(
            table_small, spec.interval, spec.x_cutoff, s.real,
            UniformGrid(s.imag, 1.0, 1))[0])
        direct = truncated_exp_scalar(p_val, spec.degree_cap)
        via_table = evaluate(tab, s)
        assert abs(direct - via_table) <= 1e-12 * max(1.0, abs(direct))


def test_truncated_exp_degree_support(table_small):
    spec = _spec(2, 10, 100, 1.0, 3)
    tab = dirichlet.truncated_exp(spec, table_small)
    assert tab.entries.get(1, 0j) == 1.0
    assert tab.entries.get(2, 0j) == 0.0   # interval lower end is exclusive
    assert abs(tab.entries.get(27, 0j)) > 0.0
    assert abs(tab.entries.get(3 * 5 * 7, 0j)) > 0.0
    assert tab.entries.get(81, 0j) == 0.0  # four factors, cap is 3
    assert tab.entries.get(11, 0j) == 0.0  # outside the interval
    # the sorted lookup reads the same, 0 past the largest frequency too
    ns = [1, 2, 27, 3 * 5 * 7, 81, 11, 1 << 62]
    assert tab.at(ns).tolist() == [tab.entries.get(n, 0j) for n in ns]


def test_truncated_exp_entry_budget(table_mega, monkeypatch):
    monkeypatch.setattr(dirichlet, "_TABLE_MAX", 10_000)
    spec = _spec(2, 100_000, 200_000, 1.0, 6)
    with pytest.raises(ResourceError):
        dirichlet.truncated_exp(spec, table_mega)


def test_truncated_exp_refuses_frequencies_past_int64(table_mega):
    # the primes 99989 and 99991: 99991^3 ~ 1e15 is an int64, 99991^4 ~ 1e20 not
    tab = dirichlet.truncated_exp(_spec(99_980, 100_000, 200_000, 1.0, 3), table_mega)
    assert max(tab.entries) == 99_991 ** 3 and len(tab) == 10
    with pytest.raises(ResourceError):
        dirichlet.truncated_exp(_spec(99_980, 100_000, 200_000, 1.0, 4), table_mega)


def test_product_coeffs_prime_formula(table_small):
    # b(p) from the convolved table against the closed form
    rng = random.Random(0x90D)
    interval = primes.PrimeInterval(2.0, 11.0)
    for _ in range(10):
        m = rng.randint(1, 3)
        alphas = [rng.uniform(-4.0, 4.0) for _ in range(m)]
        betas = [rng.uniform(0.0, 2.0) for _ in range(m)]
        factors = [(_spec(2, 11, 150, b, 3), a)
                   for a, b in zip(alphas, betas)]
        prod = dirichlet.product_coeffs(factors, table_small)
        assert prod.entries.get(2, 0j) == 0.0  # 2 sits on the exclusive boundary
        for p in (3, 5, 7, 11):
            want = dirichlet.prime_power_coeff(p, 1, alphas, betas, 150.0)
            assert abs(prod.entries.get(p, 0j) - want) <= 1e-12


def _truncated_exp_reference(spec, table):
    """The per-entry recursion that built tables before the lattice."""
    ps = [int(p) for p in table.in_interval(spec.interval)]
    entries = {1: 1.0 + 0.0j}

    def descend(idx, budget, freq, coeff):
        for i in range(idx, len(ps)):
            beta_w = spec.beta * primes.taper_weight(ps[i], spec.x_cutoff)
            if beta_w == 0:
                continue
            f, c = freq, coeff
            for r in range(1, budget + 1):
                f, c = f * ps[i], c * beta_w / r
                entries[f] = c
                descend(i + 1, budget - r, f, c)

    descend(0, spec.degree_cap, 1, 1.0 + 0.0j)
    return entries


def _product_reference(factors):
    """The per-pair dict convolution of twisted tables."""
    acc = {1: 1.0 + 0.0j}
    for tab, alpha in factors:
        nxt = {}
        for n1, c1 in acc.items():
            for n2, c2 in tab.entries.items():
                twist = complex(math.cos(alpha * math.log(n2)),
                                -math.sin(alpha * math.log(n2)))
                nxt[n1 * n2] = nxt.get(n1 * n2, 0j) + c1 * (c2 * twist)
        acc = nxt
    return acc


def test_lattice_tables_match_the_per_entry_reference(table_small, monkeypatch):
    # exponentials keep the recursion's bits; products sum in another
    # order, so they agree to a few ulps of the largest coefficient.
    # Each chunk of pairs is summed onto the cells before it, so chunks
    # of 7 pairs give the bits of one chunk.
    rng = random.Random(0x1A7)
    cases = [[(_spec(2, 30, 900, 1.0, 1), 0.0), (_spec(30, 60, 3600, 0.7, 1), 0.0)],
             # beta = 0, cap 0, the prime 11 of zero weight at X = 11, and
             # the one prime 2 of (1.5, 2] up to 2^39 at cap 39
             [(_spec(2, 11, 150, 0.0, 3), 0.9), (_spec(2, 11, 150, 1.2, 0), -0.3)],
             [(_spec(2, 11, 11, 1.3, 4), 1.7)],
             [(_spec(1.5, 2, 3, 1.0, 39), 0.0)]]
    for _ in range(6):
        cases.append([(_spec(2, 11, 150, rng.uniform(0, 2), 3), rng.uniform(-4, 4))
                      for _ in range(rng.randint(1, 3))])
    for factors in cases:
        tables = [(dirichlet.truncated_exp(s, table_small), a) for s, a in factors]
        for (spec, _), (tab, _) in zip(factors, tables):
            assert tab.entries == _truncated_exp_reference(spec, table_small)
        prod = dirichlet.product_coeffs(tables)
        want = _product_reference(tables)
        assert prod.entries.keys() == want.keys()
        scale = 64 * np.finfo(np.float64).eps * max(abs(c) for c in want.values())
        assert all(abs(prod.entries[n] - c) <= scale for n, c in want.items())
        with monkeypatch.context() as m:
            m.setattr(dirichlet, "_PAIR_CHUNK", 7)
            assert dirichlet.product_coeffs(tables).entries == prod.entries


def test_wide_cap_one_table(table_mega):
    # 9591 primes and 9592 entries: one entry per prime, and no dense
    # exponent array over the interval's primes
    spec = _spec(2, 100_000, 200_000, 0.5, 1)
    tab = dirichlet.truncated_exp(spec, table_mega)
    ps = [int(p) for p in table_mega.in_interval(spec.interval)]
    assert len(ps) == 9591 and len(tab) == 9592 and tab.factors.shape == (9592, 1)
    assert tab.entries == {1: 1.0 + 0.0j, **{
        p: 0.5 * primes.taper_weight(p, 200_000.0) + 0.0j for p in ps}}


def test_lattice_tables_keep_their_factors(table_small):
    # frequencies ascend strictly, and each row's factors, indices into
    # `primes` ascending and padded with len(primes), multiply out to its
    # frequency
    rng = random.Random(0xFAC)
    for _ in range(20):
        lo = rng.choice([1.5, 2, 3, 7])
        hi = lo + rng.choice([5, 12, 30, 60])
        spec = _spec(lo, hi, rng.choice([hi, 2 * hi, 1000]), rng.uniform(0, 2),
                     rng.randint(0, 4))
        tab = dirichlet.truncated_exp(spec, table_small)
        assert (np.diff(tab.ns) > 0).all()
        assert tab.factors.shape == (len(tab), spec.degree_cap)
        assert (np.diff(tab.factors, axis=1) >= 0).all()
        padded = [*tab.primes, 1]
        assert [math.prod(padded[i] for i in row) for row in tab.factors.tolist()] \
            == tab.ns.tolist()


def test_product_coeffs_entry_budget(table_small, monkeypatch):
    # two cap-3 factors over the four primes of (2, 11] give all 210
    # products of at most 6 of them; the budget is exact, in any chunking
    factors = [(_spec(2, 11, 150, 1.2, 3), 0.4), (_spec(2, 11, 150, 0.8, 3), -1.1)]
    for chunk in (1 << 16, 7):
        monkeypatch.setattr(dirichlet, "_PAIR_CHUNK", chunk)
        monkeypatch.setattr(dirichlet, "_PRODUCT_MAX", 210)
        assert len(dirichlet.product_coeffs(factors, table_small)) == 210
        monkeypatch.setattr(dirichlet, "_PRODUCT_MAX", 209)
        with pytest.raises(ResourceError):
            dirichlet.product_coeffs(factors, table_small)


def _keyed(ps, *ns):
    return dirichlet.CoeffTable.from_entries(entries={n: 1.0 + 0.0j for n in ns}, primes=ps,
                                interval=primes.PrimeInterval(0.5, 2.0 ** 64), max_omega=0)


def test_product_coeffs_refuses_frequencies_past_int64(table_small):
    # three cap-6 factors over (2, 11] reach 11^18 < 2^63, as in lemma33;
    # a fourth would reach 11^24
    factors = [(_spec(2, 11, 200, 1.0, 6), 0.0)] * 3
    assert max(dirichlet.product_coeffs(factors, table_small).entries) == 11 ** 18
    with pytest.raises(ResourceError):
        dirichlet.product_coeffs(factors * 2, table_small)
    # the largest product frequency decides, to the unit: 2^32 (2^31 - 1)
    # is an int64, 2^32 2^31 not
    mersenne = (1 << 31) - 1
    two_primes = primes.PrimeTable(mersenne, np.array([2, mersenne], dtype=np.uint64))

    def powers(lo, hi, cap):
        return dirichlet.truncated_exp(_spec(lo, hi, 2 * mersenne, 1.0, cap), two_primes), 0.0

    top = dirichlet.product_coeffs([powers(1, 2, 32), powers(2, mersenne, 1)])
    assert top.ns[-1] == (1 << 63) - (1 << 32)
    with pytest.raises(ResourceError):
        dirichlet.product_coeffs([powers(1, 2, 32), powers(1, 2, 31)])
    # a key past int64 in a table built by hand is not a frequency
    with pytest.raises(DomainError):
        dirichlet.product_coeffs([(_keyed((2,), 1, 1 << 63), 0.0)])


@pytest.mark.parametrize("tables", [
    [((2,), (1, 2, 14))], [((2, 3), (1, 6, 35))], [((), (1, 2))],
    [((2,), (1, 6)), ((3,), (1, 3))],
    [((2,), (1, 0, 2))], [((2,), (1, -2))], [((2,), (1, 2.0))],
    [((2,), (1, "2"))], [((2,), (1, 2, 4))],
], ids=["other_prime", "two_others", "no_primes", "another_factors_prime",
        "zero", "negative", "float", "str", "hand_built"])
def test_product_coeffs_refuses_keys_off_their_primes(tables):
    # a product takes only the tables `truncated_exp` builds, which keep
    # their keys' factors: a key that is no int64 >= 1 is refused as its
    # table is built, and any table built by hand by the product
    with pytest.raises(DomainError):
        dirichlet.product_coeffs([(_keyed(ps, *ns), 0.0) for ps, ns in tables])


def test_product_coeffs_refuses_a_box_past_its_budget(table_small, table_mega,
                                                       monkeypatch):
    # 24 primes at cap 1 make 2^24 cells
    tables = [(dirichlet.truncated_exp(s, table_small), 0.0)
              for s in (_spec(2, 60, 3600, 1.0, 1), _spec(60, 100, 10_000, 0.7, 1))]
    with pytest.raises(ResourceError):
        dirichlet.product_coeffs(tables)
    # a cap-1 table over the 9 591 primes below 1e5 is refused, its
    # factors one column wide
    with pytest.raises(ResourceError):
        dirichlet.product_coeffs(
            [(_spec(2, 100_000, 200_000, 0.5, 1), 0.0)], table_mega)
    # three lemma33 factors fill a box of 19^4 cells; the budget is exact
    factors = [(_spec(2, 11, 200, 1.0, 6), 0.5)] * 3
    monkeypatch.setattr(dirichlet, "_BOX_MAX", 19 ** 4)
    assert len(dirichlet.product_coeffs(factors, table_small)) == 7315
    monkeypatch.setattr(dirichlet, "_BOX_MAX", 19 ** 4 - 1)
    with pytest.raises(ResourceError):
        dirichlet.product_coeffs(factors, table_small)


def _convolve(a, b):
    """The product of two tables given as (frequencies, coefficients)
    arrays, as sorting made it: the pairs summed per frequency
    `_PAIR_CHUNK` at a time, in row-major pair order, onto the sums of
    the chunks before, by `np.unique` and `bincount`."""
    (ns_a, coeffs_a), (ns_b, coeffs_b) = a, b
    ns = np.zeros(0, dtype=np.int64)
    sums = np.zeros(0, dtype=np.complex128)
    step = max(1, (1 << 16) // max(1, len(ns_b)))
    for i in range(0, len(ns_a), step):
        keys = np.concatenate([ns, (ns_a[i:i + step, None] * ns_b).ravel()])
        pair = np.concatenate([sums, (coeffs_a[i:i + step, None] * coeffs_b).ravel()])
        ns, slots = np.unique(keys, return_inverse=True)
        sums = np.empty(len(ns), dtype=np.complex128)
        sums.real = np.bincount(slots, pair.real, len(ns))
        sums.imag = np.bincount(slots, pair.imag, len(ns))
    return ns, sums


def _sorted_product(tables):
    """(frequencies, coefficients) of the twisted tables' product by `_convolve`."""
    acc = (np.ones(1, dtype=np.int64), np.ones(1, dtype=np.complex128))
    for tab, alpha in tables:
        ns = np.array(list(tab.entries), dtype=np.int64)
        coeffs = np.array(list(tab.entries.values()), dtype=np.complex128)
        if alpha != 0.0:
            angle = alpha * np.array([math.log(n) for n in tab.entries])
            coeffs = coeffs * (np.cos(angle) - 1j * np.sin(angle))
        acc = _convolve(acc, (ns, coeffs))
    return acc


def test_box_products_keep_the_bits_of_sorted_products(table_small, monkeypatch):
    # every cell sums its pairs in the order the sort-based product did,
    # so frequencies, coefficients (to the bit) and dict order all agree,
    # in any chunking of the pairs
    rng = random.Random(0x533)
    cases = []
    for m in (1, 2, 3, 3):              # lemma33: (2, 11], cap 6, up to 3 factors
        cases.append([(_spec(2, 11, 200, rng.uniform(0, 2), 6), rng.uniform(-5, 5))
                      for _ in range(m)])
    cases.append([(_spec(2, 11, 200, 0.0, 6), 1.5), (_spec(2, 11, 200, 1.3, 6), -0.7)])
    for cut, top, cap in ((5, 17, 1), (5, 19, 2), (7, 17, 2), (7, 19, 1)):   # lemma24
        cases.append([(_spec(2, cut, 64, rng.uniform(0.3, 2), cap), 0.0),
                      (_spec(cut, top, 64, rng.uniform(0.3, 2), 1), 0.0)])
    for factors in cases:
        tables = [(dirichlet.truncated_exp(s, table_small), a) for s, a in factors]
        ns, coeffs = _sorted_product(tables)
        for chunk in (1 << 16, 7):
            monkeypatch.setattr(dirichlet, "_PAIR_CHUNK", chunk)
            prod = dirichlet.product_coeffs(tables)
            assert list(prod.entries) == ns.tolist()
            got = np.array(list(prod.entries.values()), dtype=np.complex128)
            assert got.view(np.uint64).tolist() == coeffs.view(np.uint64).tolist()


def test_product_coeffs_permutation_invariant(table_small):
    specs = [(_spec(2, 11, 150, 1.4, 2), 0.7),
             (_spec(2, 11, 150, 0.6, 2), -1.3),
             (_spec(2, 11, 150, 1.0, 2), 0.0)]
    a = dirichlet.product_coeffs(specs, table_small)
    b = dirichlet.product_coeffs(specs[::-1], table_small)
    assert sorted(a.entries) == sorted(b.entries)
    for n in a.entries:
        assert abs(a.entries[n] - b.entries[n]) <= 1e-12


def test_product_coeffs_requires_shared_window(table_small):
    with pytest.raises(DomainError):
        dirichlet.product_coeffs(
            [(_spec(2, 11, 150, 1.0, 2), 0.0),
             (_spec(2, 13, 150, 1.0, 2), 1.0)],
            table_small)
    with pytest.raises(DomainError):
        dirichlet.product_coeffs([(_spec(2, 11, 150, 1.0, 2), 0.0)])


def test_mean_value_single_term():
    tab = dirichlet.CoeffTable.from_entries(
        entries={7: 0.5 + 0.25j}, primes=(7,),
        interval=primes.PrimeInterval(2.0, 7.0), max_omega=1)
    t_len = 1234.0
    want = t_len * abs(0.5 + 0.25j) ** 2
    mv, bound = dirichlet.exact_mv_integral(tab, t_len)
    assert math.isclose(mv, want, rel_tol=1e-14) and bound == 0.0
    # the diagonal at sigma0 = 0 is the integral's own, bit for bit
    assert mv == t_len * dirichlet.diagonal_sum(tab, 0.0)


def _simpson_mv_oracle(entries, t_len, n_cells=200_001):
    # composite Simpson on a dense grid, independent of the closed form
    t = np.linspace(t_len, 2.0 * t_len, n_cells)
    vals = np.zeros(n_cells, dtype=np.complex128)
    for n, c in entries.items():
        vals += c * np.exp(-1j * t * math.log(n))
    f = np.abs(vals) ** 2
    h = t[1] - t[0]
    w = np.ones(n_cells)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    return float(np.sum(w * f) * h / 3.0)


def test_mean_value_against_quadrature():
    entries = {1: 1.0 + 0.0j, 2: 1.0 + 0.0j}
    t_len = 1000.0
    got = dirichlet.exact_mv_integral(
        dirichlet.CoeffTable.from_entries(
            entries=entries, primes=(2,),
            interval=primes.PrimeInterval(1.0, 2.0), max_omega=1),
        t_len)[0]
    oracle = _simpson_mv_oracle(entries, t_len)
    assert abs(got - oracle) <= 1e-6 * abs(oracle)


def test_mean_value_mixed_table_against_quadrature():
    rng = random.Random(0xFADE)
    entries = {
        n: complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        for n in (1, 2, 3, 4, 6, 9, 12, 35, 36, 100)
    }
    t_len = 500.0
    tab = dirichlet.CoeffTable.from_entries(
        entries=entries, primes=(),
        interval=primes.PrimeInterval(1.0, 100.0), max_omega=0)
    got = dirichlet.exact_mv_integral(tab, t_len)[0]
    oracle = _simpson_mv_oracle(entries, t_len)
    assert abs(got - oracle) <= 1e-6 * abs(oracle)


# tables with pairs of frequencies whose log gap is under
# dirichlet._NEAR_LOG_EPS (1e-15 .. 1e-10), alone and beside far pairs
_NEAR_TABLES = (
    {10**12: 1.0, 10**12 + 1: -1.0 + 0.5j, 10**12 + 3: 0.3j},
    {1: 0.5, 7: 0.2 - 0.1j, 10**10: 1.0, 10**10 + 1: -0.9 + 0.1j,
     10**12: 0.4j, 10**12 + 2: -0.4j},
    {10**15: 1.0, 10**15 + 1: 0.5j, 10**15 + 2: -0.7},
)


def _table(entries):
    ns = sorted(entries)
    return dirichlet.CoeffTable.from_entries(
        entries={n: complex(c) for n, c in entries.items()}, primes=(),
        interval=primes.PrimeInterval(0.5, 2.0 * ns[-1]), max_omega=0)


def _assert_refused_as_near(entries):
    ns = sorted(entries)
    assert min(math.log1p((b - a) / a) for a, b in zip(ns, ns[1:])) \
        < dirichlet._NEAR_LOG_EPS
    with pytest.raises(DomainError):
        dirichlet.exact_mv_integral(_table(entries), 100.0)


def test_mean_value_near_pair_logs():
    # float64 logs under 1e-9 apart, which only frequencies near 1e9 and
    # up can have, are refused: such a gap can be off by 1e-6 relative
    # and more
    for entries in _NEAR_TABLES:
        _assert_refused_as_near(entries)


@pytest.mark.parametrize("chunk", [8, 16, 24, 1 << 16, None])
def test_near_run_across_block_boundary(chunk, monkeypatch):
    # the near run 10^15 .. 10^15 + 3 is refused before any row block is
    # formed: at blocks of 1, 2 and 3 of 8 rows, which cut it, of all 8,
    # and at the default (None), where 200 rows come 81 to a block and
    # the run sits at rows 79..82, across the first boundary
    run = [10**15, 10**15 + 1, 10**15 + 2, 10**15 + 3]
    if chunk is None:
        rng = random.Random(0)
        ns = (rng.sample(range(1, 10**6), 79) + run
              + rng.sample(range(10**16, 10**18, 10**13), 117))
        assert sorted(ns).index(run[0]) < dirichlet._GAP_BLOCK // len(ns) \
            <= sorted(ns).index(run[-1])
    else:
        monkeypatch.setattr(dirichlet, "_GAP_BLOCK", chunk)
        rng = random.Random(chunk)
        ns = [1, 7, 10**9, 10**12] + run
    _assert_refused_as_near({n: complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for n in ns})


def _per_row_gaps(table):
    # the per-row gap scan the block kernels replaced, kept as their reference
    logs = np.array([math.log(n) for n in sorted(table.entries)])
    for i in range(len(logs)):
        lam = logs - logs[i]
        lam[i] = 1.0
        yield i, lam


def _per_row_mean_value(table, t_len):
    ns = sorted(table.entries)
    a = np.array([table.entries[n] for n in ns], dtype=np.complex128)
    logs = np.array([math.log(n) for n in ns])
    u = np.exp(1j * t_len * logs)
    v = u * u
    diag = t_len * float(np.add.reduce(np.abs(a) ** 2))
    acc = KahanAccumulator(0.0 + 0.0j)
    for i, lam in _per_row_gaps(table):
        numer = v * np.conj(v[i]) - u * np.conj(u[i])
        integ = numer / (1j * lam)
        integ[i] = 0.0
        acc.add(a[i] * complex(np.add.reduce(np.conj(a) * integ)))
    return float(diag + acc.total.real)


def _per_row_bound(table):
    mags = np.array([abs(table.entries[n]) for n in sorted(table.entries)])
    acc = KahanAccumulator(0.0)
    for i, lam in _per_row_gaps(table):
        contrib = 2.0 * mags[i] * mags / np.abs(lam)
        contrib[i] = 0.0
        acc.add(float(np.add.reduce(contrib)))
    return acc.total if len(mags) > 1 else 0.0


_T_LENS = (1e6, 100.0, 12345.678)


def _scale(tab, t_len, bound):
    # what the mean value's rounding is measured against: T sum |c|^2 + bound
    return t_len * sum(abs(c) ** 2 for c in tab.entries.values()) + bound


def _assert_blocks_match_per_row(tab):
    # a block's row sums come from one product with the reciprocal gaps,
    # not from the per-row loop's pair terms, so they agree to rounding,
    # 1-2 ulp on the tables tried, and not bit for bit
    bound = _per_row_bound(tab)
    bounds = set()
    for t_len in _T_LENS:
        mv, got = dirichlet.exact_mv_integral(tab, t_len)
        bounds.add(got.hex())
        assert abs(got - bound) <= 1e-14 * bound
        assert abs(mv - _per_row_mean_value(tab, t_len)) <= 1e-14 * _scale(tab, t_len, bound)
    # the bound takes nothing from the window: one value, bit for bit
    assert len(bounds) == 1


@pytest.mark.parametrize("count", [1, 2, 33, 1000])
def test_block_kernels_match_the_per_row_loop(count, monkeypatch):
    # 1000 entries take 16 rows a block at the default, so the last block
    # is short; blocks of 8, 16 and 24 pairs are one row each at 33 and
    # 1000 entries, and hold both rows at 2 entries
    rng = random.Random(count)
    entries = {n: complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
               for n in rng.sample(range(1, 10_001), count)}
    tab = dirichlet.CoeffTable.from_entries(entries=entries, primes=(), max_omega=0,
                               interval=primes.PrimeInterval(1.0, 10_000.0))
    bound = _per_row_bound(tab)
    values = []
    for chunk in (8, 16, 24, dirichlet._GAP_BLOCK):
        monkeypatch.setattr(dirichlet, "_GAP_BLOCK", chunk)
        _assert_blocks_match_per_row(tab)
        values.append([x for t_len in _T_LENS for x in dirichlet.exact_mv_integral(tab, t_len)])
    scales = [x for t_len in _T_LENS for x in (_scale(tab, t_len, bound), bound)]
    for column, scale in zip(zip(*values), scales):
        assert max(column) - min(column) <= 1e-14 * scale


def _pair_reference(tab):
    """(mean values at _T_LENS, bound), summed pair by pair at 40 digits.

    The pair (m, n), m < n, with lam = log(n/m) adds 2 Re of
    c(m) conj(c(n)) (e^(2iT lam) - e^(iT lam)) / (i lam) to the mean
    value, its phases as products of n^(iT) and m^(-iT), and
    4 |c(m) c(n)| / lam to the bound."""
    with mpmath.workdps(40):
        ns = sorted(tab.entries)
        a = [mpmath.mpc(tab.entries[n]) for n in ns]
        logs = [mpmath.log(n) for n in ns]
        inv = [[1 / (logs[j] - logs[i]) for i in range(j)] for j in range(len(ns))]
        bound = 4 * mpmath.fsum(abs(a[j]) * mpmath.fdot(map(abs, a[:j]), inv[j])
                                for j in range(len(ns)))
        mvs = []
        for t_len in _T_LENS:
            t = mpmath.mpf(t_len)
            u = [mpmath.expj(t * lg) for lg in logs]
            # parts of c n^(-2iT) and c n^(-iT); the pair's
            # Im(av_m conj(av_n) - au_m conj(au_n)) from them
            av = [(w.real, w.imag) for w in (c * mpmath.conj(x * x) for c, x in zip(a, u))]
            au = [(w.real, w.imag) for w in (c * mpmath.conj(x) for c, x in zip(a, u))]
            mvs.append(float(t * mpmath.fsum(abs(c) ** 2 for c in a) + 2 * mpmath.fsum(
                mpmath.fdot((av[i][1] * av[j][0] - av[i][0] * av[j][1]
                             - au[i][1] * au[j][0] + au[i][0] * au[j][1]
                             for i in range(j)), inv[j])
                for j in range(len(ns)))))
        return mvs, float(bound)


@pytest.mark.parametrize("tab", [
    *(dirichlet.CoeffTable.from_entries(
        entries={n: complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
                 for n in rng.sample(range(1, 10_001), count)},
        primes=(), max_omega=0, interval=primes.PrimeInterval(1.0, 10_000.0))
      for count in (2, 33, 250) for rng in [random.Random(0x40D + count)]),
], ids=["2", "33", "250"])
def test_block_kernels_are_as_accurate_as_the_per_row_loop(tab):
    # against a 40-digit pair sum, the product's error is the per-row
    # loop's to within 1e-15 of the scale: both come from the float64
    # log gaps, which the two share
    mvs, bound = _pair_reference(tab)
    for t_len, mv in zip(_T_LENS, mvs):
        got, got_bound = dirichlet.exact_mv_integral(tab, t_len)
        assert (abs(got - mv) <= abs(_per_row_mean_value(tab, t_len) - mv)
                + 1e-15 * _scale(tab, t_len, bound))
        assert (abs(got_bound - bound)
                <= abs(_per_row_bound(tab) - bound) + 1e-15 * bound)


@pytest.mark.parametrize("seed", range(3))
def test_mean_value_at_a_log_gap_of_1e8(seed):
    # {10^8, 10^8 + 1} lie 1e-8 apart in log, ten times the least gap
    # taken; the float64 log gap's rounding stays within the docstring's
    # 4e-10 of the scale and 3e-7 of the bound
    rng = random.Random(seed)
    tab = _table({n: complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
                  for n in (10**8, 10**8 + 1)})
    mvs, bound = _pair_reference(tab)
    for t_len, mv in zip(_T_LENS, mvs):
        got, got_bound = dirichlet.exact_mv_integral(tab, t_len)
        assert abs(got - mv) <= 4e-10 * _scale(tab, t_len, bound)
        assert abs(got_bound - bound) <= 3e-7 * bound


_THREADS_SCRIPT = """
import random
from zetacorr import dirichlet, primes
for count in (50, 700, 2500):
    rng = random.Random(count)
    ns = rng.sample(range(1, 40 * count), count)
    tab = dirichlet.CoeffTable.from_entries(
        entries={n: complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for n in ns},
        primes=(), max_omega=0, interval=primes.PrimeInterval(0.5, 40.0 * count))
    print(*(x.hex() for t in (100.0, 1e6) for x in dirichlet.exact_mv_integral(tab, t)))
"""


def test_mean_value_bits_do_not_depend_on_blas_threads():
    src = pathlib.Path(__file__).parents[1] / "src"
    outputs = set()
    for blas in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=blas,
                   PYTHONPATH=os.pathsep.join(
                       [str(src)] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
        outputs.add(subprocess.run(
            [sys.executable, "-c", _THREADS_SCRIPT], env=env,
            capture_output=True, text=True, timeout=300, check=True).stdout)
    assert len(outputs) == 1


@pytest.mark.parametrize("entries", [
    {0: 1.0, 2: 1.0}, {-3: 1.0, 2: 1.0}, {2.5: 1.0, 3: 1.0},
    {1: 1.0, 1 << 70: 1.0, 3: 1.0}, {1 << 63: 1.0},
    {1: math.nan, 2: 1.0}, {1: complex(0.5, math.inf), 2: 1.0},
    {1: -math.inf, 2: 1.0},
], ids=["zero", "negative", "float", "past_int64", "int64_end", "nan", "inf_imag",
        "minus_inf"])
def test_mean_values_refuse_bad_tables(entries):
    # a key that is no int64 >= 1 is refused as its table is built, a
    # coefficient that is not finite by each mean value
    def build():
        return dirichlet.CoeffTable.from_entries(
            entries, primes=(), max_omega=0, interval=primes.PrimeInterval(0.5, 4.0))

    if any(type(n) is not int or not 0 < n < 1 << 63 for n in entries):
        with pytest.raises(DomainError):
            build()
        return
    tab = build()
    for call in (lambda: dirichlet.exact_mv_integral(tab, 100.0),
                 lambda: dirichlet.diagonal_sum(tab, 0.5)):
        with pytest.raises(DomainError):
            call()


@pytest.mark.parametrize("sigma0", [math.nan, math.inf, -math.inf, -600.0])
def test_diagonal_sum_refuses_a_non_finite_sigma0(sigma0):
    # at -600 the finite sigma0 overflows the term 2^1200
    tab = dirichlet.CoeffTable.from_entries(entries={1: 1.0, 2: 0.5}, primes=(), max_omega=0,
                               interval=primes.PrimeInterval(0.5, 4.0))
    with pytest.raises(DomainError):
        dirichlet.diagonal_sum(tab, sigma0)


@pytest.mark.parametrize("t_len", [math.nan, math.inf, -math.inf, 0.0, -1.0])
def test_mean_value_needs_a_finite_positive_window(t_len):
    with pytest.raises(DomainError):
        dirichlet.exact_mv_integral(_table({1: 1.0, 2: 0.5j, 3: -0.25}), t_len)


def test_mean_value_remainder_bound():
    rng = random.Random(0x2CE)
    t_len = 1e6
    for _ in range(20):
        count = rng.randint(2, 60)
        freqs = rng.sample(range(1, 2000), count)
        entries = {
            n: complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for n in freqs
        }
        tab = dirichlet.CoeffTable.from_entries(
            entries=entries, primes=(),
            interval=primes.PrimeInterval(1.0, 2000.0), max_omega=0)
        mv, bound = dirichlet.exact_mv_integral(tab, t_len)
        diag = t_len * dirichlet.diagonal_sum(tab, 0.0)
        assert abs(mv - diag) <= bound * (1.0 + 1e-9) + 1e-9


def test_mean_value_caps_table_size():
    entries = {n: 1.0 + 0.0j for n in range(1, 10_003)}
    tab = dirichlet.CoeffTable.from_entries(
        entries=entries, primes=(),
        interval=primes.PrimeInterval(1.0, 11_000.0), max_omega=0)
    with pytest.raises(ResourceError):
        dirichlet.exact_mv_integral(tab, 100.0)


def test_diagonal_below_euler_bound(table_small):
    rng = random.Random(0x3AD)
    for _ in range(12):
        spec = _spec(rng.choice([2, 3, 5]), rng.choice([23, 47, 89]),
                     10_000, rng.uniform(0.0, 2.0), rng.randint(1, 4))
        tab = dirichlet.truncated_exp(spec, table_small)
        sigma0 = rng.uniform(0.5, 1.2)
        diag = dirichlet.diagonal_sum(tab, sigma0)
        bound = dirichlet.euler_bound(tab, sigma0)
        assert diag <= bound * (1.0 + 1e-12)
        # against the per-entry sum: positive terms, each a few ulp off,
        # and a pairwise reduction
        assert math.isclose(diag, math.fsum(
            abs(c) ** 2 * math.exp(-2.0 * sigma0 * math.log(n))
            for n, c in tab.entries.items()), rel_tol=1e-14)


def test_euler_bound_log_linearization(table_small):
    # with b(p) = 2 * taper(p) over (2, 1e3] and no prime powers (so
    # c2 = 0), log of the product tracks 4 * sum taper(p)^2 / p within
    # 15 percent
    ps = [int(p) for p in table_small.primes_between(2.0, 1000.0)]
    x_cutoff = 1e6
    entries = {1: 1.0 + 0.0j}
    for p in ps:
        entries[p] = 2.0 * primes.taper_weight(p, x_cutoff)
    tab = dirichlet.CoeffTable.from_entries(
        entries=entries, primes=tuple(ps),
        interval=primes.PrimeInterval(2.0, 1000.0), max_omega=1)
    bound = dirichlet.euler_bound(tab, 0.5)
    linear = 4.0 * math.fsum(
        primes.taper_weight(p, x_cutoff) ** 2 / p for p in ps)
    # measured 15.9 percent: log1p curvature at the small primes;
    # the linearization claim is qualitative, so allow 20
    assert abs(math.log(bound) - linear) <= 0.20 * linear


def test_inverse_bound_pairing_spot(table_small):
    rng = random.Random(0x22)
    for _ in range(40):
        k_bound = rng.choice([5.0, 10.0, 19.18])
        b_star = rng.choice([1.0, 2.0, 3.0])
        beta = rng.uniform(0.0, b_star)
        radius = 2.0 * k_bound * math.sqrt(rng.random())
        theta = rng.uniform(0.0, 2.0 * math.pi)
        p_val = complex(radius * math.cos(theta), radius * math.sin(theta))
        n_val = dirichlet.lemma22_n_value(p_val, beta, b_star, k_bound)
        assert dirichlet.lemma22_check(p_val, beta, b_star, k_bound, n_val)


def test_inverse_bound_degenerate_inputs():
    n = dirichlet.lemma22_n_value(0.0 + 0.0j, 1.0, 1.0, 5.0)
    assert dirichlet.lemma22_check(0.0 + 0.0j, 1.0, 1.0, 5.0, n)
    n = dirichlet.lemma22_n_value(3.0 + 1.0j, 0.0, 2.0, 5.0)
    assert dirichlet.lemma22_check(3.0 + 1.0j, 0.0, 2.0, 5.0, n)


def test_inverse_bound_refuses_non_finite_inputs():
    nan, inf = math.nan, math.inf
    bad_inputs = [(1j, nan, 1.0, 5.0), (complex(nan), 0.5, 1.0, 5.0),
                  (complex(1.0, inf), 0.5, 1.0, 5.0), (1j, 0.5, nan, 5.0),
                  (1j, 0.5, inf, 5.0), (1j, 0.5, 1.0, nan), (1j, 0.5, 1.0, inf),
                  (1j, inf, inf, 5.0)]
    for args in bad_inputs:
        with pytest.raises(DomainError, match="finite"):
            dirichlet.lemma22_n_value(*args)
        with pytest.raises(DomainError, match="finite"):
            dirichlet.lemma22_check(*args, 1.0 + 0.0j)
    for n_val in (complex(nan), complex(1.0, inf), mpmath.mpc(nan, 0.0)):
        with pytest.raises(DomainError, match="N must be finite"):
            dirichlet.lemma22_check(1j, 0.5, 1.0, 5.0, n_val)


def test_inverse_bound_rejects_outside_disc():
    for check in (
            lambda p, b, bs, k: dirichlet.lemma22_check(p, b, bs, k, 1.0 + 0.0j),
            dirichlet.lemma22_n_value):
        with pytest.raises(DomainError):
            check(11.0 + 0.0j, 1.0, 1.0, 5.0)
        with pytest.raises(DomainError):
            check(1.0 + 0.0j, 2.0, 1.0, 5.0)
        with pytest.raises(DomainError):
            check(1.0 + 0.0j, 0.5, 0.5, 5.0)


def _lemma22_draws(count, seed):
    """Draws from `verify.lemma22`'s distribution, then P = 0, beta = 0,
    and the disc edge |P| = 2K at theta = pi with beta = beta*, the
    draw where the series tail is largest, for every (K, beta*)."""
    rng = random.Random(seed)
    draws = []
    for _ in range(count):
        k_bound = rng.choice((5.0, 10.0, 19.18))
        b_star = rng.choice((1.0, 2.0, 3.0))
        beta = rng.uniform(0.0, b_star)
        radius = 2.0 * k_bound * math.sqrt(rng.random())
        theta = rng.uniform(0.0, 2.0 * math.pi)
        draws.append((complex(radius * math.cos(theta), radius * math.sin(theta)),
                      beta, b_star, k_bound))
    for k_bound in (5.0, 10.0, 19.18):
        for b_star in (1.0, 2.0, 3.0):
            draws += [(0.0 + 0.0j, b_star, b_star, k_bound),
                      (complex(k_bound, -k_bound), 0.0, b_star, k_bound),
                      (complex(-2.0 * k_bound, 0.0), b_star, b_star, k_bound)]
    return draws


def _ascending_n_value(p_val, beta, b_star, k_bound):
    """Oracle for N: the ascending series sum_{d <= cap} w^d / d!."""
    with mpmath.workdps(dirichlet._lemma22_dps(b_star, k_bound)):
        w = mpmath.mpc(p_val) * beta
        term = total = mpmath.mpc(1)
        for d in range(1, math.floor(20.0 * b_star * k_bound) + 1):
            term = term * w / d
            total += term
        return total


def _tail_n_value(p_val, beta, b_star, k_bound):
    """Oracle for N: e^w minus the tail from its first term, formed by
    mpmath's own complex power."""
    with mpmath.workdps(dirichlet._lemma22_dps(b_star, k_bound)):
        w = mpmath.mpc(p_val) * beta
        total = mpmath.exp(w)
        d = math.floor(20.0 * b_star * k_bound) + 1
        term = w ** d / mpmath.factorial(d)
        while total - term != total:
            total -= term
            d += 1
            term = term * w / d
        return total


def _log_form_check(p_val, beta, b_star, k_bound, n_val):
    """Oracle for the decision: 2 beta Re P <= log1p(eps) + 2 log |N|."""
    with mpmath.workdps(dirichlet._lemma22_dps(b_star, k_bound)):
        n_mag = abs(mpmath.mpc(n_val))
        if n_mag == 0:
            return False
        lhs = 2 * mpmath.mpf(beta) * mpmath.mpc(p_val).real
        eps = mpmath.exp(mpmath.mpf(-10.0) * k_bound * b_star)
        return bool(lhs <= mpmath.log1p(eps) + 2 * mpmath.log(n_mag))


def test_inverse_bound_matches_log_form_and_mpmath_power(monkeypatch):
    # N without mpmath's complex power, checked against the tail formed
    # with it; the squared check against the log form on N, where the
    # inequality holds, and on N (1 - eps), where it fails, each by a
    # margin of about eps
    draws = _lemma22_draws(2000, 0x22D)
    with monkeypatch.context() as patch:
        def no_power(*args):
            raise AssertionError("mpmath complex power reached")
        patch.setattr(mpmath.mpc, "__pow__", no_power)
        got = [dirichlet.lemma22_n_value(*draw) for draw in draws]
    for draw, n_val in zip(draws, got):
        _, _, b_star, k_bound = draw
        want = _tail_n_value(*draw)
        with mpmath.workdps(dirichlet._lemma22_dps(b_star, k_bound)):
            eps = mpmath.exp(-10.0 * k_bound * b_star)
            assert abs(n_val - want) <= 1e-40 * eps * abs(want), draw
            moved = n_val * (1 - eps)
        for n_try, holds in ((n_val, True), (moved, False)):
            assert dirichlet.lemma22_check(*draw, n_try) is holds, draw
            assert _log_form_check(*draw, n_try) is holds, draw


def test_inverse_bound_n_value_matches_ascending_series():
    # the series loses up to 4 K beta* / ln 10 of the working digits to
    # cancellation, which leaves it 45 digits below the margin
    # eps = e^(-10 K beta*); agreement to 40 digits below eps is checked
    for draw in _lemma22_draws(120, 0x22C):
        _, _, b_star, k_bound = draw
        got, want = dirichlet.lemma22_n_value(*draw), _ascending_n_value(*draw)
        with mpmath.workdps(dirichlet._lemma22_dps(b_star, k_bound)):
            eps = mpmath.exp(-10.0 * k_bound * b_star)
            assert abs(got - want) <= 1e-40 * eps * abs(want), draw
        assert dirichlet.lemma22_check(*draw, got), draw
        assert dirichlet.lemma22_check(*draw, want), draw


def test_splitting_two_blocks(table_small):
    # factors over (2, 5] and (193, 199], their primes to degree 1, with
    # product length 5 * 199 = 995 inside the min(1e4, sqrt(T)) budget
    rng = random.Random(0x24)
    t_len = 1e6
    tab1, tab2 = (dirichlet.truncated_exp(_spec(lo, hi, 400, rng.uniform(0.3, 2), 1),
                                          table_small) for lo, hi in ((2, 5), (193, 199)))
    lhs, rhs = dirichlet.splitting_check([tab1, tab2], t_len)
    length = max(tab1.entries) * max(tab2.entries)
    assert length == 995
    assert abs(lhs - rhs) / rhs <= 10.0 * length / t_len


def test_splitting_trivial_cases(table_small):
    # cap-0 factors are the constant 1
    one, other = (dirichlet.truncated_exp(_spec(lo, hi, 400, 1.0, 0), table_small)
                  for lo, hi in ((2, 10), (10, 20)))
    lhs, rhs = dirichlet.splitting_check([one, other], 500.0)
    assert lhs == 500.0 and rhs == 500.0


def test_splitting_requires_disjoint_spans(table_small):
    tab1 = dirichlet.truncated_exp(_spec(2, 60, 3600, 1.0, 1), table_small)
    tab2 = dirichlet.truncated_exp(_spec(50, 200, 40_000, 1.0, 1), table_small)
    with pytest.raises(DomainError):
        dirichlet.splitting_check([tab1, tab2], 1e6)
    # a product needs two or more factors
    for tables in ([], [tab1]):
        with pytest.raises(DomainError):
            dirichlet.splitting_check(tables, 1e6)


def test_splitting_length_budget(table_small):
    tab1 = dirichlet.truncated_exp(_spec(2, 7, 49, 1.0, 2), table_small)
    tab2 = dirichlet.truncated_exp(_spec(7, 31, 961, 1.0, 1), table_small)
    # product length 49 * 31 = 1519 exceeds min(1e4, sqrt(1e6)) = 1000
    with pytest.raises(ResourceError):
        dirichlet.splitting_check([tab1, tab2], 1e6)
    # but a taller window admits it: sqrt(4e6) = 2000
    lhs, rhs = dirichlet.splitting_check([tab1, tab2], 4e6)
    assert abs(lhs - rhs) / rhs <= 10.0 * 1519.0 / 4e6
