"""Coefficient tables, exact mean values, and the inequality checks."""

import math
import random

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


def test_truncated_exp_entry_budget(table_mega):
    spec = _spec(2, 100_000, 200_000, 1.0, 6)
    with pytest.raises(ResourceError):
        dirichlet.truncated_exp(spec, table_mega, max_entries=10_000)


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
    cases = [[(_spec(2, 60, 3600, 1.0, 1), 0.0), (_spec(60, 100, 10_000, 0.7, 1), 0.0)]]
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
    assert len(ps) == 9591 and len(tab) == 9592
    assert tab.entries == {1: 1.0 + 0.0j, **{
        p: 0.5 * primes.taper_weight(p, 200_000.0) + 0.0j for p in ps}}


def test_product_coeffs_entry_budget(table_small, monkeypatch):
    # two cap-3 factors over the four primes of (2, 11] give all 210
    # products of at most 6 of them; the budget is exact, in any chunking
    factors = [(_spec(2, 11, 150, 1.2, 3), 0.4), (_spec(2, 11, 150, 0.8, 3), -1.1)]
    for chunk in (1 << 16, 7):
        monkeypatch.setattr(dirichlet, "_PAIR_CHUNK", chunk)
        assert len(dirichlet.product_coeffs(factors, table_small, max_entries=210)) == 210
        with pytest.raises(ResourceError):
            dirichlet.product_coeffs(factors, table_small, max_entries=209)


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
    tab = dirichlet.CoeffTable(
        entries={7: 0.5 + 0.25j}, primes=(7,),
        interval=primes.PrimeInterval(2.0, 7.0), max_omega=1)
    t_len = 1234.0
    want = t_len * abs(0.5 + 0.25j) ** 2
    assert math.isclose(
        dirichlet.exact_mv_integral(tab, t_len), want, rel_tol=1e-14)


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
        dirichlet.CoeffTable(
            entries=entries, primes=(2,),
            interval=primes.PrimeInterval(1.0, 2.0), max_omega=1),
        t_len)
    oracle = _simpson_mv_oracle(entries, t_len)
    assert abs(got - oracle) <= 1e-6 * abs(oracle)


def test_mean_value_mixed_table_against_quadrature():
    rng = random.Random(0xFADE)
    entries = {
        n: complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        for n in (1, 2, 3, 4, 6, 9, 12, 35, 36, 100)
    }
    t_len = 500.0
    tab = dirichlet.CoeffTable(
        entries=entries, primes=(),
        interval=primes.PrimeInterval(1.0, 100.0), max_omega=0)
    got = dirichlet.exact_mv_integral(tab, t_len)
    oracle = _simpson_mv_oracle(entries, t_len)
    assert abs(got - oracle) <= 1e-6 * abs(oracle)


def test_mean_value_near_pair_logs():
    # adjacent huge frequencies stress the log-difference path
    entries = {999_983: 1.0 + 0.0j, 999_979: 1.0 + 0.0j}
    tab = dirichlet.CoeffTable(
        entries=entries, primes=(),
        interval=primes.PrimeInterval(1.0, 1e6), max_omega=0)
    t_len = 100.0
    got = dirichlet.exact_mv_integral(tab, t_len)
    oracle = _simpson_mv_oracle(entries, t_len, n_cells=400_001)
    assert abs(got - oracle) <= 1e-6 * abs(oracle)


def test_mean_value_remainder_bound():
    rng = random.Random(0x2CE)
    t_len = 1e6
    for _ in range(20):
        count = rng.randint(2, 60)
        freqs = rng.sample(range(1, 2000), count)
        entries = {
            n: complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for n in freqs
        }
        tab = dirichlet.CoeffTable(
            entries=entries, primes=(),
            interval=primes.PrimeInterval(1.0, 2000.0), max_omega=0)
        mv = dirichlet.exact_mv_integral(tab, t_len)
        diag = t_len * dirichlet.diagonal_sum(tab, 0.0)
        bound = dirichlet.off_diagonal_bound(tab)
        assert abs(mv - diag) <= bound * (1.0 + 1e-9) + 1e-9


def test_mean_value_caps_table_size():
    entries = {n: 1.0 + 0.0j for n in range(1, 10_003)}
    tab = dirichlet.CoeffTable(
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


def test_euler_bound_log_linearization(table_small):
    # with b(p) = 2 * taper(p) over (2, 1e3] and no prime powers (so
    # c2 = 0), log of the product tracks 4 * sum taper(p)^2 / p within
    # 15 percent
    ps = [int(p) for p in table_small.primes_between(2.0, 1000.0)]
    x_cutoff = 1e6
    entries = {1: 1.0 + 0.0j}
    for p in ps:
        entries[p] = 2.0 * primes.taper_weight(p, x_cutoff)
    tab = dirichlet.CoeffTable(
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


def _sparse_factor(rng, interval, freqs):
    entries = {1: 1.0 + 0.0j}
    for n in freqs:
        entries[n] = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
    return dirichlet.CoeffTable(
        entries=entries, primes=tuple(freqs), interval=interval,
        max_omega=1)


def test_splitting_two_blocks(table_small):
    # random factors over (2,50] and (50,200] with product length
    # 5 * 199 = 995 inside the min(1e4, sqrt(T)) budget
    rng = random.Random(0x24)
    t_len = 1e6
    tab1 = _sparse_factor(rng, primes.PrimeInterval(2.0, 50.0), [3, 5])
    tab2 = _sparse_factor(
        rng, primes.PrimeInterval(50.0, 200.0), [53, 101, 199])
    lhs, rhs = dirichlet.splitting_check([tab1, tab2], t_len)
    length = max(tab1.entries) * max(tab2.entries)
    assert length == 995
    assert abs(lhs - rhs) / rhs <= 10.0 * length / t_len


def test_splitting_trivial_cases(table_small):
    one = dirichlet.CoeffTable(
        entries={1: 1.0 + 0.0j}, primes=(),
        interval=primes.PrimeInterval(2.0, 10.0), max_omega=0)
    other = dirichlet.CoeffTable(
        entries={1: 1.0 + 0.0j}, primes=(),
        interval=primes.PrimeInterval(10.0, 20.0), max_omega=0)
    lhs, rhs = dirichlet.splitting_check([one, other], 500.0)
    assert lhs == 500.0 and rhs == 500.0


def test_splitting_single_factor_is_exact(table_small):
    tab = dirichlet.truncated_exp(_spec(2, 30, 900, 0.8, 2), table_small)
    lhs, rhs = dirichlet.splitting_check([tab], 1e6)
    assert lhs == rhs


def test_splitting_requires_disjoint_spans(table_small):
    tab1 = dirichlet.truncated_exp(_spec(2, 60, 3600, 1.0, 1), table_small)
    tab2 = dirichlet.truncated_exp(_spec(50, 200, 40_000, 1.0, 1), table_small)
    with pytest.raises(DomainError):
        dirichlet.splitting_check([tab1, tab2], 1e6)
    with pytest.raises(DomainError):
        dirichlet.splitting_check([], 1e6)


def test_splitting_length_budget(table_small):
    tab1 = dirichlet.truncated_exp(_spec(2, 7, 49, 1.0, 2), table_small)
    tab2 = dirichlet.truncated_exp(_spec(7, 31, 961, 1.0, 1), table_small)
    # product length 49 * 31 = 1519 exceeds min(1e4, sqrt(1e6)) = 1000
    with pytest.raises(ResourceError):
        dirichlet.splitting_check([tab1, tab2], 1e6)
    # but a taller window admits it: sqrt(4e6) = 2000
    lhs, rhs = dirichlet.splitting_check([tab1, tab2], 4e6)
    assert abs(lhs - rhs) / rhs <= 10.0 * 1519.0 / 4e6
