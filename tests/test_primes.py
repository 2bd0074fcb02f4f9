"""Sieve and tapered prime-sum behavior."""

import math
import random

import numpy as np
import pytest

from zetacorr import primes
from zetacorr.errors import ConfigError, InsufficientSieveError
from zetacorr.sums import UniformGrid


def _at(t):
    """The one-node grid at t."""
    return UniformGrid(t, 1.0, 1)


def _trial_division_count(limit):
    count = 0
    for n in range(2, limit + 1):
        d = 2
        while d * d <= n:
            if n % d == 0:
                break
            d += 1
        else:
            count += 1
    return count


def test_sieve_small_members():
    table = primes.sieve_primes(10)
    assert list(table.primes) == [2, 3, 5, 7]


def test_sieve_boundary_limit_two():
    table = primes.sieve_primes(2)
    assert list(table.primes) == [2]


def test_sieve_counts_against_trial_division():
    assert len(primes.sieve_primes(100)) == 25
    assert len(primes.sieve_primes(1000)) == 168
    assert len(primes.sieve_primes(1000)) == _trial_division_count(1000)


def test_sieve_mega_count(table_mega):
    # classical value, re-derived by trial division over a sparse
    # residue check: count must be 78498
    assert len(table_mega) == 78498


def test_sieve_limit_validation():
    with pytest.raises(ConfigError):
        primes.sieve_primes(1)
    with pytest.raises(ConfigError):
        primes.sieve_primes(10**9 + 1)


def test_primes_between_exclusive_inclusive(table_small):
    sel = table_small.in_interval(primes.PrimeInterval(3.0, 7.0))
    assert list(sel) == [5, 7]
    sel = table_small.primes_between(7.0, 10.0)
    assert list(sel) == []


def test_taper_weight_endpoints():
    assert primes.taper_weight(8, 8.0) == 0.0
    assert math.isclose(primes.taper_weight(3, 9.0), 0.5, rel_tol=1e-15)
    assert math.isclose(primes.taper_weight(2, 8.0), 2.0 / 3.0, rel_tol=1e-15)


def test_prime_sum_cos_reciprocal_example(table_small):
    # delta=0, X=10: 1/2 + 1/3 + 1/5 + 1/7
    got = primes.pretentious_cos_sum(table_small, 10.0, _at(0.0))[0]
    assert math.isclose(got, 1.176190476190476, rel_tol=1e-15)
    # a cutoff between integers needs only the sieve to its floor
    ten = primes.sieve_primes(10)
    assert primes.pretentious_cos_sum(ten, 10.5, _at(0.0))[0] == got


def test_prime_sum_cos_single_term(table_small):
    for delta in (0.0, 1.3, -4.2):
        got = primes.pretentious_cos_sum(table_small, 2.0, _at(delta))[0]
        assert math.isclose(got, math.cos(delta * math.log(2.0)) / 2.0,
                            rel_tol=1e-15, abs_tol=1e-15)


def test_prime_sum_cos_magnitude_at_1e5(table_mega):
    # slow growth like log log X + 0.2615
    got = primes.pretentious_cos_sum(table_mega, 1e5, _at(0.0))[0]
    assert abs(got - 2.705) < 0.01


def test_prime_sum_cos_even_in_delta(table_small):
    rng = random.Random(0x5EED)
    for _ in range(25):
        d = rng.uniform(0.0, 60.0)
        a = primes.pretentious_cos_sum(table_small, 5000.0, _at(d))[0]
        b = primes.pretentious_cos_sum(table_small, 5000.0, _at(-d))[0]
        assert abs(a - b) <= 1e-12


def test_prime_sum_cos_needs_enough_sieve(table_small):
    with pytest.raises(InsufficientSieveError):
        primes.pretentious_cos_sum(table_small, 20_000.0, _at(0.0))[0]


def test_block_sum_square_cutoff_weight(table_small):
    # X = p^2 forces weight 1/2, so (2,3] at s=1 gives 1/6
    got = primes.tapered_block_sum(
        table_small, primes.PrimeInterval(2.0, 3.0), 9.0, 1.0, _at(0.0))[0]
    assert abs(got - 1.0 / 6.0) <= 1e-15


def test_block_sum_empty_interval(table_small):
    got = primes.tapered_block_sum(
        table_small, primes.PrimeInterval(7.0, 10.0), 100.0, 1.0, _at(0.0))[0]
    assert got == 0.0


def test_block_sum_two_primes(table_small):
    w3 = math.log(25.0 / 3.0) / math.log(25.0)
    w5 = math.log(25.0 / 5.0) / math.log(25.0)
    want = w3 / math.sqrt(3.0) + w5 / math.sqrt(5.0)
    got = primes.tapered_block_sum(
        table_small, primes.PrimeInterval(2.0, 5.0), 25.0, 0.5, _at(0.0))[0]
    assert abs(got - want) <= 1e-14


def test_block_sum_monotone_in_sigma(table_small):
    interval = primes.PrimeInterval(10.0, 400.0)
    vals = [
        primes.tapered_block_sum(table_small, interval, 400.0, s, _at(0.0))[0].real
        for s in (0.3, 0.5, 0.8, 1.2, 2.0)
    ]
    assert all(a > b for a, b in zip(vals, vals[1:]))


def test_block_sum_triangle_inequality(table_small):
    rng = random.Random(0xB10C)
    interval = primes.PrimeInterval(5.0, 1000.0)
    for _ in range(25):
        sigma = rng.uniform(0.3, 1.5)
        t = rng.uniform(-200.0, 200.0)
        osc = abs(primes.tapered_block_sum(
            table_small, interval, 1000.0, sigma, _at(t))[0])
        flat = primes.tapered_block_sum(
            table_small, interval, 1000.0, sigma, _at(0.0))[0].real
        assert osc <= flat * (1.0 + 1e-12)


def test_fourth_moment_statistical_bound(table_small):
    # mean of |sum p^(-it)|^4 over a long window against the generous
    # 8 * k! * pi(N)^2 cap with k=2, N=100
    sel = table_small.primes_between(1.0, 100.0)
    logs = np.log(sel.astype(np.float64))
    t = np.linspace(0.0, 1e5, 20_001)
    phases = np.exp(-1j * np.outer(t, logs))
    power = np.abs(phases.sum(axis=1)) ** 4
    average = float(power.mean())
    cap = 8.0 * 2.0 * len(sel) ** 2
    assert average <= cap


def test_square_poly_band_one(table_small):
    # primes in (e, e^2] are {3, 5, 7}
    got = primes.half_square_sum(
        table_small, primes.square_band_interval(1), 0.5, _at(0.0))[0]
    assert abs(got - 0.3380952380952381) <= 1e-15


def test_square_poly_decays_in_sigma(table_small):
    got = primes.half_square_sum(
        table_small, primes.square_band_interval(1), 40.0, _at(0.0))[0]
    assert abs(got) < 1e-15


def test_square_poly_synthetic_empty_interval(table_small):
    got = primes.half_square_sum(
        table_small, primes.PrimeInterval(7.0, 10.0), 0.5, _at(0.0))[0]
    assert got == 0.0


def test_square_poly_needs_sieve(table_small):
    with pytest.raises(InsufficientSieveError):
        primes.half_square_sum(
            table_small, primes.square_band_interval(12), 0.5, _at(0.0))


def test_chunked_sum_matches_direct(table_mega):
    # the kernel's 39 term blocks, merged by Kahan, must agree with a
    # plain sum
    interval = primes.PrimeInterval(2.0, 1e6)
    got = primes.tapered_block_sum(table_mega, interval, 1e6, 1.0, _at(7.0))[0]
    sel = table_mega.in_interval(interval).astype(np.float64)
    w = np.log(1e6 / sel) / np.log(1e6)
    direct = np.sum(w * sel ** -1.0 * np.exp(-1j * 7.0 * np.log(sel)))
    assert abs(got - direct) <= 1e-10 * abs(direct)
