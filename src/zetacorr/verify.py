"""Seeded drivers for the randomized lemma checks behind `zetacorr verify`.

Each driver takes a `random.Random` and its parameters, already parsed
and defaulted by the command line's parameter table, and returns the
results of its check, with a `violations` count.  Trials draw from the
generator in a fixed order, so a seed fixes every draw.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from . import blocks, dirichlet, moments, primes, zeta
from .errors import ResourceError
from .sums import UniformGrid

_LEMMA26_CAP = 3.0      # allowed |prime cosine sum - log|zeta(1 + 1/log X + i delta)||
_MV_WINDOW = 1e6        # mean values are taken over [T, 2T] with this T
_COEFF_TERMS_MAX = 1000     # a lemma23 table has 1..this entries
_COEFF_FREQ_MAX = 10_000    # at distinct frequencies in 1..this
_LEMMA21_POINTS_MAX = 4_000_000  # about 200 B each: 782 MB peak RSS at T = 1e5


def lemma26(rng, x_cutoff):
    table = primes.sieve_primes(int(x_cutoff))
    deltas = UniformGrid(0.0, 0.05, 1001)     # 0, 0.05, ..., 50
    lhs = primes.pretentious_cos_sum(table, x_cutoff, deltas)
    offset = 1.0 / math.log(x_cutoff)
    nodes = deltas.nodes()
    rhs = np.array([
        math.log(abs(zeta.zeta_one_line(float(d), offset))) for d in nodes
    ])
    dev = np.abs(lhs - rhs)
    worst = int(np.argmax(dev))
    return {
        "points": deltas.size,
        "cutoff": x_cutoff,
        "max_abs_deviation": float(dev[worst]),
        "argmax_delta": float(nodes[worst]),
        "deviation_cap": _LEMMA26_CAP,
        "violations": int(np.count_nonzero(dev > _LEMMA26_CAP)),
    }


def lemma22(rng, trials):
    k_choices = (5.0, 10.0, 19.18)
    bstar_choices = (1.0, 2.0, 3.0)
    violations = 0
    for _ in range(trials):
        k_bound = rng.choice(k_choices)
        beta_star = rng.choice(bstar_choices)
        beta = rng.uniform(0.0, beta_star)
        radius = 2.0 * k_bound * math.sqrt(rng.random())
        theta = rng.uniform(0.0, 2.0 * math.pi)
        p_val = complex(radius * math.cos(theta), radius * math.sin(theta))
        n_val = dirichlet.lemma22_n_value(p_val, beta, beta_star, k_bound)
        if not dirichlet.lemma22_check(p_val, beta, beta_star, k_bound, n_val):
            violations += 1
    return {"trials": trials, "violations": violations}


def _random_coeff_table(rng):
    count = rng.randint(1, _COEFF_TERMS_MAX)
    freqs = rng.sample(range(1, _COEFF_FREQ_MAX + 1), count)
    entries = {
        n: complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for n in freqs
    }
    return dirichlet.CoeffTable.from_entries(
        entries, primes=(), max_omega=0,
        interval=primes.PrimeInterval(1.0, _COEFF_FREQ_MAX))


def lemma23(rng, trials):
    violations = 0
    worst_ratio = 0.0
    for _ in range(trials):
        tab = _random_coeff_table(rng)
        mv, bound = dirichlet.exact_mv_integral(tab, _MV_WINDOW)
        diag = _MV_WINDOW * dirichlet.diagonal_sum(tab, 0.0)
        gap = abs(mv - diag)
        if gap > bound * (1 + 1e-9) + 1e-9:
            violations += 1
        if bound > 0:
            worst_ratio = max(worst_ratio, gap / bound)
    return {
        "trials": trials, "violations": violations,
        "worst_gap_to_bound": worst_ratio, "t_len": _MV_WINDOW,
    }


def lemma24(rng, trials):
    table = primes.sieve_primes(64)
    violations = 0
    worst = 0.0
    for _ in range(trials):
        cut = rng.choice([5.0, 7.0])
        top = rng.choice([17.0, 19.0])
        cap1 = rng.choice([1, 2])
        spec1 = dirichlet.TruncSpec(
            primes.PrimeInterval(2.0, cut), 64.0, rng.uniform(0.3, 2.0), cap1)
        spec2 = dirichlet.TruncSpec(
            primes.PrimeInterval(cut, top), 64.0, rng.uniform(0.3, 2.0), 1)
        tab1 = dirichlet.truncated_exp(spec1, table)
        tab2 = dirichlet.truncated_exp(spec2, table)
        length = int(tab1.ns[-1]) * int(tab2.ns[-1])
        lhs, rhs = dirichlet.splitting_check([tab1, tab2], _MV_WINDOW)
        gap = abs(lhs - rhs) / rhs
        allowed = 10.0 * length / _MV_WINDOW
        worst = max(worst, gap / allowed)
        if gap > allowed:
            violations += 1
    return {
        "trials": trials, "violations": violations,
        "worst_gap_to_allowance": worst, "t_len": _MV_WINDOW,
    }


def lemma33(rng, trials):
    table = primes.sieve_primes(64)
    interval = primes.PrimeInterval(2.0, 11.0)
    x_cutoff = 200.0
    violations = 0
    worst_formula = 0.0
    for _ in range(trials):
        m = rng.randint(1, 3)
        alphas = [rng.uniform(-5.0, 5.0) for _ in range(m)]
        betas = [rng.uniform(0.0, 2.0) for _ in range(m)]
        factors = []
        for a, b in zip(alphas, betas):
            spec = dirichlet.TruncSpec(interval, x_cutoff, b, 6)
            factors.append((spec, a))
        prod = dirichlet.product_coeffs(factors, table)
        beta_star = blocks.beta_star(betas)
        at_powers = prod.at([[p ** r for r in range(1, 7)] for p in prod.primes])
        for prime, cs in zip(prod.primes, at_powers.tolist()):
            expect = dirichlet.prime_power_coeff(
                prime, 1, alphas, betas, x_cutoff)
            gap = abs(cs[0] - expect)
            worst_formula = max(worst_formula, gap)
            if gap > 1e-12:
                violations += 1
            for r, c in enumerate(cs, 1):
                cap = beta_star ** r * m ** r / math.factorial(r)
                if abs(c) > cap * (1 + 1e-12):
                    violations += 1
    return {
        "trials": trials, "violations": violations,
        "worst_formula_gap": worst_formula,
    }


def prop34(rng, trials):
    table = primes.sieve_primes(256)
    violations = 0
    worst = 0.0
    for i in range(trials):
        sigma0 = rng.uniform(0.5, 1.2)
        if i % 2 == 0:
            lo = rng.choice([2.0, 3.0, 5.0])
            hi = rng.choice([20.0, 40.0, 60.0])
            spec = dirichlet.TruncSpec(
                primes.PrimeInterval(lo, hi), 256.0,
                rng.uniform(0.0, 2.0), rng.randint(1, 4))
            tab = dirichlet.truncated_exp(spec, table)
        else:
            # synthetic multiplicative table over a few primes
            ps = sorted(rng.sample([2, 3, 5, 7, 11, 13], rng.randint(1, 4)))
            cap = rng.randint(1, 3)
            prime_vals = {
                q: complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for q in ps
            }
            entries = {1: 1.0 + 0.0j}     # one per multiset of <= cap primes
            for r in range(1, cap + 1):
                for combo in itertools.combinations_with_replacement(ps, r):
                    f, c = 1, 1.0 + 0.0j
                    for q in combo:
                        f, c = f * q, c * prime_vals[q]
                    entries[f] = c
            tab = dirichlet.CoeffTable.from_entries(
                entries, primes=tuple(ps),
                interval=primes.PrimeInterval(ps[0] - 0.5, ps[-1] + 0.5),
                max_omega=cap)
        diag = dirichlet.diagonal_sum(tab, sigma0)
        bound = dirichlet.euler_bound(tab, sigma0)
        if diag > bound * (1 + 1e-12):
            violations += 1
        worst = max(worst, diag / bound)
    return {
        "trials": trials, "violations": violations,
        "worst_diag_to_bound": worst,
    }


def lemma21(rng, points, t_height):
    if points > _LEMMA21_POINTS_MAX:
        raise ResourceError(f"points = {points} exceeds {_LEMMA21_POINTS_MAX}")
    table = primes.sieve_primes(int(t_height))
    # a left-endpoint grid whose even nodes are the grid of `points`
    # nodes, so the refined maximum can only creep up: the creep
    # measures grid sensitivity rather than resampling noise
    grid = UniformGrid(t_height, t_height / (2 * points), 2 * points)
    with np.errstate(divide="ignore"):
        lhs = np.log(np.abs(zeta.riemann_siegel_Z(grid.nodes(), 4)))
    gap = lhs - moments.lemma21_rhs(grid, 0.0, t_height, table, t_height=t_height)
    c0, c0_doubled = float(np.max(gap[::2])), float(np.max(gap))
    drift = c0_doubled - c0
    # the constant lives on a unit-to-ten scale; judge the 20% drift
    # band against that scale so a near-zero maximum is not penalized
    stable = drift <= 0.2 * max(1.0, abs(c0), abs(c0_doubled))
    return {
        "points": points,
        "t_height": t_height,
        "c0": c0,
        "c0_doubled": c0_doubled,
        "drift": drift,
        "stable": stable,
        "violations": 0 if (c0 <= 10.0 and c0_doubled <= 10.0 and stable) else 1,
    }
