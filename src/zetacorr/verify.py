"""Seeded drivers for the randomized lemma checks behind `zetacorr verify`.

Each driver takes a `random.Random` and its parameters, already parsed
and defaulted by the command line's parameter table, and returns the
results of its check, with a `violations` count.  Trials draw from the
generator in a fixed order, so a seed fixes every draw.
"""

from __future__ import annotations

import math

import numpy as np

from . import dirichlet, moments, primes, zeta
from .sums import UniformGrid

_LEMMA26_CAP = 3.0      # allowed |prime cosine sum - log|zeta(1 + 1/log X + i delta)||
_MV_WINDOW = 1e6        # mean values are taken over [T, 2T] with this T
_COEFF_TERMS_MAX = 1000     # a lemma23 table has 1..this entries
_COEFF_FREQ_MAX = 10_000    # at distinct frequencies in 1..this


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
    return dirichlet.CoeffTable(
        entries=entries, primes=(), max_omega=0,
        interval=primes.PrimeInterval(1.0, _COEFF_FREQ_MAX))


def lemma23(rng, trials):
    violations = 0
    worst_ratio = 0.0
    for _ in range(trials):
        tab = _random_coeff_table(rng)
        mv = dirichlet.exact_mv_integral(tab, _MV_WINDOW)
        diag = _MV_WINDOW * dirichlet.diagonal_sum(tab, 0.0)
        bound = dirichlet.off_diagonal_bound(tab)
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
        length = max(tab1.entries) * max(tab2.entries)
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
        beta_star = math.fsum(max(1.0, b) for b in betas)
        for prime in prod.primes:
            expect = dirichlet.prime_power_coeff(
                prime, 1, alphas, betas, x_cutoff)
            gap = abs(prod.entries.get(prime, 0j) - expect)
            worst_formula = max(worst_formula, gap)
            if gap > 1e-12:
                violations += 1
            f = prime
            for r in range(1, 7):
                if r > 1:
                    f *= prime
                cap = beta_star ** r * m ** r / math.factorial(r)
                if abs(prod.entries.get(f, 0j)) > cap * (1 + 1e-12):
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
            ps = rng.sample([2, 3, 5, 7, 11, 13], rng.randint(1, 4))
            ps.sort()
            cap = rng.randint(1, 3)
            prime_vals = {
                q: complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for q in ps
            }
            entries = {1: 1.0 + 0.0j}
            def extend(idx, freq, coeff, room):
                for k in range(idx, len(ps)):
                    q = ps[k]
                    f, c = freq, coeff
                    for _r in range(room):
                        f, c = f * q, c * prime_vals[q]
                        entries[f] = c
                        extend(k + 1, f, c, room - _r - 1)
            extend(0, 1, 1.0 + 0.0j, cap)
            tab = dirichlet.CoeffTable(
                entries=entries, primes=tuple(ps),
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
    # the doubled audit below samples 2 * points nodes: hold it to the
    # sample cap of a critical-line grid before anything is allocated
    zeta.grid_count(1.0, 2.0 * points, 1.0)
    table = primes.sieve_primes(int(t_height))

    def audit(n):
        # left-endpoint grid so that doubling n nests the sample: the
        # refined maximum can only creep up (the prime sums of the two
        # grids agree at shared nodes to about 1e-15), and the creep
        # measures grid sensitivity rather than resampling noise
        grid = UniformGrid(t_height, t_height / n, n)
        z = zeta.riemann_siegel_Z(grid.nodes(), 4)
        with np.errstate(divide="ignore"):
            lhs = np.log(np.abs(z))
        rhs = moments.lemma21_rhs(grid, 0.0, t_height, table, t_height=t_height)
        return float(np.max(lhs - rhs))

    c0 = audit(points)
    c0_doubled = audit(2 * points)
    # the constant lives on a unit-to-ten scale; judge the 20% drift
    # band against that scale so a near-zero maximum is not penalized
    drift_scale = max(1.0, abs(c0), abs(c0_doubled))
    stable = abs(c0_doubled - c0) <= 0.2 * drift_scale
    return {
        "points": points,
        "t_height": t_height,
        "c0": c0,
        "c0_doubled": c0_doubled,
        "drift": abs(c0_doubled - c0),
        "stable": stable,
        "violations": 0 if (c0 <= 10.0 and c0_doubled <= 10.0 and stable) else 1,
    }
