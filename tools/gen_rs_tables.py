#!/usr/bin/env python3
"""Regenerate the coefficient tables used by the Hardy Z remainder evaluator.

Writes src/zetacorr/_rs_series.py.  The module it emits holds one tuple,
C_SERIES: for each correction order 0..6, its even and odd parts in
h^2, so that C_j(h) = even(h^2) + h * odd(h^2).  Orders 0..4 (C_EXACT)
have strict parity, so one part is empty; the fits for orders 5 and 6
(C_FIT) keep both.  Every part is trimmed of trailing terms below
2^-60 at |h| = 1/2.  The pieces:

  * psi          -- Taylor coefficients about 1/2 of the entire function
                    psi(p) = cos(2*pi*(p*p - p - 1/16)) / cos(2*pi*p),
                    computed by power-series division in 60-digit arithmetic.
                    Order 0 of C_EXACT is psi itself.
  * C_EXACT      -- power series (same variable h = p - 1/2) for the first
                    five remainder-correction functions.  These are known
                    closed-form combinations of derivatives of psi with
                    rational-times-pi-power weights; we bake the combined
                    series rather than differentiating at run time.
  * C_FIT        -- degree-42 polynomial fits (in h) for correction orders
                    5 and 6, extracted empirically: evaluate the remainder
                    R(t) = (Z(t) - main_sum(t)) * (-1)^(N-1) * a^(1/2)
                    against a 50-digit reference Z on a grid of (p, N)
                    nodes, subtract the exact orders 0..4, and solve the
                    Vandermonde system in x = 1/(N+p) for the higher
                    orders.  Orders beyond 6 come out too noisy near the
                    endpoints to be worth shipping, so the evaluator caps
                    its correction depth at 6.

Run time is a few minutes (hundreds of high-precision reference
evaluations).  The output is deterministic for fixed parameters below.
"""

import time

from mpmath import mp, mpf, cos, sin, pi, sqrt, log, lu_solve, matrix

ORDER = 96          # psi series length
DPS_SERIES = 60     # digits for the series build
DPS_EMP = 50        # digits for the empirical extraction
N_NODES = [6, 7, 8, 9, 11, 13, 16, 20, 25, 32, 42, 56]
N_PPTS = 72         # Chebyshev points in p for the empirical fit
FIT_DEGREE = 42
MAX_EMP_ORDER = 16  # orders solved for (5..16); only 5,6 are kept
TRIM_EPS = mpf(2) ** -60

OUT_PATH = "src/zetacorr/_rs_series.py"


def series_div(num, den, order):
    # den[0] must be nonzero
    out = [mpf(0)] * order
    inv0 = 1 / den[0]
    for n in range(order):
        acc = num[n] if n < len(num) else mpf(0)
        for k in range(1, n + 1):
            if k < len(den):
                acc -= den[k] * out[n - k]
        out[n] = acc * inv0
    return out


def build_psi_series(order):
    """Taylor coefficients of psi at p = 1/2, variable h = p - 1/2."""
    # numerator: cos(2*pi*((1/2+h)^2 - (1/2+h) - 1/16))
    #          = cos(2*pi*(h^2 - 5/16)) = cos(-5*pi/8 + 2*pi*h^2),
    # expanded as cos(5*pi/8)cos(2*pi*h^2) + sin(5*pi/8)sin(2*pi*h^2).
    num = [mpf(0)] * order
    cu, su = cos(5 * pi / 8), sin(5 * pi / 8)
    k = 0
    while 4 * k < order:
        w = (2 * pi) ** (2 * k) / mp.factorial(2 * k)
        num[4 * k] += cu * ((-1) ** k) * w
        if 4 * k + 2 < order:
            w2 = (2 * pi) ** (2 * k + 1) / mp.factorial(2 * k + 1)
            num[4 * k + 2] += su * ((-1) ** k) * w2
        k += 1
    # denominator: cos(2*pi*(1/2+h)) = -cos(2*pi*h)
    den = [mpf(0)] * order
    for k in range(0, order, 2):
        den[k] = -((-1) ** (k // 2)) * (2 * pi) ** k / mp.factorial(k)
    return series_div(num, den, order)


def shifted_derivative_series(psi, k, order):
    """Series of psi^(k) about 1/2 from the psi series."""
    out = [mpf(0)] * order
    for n in range(order):
        if n + k < len(psi):
            out[n] = psi[n + k] * mp.factorial(n + k) / mp.factorial(n)
    return out


# closed-form weights: order -> list of (derivative k, weight)
def exact_combos():
    p2, p4, p6, p8 = pi ** 2, pi ** 4, pi ** 6, pi ** 8
    return {
        0: [(0, mpf(1))],
        1: [(3, -1 / (96 * p2))],
        2: [(2, 1 / (64 * p2)), (6, 1 / (18432 * p4))],
        3: [(1, -1 / (64 * p2)), (5, -1 / (3840 * p4)),
            (9, -1 / (5308416 * p6))],
        4: [(0, 1 / (128 * p2)), (4, mpf(19) / (24576 * p4)),
            (8, mpf(11) / (5898240 * p6)),
            (12, 1 / (2038431744 * p8))],
    }


def build_exact_c_series(psi, order):
    tables = {}
    for j, combo in exact_combos().items():
        acc = [mpf(0)] * order
        for k, w in combo:
            der = shifted_derivative_series(psi, k, order)
            for i in range(order):
                acc[i] += w * der[i]
        tables[j] = acc
    return tables


def eval_series(coeffs, h):
    acc = mpf(0)
    for c in reversed(coeffs):
        acc = acc * h + c
    return acc


def reference_remainder(p, n_int):
    """R = (Z - main) * (-1)^(N-1) * a^(1/2) at t = 2*pi*(N+p)^2."""
    a = n_int + p
    t = 2 * pi * a * a
    theta = mp.siegeltheta(t)
    main = mpf(0)
    for n in range(1, n_int + 1):
        main += cos(theta - t * log(n)) / sqrt(n)
    z = mp.siegelz(t)
    sign = 1 if n_int % 2 == 1 else -1
    return (z - 2 * main) * sign * sqrt(a)


def empirical_high_orders(c_exact):
    """Solve for correction orders 5..MAX_EMP_ORDER on a (p, N) grid."""
    mp.dps = DPS_EMP
    n_unknown = MAX_EMP_ORDER - 4  # orders 5..16
    assert len(N_NODES) == n_unknown
    rows = []  # (h, values for order 5..)
    t0 = time.time()
    for i in range(N_PPTS):
        # Chebyshev nodes on (0, 1)
        p = mpf(1) / 2 + cos(pi * (2 * i + 1) / (2 * N_PPTS)) / 2
        h = p - mpf(1) / 2
        rhs = matrix(n_unknown, 1)
        mat = matrix(n_unknown, n_unknown)
        for r, n_int in enumerate(N_NODES):
            x = 1 / (n_int + p)
            res = reference_remainder(p, n_int)
            for j in range(5):
                res -= eval_series(c_exact[j], h) * x ** j
            rhs[r, 0] = res
            for c in range(n_unknown):
                mat[r, c] = x ** (5 + c)
        sol = lu_solve(mat, rhs)
        rows.append((h, [sol[c, 0] for c in range(n_unknown)]))
        if i % 12 == 0:
            print(f"  node {i + 1}/{N_PPTS}  ({time.time() - t0:.0f}s)")
    return rows


def fit_poly(rows, order_idx, degree):
    """Least-squares polynomial fit in h for one correction order."""
    import numpy as np

    hs = np.array([float(h) for h, _ in rows])
    ys = np.array([float(v[order_idx]) for _, v in rows])
    # Vandermonde LS; columns h^0 .. h^degree
    v = np.vander(hs, degree + 1, increasing=True)
    coef, *_ = np.linalg.lstsq(v, ys, rcond=None)
    resid = float(np.max(np.abs(v @ coef - ys)))
    return list(coef), resid


def parts(coeffs):
    """The even and odd parts of a series in h, as series in h^2, each
    without the trailing terms that cannot move the value at |h| <= 1/2."""
    half = mpf(1) / 2
    out = []
    for parity in (0, 1):
        part = list(coeffs[parity::2])
        while part and (abs(part[-1]) * half ** (2 * len(part) - 2 + parity)
                        < TRIM_EPS):
            part.pop()
        out.append(part)
    return tuple(out)


def emit(series, path):
    def fmt(xs):
        if not xs:
            return "()"
        body = ",\n    ".join(repr(float(x)) for x in xs)
        return "(\n    " + body + ",\n)"

    lines = [
        '"""Coefficient tables for the Hardy Z remainder evaluator.',
        "",
        "Generated by tools/gen_rs_tables.py; do not edit by hand.",
        '"""',
        "",
        "# (even, odd) for each correction order j = 0..6, as series in h^2:",
        "# C_j(h) = even(h^2) + h * odd(h^2) on h in [-1/2, 1/2].  Orders",
        "# 0..4 are closed-form combinations of psi derivatives, of parity",
        "# j mod 2; orders 5 and 6 are fitted polynomials.",
        "C_SERIES = (",
    ]
    for even, odd in series:
        lines.append("    (")
        for part in (even, odd):
            lines.append("        " + fmt(part).replace("\n", "\n        ") + ",")
        lines.append("    ),")
    lines.append(")")
    lines.append("")
    with open(path, "w") as fh:
        fh.write("\n".join(lines))
    print(f"wrote {path}")


def main():
    mp.dps = DPS_SERIES
    print("building psi series ...")
    psi = build_psi_series(ORDER)
    # sanity: psi(1/2) = cos(3*pi/8) / ... ; check against direct evaluation
    direct = cos(2 * pi * (mpf("0.3") ** 2 - mpf("0.3") - mpf(1) / 16)) / cos(
        2 * pi * mpf("0.3"))
    series_val = eval_series(psi, mpf("0.3") - mpf(1) / 2)
    err = abs(direct - series_val)
    print(f"  psi series self-check: {mp.nstr(err, 3)}")
    assert err < mpf("1e-25")

    c_exact = build_exact_c_series(psi, ORDER)
    print("extracting empirical orders 5..%d ..." % MAX_EMP_ORDER)
    rows = empirical_high_orders(c_exact)
    c_fit = {}
    for j in (5, 6):
        coeffs, resid = fit_poly(rows, j - 5, FIT_DEGREE)
        print(f"  order {j}: fit residual {resid:.3e}")
        c_fit[j] = coeffs

    emit([parts(c_exact[j]) for j in range(5)]
         + [parts(c_fit[j]) for j in (5, 6)], OUT_PATH)


if __name__ == "__main__":
    main()
