"""Shifted moment quadrature and the matching size prediction.

The central quantity is the window integral over [T, 2T] of
prod_k |zeta(1/2 + i(t + alpha_k))|^(2*beta_k), evaluated on a shared
modulus grid by exact index offsets: each shift is snapped to a grid
multiple, so one sampling sweep serves every shift and duplicate
shifts collapse to a single power exactly.  The rule is composite
Simpson, ending in one trapezoid cell when the interval count is odd.

Predictions multiply T * (log T)^(sum beta_k^2) by pairwise one-line
zeta moduli at separation alpha_j - alpha_k, offset 1/log T.  Every
published moment carries a step-halving delta: the grid is sampled at
half the publication step, the published value uses every other
sample, and the delta compares the two quadratures.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import CoverageError, DomainError
from .primes import PrimeInterval, half_square_sum, tapered_block_sum
from .sums import KahanAccumulator, UniformGrid
from .zeta import ZetaGrid, zeta_one_line

_Q_CHUNK = 1 << 20          # quadrature nodes per chunk; fixed for determinism
STEP_LIMIT = 0.05           # moment grids must resolve the unit-scale wiggle
_SNAP_WARN = 1e-12          # residuals above this get reported


@dataclass(frozen=True)
class ShiftSpec:
    """One moment configuration: shifts, exponents, and the height T."""

    alpha: tuple
    beta: tuple
    t_height: float

    def __post_init__(self):
        object.__setattr__(self, "alpha", tuple(float(a) for a in self.alpha))
        object.__setattr__(self, "beta", tuple(float(b) for b in self.beta))
        if len(self.alpha) != len(self.beta) or not self.alpha:
            raise DomainError(
                f"need matching nonempty shift/exponent vectors, got "
                f"{len(self.alpha)} and {len(self.beta)}")
        if self.t_height < 16.0:
            raise DomainError(f"height must be >= 16, got {self.t_height}")
        half_t = self.t_height / 2.0
        for a in self.alpha:
            if abs(a) > half_t:
                raise DomainError(f"|shift| = {abs(a)} exceeds T/2 = {half_t}")
        for b in self.beta:
            if b < 0:
                raise DomainError(f"exponents must be >= 0, got {b}")

    @property
    def m(self) -> int:
        return len(self.alpha)


def snap_shifts(alpha, step: float):
    """Round each shift to the nearest grid multiple of `step`.

    Returns (snapped, residuals); residual = alpha_k - snapped_k.
    """
    snapped, residuals = [], []
    for a in alpha:
        s = step * round(a / step)
        snapped.append(s)
        residuals.append(a - s)
    return tuple(snapped), tuple(residuals)


def _shift_groups(grid: ZetaGrid, t_lo: float, snapped, beta):
    """Merge shifts landing on the same grid node; drop zero exponents.

    Returns sorted (base_index, exponent_sum) pairs, so products are
    evaluated in a canonical order regardless of input permutation.
    """
    groups: dict[int, float] = {}
    for a, b in zip(snapped, beta):
        if b == 0.0:
            continue
        base = grid.index_of(t_lo + a)
        groups[base] = groups.get(base, 0.0) + b
    return sorted(groups.items())


def _quadrature(grid: ZetaGrid, groups, n_steps: int, partial: float) -> float:
    """Composite Simpson of prod moduli[base + i]^(2*beta) over nodes
    i = 0..n_steps, plus an interpolated partial end cell.

    Simpson weights h/3 * (1, 4, 2, 4, ..., 4, 1) need an even interval
    count; an odd count ends in one trapezoid cell, weights h/2 on its
    two nodes.  Callers guarantee n_steps >= 2 and nonempty groups.
    Chunked with compensated merging, single threaded: bit-deterministic.
    """
    h = grid.step
    moduli = grid.values
    n_nodes = n_steps + 1

    def node_values(i0: int, i1: int) -> np.ndarray:
        (base, b), *rest = groups
        out = np.power(moduli[base + i0:base + i1], 2.0 * b)
        for base, b in rest:
            out = out * np.power(moduli[base + i0:base + i1], 2.0 * b)
        return out

    acc = KahanAccumulator()
    for i0 in range(0, n_nodes, _Q_CHUNK):
        i1 = min(i0 + _Q_CHUNK, n_nodes)
        # chunks start at even nodes (_Q_CHUNK is even), so with an odd
        # n_steps the last chunk holds both nodes of the trapezoid cell
        w = np.full(i1 - i0, 2.0 / 3.0)
        w[1::2] = 4.0 / 3.0
        if i0 == 0:
            w[0] = 1.0 / 3.0
        if i1 == n_nodes:
            if n_steps % 2:
                w[-2] = 1.0 / 3.0 + 0.5
                w[-1] = 0.5
            else:
                w[-1] = 1.0 / 3.0
        acc.add(float(np.add.reduce(node_values(i0, i1) * w)) * h)
    if partial > 0.0:
        f_lo = float(node_values(n_steps, n_steps + 1)[0])
        f_hi = float(node_values(n_steps + 1, n_steps + 2)[0])
        f_end = f_lo + (partial / h) * (f_hi - f_lo)
        acc.add(partial * (f_lo + f_end) / 2.0)
    return acc.total


def shifted_moment(spec: ShiftSpec, grid: ZetaGrid) -> float:
    """Composite Simpson quadrature of the shifted product over [T, 2T].

    Shifts snap to grid multiples and the window start T must lie on
    the grid.  The step is at most STEP_LIMIT and T >= 16, so the
    window spans at least 320 steps.
    """
    if grid.step > STEP_LIMIT + 1e-15:
        raise CoverageError(
            f"grid step {grid.step} exceeds the {STEP_LIMIT} resolution bound")
    t_len = spec.t_height
    snapped, _ = snap_shifts(spec.alpha, grid.step)
    groups = _shift_groups(grid, t_len, snapped, spec.beta)

    h = grid.step
    n_steps = int(math.floor(t_len / h + 1e-9))
    partial = t_len - n_steps * h
    if partial < 1e-9 * h:
        partial = 0.0
    need_top = n_steps + (2 if partial > 0.0 else 0)
    for base, _ in groups:
        if base < 0 or base + need_top >= grid.count:
            raise CoverageError(
                f"grid [{grid.t_start}, {grid.t_stop}] cannot cover the "
                f"window [{t_len}, {2.0 * t_len}] for all shifts")
    if not groups:
        # all exponents zero: the integrand is identically 1
        return t_len
    return _quadrature(grid, groups, n_steps, partial)


def moment_window(t_height: float, alpha, step: float) -> tuple:
    """The span (t_lo, t_hi) a fine grid at step/2 must cover for the
    moments at publication step `step` with these shifts.

    It is the window [T, 2T] moved by each shift, snapped at `step`,
    plus 4*step above: twice the most that the coverage check of
    `shifted_moment` asks past the window's end.
    """
    snapped, _ = snap_shifts(alpha, step)
    return (t_height + min(snapped),
            2.0 * t_height + max(snapped) + 4.0 * step)


def predict_bound(spec: ShiftSpec, one_line=zeta_one_line) -> float:
    """Size prediction T (log T)^(sum beta^2) times the pairwise
    one-line moduli at the shift differences, offset 1/log T."""
    log_t = math.log(spec.t_height)
    offset = 1.0 / log_t
    value = spec.t_height * log_t ** math.fsum(b * b for b in spec.beta)
    for j in range(spec.m):
        for k in range(j + 1, spec.m):
            w = 2.0 * spec.beta[j] * spec.beta[k]
            if w == 0.0:
                continue
            value *= abs(one_line(spec.alpha[j] - spec.alpha[k], offset)) ** w
    return value


def nsw_F(alpha1: float, alpha2: float, t_height: float) -> float:
    """Piecewise comparison factor for a shift pair.

    min(1/|d|, log T) when |d| <= 1/100 (so d = 0 gives log T), and
    log(2 + |d|) beyond the breakpoint.
    """
    if t_height < 16.0:
        raise DomainError(f"height must be >= 16, got {t_height}")
    d = abs(alpha1 - alpha2)
    log_t = math.log(t_height)
    if d <= 0.01:
        return log_t if d == 0.0 else min(1.0 / d, log_t)
    return math.log(2.0 + d)


def moment_report(spec: ShiftSpec, fine_grid: ZetaGrid):
    """Published moment at step 2*fine_grid.step with its halving delta,
    as (results, warnings): the results are the `moment` payload's.

    The fine grid is sampled at half the publication step; the
    published value is the Simpson quadrature on every other sample and
    the delta is the relative gap to the full-resolution one.
    """
    step = 2 * fine_grid.step
    pub_grid = replace(fine_grid, step=step, values=fine_grid.values[::2])
    snapped, residuals = snap_shifts(spec.alpha, step)
    snapped_spec = replace(spec, alpha=snapped)
    moment = shifted_moment(snapped_spec, pub_grid)
    fine_val = shifted_moment(snapped_spec, fine_grid)

    warnings = []
    worst = max(abs(r) for r in residuals)
    if worst > _SNAP_WARN:
        warnings.append(
            f"shifts snapped to step {step} grid, max residual {worst:.3e}")
    prediction = predict_bound(spec)
    results = {
        "moment": moment,
        "prediction": prediction,
        "ratio": moment / prediction,
        "quadrature_step": step,
        "step_halving_delta": abs(moment - fine_val) / max(abs(fine_val), 1e-300),
        "nsw_F": nsw_F(*spec.alpha, spec.t_height) if spec.m == 2 else None,
        "rule": "simpson",
        "snapped_alpha": list(snapped),
        "snap_residuals": list(residuals),
    }
    return results, warnings


def lemma21_rhs(
    t_values: UniformGrid,
    alpha: float,
    x_cutoff: float,
    table,
    *,
    t_height: float,
) -> np.ndarray:
    """Surrogate majorant for log|zeta| on the half line at t + alpha,
    for each t of the grid: the tapered prime sum at sigma =
    1/2 + 1/log X, the half square sum over primes up to
    min(sqrt X, log T), and the ratio log T / log X.  The bounded
    remainder is deliberately not included; audits measure it.
    """
    if x_cutoff < 2.0:
        raise DomainError(f"cutoff must be >= 2, got {x_cutoff}")
    if x_cutoff > t_height * t_height * (1 + 1e-12):
        raise DomainError(
            f"cutoff {x_cutoff} exceeds T^2 = {t_height * t_height}")
    log_x = math.log(x_cutoff)
    log_t = math.log(t_height)
    shifted = replace(t_values, start=t_values.start + alpha)

    sigma = 0.5 + 1.0 / log_x
    term1 = tapered_block_sum(
        table, PrimeInterval(1.0, x_cutoff), x_cutoff, sigma, shifted).real

    square_top = min(math.sqrt(x_cutoff), log_t)
    if square_top > 2.0 - 1e-12:
        band = PrimeInterval(1.0, square_top)
        term2 = half_square_sum(table, band, 0.5, shifted).real
    else:
        term2 = np.zeros_like(term1)

    return term1 + term2 + log_t / log_x
