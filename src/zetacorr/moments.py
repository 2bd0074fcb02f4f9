"""Shifted moment quadrature, its grid, and the matching size prediction.

The central quantity is the window integral over [T, 2T] of
prod_k |zeta(1/2 + i(t + alpha_k))|^(2*beta_k), evaluated on a shared
modulus grid by exact index offsets: each shift is snapped to a grid
multiple, so one sampling sweep serves every shift and duplicate
shifts collapse to a single power exactly.  The rule is composite
Simpson, ending in one trapezoid cell when the interval count is odd.

Predictions multiply T * (log T)^(sum beta_k^2) by pairwise one-line
zeta moduli at separation alpha_j - alpha_k, offset 1/log T.  Every
published moment carries a step-halving delta: the grid is sampled at
half the publication step and one pass forms both quadratures, the
published one reusing every other fine integrand value.  Each block
of integrand values, formed in cache, adds its parity sums and end
corrections to each rule's Kahan sum: the pass keeps a block and sums.

`moment_rows` owns a run's grid: it samples the span its shifts need
on the lattice from T, or reads and checks a `ZGRD` cache.  One row
streams the cache through its pass, a window of a block plus the span
of its shifts at a time; several rows hold the grid once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import CacheFormatError, CoverageError, DomainError
from .primes import PrimeInterval, half_square_sum, tapered_block_sum
from .sums import KahanAccumulator, UniformGrid
from .zeta import (
    CACHE_VERSION,
    ZetaGrid,
    cache_read,
    lattice_bracket,
    sample_critical_line,
    zeta_one_line,
)

_BLOCK = 1 << 14            # fine nodes per product block, to stay in L2; even
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
        object.__setattr__(self, "t_height", float(self.t_height))
        if len(self.alpha) != len(self.beta) or not self.alpha:
            raise DomainError(
                f"need matching nonempty shift/exponent vectors, got "
                f"{len(self.alpha)} and {len(self.beta)}")
        if not all(map(math.isfinite, (*self.alpha, *self.beta, self.t_height))):
            raise DomainError(f"shifts, exponents and T must be finite: {self}")
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
    snapped = tuple(step * round(a / step) for a in alpha)
    return snapped, tuple(a - s for a, s in zip(alpha, snapped))


def _shift_groups(grid: ZetaGrid, t_height: float, alpha, beta):
    """Merge shifts landing on the same grid node; drop zero exponents.

    A base index is T's node plus 2 round(alpha / 2h): the shift snapped
    at step 2h, as in `snap_shifts`.  Returns sorted (base_index,
    exponent_sum) pairs, so products are evaluated in a canonical order
    regardless of input permutation.
    """
    t_node = grid.index_of(t_height)
    pub_step = 2 * grid.step
    groups: dict[int, float] = {}
    for a, b in zip(alpha, beta):
        if b == 0.0:
            continue
        base = t_node + 2 * round(a / pub_step)
        groups[base] = groups.get(base, 0.0) + b
    return sorted(groups.items())


def _products(window, groups, i0: int, i1: int) -> np.ndarray:
    """prod window[base + i]^(2*beta) for i = i0..i1-1, groups in order."""
    (base, b), *rest = groups
    out = np.power(window[base + i0:base + i1], 2.0 * b)
    for base, b in rest:
        out *= np.power(window[base + i0:base + i1], 2.0 * b)
    return out


def _simpson_rule(t_len: float, h: float, r: int):
    """(r, step, n_steps, partial, ends) of the rule on every r-th node
    of a grid at step h, so at step r*h: a partial cell is left unless
    t_len names a node (`zeta.lattice_bracket`).

    Simpson weights step/3 * (1, 4, 2, 4, ..., 4, 1) need an even
    interval count; an odd count ends in one trapezoid cell, weights
    step/2 on its two nodes.  Nodes weigh 2/3 or 4/3 (times step) by
    parity; `ends` maps each end node to what its weight adds to that.
    """
    step = r * h
    n_steps, top = lattice_bracket(t_len / step)
    partial = t_len - n_steps * step if top > n_steps else 0.0
    ends = {0: -1.0 / 3.0}
    if n_steps % 2:
        # 1/3 + 1/2 on an even node, 1/2 on an odd one
        ends.update({n_steps - 1: 1.0 / 6.0, n_steps: -5.0 / 6.0})
    else:
        ends[n_steps] = -1.0 / 3.0
    return r, step, n_steps, partial, ends


def _reach(rules) -> int:
    """The last fine node from a shift's window start that `_simpson_pass`
    reads: a partial cell reads one rule node past n_steps."""
    return max(r * (n + (partial > 0.0)) for r, _, n, partial, _ in rules)


def _simpson_pass(grid, groups, rules) -> tuple:
    """The sum of each rule over prod grid[base + i]^(2*beta), where
    rule r samples the fine nodes i = 0, r, 2r, ...: one product per
    fine node, formed in blocks of _BLOCK nodes from node 0.  Each block
    adds step * (2/3 * sum at the rule's even nodes + 4/3 * sum at its
    odd ones + its end corrections) to the rule's Kahan sum, each sum one
    np.add.reduce over a strided view; the partial end cell comes last.
    _BLOCK fixes every sum order.  A block's samples come from one
    `grid.window`, the block plus the span of the shifts, moving forward;
    the last block's reaches on to the partial cells' nodes, which lie
    from its start (the block starts are even) to two nodes past it.  So
    the pass keeps a block, and a cache streams through it.
    """
    top = max(r * n_steps for r, _, n_steps, _, _ in rules)
    tails = [i for r, _, n, partial, _ in rules if partial > 0.0
             for i in (r * n, r * n + r)]
    lo, span = groups[0][0], groups[-1][0] - groups[0][0]
    groups = [(base - lo, b) for base, b in groups]
    accs = [KahanAccumulator() for _ in rules]
    for s in range(0, top + 1, _BLOCK):
        e = min(s + _BLOCK, top + 1)
        w1 = e if e <= top else max([e - 1, *tails]) + 1
        window = grid.window(lo + s, lo + span + w1)
        vals = _products(window, groups, 0, e - s)
        # _BLOCK is even, so rule r's first node in the block is node s
        for (r, step, n_steps, _, ends), acc in zip(rules, accs):
            k0, k1 = s // r, min((e - 1) // r, n_steps) + 1
            if k1 <= k0:
                continue
            sub = vals[::r][:k1 - k0]
            even = k0 % 2           # sub[even::2] sits on even rule nodes
            total = (2.0 / 3.0 * float(np.add.reduce(sub[even::2]))
                     + 4.0 / 3.0 * float(np.add.reduce(sub[1 - even::2])))
            for k, w in ends.items():
                if k0 <= k < k1:
                    total += w * float(sub[k - k0])
            acc.add(total * step)
    for (r, step, n_steps, partial, _), acc in zip(rules, accs):
        if partial > 0.0:
            f_lo, f_hi = (float(_products(window, groups, i - s, i - s + 1)[0])
                          for i in (r * n_steps, r * n_steps + r))
            f_end = f_lo + (partial / step) * (f_hi - f_lo)
            acc.add(partial * (f_lo + f_end) / 2.0)
    return tuple(acc.total for acc in accs)


def shifted_moment(spec: ShiftSpec, grid: ZetaGrid) -> tuple:
    """Composite Simpson quadrature of the shifted product over [T, 2T],
    as (published, fine).

    With h the grid step, `fine` is the sum at step h and `published`
    the sum at step 2h on every other node from each shift's window
    start.  One pass serves both: the published sum reuses every other
    fine integrand value, and memory is a few blocks (`_simpson_pass`
    has the block rule).  Both values are Python floats.  Shifts
    snap to multiples of 2h and the window start T must lie on the
    grid.  2h is at most STEP_LIMIT and T >= 16, so the published
    window spans at least 320 steps.
    """
    h = grid.step
    if 2 * h > STEP_LIMIT + 1e-15:
        raise CoverageError(
            f"publication step {2 * h} exceeds the {STEP_LIMIT} resolution bound")
    t_len = spec.t_height
    groups = _shift_groups(grid, t_len, spec.alpha, spec.beta)
    rules = [_simpson_rule(t_len, h, r) for r in (2, 1)]
    if groups and (groups[0][0] < 0 or groups[-1][0] + _reach(rules) >= grid.count):
        raise CoverageError(
            f"grid [{grid.t_start}, {grid.t_stop}] cannot cover the "
            f"window [{t_len}, {2.0 * t_len}] for all shifts")
    if not groups:
        # all exponents zero: the integrand is identically 1
        return t_len, t_len
    return _simpson_pass(grid, groups, rules)


def moment_window(t_height: float, alpha, step: float) -> tuple:
    """The span (t_lo, t_hi) a fine grid at step/2 must cover for the
    moments at publication step `step` with these shifts.

    It is the window [T, 2T] moved by each shift, snapped at `step`, up
    to the last node the quadrature reads (`_reach`, as `shifted_moment`
    checks): 2T, or under one step past it when a partial cell is left.
    """
    snapped, _ = snap_shifts(alpha, step)
    reach = _reach([_simpson_rule(t_height, step / 2.0, r) for r in (2, 1)])
    return (t_height + min(snapped), t_height + max(snapped) + reach * step / 2.0)


def predict_bound(spec: ShiftSpec, one_line=zeta_one_line) -> float:
    """Size prediction T (log T)^(sum beta^2) times the pairwise
    one-line moduli at the shift differences, offset 1/log T.  A
    prediction beyond the float range is a DomainError."""
    log_t = math.log(spec.t_height)
    offset = 1.0 / log_t
    try:
        value = spec.t_height * log_t ** math.fsum(b * b for b in spec.beta)
        for j in range(spec.m):
            for k in range(j + 1, spec.m):
                w = 2.0 * spec.beta[j] * spec.beta[k]
                if w == 0.0:
                    continue
                value *= abs(one_line(spec.alpha[j] - spec.alpha[k], offset)) ** w
    except OverflowError:
        value = math.inf
    if not math.isfinite(value):
        raise DomainError(f"prediction at T = {spec.t_height}, beta = "
                          f"{list(spec.beta)} exceeds the float range")
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


def moment_report(spec: ShiftSpec, fine_grid: ZetaGrid, prediction: float):
    """Published moment at step 2*fine_grid.step with its halving delta,
    as (results, warnings): the results are the `moment` payload's.
    `prediction` is the spec's `predict_bound`.

    The fine grid is sampled at half the publication step; the
    published value is the Simpson quadrature on every other sample and
    the delta is the relative gap to the full-resolution one.
    """
    step = 2 * fine_grid.step
    snapped, residuals = snap_shifts(spec.alpha, step)
    moment, fine_val = shifted_moment(spec, fine_grid)

    warnings = []
    worst = max(abs(r) for r in residuals)
    if worst > _SNAP_WARN:
        warnings.append(
            f"shifts snapped to step {step} grid, max residual {worst:.3e}")
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


def moment_rows(specs, step: float, rs_terms: int, workers: int, cache=None):
    """(rows, warnings, cache_versions) of specs at one height T: each
    spec's `moment_report` at publication step `step`, and each distinct
    warning once, in spec order.  The predictions come first, so one
    beyond the float range exits before any sampling or cache read.  The
    grid at step/2 is sampled over the specs' `moment_window` on the
    lattice from T, or read from the `ZGRD` file `cache`, whose step and
    depth must match; one short of a node the quadrature reads is a
    CacheFormatError naming it.  One row streams the cache through its
    quadrature; several read it once and hold it.  Either way the rest
    of the file is read and its checksum compared before the rows are
    returned."""
    t_height = specs[0].t_height
    predictions = [predict_bound(spec) for spec in specs]
    fine_step = step / 2.0
    if cache is None:
        t_lo, t_hi = moment_window(
            t_height, [a for spec in specs for a in spec.alpha], step)
        grid = sample_critical_line(t_lo, t_hi, fine_step, anchor=t_height,
                                    correction_terms=rs_terms, workers=workers)
        return (*_reports(specs, predictions, grid), [])
    with cache_read(cache) as grid:
        if abs(grid.step - fine_step) > 1e-12 * fine_step:
            raise CacheFormatError(
                f"cache step {grid.step} does not match config step/2 = "
                f"{fine_step}")
        if grid.correction_terms != rs_terms:
            raise CacheFormatError(f"cache RS depth {grid.correction_terms} does "
                                   f"not match config rs_terms = {rs_terms}")
        if len(specs) > 1:
            grid.window(0, grid.count)      # held, for every row to read
        try:
            rows, warnings = _reports(specs, predictions, grid)
        except CoverageError as exc:
            raise CacheFormatError(f"cache {cache} does not hold every node the "
                                   f"quadrature reads: {exc}") from None
        grid.check()
    return rows, warnings, [{
        "path": str(cache), "version": CACHE_VERSION, "count": grid.count,
        "step": grid.step, "rs_terms": grid.correction_terms,
    }]


def _reports(specs, predictions, grid) -> tuple:
    rows, warnings = [], []
    for spec, prediction in zip(specs, predictions):
        results, warns = moment_report(spec, grid, prediction)
        rows.append(results)
        warnings += warns
    return rows, list(dict.fromkeys(warnings))


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
