"""Moment quadrature, its sampling window, and size predictions."""

import math
import random
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from zetacorr import moments, primes, verify, zeta
from zetacorr.errors import CoverageError, DomainError
from zetacorr.moments import ShiftSpec
from zetacorr.sums import KahanAccumulator, UniformGrid

# composite Simpson on |zeta(1/2+it)|^2 over [100, 200], checked against
# an adaptive Gauss-Legendre integration at 30 digits
SECOND_MOMENT_100_200 = 441.19761150674876


def test_spec_validation():
    with pytest.raises(DomainError):
        ShiftSpec(alpha=(), beta=(), t_height=100.0)
    with pytest.raises(DomainError):
        ShiftSpec(alpha=(0.0,), beta=(1.0, 2.0), t_height=100.0)
    with pytest.raises(DomainError):
        ShiftSpec(alpha=(0.0,), beta=(1.0,), t_height=15.0)
    with pytest.raises(DomainError):
        ShiftSpec(alpha=(60.0,), beta=(1.0,), t_height=100.0)
    with pytest.raises(DomainError):
        ShiftSpec(alpha=(0.0,), beta=(-0.5,), t_height=100.0)
    spec = ShiftSpec(alpha=(0, 1), beta=(1, 1), t_height=100.0)
    assert spec.m == 2
    assert spec.alpha == (0.0, 1.0)


@pytest.mark.parametrize("alpha,beta,t_height", [
    ((math.nan,), (1.0,), 100.0),
    ((0.0, -math.inf), (1.0, 1.0), 100.0),
    ((0.0,), (math.nan,), 100.0),
    ((0.0, 1.0), (1.0, math.inf), 100.0),
    ((0.0,), (1.0,), math.nan),
    ((0.0,), (1.0,), math.inf),
])
def test_spec_refuses_numbers_that_are_not_finite(alpha, beta, t_height):
    with pytest.raises(DomainError, match="finite"):
        ShiftSpec(alpha=alpha, beta=beta, t_height=t_height)


def test_zero_exponents_integrate_the_constant(grid_100_200):
    spec = ShiftSpec(alpha=(0.0, 3.0), beta=(0.0, 0.0), t_height=100.0)
    assert moments.shifted_moment(spec, grid_100_200) == (100.0, 100.0)


def test_duplicate_shifts_collapse_exactly(grid_100_200):
    merged = ShiftSpec(alpha=(0.5, 0.5), beta=(0.4, 0.6), t_height=100.0)
    single = ShiftSpec(alpha=(0.5,), beta=(1.0,), t_height=100.0)
    v1 = moments.shifted_moment(merged, grid_100_200)[1]
    v2 = moments.shifted_moment(single, grid_100_200)[1]
    assert v1 == v2


def test_permutation_invariance(grid_100_200):
    a = ShiftSpec(alpha=(0.0, 1.5, 3.0), beta=(1.0, 0.5, 0.25),
                  t_height=100.0)
    b = ShiftSpec(alpha=(3.0, 0.0, 1.5), beta=(0.25, 1.0, 0.5),
                  t_height=100.0)
    va = moments.shifted_moment(a, grid_100_200)[1]
    vb = moments.shifted_moment(b, grid_100_200)[1]
    assert va == vb


def test_snap_shifts_and_warning(grid_100_200):
    snapped, residuals = moments.snap_shifts((0.03, 0.05), 0.025)
    assert snapped == (0.025, 0.05)
    assert math.isclose(residuals[0], 0.005, abs_tol=1e-15)
    assert residuals[1] == 0.0
    spec = ShiftSpec(alpha=(0.0, 0.03), beta=(1.0, 1.0), t_height=100.0)
    results, warnings = moments.moment_report(spec, grid_100_200, 1.0)
    assert results["snapped_alpha"] == [0.0, 0.025]
    assert any("snapped" in w for w in warnings)
    clean = ShiftSpec(alpha=(0.0, 0.05), beta=(1.0, 1.0), t_height=100.0)
    assert moments.moment_report(clean, grid_100_200, 1.0)[1] == []


def test_moment_window_covers_the_quadrature():
    # T off the step grid ends in a partial cell: the published rule's
    # reads node 4001 at step 0.025, 0.015 past 2T.  A grid over exactly
    # the window passes the coverage check, and one node less fails it
    t, alpha, step = 100.01, (-1.0, 0.52), 0.025
    t_lo, t_hi = moments.moment_window(t, alpha, step)
    assert math.isclose(t_lo, t - 1.0) and math.isclose(t_hi, 2 * t + 0.525 + 0.015)
    grid = zeta.sample_critical_line(t_lo, t_hi, step / 2, correction_terms=0)
    spec = ShiftSpec(alpha=alpha, beta=(1.0, 1.0), t_height=t)
    assert moments.moment_report(spec, grid, 1.0)[0]["moment"] > 0.0
    short = replace(grid, values=grid.values[:-1])
    with pytest.raises(CoverageError):
        moments.shifted_moment(spec, short)
    # shifts of one sign sample no line on the far side of shift 0, and
    # T on the step grid reads up to 2T and no further
    assert moments.moment_window(100, [50], 0.025) == (150.0, 250.0)
    assert moments.moment_window(100, [-50], 0.025) == (50.0, 150.0)


def test_step_resolution_bound(grid_100_200):
    coarse = replace(grid_100_200, step=8 * grid_100_200.step,
                     values=grid_100_200.values[::8])  # step 0.1
    spec = ShiftSpec(alpha=(0.0,), beta=(1.0,), t_height=100.0)
    with pytest.raises(CoverageError):
        moments.shifted_moment(spec, coarse)


def test_coverage_errors(grid_100_200):
    # grid spans [98, 204]; a +5 shift pushes the window past the top
    spec = ShiftSpec(alpha=(5.0,), beta=(1.0,), t_height=100.0)
    with pytest.raises(CoverageError):
        moments.shifted_moment(spec, grid_100_200)
    spec = ShiftSpec(alpha=(-3.0,), beta=(1.0,), t_height=100.0)
    with pytest.raises(CoverageError):
        moments.shifted_moment(spec, grid_100_200)


def test_second_moment_against_quadrature_oracle(grid_100_200):
    spec = ShiftSpec(alpha=(0.0,), beta=(1.0,), t_height=100.0)
    results, _ = moments.moment_report(spec, grid_100_200, 1.0)
    rel = abs(results["moment"] - SECOND_MOMENT_100_200) / SECOND_MOMENT_100_200
    assert rel < 1e-8
    assert results["quadrature_step"] == 0.025
    assert results["rule"] == "simpson"


def test_odd_interval_count_ends_in_one_trapezoid_cell(grid_100_200):
    # T = 100 + j h, j odd: 8000 + j intervals, Simpson weights over
    # nodes 0 .. 7999 + j, then h/2 on each end of the last cell
    h = grid_100_200.step
    for j in range(1, 40, 2):
        n = 8000 + j
        spec = ShiftSpec(alpha=(0.0,), beta=(1.0,), t_height=100.0 + j * h)
        w = np.array([1.0] + [4.0 if i % 2 else 2.0 for i in range(1, n - 1)]
                     + [1.0]) / 3.0
        w[-1] += 0.5
        w = np.append(w, 0.5)
        base = grid_100_200.index_of(100.0 + j * h)
        terms = np.power(grid_100_200.values[base:base + n + 1], 2.0) * w * h
        fine = moments.shifted_moment(spec, grid_100_200)[1]
        # the block rule pins the order of summation bit for bit
        assert fine == _block_simpson_sums(spec, grid_100_200, moments._BLOCK)[1]
        bound = 4 * np.finfo(float).eps * math.fsum(np.abs(terms).tolist())
        assert abs(fine - math.fsum(terms.tolist())) <= bound


def test_a_height_on_the_step_grid_ends_in_no_partial_cell():
    # T / h = 28171615.999999996 in float64: T is node 28 171 616
    assert moments._simpson_rule(281716.16, 0.01, 1)[2:4] == (28_171_616, 0.0)
    assert moments._simpson_rule(100.01, 0.0125, 2)[2:4] == (
        4000, pytest.approx(0.01, abs=1e-12))


def test_halving_delta_matches_recomputation(grid_100_200):
    spec = ShiftSpec(alpha=(0.0, 2.0), beta=(1.0, 1.0), t_height=100.0)
    results, _ = moments.moment_report(spec, grid_100_200, 1.0)
    pub = replace(grid_100_200, step=2 * grid_100_200.step,
                  values=grid_100_200.values[::2])
    coarse = moments.shifted_moment(spec, pub)[1]
    published, fine = moments.shifted_moment(spec, grid_100_200)
    assert published == coarse
    assert results["moment"] == coarse
    assert results["step_halving_delta"] == abs(coarse - fine) / abs(fine)
    assert results["step_halving_delta"] < 1e-6


def _rule_values(spec, grid, r):
    """(step, n, partial, values) of the rule at step r*h: the product
    at the rule's nodes 0 .. n + 1, from the parity of T's node."""
    h = grid.step
    snapped, _ = moments.snap_shifts(spec.alpha, 2 * h)
    groups = {}
    for a, b in zip(snapped, spec.beta):
        if b != 0.0:
            base = grid.index_of(spec.t_height + a)
            groups[base] = groups.get(base, 0.0) + b
    # the step count and partial cell are the rule's own
    _, step, n, partial, _ = moments._simpson_rule(spec.t_height, h, r)
    vals = None
    for base, b in sorted(groups.items()):
        line = grid.values[base % r::r][base // r:base // r + n + 2]
        power = np.power(line, 2.0 * b)
        vals = power if vals is None else vals * power
    return step, n, partial, vals


def _partial_cell(step, n, partial, vals):
    f_lo, f_hi = float(vals[n]), float(vals[n + 1])
    return partial * (f_lo + (f_lo + (partial / step) * (f_hi - f_lo))) / 2.0


def _block_simpson_sums(spec, grid, block):
    """Reference for `shifted_moment`: the published Simpson sum at step
    2h and the fine one at step h, each restated per block of `block`
    fine nodes with explicit parity and end-correction arrays, the block
    sums merged in a Kahan sum."""
    sums = []
    for r in (2, 1):
        step, n, partial, vals = _rule_values(spec, grid, r)
        parity = np.arange(n + 1) % 2
        ends = np.zeros(n + 1)
        ends[0] = -1.0 / 3.0
        if n % 2:
            ends[n - 1], ends[n] = 1.0 / 6.0, -5.0 / 6.0
        else:
            ends[n] = -1.0 / 3.0
        acc = KahanAccumulator()
        for i0 in range(0, r * n + 1, block):
            k0, k1 = i0 // r, min((i0 + block - 1) // r, n) + 1
            f, p = vals[k0:k1], parity[k0:k1]
            total = (2.0 / 3.0 * float(np.add.reduce(f[p == 0]))
                     + 4.0 / 3.0 * float(np.add.reduce(f[p == 1])))
            for k in np.flatnonzero(ends[k0:k1]):
                total += ends[k0 + k] * float(f[k])
            acc.add(total * step)
        if partial > 0.0:
            acc.add(_partial_cell(step, n, partial, vals))
        sums.append(acc.total)
    return tuple(sums)


def _fsum_simpson_sums(spec, grid):
    """(sums, scales): both rules summed by math.fsum, and the scale
    step * sum |w_k f_k| of each."""
    sums, scales = [], []
    for r in (2, 1):
        step, n, partial, vals = _rule_values(spec, grid, r)
        w = np.full(n + 1, 2.0 / 3.0)
        w[1::2] = 4.0 / 3.0
        w[0] = 1.0 / 3.0
        if n % 2:
            w[-2] = 1.0 / 3.0 + 0.5
            w[-1] = 0.5
        else:
            w[-1] = 1.0 / 3.0
        terms = (w * vals[:n + 1] * step).tolist()
        if partial > 0.0:
            terms.append(_partial_cell(step, n, partial, vals))
        sums.append(math.fsum(terms))
        scales.append(math.fsum(abs(x) for x in terms))
    return sums, scales


_H = 0.0125     # grid_100_200's step


# each case runs the pass at two values of _BLOCK, None the default:
# one block for the window, and blocks of 1002 (2 mod 4), 4098, 256 and
# 1024 fine nodes, which cut the window of about 8000 nodes unevenly
@pytest.mark.parametrize("block,other_block", [
    (1 << 20, None),
    (1002, None),
    (1002, 256),
    (4098, 1024),
])
@pytest.mark.parametrize("t_height,t_start", [
    (100.0, 98.0),              # even interval counts at both steps
    (100.0 + 2 * _H, 98.0),     # odd published count
    (100.0 + _H, 98.0),         # T on an odd node: odd fine count, published partial
    (100.0 + 3 * _H, 98.0),     # odd counts at both steps, published partial
    (100.01, 98.01),            # partial cells at both steps
])
@pytest.mark.parametrize("alpha,beta", [
    ((0.0,), (1.0,)),
    ((1.5,), (0.75,)),
    ((0.0, 2.0), (1.25, 0.5)),
    ((-1.0, 0.5, 0.5), (0.5, 1.25, 0.75)),     # two shifts merge
    ((0.5, -1.0, 1.0), (1.0, 0.0, 1.25)),      # a zero exponent drops out
])
def test_one_pass_equals_the_two_simpson_sums(grid_100_200, monkeypatch, block,
                                              other_block, t_height, t_start,
                                              alpha, beta):
    # the identity needs no zeta values: a moved start puts T on a node
    grid = replace(grid_100_200, t_start=t_start)
    spec = ShiftSpec(alpha=alpha, beta=beta, t_height=t_height)
    exact, scales = _fsum_simpson_sums(spec, grid)
    for size in (block, other_block):
        if size is not None:
            monkeypatch.setattr(moments, "_BLOCK", size)
        got = moments.shifted_moment(spec, grid)
        # the block rule pins the order of summation bit for bit
        assert got == _block_simpson_sums(spec, grid, moments._BLOCK)
        for value, ref, scale in zip(got, exact, scales):
            assert abs(value - ref) <= 4 * np.finfo(float).eps * scale
        monkeypatch.undo()


def test_the_pass_refuses_what_the_published_rule_cannot_cover():
    spec = ShiftSpec(alpha=(0.0,), beta=(1.0,), t_height=100.0)
    # the published step 2h is bounded by STEP_LIMIT, not h
    h = moments.STEP_LIMIT / 2
    ok = zeta.ZetaGrid(100.0, h, np.ones(4100), 0)
    for value in moments.shifted_moment(spec, ok):
        assert math.isclose(value, 100.0, rel_tol=1e-12)
    over = zeta.ZetaGrid(100.0, 1.001 * h, np.ones(4100), 0)
    with pytest.raises(CoverageError):
        moments.shifted_moment(spec, over)
    # T = 100.01 ends both rules in a partial cell, which reads one node
    # past each rule's last whole step: fine node 8001, and published
    # node 4001, which is fine node 8002.  The check asks for just those,
    # and nodes past them change nothing
    spec = ShiftSpec(alpha=(0.0,), beta=(1.0,), t_height=100.01)
    values = np.linspace(1.0, 2.0, 8005)
    full = zeta.ZetaGrid(100.01, _H, values[:8003], 0)
    assert moments.shifted_moment(spec, full)[0] > 0.0
    longer = replace(full, values=values)
    assert moments.shifted_moment(spec, longer) == moments.shifted_moment(spec, full)
    with pytest.raises(CoverageError):
        moments.shifted_moment(spec, replace(full, values=values[:8002]))


def test_the_pass_holds_a_few_product_blocks():
    # the pass keeps a few sums and product blocks, whatever the window
    rng = np.random.default_rng(3)
    grid = zeta.ZetaGrid(16.0, 1e-4, rng.random(1_121_000) + 0.5, 0)
    peaks = []
    for t_height in (16.0, 64.0):
        spec = ShiftSpec(alpha=(0.0, 0.02, 0.04), beta=(0.75, 1.25, 0.5),
                         t_height=t_height)
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            values = moments.shifted_moment(spec, grid)
            peaks.append(tracemalloc.get_traced_memory()[1] - start)
        finally:
            tracemalloc.stop()
        assert all(type(v) is float for v in values)
    assert 16.0 / 1e-4 > 8 * moments._BLOCK
    assert max(peaks) <= 4 * moments._BLOCK * 8


def test_a_streamed_cache_gives_the_held_grids_bits(tmp_path):
    # one row streams the cache through its pass, several hold it once;
    # both give the bits of the grid held as an array.  Shifts at +-T/2
    # at T = 100 (a window as wide as the grid), an odd interval count
    # (100.025), a last block of one node (204.8 is 2^14 fine steps), two
    # blocks under a shift span wider than a block (250), three blocks,
    # whose reader moves what it holds to make room (500), and on a grid
    # off the step lattice partial cells (100.003, 204.803)
    cases = {49.5: [ShiftSpec((-50.0, 50.0), (1.0, 0.5), 100.0),
                    ShiftSpec((0.0, 3.3), (1.0, 1.0), 100.025),
                    ShiftSpec((0.2,), (0.75,), 204.8),
                    ShiftSpec((-125.0, 3.0, 125.0), (0.5, 1.25, 1.0), 250.0),
                    ShiftSpec((-125.0, 125.0), (0.0, 0.0), 250.0),
                    ShiftSpec((-3.0, 7.0), (1.0, 0.5), 500.0)],
             49.503: [ShiftSpec((-1.7,), (1.5,), 100.003),
                      ShiftSpec((0.2, -9.0), (0.75, 2.0), 204.803)]}
    for t0, specs in cases.items():
        path = tmp_path / "g.zgrd"
        path.write_bytes(b"".join(zeta.sample_cache(t0, 1010.0, 0.0125,
                                                    correction_terms=4)[1]))
        with zeta.cache_read(path) as cached:
            held = zeta.ZetaGrid(cached.t_start, cached.step, cached.values.copy(), 4)
        for spec in specs:
            want, _ = moments.moment_report(spec, held, moments.predict_bound(spec))
            (got,), _, _ = moments.moment_rows([spec], 0.025, 4, 1, cache=path)
            assert repr(got) == repr(want), spec
            rows, _, _ = moments.moment_rows([spec, spec], 0.025, 4, 1, cache=path)
            assert repr(rows) == repr([want, want]), spec


def test_prediction_closed_form_single_shift():
    spec = ShiftSpec(alpha=(0.0,), beta=(1.0,), t_height=100.0)
    expect = 100.0 * math.log(100.0)
    assert math.isclose(moments.predict_bound(spec), expect, rel_tol=1e-15)
    spec2 = ShiftSpec(alpha=(0.0,), beta=(1.5,), t_height=1e4)
    expect2 = 1e4 * math.log(1e4) ** 2.25
    assert math.isclose(moments.predict_bound(spec2), expect2, rel_tol=1e-15)


def test_prediction_pair_factor():
    t = 1e4
    log_t = math.log(t)
    spec = ShiftSpec(alpha=(0.0, 2.0), beta=(1.0, 1.0), t_height=t)
    point = zeta.zeta_one_line(2.0, 1.0 / log_t)
    expect = t * log_t ** 2 * abs(point) ** 2
    assert math.isclose(moments.predict_bound(spec), expect, rel_tol=1e-14)
    # a zero exponent silences its pair terms
    spec0 = ShiftSpec(alpha=(0.0, 2.0), beta=(1.0, 0.0), t_height=t)
    assert math.isclose(moments.predict_bound(spec0), t * log_t,
                        rel_tol=1e-15)


def test_nsw_factor_branches():
    t = 1e6
    log_t = math.log(t)
    assert moments.nsw_F(0.0, 0.0, t) == log_t
    # |d| = 1/100 still sits on the reciprocal branch
    assert moments.nsw_F(0.0, 0.01, t) == min(100.0, log_t)
    assert moments.nsw_F(0.0, 0.02, t) == math.log(2.02)
    assert moments.nsw_F(3.0, 0.0, t) == math.log(5.0)
    # tiny separations cap at log T
    assert moments.nsw_F(0.0, 1e-9, t) == log_t
    assert moments.nsw_F(0.0, 0.005, t) == min(200.0, log_t)
    with pytest.raises(DomainError):
        moments.nsw_F(0.0, 1.0, 8.0)


def test_surrogate_majorant_shapes(table_small):
    one = moments.lemma21_rhs(
        UniformGrid(150.0, 10.0, 1), 0.0, 1e3, table_small, t_height=150.0)
    vec = moments.lemma21_rhs(
        UniformGrid(150.0, 10.0, 2), 0.0, 1e3, table_small, t_height=150.0)
    assert one.shape == (1,) and vec.shape == (2,)
    assert vec[0] == one[0]
    with pytest.raises(DomainError):
        moments.lemma21_rhs(
            UniformGrid(150.0, 10.0, 1), 0.0, 1.5, table_small, t_height=150.0)
    with pytest.raises(DomainError):
        moments.lemma21_rhs(
            UniformGrid(150.0, 10.0, 1), 0.0, 1e9, table_small, t_height=100.0)


def test_lemma21_audits_one_nested_grid():
    # c0 and c0_doubled are the maxima over the even nodes and over all
    # nodes of one grid of 2 * points nodes, so the drift is their exact
    # difference and never negative (two grids of 500 and 1000 nodes
    # had prime sums that rounded apart: a drift of 4.4e-16 here)
    points, t_height = 500, 1e5
    res = verify.lemma21(random.Random(1), points, t_height)
    grid = UniformGrid(t_height, t_height / (2 * points), 2 * points)
    gap = np.log(np.abs(zeta.riemann_siegel_Z(grid.nodes(), 4))) \
        - moments.lemma21_rhs(grid, 0.0, t_height,
                              primes.sieve_primes(int(t_height)),
                              t_height=t_height)
    assert res["c0"] == float(np.max(gap[::2]))
    assert res["c0_doubled"] == float(np.max(gap))
    assert res["drift"] == res["c0_doubled"] - res["c0"] >= 0.0


def test_surrogate_tracks_log_zeta(table_small):
    # the surrogate drops a bounded remainder, so it should sit within
    # a few units of log|zeta| at typical points
    t = UniformGrid(120.0, 0.5, 121)
    rhs = moments.lemma21_rhs(t, 0.0, 1e3, table_small, t_height=120.0)
    # |zeta(1/2 + it)| = |Z(t)|
    lhs = np.log(np.abs(zeta.riemann_siegel_Z(t.nodes(), 6)))
    gap = lhs - rhs
    assert float(np.mean(gap)) < 2.0
    assert float(np.max(gap)) < 6.0
