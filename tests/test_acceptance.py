"""Acceptance gate: twelve recorded checks at hard tolerances.

Each check prints one PASS/FAIL line straight to the terminal (past
the capture layer) and then asserts.  The expensive experiment runs
are shared through session fixtures; the determinism check reuses the
same reports rather than re-running them.

The line ends with the check's own wall time, from the set-up of its
`announce` fixture to the verdict.  pytest sets up session fixtures
before function fixtures, so that time excludes the shared session
runs (the sweep, curve and classification reports, the quadrature
grid); checks 01 and 10 print the wall of their one-thread run in
the detail.
"""

import math
import random
import time

import numpy as np
import pytest

from zetacorr import cli, moments, zeta
from zetacorr.moments import ShiftSpec


@pytest.fixture
def announce(capsys):
    start = time.monotonic()

    def _go(num, ok, detail):
        own = time.monotonic() - start
        with capsys.disabled():
            print(f"\ncheck {num:02d}: {'PASS' if ok else 'FAIL'}  {detail}"
                  f"  [own {own:.1f}s]")
        assert ok, f"check {num:02d} failed: {detail}"
    return _go


def _verify_once(prop, seed, threads=1, **params):
    cfg = cli.ExperimentConfig(
        kind="verify", parameters={"property": prop, **params},
        seed=seed, threads=threads)
    return cli.run(cfg)


@pytest.fixture(scope="session")
def sweep_reports():
    """Offset sweep of the pretentious prime sum, at both thread counts."""
    out = {}
    for threads in (1, 8):
        t0 = time.monotonic()
        out[threads] = _verify_once("lemma26", seed=20, threads=threads)
        out[f"wall{threads}"] = time.monotonic() - t0
    return out


@pytest.fixture(scope="session")
def curve_reports(tmp_path_factory):
    """Decorrelation sweep at T=1e5, run at both thread counts."""
    base = tmp_path_factory.mktemp("curve-acceptance")
    out = {"paths": {}}
    for threads in (1, 8):
        path = base / f"curve-{threads}.csv"
        params = {
            "config": {
                "T": 1e5, "beta": 1.0, "step": 0.01,
                "deltas": [0.0, 0.1, 0.5, 1.0, 2.0, 5.0, 10.0],
            },
            "out": str(path),
        }
        cfg = cli.ExperimentConfig(
            kind="curve", parameters=params, seed=20, threads=threads)
        t0 = time.monotonic()
        out[threads] = cli.run(cfg)
        out[f"wall{threads}"] = time.monotonic() - t0
        out["paths"][threads] = path
    return out


@pytest.fixture(scope="session")
def classify_reports(tmp_path_factory):
    """Good/bad/square classification over a 1e5-point grid, both
    thread counts."""
    base = tmp_path_factory.mktemp("classify-acceptance")
    out = {"paths": {}}
    for threads in (1, 8):
        path = base / f"classes-{threads}.json"
        params = {
            "config": {"T": 1e5, "beta": [1.0, 1.0], "exponent_scale": 0.5},
            "t0": 1e5, "t1": 199_999.0, "step": 1.0, "out": str(path),
        }
        cfg = cli.ExperimentConfig(
            kind="classify", parameters=params, seed=20, threads=threads)
        out[threads] = cli.run(cfg)
        out["paths"][threads] = path
    return out


def test_check_01_pretentious_sum_tracks_one_line_zeta(
        sweep_reports, announce):
    res = sweep_reports[1].payload["results"]
    wall = sweep_reports["wall1"]
    ok = (res["points"] == 1001 and res["violations"] == 0
          and res["max_abs_deviation"] <= 3.0 and wall < 120.0)
    announce(1, ok,
             f"max |sum - log zeta| = {res['max_abs_deviation']:.3f} over "
             f"{res['points']} offsets (cap 3.0), {wall:.1f}s")


def test_check_02_mean_value_oracle_consistency(announce):
    t0 = time.monotonic()
    rep = _verify_once("lemma23", seed=22, trials=100)
    wall = time.monotonic() - t0
    res = rep.payload["results"]
    ok = res["trials"] == 100 and res["violations"] == 0
    announce(2, ok,
             f"{res['trials']} random tables, {res['violations']} "
             f"violations, worst gap/bound {res['worst_gap_to_bound']:.3f}, "
             f"{wall:.1f}s")


def test_check_03_disjoint_product_splitting(announce):
    rep = _verify_once("lemma24", seed=23, trials=50)
    res = rep.payload["results"]
    ok = res["trials"] == 50 and res["violations"] == 0
    announce(3, ok,
             f"{res['trials']} two-block products, {res['violations']} "
             f"violations, worst gap/allowance "
             f"{res['worst_gap_to_allowance']:.3f}")


def test_check_04_truncated_exponential_inverse_bound(announce):
    rep = _verify_once("lemma22", seed=24, trials=10_000)
    res = rep.payload["results"]
    ok = res["trials"] == 10_000 and res["violations"] == 0
    announce(4, ok,
             f"{res['trials']} random (P, beta, K) draws, "
             f"{res['violations']} violations")


def test_check_05_product_prime_coefficients(announce):
    rep = _verify_once("lemma33", seed=25, trials=1_000)
    res = rep.payload["results"]
    ok = (res["trials"] == 1_000 and res["violations"] == 0
          and res["worst_formula_gap"] <= 1e-12)
    announce(5, ok,
             f"{res['trials']} shift tuples, {res['violations']} violations, "
             f"worst formula gap {res['worst_formula_gap']:.2e}")


def test_check_06_diagonal_euler_bound(announce):
    rep = _verify_once("prop34", seed=26, trials=50)
    res = rep.payload["results"]
    ok = res["trials"] == 50 and res["violations"] == 0
    announce(6, ok,
             f"{res['trials']} instances, {res['violations']} violations, "
             f"worst diag/bound {res['worst_diag_to_bound']:.3f}")


def test_check_07_evaluator_cross_validation(announce):
    rng = random.Random(77)
    t = np.array(sorted(rng.uniform(20.0, 1e4) for _ in range(1000)))
    fast = np.abs(zeta.riemann_siegel_Z(t, 6))
    slow = np.array([
        abs(zeta.zeta_euler_maclaurin(complex(0.5, ti))) for ti in t
    ])
    worst = float(np.max(np.abs(fast - slow)))
    z2_err = abs(zeta.zeta_euler_maclaurin(2.0 + 0.0j)
                 - math.pi ** 2 / 6.0)
    z0_err = abs(zeta.zeta_euler_maclaurin(0.0 + 0.0j) - (-0.5))
    ok = worst <= 1e-6 and z2_err <= 1e-10 and z0_err <= 1e-10
    announce(7, ok,
             f"max cross deviation {worst:.2e} on 1000 points, "
             f"classical errors {z2_err:.1e} / {z0_err:.1e}")


def test_check_08_half_line_surrogate_audit(announce):
    rep = _verify_once("lemma21", seed=28, points=10_000, t_height=1e5)
    res = rep.payload["results"]
    ok = (res["violations"] == 0 and res["c0"] <= 10.0
          and res["c0_doubled"] <= 10.0 and res["stable"])
    announce(8, ok,
             f"C0 = {res['c0']:.4f}, doubled {res['c0_doubled']:.4f}, "
             f"drift {res['drift']:.4f} (stable={res['stable']})")


def test_check_09_normalization_and_collapse(grid_100_200, announce):
    flat = ShiftSpec(alpha=(0.0, 3.0), beta=(0.0, 0.0), t_height=100.0)
    norm = moments.shifted_moment(flat, grid_100_200)[1]
    norm_err = abs(norm - 100.0) / 100.0
    merged = ShiftSpec(alpha=(0.5, 0.5), beta=(0.4, 0.6), t_height=100.0)
    single = ShiftSpec(alpha=(0.5,), beta=(1.0,), t_height=100.0)
    v1 = moments.shifted_moment(merged, grid_100_200)[1]
    v2 = moments.shifted_moment(single, grid_100_200)[1]
    collapse_err = abs(v1 - v2) / abs(v2)
    ok = norm_err <= 1e-12 and collapse_err <= 1e-12
    announce(9, ok,
             f"flat-exponent error {norm_err:.2e}, duplicate-collapse "
             f"error {collapse_err:.2e} (both capped at 1e-12)")


def test_check_10_decorrelation_experiment(curve_reports, announce):
    rows = curve_reports[1].payload["results"]["rows"]
    by_delta = {r["delta"]: r for r in rows}
    contrast = by_delta[0.0]["moment"] / by_delta[10.0]["moment"]
    ratios = [r["ratio"] for r in rows]
    halvings = [r["step_halving_delta"] for r in rows]
    wall = curve_reports["wall1"]
    ok = (len(rows) == 7 and contrast >= 2.0
          and all(1e-2 <= r <= 1e2 for r in ratios)
          and all(h <= 1e-3 for h in halvings)
          and wall < 1800.0)
    announce(10, ok,
             f"contrast {contrast:.2f} (>= 2), ratios in "
             f"[{min(ratios):.3f}, {max(ratios):.3f}], max halving delta "
             f"{max(halvings):.1e}, {wall:.0f}s")


def test_check_11_bad_set_rarity(classify_reports, announce):
    res = classify_reports[1].payload["results"]
    sq = res["square_fractions"]
    tail = sq[2:]                      # bands l >= 3
    monotone = all(a >= b for a, b in zip(tail, tail[1:]))
    rare = all(f <= 1e-2 for f in sq[4:])   # bands l >= 5
    partition = math.isclose(
        res["good_fraction"] + sum(res["bad_fractions"]), 1.0,
        rel_tol=1e-12)
    ok = (res["points"] == 100_000 and res["band_count"] >= 6
          and monotone and rare and partition)
    announce(11, ok,
             f"square fractions l>=3: {['%.1e' % f for f in tail]}, "
             f"partition sums to 1: {partition}")


def test_check_12_payload_determinism(
        sweep_reports, curve_reports, classify_reports, announce):
    pairs = {
        "offset sweep": (sweep_reports[1], sweep_reports[8]),
        "decorrelation": (curve_reports[1], curve_reports[8]),
        "classification": (classify_reports[1], classify_reports[8]),
    }
    mismatched = [
        name for name, (a, b) in pairs.items()
        if cli.payload_bytes(a) != cli.payload_bytes(b)
    ]
    csv_same = (curve_reports["paths"][1].read_bytes()
                == curve_reports["paths"][8].read_bytes())
    flat_same = (classify_reports["paths"][1].read_bytes()
                 == classify_reports["paths"][8].read_bytes())
    ok = not mismatched and csv_same and flat_same
    announce(12, ok,
             f"payloads byte-identical across threads 1/8 for "
             f"{len(pairs) - len(mismatched)}/{len(pairs)} runs; "
             f"artifacts identical: csv={csv_same}, classes={flat_same}")
