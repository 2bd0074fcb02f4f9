"""The two benchmark workloads: seeded inputs, op lists and payload checks.

Each op is one `zetacorr.cli.run` call.  A workload is built from its
seed alone; the program only ever sees the generated configs.  Sizes are
chosen so that one workload run repeats several times within a
benchmark run on a 2-core machine; `scale="tiny"` shrinks every op for
the benchmark's own tests.

Why each workload exists (the per-layer metrics it is meant to move):

* moments: one `curve` op, whose Riemann-Siegel sampling of ~1e6 points
  in worker processes is ~80 % of the op and quadrature ~20 %, and ten
  `moment` ops that read one ZGRD grid written in set-up and spend most
  of their time in quadrature.  Layers: `zeta` (sampling, the cache
  read, the one-line values behind `predict_bound`), `moments`, `cli`.
  No prime or Dirichlet work.
* verify: a `classify` over 1e5 points and `verify` lemma21 (the
  prime-sum kernel in both shapes: few primes times many points, and
  ~9.6k primes per call), lemma26 (one-line zeta values), and the
  lemma22, lemma33, lemma23, lemma24 and prop34 checks (coefficient
  tables, mean-value integrals, mpmath series).  Layers: `primes`,
  `blocks`, `dirichlet`, `zeta` one-line values, `cli`.  No grid
  sampling beyond lemma21's audit.

Each `_verify_*` function in `zetacorr.cli` draws its trials from its
op seed, and trials differ in cost: a lemma22 trial by its series length
(12x), a lemma33 trial by its factor count (150x), a lemma23 trial by
its table size.  Those op seeds are drawn from the workload seed until a replay of the function's
draws puts the op's cost near its expectation, so that the workload's
cost does not swing with the seed.  If a function comes to draw
differently, only this balance is lost, and `test_perfbench.py` shows it.
"""

from __future__ import annotations

import math
import os
import random
from dataclasses import dataclass, field

NAMES = ("moments", "verify")


@dataclass
class Op:
    """One `cli.run` request; `outputs` are the artifact paths it writes."""

    label: str
    kind: str
    parameters: dict
    seed: int
    outputs: tuple = ()
    trials: int = 0          # verify ops: the property's own unit count


@dataclass
class Workload:
    name: str
    seed: int
    ops: list
    warmup: list
    prerequisites: list = field(default_factory=list)
    cache_path: str | None = None

    def check(self, op: Op, payload: dict, artifacts: dict) -> list:
        """Invariant violations of one op's payload and artifacts."""
        return _CHECKS[op.kind](self, op, payload, artifacts)


def _params(**kw) -> dict:
    # `report` is always present, as the command line sets it
    return {"report": None, **kw}


def _op_seed(rng: random.Random) -> int:
    return rng.randrange(1 << 31)


def _balanced_seed(rng, trial_costs, trials, expect, tol, tries=10_000):
    """An op seed from `rng` whose replayed cost is within `tol` of
    `trials * expect`, or the closest of `tries` candidates.

    `trial_costs(r, trials)` replays a verify function's draws on
    `random.Random(seed)` and returns the cost of each trial.
    """
    target = trials * expect
    best = None
    for _ in range(tries):
        seed = _op_seed(rng)
        gap = abs(math.fsum(trial_costs(random.Random(seed), trials)) - target)
        if gap <= tol * target:
            return seed
        if best is None or gap < best[0]:
            best = (gap, seed)
    return best[1]


# Replays of the verify functions' draws, one cost per trial.  Costs are
# relative, as measured per trial on one machine.

LEMMA22_K = (5.0, 10.0, 19.18)
LEMMA22_BETA_STAR = (1.0, 2.0, 3.0)


def _lemma22_trial(k_bound, beta_star):
    # floor(20 K beta*) series terms at 50 + 6.1 K beta* digits
    digits = 50.0 + 14.0 * k_bound * beta_star / math.log(10.0)
    return math.floor(20.0 * k_bound * beta_star) * (1.0 + digits / 1400.0)


def lemma22_draws(r, trials):
    """(K, beta*) of each trial, drawn as `_verify_lemma22` draws them."""
    out = []
    for _ in range(trials):
        k_bound = r.choice(LEMMA22_K)
        beta_star = r.choice(LEMMA22_BETA_STAR)
        r.uniform(0.0, beta_star)
        r.random()
        r.uniform(0.0, 2.0 * math.pi)
        out.append((k_bound, beta_star))
    return out


def _lemma22_costs(r, trials):
    return [_lemma22_trial(k, b) for k, b in lemma22_draws(r, trials)]


_LEMMA22_EXPECT = sum(_lemma22_trial(k, b) for k in LEMMA22_K
                      for b in LEMMA22_BETA_STAR) / 9.0


def lemma33_draws(r, trials):
    """Factor count of each trial, drawn as `_verify_lemma33` draws them."""
    out = []
    for _ in range(trials):
        m = r.randint(1, 3)
        for _ in range(2 * m):
            r.uniform(0.0, 1.0)
        out.append(m)
    return out


# ms per trial by factor count; the tolerance below admits only one
# trial of each count in a three-trial op
_LEMMA33_MS = {1: 0.7, 2: 14.0, 3: 114.0}


def _lemma33_costs(r, trials):
    return [_LEMMA33_MS[m] for m in lemma33_draws(r, trials)]


def lemma23_draws(r, trials):
    """Table size of each trial, drawn as `_random_coeff_table` draws them."""
    out = []
    for _ in range(trials):
        count = r.randint(1, 1000)
        r.sample(range(1, 10_001), count)
        for _ in range(2 * count):
            r.uniform(-1.0, 1.0)
        out.append(count)
    return out


# ---------------------------------------------------------------------------
# builders


# np.power(x, 2 beta) has fast paths for 2 beta = 1 and 2 and a general
# path, ~3x slower, for 1.5 and 2.5.  Exponents alternate between the two
# sets along each op's shifts, so an op's cost depends on m and not on
# which exponents the seed drew.
_BETAS_GENERAL = (0.75, 1.25)
_BETAS_FAST = (0.5, 1.0)


def _moments(seed, workdir, tiny):
    rng = random.Random(f"moments-{seed}")
    t_height = 200.0 if tiny else 2.0e4

    inner = sorted(round(rng.uniform(0.05, 9.95), 2) for _ in range(5))
    curve_cfg = {"T": t_height, "beta": 1.0, "step": 0.04,
                 "deltas": [0.0] + inner + [10.0], "rs_terms": 4}
    out = os.path.join(workdir, "curve.csv")
    curve = Op("curve", "curve",
               _params(config=curve_cfg, out=out, cache=None, plot=None),
               _op_seed(rng), outputs=(out,))

    step = 0.04 if tiny else 0.02
    lo, hi = -5.0, 10.0
    cache = os.path.join(workdir, "grid.zgrd")
    fine = step / 2.0
    sample = Op("sample", "sample", _params(
        t0=t_height + lo - 1.0, t1=2.0 * t_height + hi + 4.0 * step + 1.0,
        step=fine, rs_terms=4, out=cache, modulus_only=True),
        _op_seed(rng), outputs=(cache,))
    # m is balanced across ops so the op mix does not swing with the
    # seed; its order, the shifts and exponents are drawn
    ms = [1, 1, 1, 2, 2, 2, 3, 3, 3]
    rng.shuffle(ms)
    moment_ops = []
    for i, m in enumerate(ms):
        alpha = [round(rng.uniform(lo, hi), 2) for _ in range(m)]
        beta = [rng.choice(_BETAS_FAST if k % 2 else _BETAS_GENERAL)
                for k in range(m)]
        config = {"T": t_height, "alpha": alpha, "beta": beta, "step": step}
        moment_ops.append(Op(f"moment{i}", "moment",
                             _params(config=config, cache=cache), _op_seed(rng)))
    m = rng.randint(1, 3)
    flat = {"T": t_height, "alpha": [round(rng.uniform(lo, hi), 2)
                                     for _ in range(m)],
            "beta": [0.0] * m, "step": step}
    moment_ops.insert(rng.randint(0, len(moment_ops)),
                      Op("moment_flat", "moment",
                         _params(config=flat, cache=cache), _op_seed(rng)))

    warm_out = os.path.join(workdir, "warmup.csv")
    first = next(op for op in moment_ops if op.label != "moment_flat")
    warmup = [Op("warmup_curve", "curve", dict(curve.parameters, out=warm_out),
                 curve.seed, outputs=(warm_out,)),
              Op("warmup_moment", "moment", dict(first.parameters), first.seed)]
    return Workload("moments", seed, [curve] + moment_ops, warmup, [sample],
                    cache)


def _verify(seed, workdir, tiny):
    rng = random.Random(f"verify-{seed}")
    points = 2_000 if tiny else 100_000
    t0 = round(rng.uniform(1.0e5, 1.1e5), 3)
    out = os.path.join(workdir, "classify.json")
    classify_cfg = {"T": 1e5, "beta": [1.0, 1.0], "exponent_scale": 0.5}
    classify = Op("classify", "classify", _params(
        config=classify_cfg, t0=t0, t1=t0 + (points - 1), step=1.0, out=out),
        _op_seed(rng), outputs=(out,))
    lemma21_points = 50 if tiny else 500
    lemma21 = Op("lemma21", "verify", _params(
        property="lemma21", points=lemma21_points, t_height=1e5),
        _op_seed(rng), trials=lemma21_points)
    lemma26_params = _params(property="lemma26")
    if tiny:
        lemma26_params["x_cutoff"] = 1e4
    # lemma26's unit is one shift delta: 0..50 at step 0.05
    lemma26 = Op("lemma26", "verify", lemma26_params, _op_seed(rng),
                 trials=1001)
    ops = [classify, lemma21, lemma26]

    # lemma22 is split into three ops so that its trials spread over the
    # workload run's op latencies
    lemma22_ops, lemma22_trials = (2, 6) if tiny else (3, 60)
    for i in range(lemma22_ops):
        seed22 = _balanced_seed(rng, _lemma22_costs, lemma22_trials,
                                _LEMMA22_EXPECT, 0.015)
        ops.append(Op(f"lemma22_{i}", "verify",
                      _params(property="lemma22", trials=lemma22_trials),
                      seed22, trials=lemma22_trials))
    balanced = {"lemma33": (3, _lemma33_costs, sum(_LEMMA33_MS.values()) / 3.0, 0.01),
                "lemma23": (1 if tiny else 10, lemma23_draws, 500.5, 0.02)}
    for prop, (trials, costs, expect, tol) in balanced.items():
        ops.append(Op(prop, "verify", _params(property=prop, trials=trials),
                      _balanced_seed(rng, costs, trials, expect, tol),
                      trials=trials))
    for prop in ("lemma24", "prop34"):
        trials = 5 if tiny else 50
        ops.append(Op(prop, "verify", _params(property=prop, trials=trials),
                      _op_seed(rng), trials=trials))

    warm_out = os.path.join(workdir, "warmup.json")
    warmup = [Op("warmup_classify", "classify", dict(classify.parameters, out=warm_out),
                 classify.seed, outputs=(warm_out,)),
              Op("warmup_lemma22", "verify", _params(property="lemma22", trials=5),
                 _op_seed(rng), trials=5)]
    return Workload("verify", seed, ops, warmup)


_BUILDERS = {"moments": _moments, "verify": _verify}


def build(name: str, seed: int, workdir: str, scale: str = "full") -> Workload:
    """The workload `name` with inputs drawn from `seed`."""
    if name not in _BUILDERS:
        raise ValueError(f"unknown workload {name!r}; choose from {NAMES}")
    return _BUILDERS[name](seed, workdir, scale == "tiny")


# ---------------------------------------------------------------------------
# payload invariants; a wrong but fast answer counts as a failed op

_HALVING_MAX = 1e-3
_CSV_HEADER = "delta,moment,prediction,ratio,nsw_F,step_halving_delta"


def _check_curve(wl, op, payload, artifacts):
    bad = []
    res = payload["results"]
    rows = res["rows"]
    deltas = op.parameters["config"]["deltas"]
    if [r["delta"] for r in rows] != [float(d) for d in deltas]:
        bad.append("curve rows do not match the deltas one to one")
    for r in rows:
        if not r["step_halving_delta"] <= _HALVING_MAX:
            bad.append(f"halving delta {r['step_halving_delta']} at {r['delta']}")
        if not 1e-2 <= r["ratio"] <= 1e2:
            bad.append(f"ratio {r['ratio']} at delta {r['delta']}")
    by_delta = {r["delta"]: r["moment"] for r in rows}
    if 0.0 in by_delta and 10.0 in by_delta \
            and not by_delta[0.0] >= 2.0 * by_delta[10.0]:
        bad.append("moment(0) / moment(10) < 2")
    lines = artifacts.get(op.outputs[0], b"").decode().splitlines()
    if not lines or lines[0] != _CSV_HEADER or len(lines) != len(rows) + 1:
        bad.append("curve CSV header or line count is wrong")
    return bad


def _check_moment(wl, op, payload, artifacts):
    bad = []
    res = payload["results"]
    cfg = op.parameters["config"]
    if not (math.isfinite(res["moment"]) and res["moment"] > 0
            and math.isfinite(res["ratio"]) and res["ratio"] > 0):
        bad.append(f"moment {res['moment']} / ratio {res['ratio']} not finite positive")
    if not res["step_halving_delta"] <= _HALVING_MAX:
        bad.append(f"halving delta {res['step_halving_delta']}")
    if all(b == 0.0 for b in cfg["beta"]) and not (
            res["moment"] == cfg["T"] and res["ratio"] == 1.0):
        bad.append("all-zero exponents must give moment == T and ratio == 1")
    versions = payload["cache_versions"]
    if not versions or versions[0].get("path") != wl.cache_path:
        bad.append("cache_versions does not name the cache")
    return bad


def _check_classify(wl, op, payload, artifacts):
    res = payload["results"]
    bad = []
    points = round(op.parameters["t1"] - op.parameters["t0"]) + 1
    if res["points"] != points:
        bad.append(f"classified {res['points']} points, expected {points}")
    total = res["good_fraction"] + math.fsum(res["bad_fractions"])
    if abs(total - 1.0) > 1e-12 or math.fsum(res["square_fractions"]) > 1.0 + 1e-12:
        bad.append(f"class fractions do not partition the grid ({total})")
    return bad


def _check_verify(wl, op, payload, artifacts):
    res = payload["results"]
    bad = [] if res["violations"] == 0 else [f"{res['violations']} violations"]
    if "worst_formula_gap" in res and not res["worst_formula_gap"] <= 1e-12:
        bad.append(f"worst formula gap {res['worst_formula_gap']}")
    return bad


# by op kind
_CHECKS = {"curve": _check_curve, "moment": _check_moment,
           "classify": _check_classify, "verify": _check_verify}
