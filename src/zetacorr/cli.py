"""Experiment harness: argument parsing, config validation, dispatch,
and report emission.

Every run produces one JSON report with two top-level parts: `payload`
(pure function of config + seed + consumed caches, canonically
serialized, byte-stable across worker counts) and `meta` (wall time,
timestamps, thread count).  Artifacts (caches, CSV, SVG, report files)
are written all together after the computation finishes, or not at
all, so failed runs leave nothing behind.

Exit codes: 0 success, 2 configuration, 3 cache, 4 domain, 5 resource.
"""

from __future__ import annotations

import argparse
import ast
import datetime
import json
import math
import os
import random
import sys
import time
from dataclasses import dataclass

import numpy as np

from . import blocks, dirichlet, moments, primes, zeta
from .errors import (
    CacheFormatError,
    ConfigError,
    DomainError,
    ZetaLabError,
)

_CLASSIFY_STEP_NOTE = 0.05   # measure grids should resolve this scale
_FORMULA_FUNCS = {"log": math.log, "sqrt": math.sqrt, "exp": math.exp}
_FORMULA_NAMES = {"pi": math.pi, "e": math.e}


# ---------------------------------------------------------------------------
# config plumbing


@dataclass
class ExperimentConfig:
    """One validated run request."""

    kind: str
    parameters: dict
    seed: int
    threads: int


@dataclass
class RunReport:
    """Deterministic payload plus the timing sidecar."""

    payload: dict
    meta: dict

    def to_json(self) -> str:
        return canonical_json({"payload": self.payload, "meta": self.meta})


def payload_bytes(report: RunReport) -> bytes:
    """Canonical bytes of the deterministic part of a report."""
    return canonical_json(report.payload).encode("ascii")


def canonical_json(obj) -> str:
    return json.dumps(
        obj, sort_keys=True, separators=(",", ":"), allow_nan=False) + "\n"


def _pyify(obj):
    """Plain-python mirror of results built from numpy pieces."""
    if isinstance(obj, dict):
        return {k: _pyify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_pyify(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_pyify(v) for v in obj.tolist()]
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, (np.integer,)):
        return int(obj)
    return obj


def load_config(path) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            cfg = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"malformed JSON in {path}: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError(f"config {path} must be a JSON object")
    return cfg


def _echo(text: str) -> str:
    """`text` quoted for an error message, cut after 80 characters."""
    return repr(text[:80] + "\u2026" if len(text) > 80 else text)


def eval_alpha_formula(expr: str, t_height: float):
    """Evaluate a shift formula in T: numbers, T, pi, e, arithmetic,
    log/sqrt/exp, and list literals.  Nothing else parses."""
    try:
        tree = ast.parse(expr, mode="eval")
    except (SyntaxError, RecursionError, MemoryError) as exc:
        # the parser refuses over-deep nesting with the latter two
        raise ConfigError(f"bad shift formula {_echo(expr)}: {exc}") from exc

    def ev(node):
        if isinstance(node, ast.Expression):
            return ev(node.body)
        if isinstance(node, ast.Constant) and isinstance(node.value, (int, float)):
            return float(node.value)
        if isinstance(node, ast.Name):
            if node.id == "T":
                return float(t_height)
            if node.id in _FORMULA_NAMES:
                return _FORMULA_NAMES[node.id]
            raise ConfigError(f"unknown name {_echo(node.id)} in shift formula")
        if isinstance(node, (ast.List, ast.Tuple)):
            return [ev(el) for el in node.elts]
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.USub, ast.UAdd)):
            v = ev(node.operand)
            return -v if isinstance(node.op, ast.USub) else v
        if isinstance(node, ast.BinOp) and isinstance(
                node.op, (ast.Add, ast.Sub, ast.Mult, ast.Div, ast.Pow)):
            a, b = ev(node.left), ev(node.right)
            op = {ast.Add: lambda: a + b, ast.Sub: lambda: a - b,
                  ast.Mult: lambda: a * b, ast.Div: lambda: a / b,
                  ast.Pow: lambda: a ** b}[type(node.op)]
            return op()
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
                and node.func.id in _FORMULA_FUNCS and len(node.args) == 1 \
                and not node.keywords:
            return _FORMULA_FUNCS[node.func.id](ev(node.args[0]))
        raise ConfigError(
            f"disallowed element {type(node).__name__} in shift formula")

    try:
        return ev(tree)
    except (ArithmeticError, ValueError, TypeError, RecursionError) as exc:
        # log(0), sqrt(-1), 1/0, exp(1000), T**400, -[1], ...
        raise ConfigError(f"shift formula {_echo(expr)} fails: {exc}") from exc


# ---------------------------------------------------------------------------
# config fields: one ordered table per subcommand, read by read_config.
# A parser gets the raw JSON value and the fields parsed before it.

_REQUIRED = object()


def _real(val, fields=None) -> float:
    # bools are JSON true/false, not numbers
    if isinstance(val, bool) or not isinstance(val, (int, float)):
        raise ConfigError(f"must be a number, got {val!r}")
    try:
        out = float(val)
    except OverflowError:         # an int beyond the float range
        out = math.inf
    if not math.isfinite(out):
        raise ConfigError(f"must be finite, got {val!r}")
    return out


def _reals(val, fields=None) -> list:
    if not isinstance(val, (list, tuple)):
        raise ConfigError("must be a list of numbers")
    return [_real(x) for x in val]


def _shifts(val, fields) -> list:
    """A list of numbers, or {"formula": str} evaluated at the height T."""
    if isinstance(val, dict):
        if set(val) != {"formula"} or not isinstance(val["formula"], str):
            raise ConfigError('object form must be {"formula": str}')
        val = eval_alpha_formula(val["formula"], fields["T"])
        val = val if isinstance(val, list) else [val]
    if not isinstance(val, (list, tuple)):
        raise ConfigError('must be a list of numbers or {"formula": str}')
    if not val:
        raise ConfigError("needs at least one value")
    return _reals(val)


def _step(val, fields) -> float:
    step = _real(val)
    if not 0.0 < step <= moments.STEP_LIMIT:
        raise ConfigError(f"must lie in (0, {moments.STEP_LIMIT}]")
    return step


def _int(val, fields=None) -> int:
    if isinstance(val, bool) or not isinstance(val, int):
        raise ConfigError(f"must be an integer, got {val!r}")
    return val


def _band_count(val, fields) -> int:
    if _int(val) < 1:
        raise ConfigError(f"must be >= 1, got {val}")
    return val


def _curve_beta(val, fields) -> float:
    """One exponent, given as a number or as the same number twice."""
    if not isinstance(val, (list, tuple)):
        return _real(val)
    pair = _reals(val)
    if len(pair) != 2 or pair[0] != pair[1]:
        raise ConfigError("must be a number or one value twice")
    return pair[0]


def _abscissa(val, fields) -> str:
    if val not in ("half", "one"):
        raise ConfigError("must be half|one")
    return val


_T = ("T", _real, _REQUIRED)
_BETA = ("beta", _reals, _REQUIRED)
_STEP = ("step", _step, _REQUIRED)
_RS_TERMS = ("rs_terms", _int, 4)

# (field, parser, default) rows in parse order
_CONFIG_FIELDS = {
    "moment": (_T, ("alpha", _shifts, _REQUIRED), _BETA, _STEP, _RS_TERMS),
    "predict": (_T, ("alpha", _shifts, _REQUIRED), _BETA),
    "curve": (_T, ("beta", _curve_beta, _REQUIRED),
              ("deltas", _shifts, _REQUIRED), _STEP, _RS_TERMS),
    "classify": (_T, _BETA, ("exponent_scale", _real, None),
                 ("band_count", _band_count, None),
                 ("abscissa", _abscissa, "half")),
}


def read_config(kind: str, cfg: dict) -> dict:
    """The fields of a `kind` config file, parsed in table order; an
    absent or null field takes its default."""
    fields = {}
    for key, parse, default in _CONFIG_FIELDS[kind]:
        if cfg.get(key) is not None:
            try:
                fields[key] = parse(cfg[key], fields)
            except ConfigError as exc:
                raise ConfigError(f"{kind} config field {key!r}: {exc}") from None
        elif default is _REQUIRED:
            raise ConfigError(f"{kind} config missing required field {key!r}")
        else:
            fields[key] = default
    return fields


# ---------------------------------------------------------------------------
# grid provisioning for moment runs


def _provision_grid(t_height, alpha, step, rs_terms, threads, cache_path):
    """Fine grid (at step/2) covering the moment window for all shifts.

    With a cache the file must already match: half the config step, the
    config's RS depth and full coverage.  Returns (grid,
    cache_version_records).
    """
    fine_step = step / 2.0
    snapped, _ = moments.snap_shifts(alpha, step)
    t_lo = t_height + min(min(snapped), 0.0)
    t_hi = 2.0 * t_height + max(max(snapped), 0.0) + 4.0 * step
    if cache_path is not None:
        grid = zeta.cache_read(cache_path)
        if abs(grid.step - fine_step) > 1e-12 * fine_step:
            raise CacheFormatError(
                f"cache step {grid.step} does not match config step/2 = "
                f"{fine_step}")
        if grid.correction_terms != rs_terms:
            raise CacheFormatError(f"cache RS depth {grid.correction_terms} does "
                                   f"not match config rs_terms = {rs_terms}")
        if grid.t_start > t_lo or grid.t_stop < t_hi:
            raise CacheFormatError(
                f"cache span [{grid.t_start}, {grid.t_stop}] does not cover "
                f"[{t_lo}, {t_hi}]")
        version = [{
            "path": str(cache_path), "version": zeta.CACHE_VERSION,
            "count": grid.count, "step": grid.step,
            "rs_terms": grid.correction_terms,
        }]
        return grid, version
    grid = zeta.sample_critical_line(
        t_lo, t_hi, fine_step, correction_terms=rs_terms, workers=threads)
    return grid, []


# ---------------------------------------------------------------------------
# handlers; each returns (results, warnings, cache_versions, artifacts)
# artifacts: list of (path, bytes) written by run() on success


def _handle_sample(config: ExperimentConfig):
    p = config.parameters
    grid = zeta.sample_critical_line(
        p["t0"], p["t1"], p["step"],
        correction_terms=p["rs_terms"],
        workers=config.threads,
    )
    results = {
        "t0": p["t0"], "t1": p["t1"], "step": p["step"],
        "rs_terms": p["rs_terms"], "count": grid.count,
    }
    return results, [], [], [(p["out"], zeta.cache_bytes(grid))]


def _handle_classify(config: ExperimentConfig):
    p = config.parameters
    c = read_config("classify", p["config"])
    scheme = blocks.build_scheme(
        c["T"], c["beta"], exponent_scale_override=c["exponent_scale"])
    band_count = c["band_count"]
    if band_count is None:
        band_count = max(scheme.square_band_count, 6)
    warnings = []
    if scheme.degenerate:
        warnings.append(
            "scheme is degenerate (no blocks at this height and scale); "
            "good/bad classification is vacuous")
    step = p["step"]
    if step > _CLASSIFY_STEP_NOTE:
        warnings.append(
            f"grid spacing {step} exceeds the {_CLASSIFY_STEP_NOTE} "
            f"measure-resolution guideline")
    count = zeta.grid_count(p["t0"], p["t1"], step)
    t = p["t0"] + np.arange(count, dtype=np.float64) * step

    sieve_top = max(
        [64.0]
        + [scheme.t_seq[scheme.levels]] * (scheme.levels >= 1)
        + [math.exp(band_count + 1)])
    table = primes.sieve_primes(int(math.ceil(sieve_top)) + 1)
    engines = blocks.SieveBlockEngines(scheme, table, abscissa=c["abscissa"])
    grid = blocks.classify_grid(t, scheme, engines, band_count=band_count)

    bad_counts = [int(np.count_nonzero(grid.bad_index == j))
                  for j in range(1, scheme.levels + 1)]
    square_counts = [int(np.count_nonzero(grid.square_index == l))
                     for l in range(1, band_count + 1)]
    good_count = int(np.count_nonzero(grid.bad_index == 0))
    square_zero = int(np.count_nonzero(grid.square_index == 0))
    if good_count + sum(bad_counts) != count:
        raise DomainError("block classification failed to partition the grid")
    if square_zero + sum(square_counts) != count:
        raise DomainError("square classification failed to partition the grid")

    results = {
        "good_fraction": good_count / count,
        "bad_fractions": [n / count for n in bad_counts],
        "square_fractions": [n / count for n in square_counts],
        "bounds": [blocks.square_measure_bound(l)
                   for l in range(1, band_count + 1)],
        "block_bounds": [blocks.block_measure_bound(scheme, j)
                         for j in range(1, scheme.levels + 1)],
        "points": count,
        "levels": scheme.levels,
        "band_count": band_count,
        "degenerate": scheme.degenerate,
    }
    flat = dict(results)
    flat["seed"] = config.seed
    flat["warnings"] = warnings
    artifacts = []
    if p.get("out"):
        artifacts.append((p["out"], canonical_json(_pyify(flat))))
    return results, warnings, [], artifacts


def _handle_moment(config: ExperimentConfig):
    p = config.parameters
    c = read_config("moment", p["config"])
    spec = moments.ShiftSpec(alpha=c["alpha"], beta=c["beta"], t_height=c["T"])
    grid, versions = _provision_grid(
        c["T"], c["alpha"], c["step"], c["rs_terms"], config.threads,
        p.get("cache"))
    report = moments.moment_report(spec, grid)
    results = {
        "moment": report.moment,
        "prediction": report.prediction,
        "ratio": report.ratio,
        "quadrature_step": report.quadrature_step,
        "step_halving_delta": report.step_halving_delta,
        "nsw_F": report.nsw_value,
        "rule": "simpson",
        "snapped_alpha": list(report.snapped_alpha),
        "snap_residuals": list(report.snap_residuals),
    }
    return results, list(report.warnings), versions, []


def _handle_predict(config: ExperimentConfig):
    c = read_config("predict", config.parameters["config"])
    spec = moments.ShiftSpec(alpha=c["alpha"], beta=c["beta"], t_height=c["T"])
    results = {
        "prediction": moments.predict_bound(spec),
        "T": c["T"],
        "log_power": math.fsum(b * b for b in c["beta"]),
    }
    if spec.m == 2:
        results["nsw_F"] = moments.nsw_F(c["alpha"][0], c["alpha"][1], c["T"])
    return results, [], [], []


# the curve CSV columns, which are also the keys of the payload rows
_CURVE_COLUMNS = ("delta", "moment", "prediction", "ratio", "nsw_F",
                  "step_halving_delta")


def curve_csv(rows) -> str:
    """CSV of payload curve rows, values in shortest round-trip form."""
    lines = [",".join(_CURVE_COLUMNS)]
    lines += [",".join(repr(row[k]) for k in _CURVE_COLUMNS) for row in rows]
    return "\n".join(lines) + "\n"


def _handle_curve(config: ExperimentConfig):
    p = config.parameters
    c = read_config("curve", p["config"])
    grid, versions = _provision_grid(
        c["T"], [0.0] + c["deltas"], c["step"], c["rs_terms"], config.threads,
        p.get("cache"))
    rows = moments.correlation_curve(c["T"], c["beta"], c["deltas"], grid)
    table = [dict(zip(_CURVE_COLUMNS, (r.delta, r.moment, r.prediction, r.ratio,
                                       r.nsw_value, r.step_halving_delta)))
             for r in rows]
    results = {
        "rows": table,
        "T": c["T"],
        "beta": c["beta"],
        "quadrature_step": c["step"],
    }
    artifacts = [(p["out"], curve_csv(table))]
    if p.get("plot"):
        artifacts.append((p["plot"], emit_plot_svg(rows)))
    return results, [], versions, artifacts


def _handle_verify(config: ExperimentConfig):
    p = config.parameters
    prop = p.get("property")
    if not isinstance(prop, str) or prop not in _VERIFY_DRIVERS:
        raise ConfigError(f"unknown verify property {prop!r}; choose from "
                          f"{', '.join(sorted(_VERIFY_DRIVERS))}")
    unread = sorted(str(k).replace("_", "-") for k in
                    set(p) - {"property", "report", *_VERIFY_FLAGS[prop]})
    if unread:
        raise ConfigError(f"verify {prop} does not read --" + ", --".join(unread))
    results = _VERIFY_DRIVERS[prop](p, random.Random(config.seed))
    return results, [], [], []


_HANDLERS = {
    "sample": _handle_sample,
    "classify": _handle_classify,
    "moment": _handle_moment,
    "predict": _handle_predict,
    "curve": _handle_curve,
    "verify": _handle_verify,
}


def run(config: ExperimentConfig) -> RunReport:
    """Dispatch a validated config, then write artifacts and the report."""
    started = time.monotonic()
    results, warnings, cache_versions, artifacts = _HANDLERS[config.kind](config)
    payload = _pyify({
        "kind": config.kind,
        "config": config.parameters.get("config", {
            k: v for k, v in config.parameters.items() if k != "config"}),
        "seed": config.seed,
        "results": results,
        "cache_versions": cache_versions,
        "warnings": list(warnings),
    })
    meta = {
        "wall_time_s": time.monotonic() - started,
        "timestamp_utc": datetime.datetime.now(
            datetime.timezone.utc).isoformat(),
        "threads": config.threads,
    }
    report = RunReport(payload=payload, meta=meta)
    report_path = config.parameters.get("report")
    if report_path:
        artifacts = [*artifacts, (report_path, report.to_json())]
    _write_all(artifacts)
    return report


def _write_all(outputs) -> None:
    """Write each (path, str or bytes) output to a temp file beside its
    target, then, once every temp file is written, move each onto its
    target.  An OSError removes the temp files left and becomes a
    ConfigError, so an unwritable path leaves no output behind."""
    temps = []
    try:
        for i, (path, content) in enumerate(outputs):
            if os.path.isdir(path):     # else os.replace fails after others moved
                raise IsADirectoryError(f"{path} is a directory")
            tmp = f"{path}.{os.getpid()}-{i}.tmp"
            with open(tmp, "xb") as fh:
                temps.append(tmp)
                fh.write(content if isinstance(content, bytes)
                         else content.encode("utf-8"))
        for (path, _), tmp in zip(outputs, temps):
            os.replace(tmp, path)
    except OSError as exc:
        for tmp in temps:
            if os.path.exists(tmp):
                os.remove(tmp)
        raise ConfigError(f"cannot write outputs: {exc}") from exc


# ---------------------------------------------------------------------------
# verify drivers; each maps (parameters, rng) to its results

_LEMMA26_CAP = 3.0      # allowed |prime cosine sum - log|zeta(1 + 1/log X + i delta)||
_MV_WINDOW = 1e6        # mean values are taken over [T, 2T] with this T
_COEFF_TERMS_MAX = 1000     # a lemma23 table has 1..this entries
_COEFF_FREQ_MAX = 10_000    # at distinct frequencies in 1..this


def _verify_lemma26(p, rng):
    x_cutoff = p.get("x_cutoff", 1e5)
    table = primes.sieve_primes(int(x_cutoff))
    deltas = np.arange(1001, dtype=np.float64) * 0.05     # 0, 0.05, ..., 50
    lhs = primes.pretentious_cos_sum(table, x_cutoff, deltas)
    offset = 1.0 / math.log(x_cutoff)
    rhs = np.array([
        math.log(zeta.zeta_one_line(float(d), offset).modulus)
        for d in deltas
    ])
    dev = np.abs(lhs - rhs)
    worst = int(np.argmax(dev))
    return {
        "points": deltas.size,
        "cutoff": x_cutoff,
        "max_abs_deviation": float(dev[worst]),
        "argmax_delta": float(deltas[worst]),
        "deviation_cap": _LEMMA26_CAP,
        "violations": int(np.count_nonzero(dev > _LEMMA26_CAP)),
    }


def _verify_lemma22(p, rng):
    trials = p.get("trials", 10_000)
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
        entries=entries, primes=(), x_cutoff=float(_COEFF_FREQ_MAX), max_omega=0,
        interval=primes.PrimeInterval(1.0, _COEFF_FREQ_MAX))


def _verify_lemma23(p, rng):
    trials = p.get("trials", 100)
    violations = 0
    worst_ratio = 0.0
    for _ in range(trials):
        tab = _random_coeff_table(rng)
        mv = dirichlet.exact_mv_integral(tab, _MV_WINDOW)
        diag = dirichlet.mean_value_diagonal(tab, _MV_WINDOW)
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


def _verify_lemma24(p, rng):
    trials = p.get("trials", 50)
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


def _verify_lemma33(p, rng):
    trials = p.get("trials", 1000)
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
            gap = abs(prod.coeff(prime) - expect)
            worst_formula = max(worst_formula, gap)
            if gap > 1e-12:
                violations += 1
            f = prime
            for r in range(1, 7):
                if r > 1:
                    f *= prime
                cap = beta_star ** r * m ** r / math.factorial(r)
                if abs(prod.coeff(f)) > cap * (1 + 1e-12):
                    violations += 1
    return {
        "trials": trials, "violations": violations,
        "worst_formula_gap": worst_formula,
    }


def _verify_prop34(p, rng):
    trials = p.get("trials", 50)
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
                x_cutoff=256.0, max_omega=cap)
        diag = dirichlet.diagonal_sum(tab, sigma0)
        bound = dirichlet.euler_bound(tab, sigma0)
        if diag > bound * (1 + 1e-12):
            violations += 1
        worst = max(worst, diag / bound)
    return {
        "trials": trials, "violations": violations,
        "worst_diag_to_bound": worst,
    }


def _verify_lemma21(p, rng):
    points = p.get("points", 10_000)
    t_height = p.get("t_height", 1e5)
    table = primes.sieve_primes(int(t_height))

    def audit(n):
        # left-endpoint grid so that doubling n nests the sample: the
        # refined maximum can only creep up, and the creep measures
        # grid sensitivity rather than resampling noise
        step = t_height / n
        t = t_height + np.arange(n, dtype=np.float64) * step
        z = zeta.riemann_siegel_Z(t, 4)
        with np.errstate(divide="ignore"):
            lhs = np.log(np.abs(z))
        rhs = moments.lemma21_rhs(t, 0.0, t_height, table, t_height=t_height)
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


_VERIFY_DRIVERS = {
    "lemma21": _verify_lemma21,
    "lemma22": _verify_lemma22,
    "lemma23": _verify_lemma23,
    "lemma24": _verify_lemma24,
    "lemma26": _verify_lemma26,
    "lemma33": _verify_lemma33,
    "prop34": _verify_prop34,
}

# the flags each property reads; `verify` refuses the others
_VERIFY_FLAGS = {prop: ("trials",) for prop in _VERIFY_DRIVERS}
_VERIFY_FLAGS.update(lemma21=("points", "t_height"), lemma26=("x_cutoff",))


# ---------------------------------------------------------------------------
# SVG curve plotting


def _svg_coords(vals, lo, hi, out_lo, out_hi):
    span = hi - lo
    if span <= 0:
        return [0.5 * (out_lo + out_hi) for _ in vals]
    return [out_lo + (v - lo) / span * (out_hi - out_lo) for v in vals]


def emit_plot_svg(rows) -> str:
    """Self-contained two-panel SVG: ratio vs delta on top, moment vs
    delta (log scale) below.  Every marker carries the row's values in
    data attributes, exactly as printed to the CSV."""
    rows = list(rows)
    if not rows:
        raise DomainError("cannot plot an empty curve table")
    for r in rows:
        if r.moment <= 0:
            raise DomainError("log-scale moment panel needs positive moments")
    deltas = [r.delta for r in rows]
    ratios = [r.ratio for r in rows]
    logm = [math.log10(r.moment) for r in rows]

    width, height, margin = 800.0, 600.0, 60.0
    panel_h = (height - 3 * margin) / 2.0
    x = _svg_coords(deltas, min(deltas), max(deltas), margin, width - margin)
    y1 = _svg_coords(ratios, min(ratios), max(ratios),
                     margin + panel_h, margin)
    y2 = _svg_coords(logm, min(logm), max(logm),
                     height - margin, height - margin - panel_h)

    def polyline(xs, ys, color):
        if len(xs) < 2:
            return ""
        pts = " ".join(f"{a:.3f},{b:.3f}" for a, b in zip(xs, ys))
        return (f'<polyline fill="none" stroke="{color}" stroke-width="1.5" '
                f'points="{pts}"/>')

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width:.0f}" '
        f'height="{height:.0f}" viewBox="0 0 {width:.0f} {height:.0f}">',
        '<rect width="100%" height="100%" fill="white"/>',
        f'<text x="{margin}" y="{margin - 20}" font-family="monospace" '
        f'font-size="14">ratio vs delta</text>',
        f'<text x="{margin}" y="{margin + panel_h + margin - 20}" '
        f'font-family="monospace" font-size="14">moment vs delta '
        f'(log10 scale)</text>',
        polyline(x, y1, "#1f6feb"),
        polyline(x, y2, "#d1242f"),
    ]
    for i, r in enumerate(rows):
        parts.append(
            f'<circle cx="{x[i]:.3f}" cy="{y1[i]:.3f}" r="3" fill="#1f6feb" '
            f'data-delta="{r.delta!r}" data-ratio="{r.ratio!r}" '
            f'data-nsw-f="{r.nsw_value!r}"/>')
        parts.append(
            f'<circle cx="{x[i]:.3f}" cy="{y2[i]:.3f}" r="3" fill="#d1242f" '
            f'data-delta="{r.delta!r}" data-moment="{r.moment!r}" '
            f'data-prediction="{r.prediction!r}" '
            f'data-step-halving-delta="{r.step_halving_delta!r}"/>')
    parts.append("</svg>")
    return "\n".join(p for p in parts if p) + "\n"


# ---------------------------------------------------------------------------
# argument parsing / entry point


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="zetacorr",
        description="Numerical laboratory for shifted moments on the "
                    "critical line.")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--threads", type=int, default=os.cpu_count() or 1,
                        help="worker count (default: available cores)")
    common.add_argument("--seed", type=int, default=0,
                        help="seed recorded in, and driving, the run")
    common.add_argument("--report", default=None,
                        help="also write the JSON report to this path")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sample", parents=[common],
                       help="sample the critical line into a cache")
    p.add_argument("--t0", type=float, required=True)
    p.add_argument("--t1", type=float, required=True)
    p.add_argument("--step", type=float, required=True)
    p.add_argument("--rs-terms", type=int, default=_RS_TERMS[2],
                   help="RS correction depth (default: %(default)s, the "
                        "config rs_terms default)")
    p.add_argument("--out", required=True)

    p = sub.add_parser("classify", parents=[common],
                       help="classify a t grid into good/bad/square sets")
    p.add_argument("--config", required=True)
    p.add_argument("--t0", type=float, required=True)
    p.add_argument("--t1", type=float, required=True)
    p.add_argument("--step", type=float, required=True)
    p.add_argument("--out", default=None)

    p = sub.add_parser("moment", parents=[common],
                       help="one shifted moment with prediction and ratio")
    p.add_argument("--config", required=True)
    p.add_argument("--cache", default=None)

    p = sub.add_parser("predict", parents=[common],
                       help="the size prediction alone")
    p.add_argument("--config", required=True)

    p = sub.add_parser("curve", parents=[common],
                       help="correlation decay sweep over separations")
    p.add_argument("--config", required=True)
    p.add_argument("--cache", default=None)
    p.add_argument("--out", required=True)
    p.add_argument("--plot", default=None)

    p = sub.add_parser("verify", parents=[common],
                       help="randomized property drivers")
    p.add_argument("property", choices=sorted(_VERIFY_DRIVERS))
    p.add_argument("--trials", type=int, default=None)
    p.add_argument("--points", type=int, default=None)
    p.add_argument("--x-cutoff", type=float, default=None)
    p.add_argument("--t-height", type=float, default=None)
    return parser


def _float_flag(args, name) -> float:
    """A float flag's value, put through the config number check."""
    try:
        return _real(getattr(args, name))
    except ConfigError as exc:
        raise ConfigError(f"--{name.replace('_', '-')} {exc}") from None


def _config_from_args(args) -> ExperimentConfig:
    kind = args.command
    params: dict = {"report": args.report}
    if kind == "sample":
        t0, t1, step = (_float_flag(args, k) for k in ("t0", "t1", "step"))
        if step <= 0:
            raise ConfigError(f"step must be positive, got {step}")
        params.update(t0=t0, t1=t1, step=step,
                      rs_terms=args.rs_terms, out=args.out)
    elif kind == "classify":
        t0, t1, step = (_float_flag(args, k) for k in ("t0", "t1", "step"))
        params.update(config=load_config(args.config), t0=t0,
                      t1=t1, step=step, out=args.out)
        if step <= 0 or t1 < t0:
            raise ConfigError("classify needs step > 0 and t1 >= t0")
    elif kind in ("moment", "predict"):
        params.update(config=load_config(args.config))
        if kind == "moment":
            params["cache"] = args.cache
    elif kind == "curve":
        params.update(config=load_config(args.config), out=args.out,
                      cache=args.cache, plot=args.plot)
    elif kind == "verify":
        params["property"] = args.property
        for key in ("trials", "points", "x_cutoff", "t_height"):
            value = getattr(args, key)
            if value is None:
                continue
            if key in ("x_cutoff", "t_height"):
                value = _float_flag(args, key)
            elif value <= 0:
                raise ConfigError(f"{key} must be positive")
            params[key] = value
    if args.threads < 1:
        raise ConfigError(f"threads must be >= 1, got {args.threads}")
    return ExperimentConfig(
        kind=kind, parameters=params, seed=args.seed, threads=args.threads)


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        config = _config_from_args(args)
        report = run(config)
    except ZetaLabError as exc:
        print(f"zetacorr: {exc}", file=sys.stderr)
        return exc.exit_code
    sys.stdout.write(report.to_json())
    return 0


if __name__ == "__main__":
    sys.exit(main())
