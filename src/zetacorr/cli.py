"""Experiment harness: argument parsing, config validation, dispatch,
and report emission.

Every run produces one JSON report with two top-level parts: `payload`
(pure function of config + seed + consumed caches, canonically
serialized, byte-stable across thread counts) and `meta` (wall time,
timestamps, thread count).  Artifacts (caches, CSV, report files)
are written all together after the computation finishes, or not at
all, so failed runs leave nothing behind.  `moment` and `curve` pass
their shift specs to `moments.moment_rows`, which samples or reads the
grid they integrate.

Exit codes: 0 success, 2 configuration, 3 cache, 4 domain, 5 resource.
"""

from __future__ import annotations

import argparse
import ast
import datetime
import inspect
import json
import math
import os
import random
import sys
import time
from dataclasses import dataclass

import numpy as np

from . import blocks, moments, primes, verify, zeta
from .errors import ConfigError, DomainError, ZetaLabError
from .sums import UniformGrid

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
    if isinstance(obj, os.PathLike):
        return os.fspath(obj)
    return obj


def load_config(path) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            cfg = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except (ValueError, RecursionError) as exc:
        # also bytes not UTF-8, ints past 4 300 digits and deep nesting
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
# parameter rows, read by read_config: config files, command-line flags
# and `run` dicts all pass them.  A parser gets the raw value and the
# fields parsed before it.  Each flag is one row (see _COMMANDS).

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


def _positive(val, fields) -> float:
    out = _real(val)
    if out <= 0.0:
        raise ConfigError(f"must be positive, got {out}")
    return out


def _t1(val, fields) -> float:
    t1 = _real(val)
    if t1 < fields["t0"]:
        raise ConfigError(f"must be >= t0 = {fields['t0']}, got {t1}")
    return t1


def _int(val) -> int:
    if isinstance(val, bool) or not isinstance(val, int):
        raise ConfigError(f"must be an integer, got {val!r}")
    return val


def _count(val, fields=None) -> int:
    # finite as a float, like every number here
    if _real(_int(val)) < 1:
        raise ConfigError(f"must be >= 1, got {val}")
    return val


def _band_count(val, fields=None) -> int:
    # classify sieves to e^(band_count + 1): the sieve's limit caps it
    top = int(math.log(primes.SIEVE_LIMIT_MAX - 2)) - 1
    if _count(val) > top:
        raise ConfigError(f"must be <= {top}, where the sieve stops, got {val}")
    return val


def _within(lo: float, hi: float, why: str = ""):
    """A parser of one real in [lo, hi]."""
    def parse(val, fields=None) -> float:
        out = _real(val)
        if not lo <= out <= hi:
            raise ConfigError(f"must lie in [{lo:g}, {hi:g}]{why}, got {out:g}")
        return out
    return parse


def _rs_terms(val, fields=None) -> int:
    if not 0 <= _int(val) <= zeta.MAX_CORRECTION_TERMS:
        raise ConfigError(f"must lie in 0..{zeta.MAX_CORRECTION_TERMS}, got {val}")
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


def _path(val, fields=None):
    if not isinstance(val, (str, os.PathLike)):
        raise ConfigError(f"must be a path, got {type(val).__name__}")
    if not os.fspath(val):
        raise ConfigError("must be a path, got an empty string")
    return val


def _refuse_shared_files(params: dict, inputs: dict) -> None:
    """Refuse an output (`out`, `report`) whose real path is another
    output's or an input's: writing it would replace that file."""
    seen = {os.path.realpath(path): key for key, path in inputs.items() if path}
    for key in ("out", "report"):
        if params.get(key):
            real = os.path.realpath(params[key])
            if real in seen:
                raise ConfigError(f"parameters {seen[real]!r} and {key!r} "
                                  f"name one file, {params[key]}")
            seen[real] = key


_T = ("T", _real, _REQUIRED)
_BETA = ("beta", _reals, _REQUIRED)
_STEP = ("step", _step, _REQUIRED)
_RS_TERMS = ("rs_terms", _rs_terms, 4)
_T0 = ("t0", _real, _REQUIRED)
_T1 = ("t1", _t1, _REQUIRED)
_GRID_STEP = ("step", _positive, _REQUIRED)
# paths, so not in README's table
_OUT = ("out", _path, _REQUIRED)
_CACHE = ("cache", _path, None)
_REPORT = ("report", _path, None)      # every subcommand's

# (field, parser, default) rows in parse order: the fields of a config file
_CONFIG_FIELDS = {
    "moment": (_T, ("alpha", _shifts, _REQUIRED), _BETA, _STEP, _RS_TERMS),
    "predict": (_T, ("alpha", _shifts, _REQUIRED), _BETA),
    "curve": (_T, ("beta", _curve_beta, _REQUIRED),
              ("deltas", _shifts, _REQUIRED), _STEP, _RS_TERMS),
    "classify": (_T, _BETA, ("exponent_scale", _real, None),
                 ("band_count", _band_count, None),
                 ("abscissa", _abscissa, "half")),
}

# property -> (driver, rows); `verify` refuses every other key
_VERIFY = {
    "lemma21": (verify.lemma21, (("points", _count, 10_000),
                                 ("t_height", _within(
                                     zeta.T_MIN, zeta.T_MAX / 2,
                                     ", as its grid spans [T, 2T)"), 1e5))),
    "lemma22": (verify.lemma22, (("trials", _count, 10_000),)),
    "lemma23": (verify.lemma23, (("trials", _count, 100),)),
    "lemma24": (verify.lemma24, (("trials", _count, 50),)),
    "lemma26": (verify.lemma26, (("x_cutoff", _within(
                                     math.e, primes.SIEVE_LIMIT_MAX), 1e5),)),
    "lemma33": (verify.lemma33, (("trials", _count, 1000),)),
    "prop34": (verify.prop34, (("trials", _count, 50),)),
}


def read_config(rows, values: dict, what: str) -> dict:
    """`values` parsed through `rows` in order; an absent or null field
    takes its default.  Errors name a field as `what` then its key."""
    if not isinstance(values, dict):     # a `run` dict's absent `config`, say
        raise ConfigError(f"{what}s need a JSON object, got {values!r:.60}")
    fields = {}
    for key, parse, default in rows:
        if values.get(key) is not None:
            try:
                fields[key] = parse(values[key], fields)
            except ConfigError as exc:
                raise ConfigError(f"{what} {key!r}: {exc}") from None
        elif default is _REQUIRED:
            raise ConfigError(f"{what} {key!r} is required")
        else:
            fields[key] = default
    return fields


# ---------------------------------------------------------------------------
# handlers take the request and one dict of its flags and config fields,
# parsed through their rows; each returns (results, warnings,
# cache_versions, artifacts)
# artifacts: list of (path, str or bytes-like parts) written by run() on success


def _handle_sample(config: ExperimentConfig, f: dict):
    # the grid is sampled chunk by chunk as `_write_all` writes the file
    count, parts = zeta.sample_cache(
        f["t0"], f["t1"], f["step"],
        correction_terms=f["rs_terms"],
        workers=config.threads,
    )
    results = {
        "t0": f["t0"], "t1": f["t1"], "step": f["step"],
        "rs_terms": f["rs_terms"], "count": count,
    }
    return results, [], [], [(f["out"], parts)]


def _handle_classify(config: ExperimentConfig, f: dict):
    scheme = blocks.build_scheme(
        f["T"], f["beta"], exponent_scale_override=f["exponent_scale"])
    band_count = f["band_count"] or max(scheme.square_band_count, 6)
    warnings = []
    if scheme.degenerate:
        warnings.append(
            "scheme is degenerate (no blocks at this height and scale); "
            "good/bad classification is vacuous")
    step = f["step"]
    if step > _CLASSIFY_STEP_NOTE:
        warnings.append(
            f"grid spacing {step} exceeds the {_CLASSIFY_STEP_NOTE} "
            f"measure-resolution guideline")
    count = zeta.grid_count(f["t0"], f["t1"], step)
    engines = blocks.SieveBlockEngines(scheme, band_count, abscissa=f["abscissa"])
    bad, square = blocks.classify_grid(UniformGrid(f["t0"], step, count), engines)

    # label 0 is good (no band); the others run to levels (band_count)
    bad_counts = np.bincount(bad, minlength=scheme.levels + 1).tolist()
    square_counts = np.bincount(square, minlength=band_count + 1).tolist()
    results = {
        "good_fraction": bad_counts[0] / count,
        "bad_fractions": [n / count for n in bad_counts[1:]],
        "square_fractions": [n / count for n in square_counts[1:]],
        "bounds": [blocks.square_measure_bound(l)
                   for l in range(1, band_count + 1)],
        "block_bounds": [blocks.block_measure_bound(scheme, j)
                         for j in range(1, scheme.levels + 1)],
        "points": count,
        "levels": scheme.levels,
        "band_count": band_count,
        "degenerate": scheme.degenerate,
    }
    flat = {**results, "seed": config.seed, "warnings": warnings}
    artifacts = [(f["out"], canonical_json(_pyify(flat)))] if f["out"] else []
    return results, warnings, [], artifacts


def _handle_moment(config: ExperimentConfig, f: dict):
    spec = moments.ShiftSpec(alpha=f["alpha"], beta=f["beta"], t_height=f["T"])
    (results,), warnings, versions = moments.moment_rows(
        [spec], f["step"], f["rs_terms"], config.threads, f["cache"])
    return results, warnings, versions, []


def _handle_predict(config: ExperimentConfig, f: dict):
    spec = moments.ShiftSpec(alpha=f["alpha"], beta=f["beta"], t_height=f["T"])
    results = {
        "prediction": moments.predict_bound(spec),
        "T": f["T"],
        "log_power": math.fsum(b * b for b in f["beta"]),
    }
    if spec.m == 2:
        results["nsw_F"] = moments.nsw_F(f["alpha"][0], f["alpha"][1], f["T"])
    return results, [], [], []


# the curve CSV columns and the keys of the payload rows: a row is the
# delta and the `moment` results at shifts (0, delta)
_CURVE_COLUMNS = ("delta", "moment", "prediction", "ratio", "nsw_F",
                  "step_halving_delta")


def curve_csv(rows) -> str:
    """CSV of payload curve rows, values in shortest round-trip form."""
    lines = [",".join(_CURVE_COLUMNS)]
    lines += [",".join(repr(row[k]) for k in _CURVE_COLUMNS) for row in rows]
    return "\n".join(lines) + "\n"


def _handle_curve(config: ExperimentConfig, f: dict):
    specs = [moments.ShiftSpec(alpha=(0.0, d), beta=(f["beta"], f["beta"]),
                               t_height=f["T"]) for d in f["deltas"]]
    reports, warnings, versions = moments.moment_rows(
        specs, f["step"], f["rs_terms"], config.threads, f["cache"])
    rows = [{k: dict(res, delta=d)[k] for k in _CURVE_COLUMNS}
            for d, res in zip(f["deltas"], reports)]
    results = {
        "rows": rows,
        "T": f["T"],
        "beta": f["beta"],
        "quadrature_step": f["step"],
    }
    return results, warnings, versions, [(f["out"], curve_csv(rows))]


def _handle_verify(config: ExperimentConfig, f: dict):
    p = config.parameters
    prop = p.get("property")
    if not isinstance(prop, str) or prop not in _VERIFY:
        raise ConfigError(f"unknown verify property {prop!r}; choose from "
                          f"{', '.join(sorted(_VERIFY))}")
    driver, rows = _VERIFY[prop]
    unread = sorted(str(k).replace("_", "-") for k in
                    set(p) - {"property", "report", *(key for key, _, _ in rows)})
    if unread:
        raise ConfigError(f"verify {prop} does not read --" + ", --".join(unread))
    fields = read_config(rows, p, f"verify {prop} parameter")
    return driver(random.Random(config.seed), **fields), [], [], []


# subcommand -> (handler, help, flag rows in parse order).  A row is both
# a `--key-with-dashes` flag and a key of a `run` dict; the subcommands in
# _CONFIG_FIELDS also take `--config`, and `verify` its property.
_COMMANDS = {
    "sample": (_handle_sample, "sample the critical line into a cache",
               (_REPORT, _T0, _T1, _GRID_STEP, _RS_TERMS, _OUT)),
    "classify": (_handle_classify, "classify a t grid into good/bad/square sets",
                 (_REPORT, _T0, _T1, _GRID_STEP, ("out", _path, None))),
    "moment": (_handle_moment, "one shifted moment with prediction and ratio",
               (_REPORT, _CACHE)),
    "predict": (_handle_predict, "the size prediction alone", (_REPORT,)),
    "curve": (_handle_curve, "correlation decay sweep over separations",
              (_REPORT, _CACHE, _OUT)),
    # the union of the properties' rows; each property applies its defaults
    "verify": (_handle_verify, "randomized property drivers",
               (_REPORT, *{key: (key, parse, None) for _, rows in _VERIFY.values()
                           for key, parse, _ in rows}.values())),
}


def run(config: ExperimentConfig) -> RunReport:
    """Parse a run request's flags and config object through their rows,
    dispatch it, then write artifacts and the report."""
    started = time.monotonic()
    handler, _, rows = _COMMANDS[config.kind]
    flags = read_config(rows, config.parameters, f"{config.kind} parameter")
    _refuse_shared_files(flags, {"cache": flags.get("cache")})
    if config.kind in _CONFIG_FIELDS:
        fields, values = _CONFIG_FIELDS[config.kind], config.parameters.get("config")
        flags.update(read_config(fields, values, f"{config.kind} config field"))
        unread = sorted({str(k) for k in values} - {key for key, _, _ in fields})
        if unread:
            raise ConfigError(f"{config.kind} config does not read "
                              + ", ".join(map(repr, unread)))
    results, warnings, cache_versions, artifacts = handler(config, flags)
    payload = _pyify({
        "kind": config.kind,
        "config": config.parameters.get("config", {
            k: v for k, v in config.parameters.items() if k != "config"}),
        "seed": config.seed,
        "results": results,
        "cache_versions": cache_versions,
        "warnings": list(warnings),
    })
    try:
        canonical_json(payload)
    except ValueError as exc:       # an infinite or NaN result
        raise DomainError(f"{config.kind} result is out of range: {exc}") from None
    meta = {
        "timestamp_utc": datetime.datetime.now(
            datetime.timezone.utc).isoformat(),
        "threads": config.threads,
    }
    report = RunReport(payload=payload, meta=meta)

    def report_parts():
        # timed once the outputs before it, and any sampling they do, are written
        meta["wall_time_s"] = time.monotonic() - started
        yield report.to_json().encode("utf-8")

    _write_all([*artifacts, (flags["report"], report_parts())] if flags["report"]
               else artifacts)
    meta.setdefault("wall_time_s", time.monotonic() - started)
    return report


def _write_all(outputs) -> None:
    """Write each (path, str or iterable of bytes-like parts) output to a
    temp file beside its target, then, once every temp file is written,
    move each onto its target.  Any exception, also one raised by a parts
    generator, removes the temp files left and closes every generator, so
    a failed run leaves no output behind; an OSError becomes a
    ConfigError."""
    temps = []
    try:
        for i, (path, content) in enumerate(outputs):
            if os.path.isdir(path):     # else os.replace fails after others moved
                raise IsADirectoryError(f"{path} is a directory")
            tmp = f"{path}.{os.getpid()}-{i}.tmp"
            with open(tmp, "xb") as fh:
                temps.append(tmp)
                for part in ((content.encode("utf-8"),)
                             if isinstance(content, str) else content):
                    fh.write(part)
        for (path, _), tmp in zip(outputs, temps):
            os.replace(tmp, path)
    except BaseException as exc:
        for _, content in outputs:
            if inspect.isgenerator(content):
                content.close()
        for tmp in temps:
            if os.path.exists(tmp):
                os.remove(tmp)
        if isinstance(exc, OSError):
            raise ConfigError(f"cannot write outputs: {exc}") from exc
        raise


# ---------------------------------------------------------------------------
# argument parsing / entry point


# argparse types by row parser; a flag's JSON echo keeps its type
_FLAG_TYPES = {_path: str, _count: int, _rs_terms: int}


def _build_parser() -> argparse.ArgumentParser:
    """One subparser per `_COMMANDS` entry, one flag per row: required
    when the row is, else with the row's default."""
    parser = argparse.ArgumentParser(
        prog="zetacorr",
        description="Numerical laboratory for shifted moments on the "
                    "critical line.")
    common = argparse.ArgumentParser(add_help=False)
    # the CPUs this process may run on, not the host's
    cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)
    common.add_argument("--threads", type=int, default=cpus,
                        help="sampling threads in one process, one core each: "
                             "BLAS runs one thread under them (default: the "
                             "CPUs this process may use)")
    common.add_argument("--seed", type=int, default=0,
                        help="seed recorded in, and driving, the run")
    sub = parser.add_subparsers(dest="command", required=True)
    for kind, (_, text, rows) in _COMMANDS.items():
        p = sub.add_parser(kind, parents=[common], help=text)
        if kind in _CONFIG_FIELDS:
            p.add_argument("--config", required=True)
        if kind == "verify":
            p.add_argument("property", choices=sorted(_VERIFY))
        for key, parse, default in rows:
            p.add_argument("--" + key.replace("_", "-"),
                           type=_FLAG_TYPES.get(parse, float),
                           required=default is _REQUIRED,
                           default=None if default is _REQUIRED else default,
                           help=None if default in (None, _REQUIRED)
                           else "default: %(default)s")
    return parser


def _config_from_args(args) -> ExperimentConfig:
    """The run request of parsed argv: every flag given, `report` always,
    and the `--config` file loaded.  The handlers check the values."""
    params = {k: v for k, v in vars(args).items()
              if v is not None and k not in ("command", "seed", "threads")}
    params["report"] = args.report
    if "config" in params:
        _refuse_shared_files(params, {"config": params["config"]})
        params["config"] = load_config(params["config"])
    if args.threads < 1:
        raise ConfigError(f"threads must be >= 1, got {args.threads}")
    return ExperimentConfig(
        kind=args.command, parameters=params, seed=args.seed,
        threads=args.threads)


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
