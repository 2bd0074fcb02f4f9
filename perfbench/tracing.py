"""Layer tracing from outside the library.

`Tracer` wraps every public module-level function of the six layers
(`primes`, `zeta`, `dirichlet`, `blocks`, `moments`, `cli`).  It rebinds
the module attribute and every other `zetacorr` module's name for the
same function object (`moments.tapered_block_sum`, say), and restores
them all on exit.  The library is not edited.

Each call becomes a span.  Time is attributed to the innermost span's
layer, so a span's *self* time is its duration minus the child spans of
other layers.  Calls that cannot be intercepted are covered by their
enclosing public call instead:

* `moments.predict_bound` binds `zeta_one_line` as a default argument,
  so its one-line calls are counted from the arguments and its whole
  span is charged to `zeta.one_line_s`;
* `zeta.sample_critical_line` with more than one worker evaluates in
  worker processes, so sampling time is the parent's span around it.

Work counts are computed from each call's arguments and result, with
the clock paused, so counting does not inflate the spans.
"""

from __future__ import annotations

import functools
import inspect
import math
import os
import sys
import time

import numpy as np

LAYERS = ("primes", "zeta", "dirichlet", "blocks", "moments", "cli")

# Families group the spans a metric is made of.  Only the outermost span
# of a family counts, so nested calls (a point form calling the vector
# kernel, `sample_critical_line` validating through `riemann_siegel_Z`)
# are neither timed nor counted twice.
_FAMILIES = {
    "zeta.sample_critical_line": "zeta.sample",
    "zeta.riemann_siegel_Z": "zeta.sample",
    "zeta.critical_line_value": "zeta.sample",
    "zeta.cache_read": "zeta.cache_read",
    "zeta.zeta_one_line": "zeta.one_line",
    "primes.tapered_block_sum": "primes.sum",
    "primes.half_square_sum": "primes.sum",
    "primes.pretentious_cos_sum": "primes.sum",
    "primes.sieve_primes": "primes.sieve",
    "blocks.classify_grid": "blocks.classify",
    "moments.shifted_moment": "moments.quad",
    "moments.predict_bound": "moments.predict",
    "dirichlet.truncated_exp": "dirichlet.table",
    "dirichlet.product_coeffs": "dirichlet.table",
    "dirichlet.exact_mv_integral": "dirichlet.mv",
    "dirichlet.lemma22_n_value": "dirichlet.lemma22",
    "dirichlet.lemma22_check": "dirichlet.lemma22",
    "cli.run": "cli.run",
}

VERIFY_PROPERTIES = ("lemma21", "lemma22", "lemma23", "lemma24", "lemma26",
                     "lemma33", "prop34")
SWEEP_HEIGHTS = (1e4, 1e5, 1e6)
SWEEP_DEPTHS = (0, 2, 4, 6)


def _sweep_name(height: float, depth: int) -> str:
    return f"zeta.us_per_sample.T1e{round(math.log10(height))}.R{depth}"


# name -> unit, in report order
PER_LAYER = {
    "zeta.samples": "count",
    "zeta.sample_s": "s",
    "zeta.us_per_sample": "us/sample",
    "zeta.main_terms": "count",
    "zeta.ns_per_main_term": "ns/term",
    "zeta.cache_read_s": "s",
    "zeta.cache_read_bytes": "B",
    "zeta.one_line_calls": "count",
    "zeta.one_line_s": "s",
    "zeta.z_abs_err_max": "abs",
    **{_sweep_name(h, r): "us/sample"
       for h in SWEEP_HEIGHTS for r in SWEEP_DEPTHS},
    "primes.calls": "count",
    "primes.point_primes": "count",
    "primes.sum_s": "s",
    "primes.ns_per_point_prime": "ns/point-prime",
    "primes.primes_per_call_mean": "primes/call",
    "primes.sieve_s": "s",
    "blocks.points": "count",
    "blocks.classify_s": "s",
    "blocks.self_s": "s",
    "moments.nodes": "count",
    "moments.quad_s": "s",
    "moments.ns_per_node": "ns/node",
    "moments.predict_s": "s",
    "dirichlet.table_entries": "count",
    "dirichlet.table_build_s": "s",
    "dirichlet.us_per_entry": "us/entry",
    "dirichlet.mv_pairs": "count",
    "dirichlet.ns_per_mv_pair": "ns/pair",
    "dirichlet.lemma22_calls": "count",
    "dirichlet.lemma22_s": "s",
    "cli.self_s": "s",
    "cli.artifact_bytes": "B",
    **{f"cli.verify_ms_per_trial.{p}": "ms/trial" for p in VERIFY_PROPERTIES},
    "trace_overhead_ratio": "ratio",
    "halving_delta_max": "rel",
}

# counts that must repeat exactly between runs with one seed
COUNT_NAMES = ("zeta.samples", "zeta.main_terms", "zeta.cache_read_bytes",
               "zeta.one_line_calls", "primes.calls", "primes.point_primes",
               "primes.primes", "blocks.points", "moments.nodes",
               "dirichlet.table_entries", "dirichlet.mv_pairs",
               "dirichlet.lemma22_calls")


# ---------------------------------------------------------------------------
# counters: (bound arguments, result) -> {count name: increment}


def _main_terms_on_grid(t_start: float, step: float, count: int) -> int:
    """sum over the grid of floor(sqrt(t / 2 pi)), from its geometry."""
    if count <= 0:
        return 0
    t_stop = t_start + (count - 1) * step
    total = 0
    for n in range(1, int(math.sqrt(t_stop / (2.0 * math.pi))) + 1):
        first = max(0, math.ceil((2.0 * math.pi * n * n - t_start) / step))
        total += max(0, count - first)
    return total


def _count_samples(name, a, result):
    if name == "sample_critical_line":
        return {"zeta.samples": result.count,
                "zeta.main_terms": _main_terms_on_grid(
                    result.t_start, result.step, result.count)}
    t = np.atleast_1d(np.asarray(a["t"], dtype=np.float64))
    return {"zeta.samples": t.size,
            "zeta.main_terms": int(np.floor(np.sqrt(t / (2.0 * math.pi))).sum())}


def _count_cache_read(name, a, result):
    path = a["path"]
    size = os.path.getsize(path) if isinstance(path, (str, os.PathLike)) \
        else result.values.nbytes
    return {"zeta.cache_read_bytes": size}


def _count_prime_sum(name, a, result):
    table = a["table"]
    if name == "pretentious_cos_sum":
        n_p = table.primes_between(1, a["x_cutoff"]).size
        n_t = np.size(a["deltas"])
    else:
        n_p = table.in_interval(a["interval"]).size
        n_t = np.size(a["t_values"])
    return {"primes.calls": 1, "primes.primes": n_p,
            "primes.point_primes": n_p * n_t}


def _count_nodes(name, a, result):
    spec, grid = a["spec"], a["grid"]
    h = grid.step
    groups = {round(alpha / h) for alpha, b in zip(spec.alpha, spec.beta)
              if b != 0.0}
    n_steps = int(math.floor(spec.t_height / h + 1e-9))
    return {"moments.nodes": (n_steps + 1) * len(groups)}


def _count_predict(name, a, result):
    # the default-bound one-line evaluator cannot be patched: count its
    # calls (one per shift pair with a nonzero weight) from the spec
    if "one_line" in a:
        return {}
    beta = a["spec"].beta
    pairs = sum(1 for j in range(len(beta)) for k in range(j + 1, len(beta))
                if beta[j] * beta[k] != 0.0)
    return {"zeta.one_line_calls": pairs}


_COUNTERS = {
    "zeta.sample_critical_line": _count_samples,
    "zeta.riemann_siegel_Z": _count_samples,
    "zeta.critical_line_value": _count_samples,
    "zeta.cache_read": _count_cache_read,
    "zeta.zeta_one_line": lambda n, a, r: {"zeta.one_line_calls": 1},
    "primes.tapered_block_sum": _count_prime_sum,
    "primes.half_square_sum": _count_prime_sum,
    "primes.pretentious_cos_sum": _count_prime_sum,
    "blocks.classify_grid": lambda n, a, r: {"blocks.points": np.size(a["t_values"])},
    "moments.shifted_moment": _count_nodes,
    "moments.predict_bound": _count_predict,
    "dirichlet.truncated_exp": lambda n, a, r: {"dirichlet.table_entries": len(r)},
    "dirichlet.product_coeffs": lambda n, a, r: {"dirichlet.table_entries": len(r)},
    "dirichlet.exact_mv_integral": lambda n, a, r: {"dirichlet.mv_pairs": len(a["table"]) ** 2},
    "dirichlet.lemma22_n_value": lambda n, a, r: {"dirichlet.lemma22_calls": 1},
    "dirichlet.lemma22_check": lambda n, a, r: {"dirichlet.lemma22_calls": 1},
}


# ---------------------------------------------------------------------------
# the tracer


class Tracer:
    """Spans and counts for one traced stretch of work.

    Use as a context manager: entering patches the layers, leaving
    restores every rebound name.  `families` maps a family to
    [calls, inclusive s, layer self s, function self s] over its
    outermost spans, where layer self time excludes only child spans of
    other layers; `spans` holds the same per wrapped function; `counts`
    the work counters.
    """

    def __init__(self, package):
        self._package = package
        # frames: [layer, family, start, other-layer child s, child s]
        self._stack = []
        self._restore = []
        self.spans = {}
        self.families = {}
        self.counts = {}

    def __enter__(self):
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == self._package.__name__
                                         or name.startswith(self._package.__name__ + "."))]
        for layer in LAYERS:
            module = getattr(self._package, layer)
            for name, fn in sorted(vars(module).items()):
                if name.startswith("_") or not inspect.isfunction(fn) \
                        or fn.__module__ != module.__name__:
                    continue
                wrapper = self._wrap(layer, name, fn)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is fn:
                            self._restore.append((mod, attr, fn))
                            setattr(mod, attr, wrapper)
        return self

    def __exit__(self, *exc):
        for mod, attr, fn in reversed(self._restore):
            setattr(mod, attr, fn)
        self._restore.clear()
        return False

    def _wrap(self, layer, name, fn):
        key = f"{layer}.{name}"
        family = _FAMILIES.get(key)
        counter = _COUNTERS.get(key)
        signature = inspect.signature(fn)
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            outer = family is not None and all(f[1] != family for f in stack)
            frame = [layer, family if outer else None, time.perf_counter(), 0.0, 0.0]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(key, frame, time.perf_counter())
            if outer and counter is not None:
                paused = time.perf_counter()
                bound = signature.bind(*args, **kwargs).arguments
                for count, value in counter(name, bound, result).items():
                    self.counts[count] = self.counts.get(count, 0) + int(value)
                paused = time.perf_counter() - paused
                for f in stack:           # keep counting out of the spans
                    f[2] += paused
            return result

        return wrapper

    def _close(self, key, frame, end):
        self._stack.pop()
        layer, family, start, foreign, children = frame
        elapsed = end - start
        for table, name in ((self.spans, key), (self.families, family)):
            if name is None:
                continue
            row = table.setdefault(name, [0, 0.0, 0.0, 0.0])
            row[0] += 1
            row[1] += elapsed
            row[2] += elapsed - foreign
            row[3] += elapsed - children
        if self._stack:
            parent = self._stack[-1]
            parent[3] += elapsed if parent[0] != layer else foreign
            parent[4] += elapsed


def layer_metrics(families: dict, counts: dict) -> dict:
    """Per-layer metrics of one traced workload run."""
    def incl(f):
        return families.get(f, (0, 0.0, 0.0, 0.0))[1]

    def own(f):
        return families.get(f, (0, 0.0, 0.0, 0.0))[2]

    def rate(seconds, count, scale):
        return seconds / count * scale if count else 0.0

    c = {name: counts.get(name, 0) for name in COUNT_NAMES}
    sample_s, sum_s, quad_s = incl("zeta.sample"), incl("primes.sum"), incl("moments.quad")
    table_s = incl("dirichlet.table")
    return {
        "zeta.samples": c["zeta.samples"],
        "zeta.sample_s": sample_s,
        "zeta.us_per_sample": rate(sample_s, c["zeta.samples"], 1e6),
        "zeta.main_terms": c["zeta.main_terms"],
        "zeta.ns_per_main_term": rate(sample_s, c["zeta.main_terms"], 1e9),
        "zeta.cache_read_s": incl("zeta.cache_read"),
        "zeta.cache_read_bytes": c["zeta.cache_read_bytes"],
        "zeta.one_line_calls": c["zeta.one_line_calls"],
        "zeta.one_line_s": incl("zeta.one_line") + incl("moments.predict"),
        "primes.calls": c["primes.calls"],
        "primes.point_primes": c["primes.point_primes"],
        "primes.sum_s": sum_s,
        "primes.ns_per_point_prime": rate(sum_s, c["primes.point_primes"], 1e9),
        "primes.primes_per_call_mean": rate(c["primes.primes"], c["primes.calls"], 1.0),
        "primes.sieve_s": incl("primes.sieve"),
        "blocks.points": c["blocks.points"],
        "blocks.classify_s": incl("blocks.classify"),
        "blocks.self_s": own("blocks.classify"),
        "moments.nodes": c["moments.nodes"],
        "moments.quad_s": quad_s,
        "moments.ns_per_node": rate(quad_s, c["moments.nodes"], 1e9),
        "moments.predict_s": incl("moments.predict"),
        "dirichlet.table_entries": c["dirichlet.table_entries"],
        "dirichlet.table_build_s": table_s,
        "dirichlet.us_per_entry": rate(table_s, c["dirichlet.table_entries"], 1e6),
        "dirichlet.mv_pairs": c["dirichlet.mv_pairs"],
        "dirichlet.ns_per_mv_pair": rate(incl("dirichlet.mv"), c["dirichlet.mv_pairs"], 1e9),
        "dirichlet.lemma22_calls": c["dirichlet.lemma22_calls"],
        "dirichlet.lemma22_s": incl("dirichlet.lemma22"),
        "cli.self_s": own("cli.run"),
    }


# ---------------------------------------------------------------------------
# zeta accuracy and rate by height and Riemann-Siegel depth

_SWEEP_POINTS = 4096
_SWEEP_REPEATS = 5
_ORACLE_NODES = 8
_ORACLE_DEPTH = 4          # the depth the curve and moment ops use
_ORACLE_HEIGHTS = (2e4, 1e5, 1e6)


def zeta_probe(zeta, rng, tiny: bool = False) -> dict:
    """`riemann_siegel_Z` against `mpmath.siegelz` at seeded nodes, and
    its cost per sample for each height and depth of the sweep."""
    import mpmath

    out = {}
    points = 64 if tiny else _SWEEP_POINTS
    for height in SWEEP_HEIGHTS:
        t = height + rng.uniform(0.0, 100.0) + 0.01 * np.arange(points)
        for depth in SWEEP_DEPTHS:
            times = []
            for _ in range(_SWEEP_REPEATS):
                start = time.perf_counter()
                zeta.riemann_siegel_Z(t, depth)
                times.append(time.perf_counter() - start)
            out[_sweep_name(height, depth)] = sorted(times)[len(times) // 2] / points * 1e6
    worst = 0.0
    for height in _ORACLE_HEIGHTS[:1] if tiny else _ORACLE_HEIGHTS:
        for _ in range(2 if tiny else _ORACLE_NODES):
            t = height + rng.uniform(0.0, 1000.0)
            with mpmath.workdps(30):
                exact = float(mpmath.siegelz(t))
            worst = max(worst, abs(zeta.riemann_siegel_Z(t, _ORACLE_DEPTH) - exact))
    out["zeta.z_abs_err_max"] = worst
    return out
