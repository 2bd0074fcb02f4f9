"""zetacorr benchmark: seeded workloads through `zetacorr.cli.run`.

    python3 perfbench/run.py --workload curve --seed 1 --seconds 20 --trace 0

Run from anywhere; the program is imported from `src/` next to this
directory and nowhere else.  One client runs each workload's ops in a
closed loop, one `cli.run` call after another with `threads` = nproc,
for about `--seconds` seconds (at least one full workload run).  After the
timed loop every op is re-run at `threads=1` and its payload and
artifact bytes must match.  An op fails if it raises, breaks a payload
invariant of its workload, or differs between runs or thread counts.

`--trace 0` reports the end-to-end metrics (tracing off).  `--trace 1`
alternates untraced and traced workload runs and reports the per-layer
metrics from the traced ones (see `tracing.py`), their overhead, and a
zeta accuracy and rate sweep.  `--workload all` runs the workloads one
after another, each in its own process.

The last line of standard output is one JSON object
{"correct", "attempted", "failed", "metrics"}; the lines before it are
a readable report and one `DETAIL {...}` line with digests and samples.
"""

from __future__ import annotations

import time

_STARTED = time.perf_counter()   # set-up is timed from here: imports included

import argparse
import glob
import hashlib
import json
import math
import os
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
if HERE not in sys.path:
    sys.path.insert(0, HERE)

import tracing      # noqa: E402
import workloads    # noqa: E402

# name -> unit; every one is reported by `--trace 0`.  wall_s is the sum
# over the workload's ops of each op's median latency: a typical workload
# run, from which a slow burst of the machine during one op drops out.
# op_p50_s, op_p90_s, failed_op_ratio and halving_delta_max are printed
# in the report but not gated: the pooled median op falls between ops of
# different cost; p90 exists only with >= 100 pooled ops; the ratio is 0
# on a correct run; the halving delta exists only for moment payloads.
END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
SETUP_REPEATS = 3
P90_TAIL = 10            # op_p90_s needs this many pooled samples above it
WORK_DIR = os.path.join(ROOT, ".perfbench-work")


def load_program():
    """Import `zetacorr` from this checkout's `src/`, or exit with 2."""
    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    try:
        import zetacorr
        from zetacorr import cli
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import zetacorr from {src}: {exc}")
    if not os.path.abspath(zetacorr.__file__).startswith(src + os.sep):
        sys.exit(f"perfbench: zetacorr resolved to {zetacorr.__file__}, "
                 f"not under {src}")
    return zetacorr, cli


def nproc() -> int:
    return len(os.sched_getaffinity(0))


# ---------------------------------------------------------------------------
# memory


def _status_kb(pid, field):
    try:
        with open(f"/proc/{pid}/status") as fh:
            for line in fh:
                if line.startswith(field):
                    return int(line.split()[1])
    except OSError:           # the process ended between listing and reading
        pass
    return 0


def _children():
    pids = set()
    for path in glob.glob(f"/proc/{os.getpid()}/task/*/children"):
        try:
            with open(path) as fh:
                pids.update(int(p) for p in fh.read().split())
        except OSError:
            pass
    return pids


class PeakRss:
    """Peak resident memory of this process plus its worker children.

    The process's own peak is the kernel's high-water mark; the workers'
    is the largest sum of their high-water marks seen by polling.
    """

    def __init__(self, interval=0.02):
        self._interval = interval
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._poll, daemon=True)
        self.children_kb = 0

    def _poll(self):
        while not self._stop.wait(self._interval):
            total = sum(_status_kb(p, "VmHWM:") for p in _children())
            self.children_kb = max(self.children_kb, total)

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join(timeout=5)
        self.self_kb = _status_kb(os.getpid(), "VmHWM:")
        return False

    @property
    def mb(self) -> float:
        return (self.self_kb + self.children_kb) / 1024.0


# ---------------------------------------------------------------------------
# one workload in one process


class OpResult:
    def __init__(self, op, seconds, digest=None, error=None, payload=None):
        self.op = op
        self.seconds = seconds
        self.digest = digest
        self.error = error
        self.payload = payload
        self.artifacts = {}
        self.violations = []


class Session:
    """Runs one workload's ops through `cli.run` and checks every payload."""

    def __init__(self, cli, workload, threads, workdir):
        self.cli = cli
        self.workload = workload
        self.threads = threads
        self.workdir = workdir
        self._payload_bytes = cli.payload_bytes     # unwrapped, even when traced
        self.setup_failures = []

    def run_op(self, op, threads):
        config = self.cli.ExperimentConfig(
            kind=op.kind, parameters=dict(op.parameters), seed=op.seed,
            threads=threads)
        start = time.perf_counter()
        try:
            report = self.cli.run(config)
        except Exception as exc:     # a failed op is counted, never fatal
            return OpResult(op, time.perf_counter() - start,
                            error=f"{type(exc).__name__}: {exc}")
        seconds = time.perf_counter() - start
        blob = self._payload_bytes(report)
        return OpResult(op, seconds, hashlib.sha256(blob).hexdigest(),
                        payload=report.payload)

    def _inspect(self, result):
        """Read the op's artifacts and check its payload invariants."""
        if result.error is not None:
            return
        for path in result.op.outputs:
            try:
                with open(path, "rb") as fh:
                    result.artifacts[path] = fh.read()
            except OSError as exc:
                result.violations.append(f"artifact {path}: {exc}")
        try:
            result.violations += self.workload.check(
                result.op, result.payload, result.artifacts)
        except (KeyError, TypeError, ValueError, IndexError) as exc:
            result.violations.append(f"malformed payload: {exc!r}")

    def setup(self):
        """Prerequisite runs (the moment grid cache) and the warm-up ops."""
        for op in self.workload.prerequisites + self.workload.warmup:
            result = self.run_op(op, self.threads)
            if result.error is not None:
                self.setup_failures.append(f"{op.label}: {result.error}")

    def run_workload(self):
        """All ops in order; returns (wall seconds, op results)."""
        start = time.perf_counter()
        results = [self.run_op(op, self.threads) for op in self.workload.ops]
        wall = time.perf_counter() - start
        for result in results:
            self._inspect(result)
        return wall, results

    def check_threads(self, reference):
        """Re-run each op at threads=1; return {label: reason} for the ops
        whose payload or artifact bytes differ from `reference`."""
        check_dir = os.path.join(self.workdir, "threads1")
        os.makedirs(check_dir, exist_ok=True)
        differ = {}
        for op, ref in zip(self.workload.ops, reference):
            moved = {p: os.path.join(check_dir, os.path.basename(p))
                     for p in op.outputs}
            params = {k: moved.get(v, v) if isinstance(v, str) else v
                      for k, v in op.parameters.items()}
            single = workloads.Op(op.label, op.kind, params, op.seed,
                                  tuple(moved.values()), op.trials)
            result = self.run_op(single, 1)
            self._inspect(result)
            if ref.error is not None:
                continue              # already failed in the timed loop
            if result.error is not None:
                differ[op.label] = f"threads=1 run failed: {result.error}"
            elif result.digest != ref.digest:
                differ[op.label] = "payload differs at threads=1"
            elif any(result.artifacts.get(moved[p]) != ref.artifacts.get(p)
                     for p in op.outputs):
                differ[op.label] = "artifact differs at threads=1"
        return differ


def _p90(values):
    """90th percentile, or None unless P90_TAIL samples lie above it."""
    if len(values) - math.ceil(0.9 * len(values)) < P90_TAIL:
        return None
    return statistics.quantiles(values, n=10)[-1]


def _op_seconds(runs):
    """Latencies per op label over the given workload runs."""
    by_op = {}
    for _, results in runs:
        for r in results:
            by_op.setdefault(r.op.label, []).append(r.seconds)
    return by_op


def _typical_wall(runs):
    """wall_s: the sum over ops of each op's median latency."""
    return math.fsum(statistics.median(v) for v in _op_seconds(runs).values())


def _failures(runs, differ):
    """Failure reasons per op label over every timed execution."""
    first, failures = {}, {}
    for _, results in runs:
        for r in results:
            label = r.op.label
            first.setdefault(label, r.digest)
            reason = (r.error or "; ".join(r.violations)
                      or (r.digest != first[label] and "payload differs between runs")
                      or differ.get(label))
            if reason:
                failures.setdefault(label, []).append(reason)
    return failures


def _halving_max(runs):
    deltas = [0.0]
    for _, results in runs:
        for r in results:
            if r.payload is None:
                continue
            res = r.payload["results"]
            rows = res.get("rows", [res]) if isinstance(res, dict) else []
            deltas += [row["step_halving_delta"] for row in rows
                       if "step_halving_delta" in row]
    return max(deltas)


def _layer_metrics(plain, traced, layer_runs):
    rows = [row for row, _, _ in layer_runs]
    # counts repeat exactly, so they come from the first traced run
    out = {name: rows[0][name] if tracing.PER_LAYER[name] in ("count", "B")
           else statistics.median(row[name] for row in rows) for name in rows[0]}
    # each traced run follows an untraced one; pairing them cancels drift
    out["trace_overhead_ratio"] = statistics.median(
        t / p for (t, _), (p, _) in zip(traced, plain)) - 1.0
    per_trial = {}
    for _, results in plain:
        for r in results:
            if r.op.kind == "verify":
                per_trial.setdefault(r.op.parameters["property"], []).append(
                    r.seconds / r.op.trials * 1e3)
    for prop in tracing.VERIFY_PROPERTIES:
        out[f"cli.verify_ms_per_trial.{prop}"] = (
            statistics.median(per_trial[prop]) if prop in per_trial else 0.0)
    out["halving_delta_max"] = _halving_max(plain)
    return out


def measure(session, seconds, trace=False, zetacorr=None, tiny=False):
    """The timed loop, then the thread-identity check pass.

    With `trace`, untraced and traced workload runs alternate and the
    result carries per-layer metrics and the zeta probe.
    """
    plain, traced, layer_runs = [], [], []
    start = time.perf_counter()
    while True:
        begun = time.perf_counter()
        plain.append(session.run_workload())
        if trace:
            with tracing.Tracer(zetacorr) as tr:
                traced.append(session.run_workload())
            row = tracing.layer_metrics(tr.families, tr.counts)
            row["cli.artifact_bytes"] = sum(
                len(b) for r in traced[-1][1] for b in r.artifacts.values())
            counts = {k: tr.counts.get(k, 0) for k in tracing.COUNT_NAMES}
            layer_runs.append((row, counts, tr.spans))
        # stop where one more round would end nearer past `seconds` than
        # stopping now falls short of it
        now = time.perf_counter()
        if now - start + (now - begun) / 2.0 >= seconds:
            break
    differ = session.check_threads(plain[0][1])
    out = {"plain": plain, "traced": traced, "differ": differ,
           "failures": _failures(plain + traced, differ)}
    if trace:
        out["layers"] = _layer_metrics(plain, traced, layer_runs)
        rng = random.Random(f"probe-{session.workload.seed}")
        out["layers"].update(tracing.zeta_probe(zetacorr.zeta, rng, tiny))
        out["counts_repeat"] = all(c == layer_runs[0][1] for _, c, _ in layer_runs)
        out["spans"] = layer_runs[-1][2]
    return out


def _setup_elsewhere(args):
    """Set-up seconds of one fresh process, or an error string.

    `setup` in `run_one` mixes both: floats are timings, strings failures.
    """
    cmd = [sys.executable, os.path.abspath(__file__), "--setup-only",
           "--workload", args.workload, "--seed", str(args.seed),
           "--scale", args.scale]
    try:
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=150)
    except subprocess.TimeoutExpired:
        return "set-up process timed out"
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        return f"set-up process exited {done.returncode}: {done.stderr.strip()[-300:]}"
    return json.loads(lines[-1])["setup_s"]


# ---------------------------------------------------------------------------
# reporting


def _metric(value, unit):
    return {"value": value, "unit": unit}


def _fmt(value):
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def report(args, raw, setup, rss_mb):
    """Print the readable report and DETAIL line; return the result object."""
    plain = raw["plain"]
    walls = [w for w, _ in plain]
    wall_s = _typical_wall(plain)
    latencies = [r.seconds for _, results in plain for r in results]
    attempted = sum(len(results) for _, results in plain + raw["traced"])
    failed = sum(len(v) for v in raw["failures"].values())
    setup_s = [s for s in setup if isinstance(s, float)]
    setup_errors = [s for s in setup if not isinstance(s, float)]
    correct = failed == 0 and not setup_errors

    print(f"workload {args.workload}  seed {args.seed}  threads {nproc()}  "
          f"seconds {args.seconds:g}  trace {args.trace}")
    p90 = _p90(latencies)
    lines = [
        ("wall_s", wall_s, "s", f"per-op medians over {len(walls)} workload runs; "
         f"median run {statistics.median(walls):.4g} s"),
        ("op_p50_s", statistics.median(latencies), "s", f"{len(latencies)} ops pooled"),
        ("op_p90_s", p90, "s", f"{len(latencies)} ops pooled" if p90 is not None else
         f"not reported: {len(latencies)} ops, needs {P90_TAIL} above p90"),
        ("setup_s", statistics.median(setup_s) if setup_s else None, "s",
         f"median of {len(setup_s)} set-ups"),
        ("peak_rss_mb", rss_mb, "MB", "process + worker children"),
        ("failed_op_ratio", failed / attempted, "ratio", f"{failed}/{attempted} ops"),
        ("halving_delta_max", _halving_max(plain), "rel", "moment payloads"),
    ]
    for name, value, unit, note in lines:
        shown = "n/a" if value is None else f"{_fmt(value)} {unit}"
        print(f"  {name:<22} {shown:<22} ({note})")
    for label, reasons in sorted(raw["failures"].items()):
        print(f"  FAILED {label} x{len(reasons)}: {reasons[0]}")
    for err in setup_errors:
        print(f"  SET-UP FAILED: {err}")
    digests = {r.op.label: r.digest for r in plain[0][1]}
    for label, digest in digests.items():
        print(f"  digest {label:<14} {digest}")

    if args.trace:
        layers = raw["layers"]
        print("  per-layer (traced runs; times are medians per workload run):")
        for name, unit in tracing.PER_LAYER.items():
            print(f"    {name:<36} {_fmt(layers[name])} {unit}")
        if not raw["counts_repeat"]:
            print("  WARNING: work counts differ between traced runs")
        traced_wall = statistics.median(w for w, _ in raw["traced"])
        covered = (layers["zeta.sample_s"] + layers["zeta.cache_read_s"]
                   + layers["moments.quad_s"] + layers["cli.self_s"])
        print(f"  zeta.sample_s + zeta.cache_read_s + moments.quad_s + cli.self_s = {covered:.4g} s "
              f"of traced wall {traced_wall:.4g} s")
        spans = sorted(raw["spans"].items(), key=lambda kv: -kv[1][3])[:10]
        print("  top spans by self time (last traced run): "
              "calls, total s, layer self s, self s")
        for key, (calls, total, layer_own, own) in spans:
            print(f"    {key:<36} {calls:>7} {total:10.4f} {layer_own:10.4f} {own:10.4f}")
        metrics = {name: _metric(layers[name], unit)
                   for name, unit in tracing.PER_LAYER.items()}
    else:
        values = {"wall_s": wall_s,
                  "setup_s": statistics.median(setup_s) if setup_s else 0.0,
                  "peak_rss_mb": rss_mb}
        metrics = {name: _metric(values[name], unit)
                   for name, unit in END_TO_END.items()}
    detail = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "threads": nproc(), "digests": digests, "walls": walls,
        "op_seconds": _op_seconds(plain),
        "setup_s": setup_s, "failures": raw["failures"],
        "halving_delta_max": _halving_max(plain),
        "op_p50_s": statistics.median(latencies), "op_p90_s": p90,
        "failed_op_ratio": failed / attempted,
    }
    if args.trace:
        detail["counts_repeat"] = raw["counts_repeat"]
        detail["traced_walls"] = [w for w, _ in raw["traced"]]
    print("DETAIL " + json.dumps(detail, sort_keys=True))
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": metrics}


# ---------------------------------------------------------------------------
# entry points


def run_one(args):
    zetacorr, cli = load_program()
    os.makedirs(WORK_DIR, exist_ok=True)
    workdir = tempfile.mkdtemp(dir=WORK_DIR)
    try:
        workload = workloads.build(args.workload, args.seed, workdir, args.scale)
        session = Session(cli, workload, nproc(), workdir)
        if args.setup_only:
            session.setup()
            print(json.dumps({"setup_s": time.perf_counter() - _STARTED,
                              "failures": session.setup_failures}))
            return 1 if session.setup_failures else 0
        with PeakRss() as rss:
            session.setup()
            setup = [time.perf_counter() - _STARTED] + session.setup_failures
            raw = measure(session, args.seconds, bool(args.trace), zetacorr,
                          tiny=args.scale == "tiny")
        if not args.trace and not session.setup_failures:
            setup += [_setup_elsewhere(args) for _ in range(SETUP_REPEATS - 1)]
        result = report(args, raw, setup, rss.mb)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(WORK_DIR)
        except OSError:           # another run still uses it
            pass
    print(json.dumps(result, sort_keys=True))
    return 0


def run_all(args):
    """Each workload in its own process; echo the reports, then a table."""
    ok = True
    table = []
    for name in workloads.NAMES:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", f"{args.seconds:g}",
               "--trace", str(args.trace), "--scale", args.scale]
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=600)
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or not lines:
            print(f"{name}: exited {done.returncode}\n{done.stderr}")
            ok = False
            continue
        print("\n".join(line for line in lines[:-1] if not line.startswith("DETAIL ")))
        result = json.loads(lines[-1])
        ok = ok and result["correct"]
        if not args.trace:
            detail = json.loads(next(line for line in lines
                                     if line.startswith("DETAIL "))[len("DETAIL "):])
            m = {k: v["value"] for k, v in result["metrics"].items()}
            table.append((name, m["wall_s"], detail["op_p50_s"], detail["op_p90_s"],
                          m["setup_s"], m["peak_rss_mb"], detail["failed_op_ratio"],
                          detail["halving_delta_max"]))
    if table:
        print("summary: wall_s s, op_p50_s s, op_p90_s s, setup_s s, "
              "peak_rss_mb MB, failed_op_ratio, halving_delta_max")
        for row in table:
            print(f"  {row[0]:<16}" + "".join(
                f" {'n/a' if v is None else _fmt(v):>12}" for v in row[1:]))
    return 0 if ok else 1


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full",
                        help="tiny: shrunken ops for the benchmark's own tests")
    parser.add_argument("--setup-only", action="store_true",
                        help="time one set-up and exit (used for set-up repeats)")
    args = parser.parse_args(argv)
    if args.seconds < 0:
        parser.error("--seconds must be >= 0")
    return args


def main(argv=None):
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
