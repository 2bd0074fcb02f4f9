"""Run the benchmark over several seeds and summarise the spread.

    python3 perfbench/record.py --seeds 10 --traced-seeds 2 --out perfbench/baseline.json

For each workload, runs `run.py --trace 0` once per seed (seeds
`--first-seed`, `--first-seed` + 1, ...) and prints, per end-to-end
metric, the median, the quartiles and the spread (interquartile
distance over the median) across seeds.  `--traced-seeds` more runs
with `--trace 1` collect the per-layer numbers.  With `--out`, writes
everything, with the machine description and every payload digest, as
a baseline record for later comparisons.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run          # noqa: E402
import workloads    # noqa: E402


def bench(workload, seed, seconds, trace):
    """One benchmark process; returns its result, DETAIL and elapsed time."""
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    start = time.perf_counter()
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=900, check=True)
    elapsed = time.perf_counter() - start
    lines = done.stdout.strip().splitlines()
    detail = next(json.loads(line[len("DETAIL "):]) for line in lines
                  if line.startswith("DETAIL "))
    return json.loads(lines[-1]), detail, elapsed


def summary(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else None, "values": values}


def machine():
    import mpmath
    import numpy

    model = None
    try:
        with open("/proc/cpuinfo") as fh:
            model = next((line.split(":", 1)[1].strip() for line in fh
                          if line.startswith("model name")), None)
    except OSError:
        pass
    return {"nproc": run.nproc(), "cpu_model": model,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "mpmath": mpmath.__version__, "threads": run.nproc()}


def program_commit():
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        return None
    return done.stdout.strip()


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", nargs="+", default=list(workloads.NAMES),
                        choices=workloads.NAMES)
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--traced-seeds", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=45)
    parser.add_argument("--out", default=None)
    args = parser.parse_args(argv)

    record = {"program_commit": program_commit(), "machine": machine(),
              "seconds": args.seconds, "workloads": {}}
    for name in args.workloads:
        runs, per_layer = [], []
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            result, detail, elapsed = bench(name, seed, args.seconds, 0)
            runs.append({"seed": seed, "elapsed_s": elapsed, **result,
                         "digests": detail["digests"],
                         "failed_op_ratio": detail["failed_op_ratio"],
                         "op_p50_s": detail["op_p50_s"],
                         "op_p90_s": detail["op_p90_s"],
                         "halving_delta_max": detail["halving_delta_max"]})
            print(f"{name} seed {seed}: {elapsed:.1f} s, correct {result['correct']}, "
                  + ", ".join(f"{k} {v['value']:.4g}"
                              for k, v in result["metrics"].items()), flush=True)
        for seed in range(args.first_seed, args.first_seed + args.traced_seeds):
            result, detail, elapsed = bench(name, seed, args.seconds, 1)
            per_layer.append({"seed": seed, "elapsed_s": elapsed,
                              "correct": result["correct"],
                              "counts_repeat": detail["counts_repeat"],
                              "metrics": {k: v["value"] for k, v in result["metrics"].items()}})
            print(f"{name} seed {seed} traced: {elapsed:.1f} s, trace overhead "
                  f"{result['metrics']['trace_overhead_ratio']['value']:.3f}", flush=True)
        metrics = {m: summary([r["metrics"][m]["value"] for r in runs])
                   for m in runs[0]["metrics"]}
        metrics["op_p50_s (not gated)"] = summary([r["op_p50_s"] for r in runs])
        for m, s in metrics.items():
            print(f"  {name:<16} {m:<20} median {s['median']:.4g}  "
                  f"q1 {s['q1']:.4g}  q3 {s['q3']:.4g}  spread {s['spread']:.4f}")
        print(f"  {name:<16} elapsed max {max(r['elapsed_s'] for r in runs):.1f} s, "
              f"all correct: {all(r['correct'] for r in runs)}", flush=True)
        record["workloads"][name] = {"end_to_end": metrics, "runs": runs,
                                     "per_layer": per_layer}
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(record, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
