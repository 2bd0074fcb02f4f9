"""Tests of the benchmark itself, at tiny sizes.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import math
import os
import random
import shutil
import subprocess
import sys

import numpy as np
import pytest

import run
import tracing
import workloads

zetacorr, cli = run.load_program()

with open(os.path.join(run.ROOT, "BENCHMARK.json")) as _fh:
    BENCHMARK = json.load(_fh)


def _main(capsys, *argv):
    assert run.main(["--scale", "tiny", "--seconds", "0", *argv]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    return lines[:-1], json.loads(lines[-1])


def test_benchmark_json_lists_the_metrics_the_code_reports():
    declared = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert declared == run.END_TO_END
    declared = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert declared == tracing.PER_LAYER
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.NAMES)


@pytest.mark.parametrize("name", workloads.NAMES)
def test_untraced_run_prints_every_end_to_end_metric_with_its_unit(capsys, name):
    report, result = _main(capsys, "--workload", name, "--seed", "3", "--trace", "0")
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == run.END_TO_END
    assert all(v["value"] > 0 for v in result["metrics"].values())
    lines = {line.split()[0]: line for line in report if line.startswith("  ")}
    for metric, unit in [("wall_s", "s"), ("op_p50_s", "s"), ("setup_s", "s"),
                         ("peak_rss_mb", "MB"), ("failed_op_ratio", "ratio"),
                         ("halving_delta_max", "rel")]:
        assert f" {unit} " in lines[metric] and "(" in lines[metric]
    assert "pooled" in lines["op_p50_s"] and "op_p90_s" in lines
    assert "digest" in lines


@pytest.mark.parametrize("name", workloads.NAMES)
def test_traced_run_prints_every_per_layer_metric(capsys, name):
    report, result = _main(capsys, "--workload", name, "--seed", "4", "--trace", "1")
    assert result["correct"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == tracing.PER_LAYER
    detail = json.loads(next(l for l in report if l.startswith("DETAIL "))[7:])
    assert detail["counts_repeat"]
    layer = {k: v["value"] for k, v in result["metrics"].items()}
    if name == "moments":
        assert layer["zeta.samples"] > 0 and layer["moments.nodes"] > 0
        assert layer["zeta.cache_read_bytes"] > 0
        assert layer["primes.point_primes"] == 0 and layer["dirichlet.table_entries"] == 0
    else:
        assert layer["dirichlet.table_entries"] > 0 and layer["moments.nodes"] == 0
        assert layer["dirichlet.lemma22_calls"] > 0 and layer["blocks.points"] > 0
        assert layer["primes.point_primes"] > 0


def _session(tmp_path, name, seed=5):
    wl = workloads.build(name, seed, str(tmp_path), "tiny")
    return run.Session(cli, wl, run.nproc(), str(tmp_path))


def test_truncated_cache_fails_ops_instead_of_crashing(tmp_path):
    session = _session(tmp_path, "moments")
    session.setup()
    assert not session.setup_failures
    with open(session.workload.cache_path, "r+b") as fh:
        fh.truncate(os.path.getsize(session.workload.cache_path) // 2)
    raw = run.measure(session, 0.0)
    failed = sum(len(v) for v in raw["failures"].values())
    assert failed == sum(op.kind == "moment" for op in session.workload.ops)
    assert "curve" not in raw["failures"]
    assert all("CacheFormatError" in v[0] for v in raw["failures"].values())


def test_invalid_config_fails_one_op_and_the_run_goes_on(tmp_path):
    session = _session(tmp_path, "verify")
    classify = session.workload.ops[0]
    classify.parameters["config"] = {"beta": [1.0, 1.0]}       # no "T"
    raw = run.measure(session, 0.0)
    assert list(raw["failures"]) == ["classify"]
    assert "ConfigError" in raw["failures"]["classify"][0]
    assert all(r.error is None for r in raw["plain"][0][1][1:])


def test_wrong_payload_counts_as_failed(tmp_path, monkeypatch):
    session = _session(tmp_path, "verify")
    monkeypatch.setattr(session.workload, "check",
                        lambda op, payload, artifacts: ["forced"] if op.label == "prop34" else [])
    raw = run.measure(session, 0.0)
    assert list(raw["failures"]) == ["prop34"]


def test_tracer_restores_every_name_and_counts_repeat(tmp_path):
    originals = {k: v for k, v in vars(zetacorr.moments).items() if callable(v)}
    session = _session(tmp_path, "verify")
    counts = []
    for _ in range(2):
        with tracing.Tracer(zetacorr) as tr:
            assert zetacorr.moments.tapered_block_sum is not originals["tapered_block_sum"]
            session.run_workload()
        counts.append({k: tr.counts.get(k, 0) for k in tracing.COUNT_NAMES})
    assert counts[0] == counts[1] and counts[0]["primes.point_primes"] > 0
    assert {k: v for k, v in vars(zetacorr.moments).items() if callable(v)} == originals
    assert zetacorr.moments.tapered_block_sum is zetacorr.primes.tapered_block_sum


def test_self_time_excludes_child_spans_of_other_layers():
    tr = tracing.Tracer(zetacorr)
    tr._stack.append(["blocks", "blocks.classify", 0.0, 0.0, 0.0])
    tr._stack.append(["primes", "primes.sum", 1.0, 0.0, 0.0])
    tr._close("primes.tapered_block_sum", tr._stack[-1], 3.0)
    tr._close("blocks.classify_grid", tr._stack[-1], 5.0)
    assert tr.families["blocks.classify"] == [1, 5.0, 3.0, 3.0]
    assert tr.families["primes.sum"] == [1, 2.0, 2.0, 2.0]


def test_main_terms_from_grid_geometry_match_the_kernel_cut():
    t_start, step, count = 1000.0, 0.37, 5000
    t = t_start + np.arange(count) * step
    expect = int(np.floor(np.sqrt(t / (2.0 * math.pi))).sum())
    assert tracing._main_terms_on_grid(t_start, step, count) == expect


def test_workload_inputs_depend_only_on_the_seed(tmp_path):
    for name in workloads.NAMES:
        a = workloads.build(name, 9, str(tmp_path))
        b = workloads.build(name, 9, str(tmp_path))
        c = workloads.build(name, 10, str(tmp_path))
        assert [(o.parameters, o.seed) for o in a.ops] == [(o.parameters, o.seed) for o in b.ops]
        assert [(o.parameters, o.seed) for o in a.ops] != [(o.parameters, o.seed) for o in c.ops]


def test_cost_replays_follow_the_verify_draws(monkeypatch):
    """The verify op seeds are balanced on replays of the draws of the
    `_verify_*` functions; one that comes to draw differently shows here."""
    dirichlet = zetacorr.dirichlet
    seen = {"lemma22": [], "lemma33": [], "lemma23": []}
    n_value, product, mv = (dirichlet.lemma22_n_value, dirichlet.product_coeffs,
                            dirichlet.exact_mv_integral)

    def spy_n_value(p_value, beta, beta_star, k_bound):
        seen["lemma22"].append((k_bound, beta_star))
        return n_value(p_value, beta, beta_star, k_bound)

    def spy_product(factors, table):
        seen["lemma33"].append(len(factors))
        return product(factors, table)

    def spy_mv(tab, t_len):
        seen["lemma23"].append(len(tab.entries))
        return mv(tab, t_len)

    monkeypatch.setattr(dirichlet, "lemma22_n_value", spy_n_value)
    monkeypatch.setattr(dirichlet, "product_coeffs", spy_product)
    monkeypatch.setattr(dirichlet, "exact_mv_integral", spy_mv)
    replays = {"lemma22": workloads.lemma22_draws,
               "lemma33": workloads.lemma33_draws,
               "lemma23": workloads.lemma23_draws}
    for prop, replay in replays.items():
        cli.run(cli.ExperimentConfig(
            kind="verify", parameters={"report": None, "property": prop, "trials": 4},
            seed=11, threads=1))
        assert seen[prop] == replay(random.Random(11), 4)


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "moments", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
