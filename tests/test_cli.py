"""Command line harness: config validation, exit codes, artifact
formats, and payload determinism."""

import argparse
import contextlib
import hashlib
import importlib.util
import io
import json
import math
import os
import pathlib
import re
import struct
import subprocess
import sys
import tempfile
import xml.etree.ElementTree as ET
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zetacorr import cli, moments, zeta
from zetacorr.errors import ConfigError


def _write_json(path, obj):
    path.write_text(json.dumps(obj), encoding="utf-8")
    return str(path)


@contextlib.contextmanager
def _fresh_dir():
    """Run the block in a new, empty working directory."""
    old = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            yield pathlib.Path(tmp)
        finally:
            os.chdir(old)


# ---------------------------------------------------------------------------
# config plumbing


def test_canonical_json_shape():
    s = cli.canonical_json({"b": 1, "a": [1.5, 2]})
    assert s == '{"a":[1.5,2],"b":1}\n'
    with pytest.raises(ValueError):
        cli.canonical_json({"x": float("nan")})


def test_formula_values():
    assert cli.eval_alpha_formula("T/2", 100.0) == 50.0
    assert cli.eval_alpha_formula("2*pi", 100.0) == 2.0 * math.pi
    assert cli.eval_alpha_formula("e**2", 100.0) == math.e ** 2
    assert cli.eval_alpha_formula("-T/4 + 1", 100.0) == -24.0
    out = cli.eval_alpha_formula("[0, log(T), sqrt(T)]", 100.0)
    assert out == [0.0, math.log(100.0), 10.0]
    assert cli.eval_alpha_formula("exp(1)", 100.0) == math.e


@pytest.mark.parametrize("expr", [
    "__import__('os').system('true')",
    "T.real",
    "lambda: 1",
    "unknown_name",
    "log(T, 10)",
    "T if 1 else 2",
    "1 < 2",
    "'abc'",
    "[1][0]",
    "(1).bit_length()",
    "open('/etc/hostname')",
    "log(0)",
    "sqrt(-1)",
    "1/0",
    "exp(1000)",
    "T**400",
    pytest.param("(" * 30_000 + "1" + ")" * 30_000, id="60k-nested"),
    pytest.param("x" * 60_000, id="60k-name"),
])
def test_formula_rejections(tmp_path, capsys, expr):
    with pytest.raises(ConfigError):
        cli.eval_alpha_formula(expr, 100.0)
    cfg = _write_json(tmp_path / "p.json", {"T": 100.0, "beta": [1.0],
                                            "alpha": {"formula": expr}})
    assert cli.main(["predict", "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert err.startswith("zetacorr: ") and err.count("\n") == 1
    assert len(err.encode("utf-8")) < 300


def test_shift_field_forms():
    # predict alpha and curve deltas share one parser
    for kind, key, base in (
        ("predict", "alpha", {"T": 100.0, "beta": [1.0]}),
        ("curve", "deltas", {"T": 100.0, "beta": 1.0, "step": 0.05}),
    ):
        rows = cli._CONFIG_FIELDS[kind]

        def shifts(raw):
            return cli.read_config(rows, {**base, key: raw}, kind)[key]

        assert shifts([0, 1.5]) == [0.0, 1.5]
        assert shifts({"formula": "[0, T/50]"}) == [0.0, 2.0]
        assert shifts({"formula": "T/50"}) == [2.0]
        for bad in (
            {key: {"formula": 1}},
            {key: {"formula": "T", "extra": 1}},
            {key: "T/2"},
            {key: [1, "x"]},
            {key: [True]},
            {},
        ):
            with pytest.raises(ConfigError):
                cli.read_config(rows, {**base, **bad}, kind)


def test_load_config_errors(tmp_path):
    with pytest.raises(ConfigError):
        cli.load_config(str(tmp_path / "absent.json"))
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    with pytest.raises(ConfigError):
        cli.load_config(str(bad))
    arr = tmp_path / "arr.json"
    arr.write_text("[1,2]", encoding="utf-8")
    with pytest.raises(ConfigError):
        cli.load_config(str(arr))


# ---------------------------------------------------------------------------
# exit codes and artifact discipline


def test_predict_success_report_split(tmp_path, capsys):
    cfg = _write_json(tmp_path / "p.json",
                      {"T": 1e4, "alpha": [0.0, 2.0], "beta": [1.0, 1.0]})
    rc = cli.main(["predict", "--config", cfg, "--seed", "11"])
    assert rc == 0
    report = json.loads(capsys.readouterr().out)
    payload, meta = report["payload"], report["meta"]
    assert payload["kind"] == "predict"
    assert payload["seed"] == 11
    assert "threads" not in payload
    assert set(meta) == {"wall_time_s", "timestamp_utc", "threads"}
    spec = moments.ShiftSpec(alpha=(0.0, 2.0), beta=(1.0, 1.0), t_height=1e4)
    assert payload["results"]["prediction"] == moments.predict_bound(spec)
    assert payload["results"]["nsw_F"] == moments.nsw_F(0.0, 2.0, 1e4)


def _python_m(argv, cwd):
    """`python -W default -m zetacorr.cli *argv` run in `cwd`."""
    src = str(pathlib.Path(cli.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])]))
    return subprocess.run(
        [sys.executable, "-W", "default", "-m", "zetacorr.cli", *argv],
        capture_output=True, text=True, env=env, cwd=cwd, timeout=120)


def test_python_m_runs_without_warnings(tmp_path):
    # the package does not import `cli`, so runpy finds it unimported
    cfg = _write_json(tmp_path / "p.json",
                      {"T": 1e4, "alpha": [0.0, 2.0], "beta": [1.0, 1.0]})
    done = _python_m(["predict", "--config", cfg], tmp_path)
    assert done.returncode == 0
    assert done.stderr == ""
    assert json.loads(done.stdout)["payload"]["kind"] == "predict"


def test_malformed_config_exits_2_without_artifacts(tmp_path, capsys):
    cfg = tmp_path / "broken.json"
    cfg.write_text("{oops", encoding="utf-8")
    out = tmp_path / "curve.csv"
    rc = cli.main(["curve", "--config", str(cfg), "--out", str(out)])
    assert rc == 2
    assert not out.exists()
    assert "zetacorr:" in capsys.readouterr().err


def test_domain_error_exits_4(tmp_path, capsys):
    cfg = _write_json(tmp_path / "p.json",
                      {"T": 10.0, "alpha": [0.0], "beta": [1.0]})
    rc = cli.main(["predict", "--config", cfg])
    assert rc == 4
    capsys.readouterr()


def test_prediction_out_of_range_exits_4_before_sampling(tmp_path, monkeypatch,
                                                         capsys):
    def no_sampling(*args, **kwargs):
        raise AssertionError("sampled before the prediction")

    monkeypatch.setattr(zeta, "sample_critical_line", no_sampling)
    cfg = _write_json(tmp_path / "m.json", {"T": 100.0, "alpha": [0.0],
                                            "beta": [60.0], "step": 0.025})
    assert cli.main(["moment", "--config", cfg]) == 4
    err = capsys.readouterr().err
    assert "exceeds the float range" in err and err.count("\n") == 1


@pytest.mark.parametrize("kind,cfg", [
    ("moment", {"T": 100.0, "alpha": [0.0, 1.0], "beta": [200, 200], "step": 0.025}),
    ("curve", {"T": 100.0, "beta": [200, 200], "deltas": [1.0], "step": 0.025}),
])
def test_prediction_out_of_range_leaves_one_stderr_line(tmp_path, kind, cfg):
    # no quadrature runs, so np.power(|zeta|, 400), which overflows where
    # |zeta| > 5.9 on [100, 201], does not warn before the exit
    argv = [kind, "--config", _write_json(tmp_path / "cfg.json", cfg)]
    done = _python_m(argv + (["--out", "c.csv"] if kind == "curve" else []),
                     tmp_path)
    assert done.returncode == 4
    assert done.stderr.startswith("zetacorr: ") and done.stderr.count("\n") == 1
    assert "RuntimeWarning" not in done.stderr


def test_resource_error_exits_5_without_artifacts(tmp_path, capsys):
    out = tmp_path / "grid.bin"
    rc = cli.main(["sample", "--t0", "20", "--t1", "2.2e6",
                   "--step", "0.01", "--out", str(out)])
    assert rc == 5
    assert not out.exists()
    capsys.readouterr()


@pytest.mark.parametrize("argv", [
    ["classify", "--t0", "1e5", "--t1", "1e15", "--step", "1e-3"],
    ["classify", "--t0", "0", "--t1", "1e300", "--step", "1e-300"],
    ["sample", "--t0", "10", "--t1", "1e8", "--step", "5e-324",
     "--out", "grid.zgrd"],
])
def test_grid_count_over_cap_exits_5(tmp_path, monkeypatch, capsys, argv):
    # too many nodes, or a node count that overflows a float
    monkeypatch.chdir(tmp_path)
    if argv[0] == "classify":
        argv = [*argv, "--config", _write_json(
            tmp_path / "cfg.json",
            {"T": 1e5, "beta": [1, 1], "exponent_scale": 0.5})]
    rc = cli.main(argv)
    err = capsys.readouterr().err
    assert rc == 5
    assert err.startswith("zetacorr: ") and err.count("\n") == 1
    assert "Traceback" not in err
    assert not (tmp_path / "grid.zgrd").exists()


@pytest.mark.parametrize("argv", [
    ["verify", "lemma26", "--x-cutoff", "1e300"],
    ["verify", "lemma21", "--t-height", "1e300"],
])
def test_sieve_limit_error_is_one_short_line(capsys, argv):
    # the refused limit is printed in short form, not as 301 digits
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("zetacorr: ") and err.count("\n") == 1
    assert len(err) < 200


def test_cache_mismatch_exits_3(tmp_path, capsys):
    cache = tmp_path / "grid.zgrd"
    rc = cli.main(["sample", "--t0", "98", "--t1", "204.2",
                   "--step", "0.0125", "--rs-terms", "6",
                   "--out", str(cache)])
    assert rc == 0
    capsys.readouterr()
    for mismatch, extra in (("step", {"step": 0.05, "rs_terms": 6}),
                            ("RS depth", {"step": 0.025, "rs_terms": 0}),
                            ("RS depth", {"step": 0.025})):   # default depth 4
        cfg = _write_json(tmp_path / "m.json",
                          {"T": 100.0, "alpha": [0.0], "beta": [1.0], **extra})
        rc = cli.main(["moment", "--config", cfg, "--cache", str(cache)])
        assert rc == 3
        assert mismatch in capsys.readouterr().err


def test_complex_grid_exits_3_and_its_commands_are_gone(tmp_path, capsys):
    # a grid as `sample --complex` wrote it: flags 0, complex128 samples,
    # a valid checksum, and coverage of the moment window
    count = 8497                                  # 98 .. 204.2 at 0.0125
    body = struct.pack("<4sIIIddQ", b"ZGRD", 2, 0, 4, 98.0, 0.0125, count) \
        + np.ones(count, dtype="<c16").tobytes()
    cache = tmp_path / "complex.zgrd"
    cache.write_bytes(body + struct.pack("<I", zlib.crc32(body)))
    cfg = _write_json(tmp_path / "m.json", {"T": 100.0, "alpha": [0.0],
                                            "beta": [1.0], "step": 0.025})
    rc = cli.main(["moment", "--config", cfg, "--cache", str(cache)])
    err = capsys.readouterr().err
    assert rc == 3
    assert "complex grids" in err and err.count("\n") == 1
    for argv in (["sieve", "--limit", "1000", "--out", "p.zprm"],
                 ["sample", "--t0", "98", "--t1", "99", "--step", "0.0125",
                  "--complex", "--out", "g.zgrd"]):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2
    capsys.readouterr()


@pytest.mark.parametrize("t0", ["98.00625"])
@pytest.mark.parametrize("kind", ["moment", "curve"])
def test_cache_off_the_publication_nodes_exits_3(tmp_path, monkeypatch, capsys,
                                                 kind, t0):
    # step, depth and span all match, but T = 100 falls between two
    # cache nodes
    monkeypatch.chdir(tmp_path)
    assert cli.main(["sample", "--t0", t0, "--t1", "204.2", "--step", "0.0125",
                     "--out", "grid.zgrd"]) == 0
    capsys.readouterr()
    cfg = _write_json(tmp_path / "cfg.json",
                      {**_VALID_CONFIGS[kind], "step": 0.025})
    rc = cli.main([kind, "--config", cfg, "--cache", "grid.zgrd",
                   *(["--out", "curve.csv"] if kind == "curve" else [])])
    err = capsys.readouterr().err
    assert rc == 3
    assert "grid.zgrd" in err and "not a node" in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json", "grid.zgrd"]


@pytest.mark.parametrize("kind", ["moment", "curve"])
def test_cache_with_t_on_an_odd_node_runs(tmp_path, monkeypatch, capsys, kind):
    # T = 100 is node 159 of a grid from 98.0125 and node 160 of one from
    # 98.0; the published sum runs on every other node from each shift's
    # base either way, so the two caches agree to rounding
    monkeypatch.chdir(tmp_path)
    cfg = _write_json(tmp_path / "cfg.json",
                      {**_VALID_CONFIGS[kind], "step": 0.025})
    got = []
    for t0 in ("98.0125", "98.0"):
        assert cli.main(["sample", "--t0", t0, "--t1", "204.2", "--step",
                         "0.0125", "--out", "grid.zgrd"]) == 0
        capsys.readouterr()
        assert cli.main([kind, "--config", cfg, "--cache", "grid.zgrd",
                         *(["--out", "curve.csv"] if kind == "curve" else [])]) == 0
        res = json.loads(capsys.readouterr().out)["payload"]["results"]
        got.append([row["moment"] for row in res.get("rows", [res])])
    assert got[0] == pytest.approx(got[1], rel=1e-14, abs=0.0)


# the shifts (0, -1) at T = 100 and step 0.025 read the cache from 99
# to 200
_SHORT_CACHE_CONFIGS = {
    "moment": {"T": 100.0, "alpha": [0.0, -1.0], "beta": [1.0, 1.0],
               "step": 0.025},
    "curve": {"T": 100.0, "beta": 1.0, "deltas": [-1.0], "step": 0.025},
}


@pytest.mark.parametrize("t0,t1", [
    ("98", "199.9"),          # stops short at the top
    ("99.5", "204.2"),        # holds T but not the shift -1 below it
    ("100.5", "204.2"),       # starts above T
])
@pytest.mark.parametrize("kind", ["moment", "curve"])
def test_cache_short_of_the_window_exits_3(tmp_path, monkeypatch, capsys,
                                           kind, t0, t1):
    monkeypatch.chdir(tmp_path)
    assert cli.main(["sample", "--t0", t0, "--t1", t1, "--step", "0.0125",
                     "--out", "grid.zgrd"]) == 0
    capsys.readouterr()
    cfg = _write_json(tmp_path / "cfg.json", _SHORT_CACHE_CONFIGS[kind])
    rc = cli.main([kind, "--config", cfg, "--cache", "grid.zgrd",
                   "--report", "r.json",
                   *(["--out", "curve.csv"] if kind == "curve" else [])])
    err = capsys.readouterr().err
    assert rc == 3
    assert err.startswith("zetacorr: cache grid.zgrd does not hold every node")
    assert err.count("\n") == 1
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json", "grid.zgrd"]


@pytest.mark.parametrize("kind,config", [
    ("moment", {"T": 100.03, "alpha": [0, 50.015], "beta": [1.0, 1.0],
                "step": 0.025}),
    ("curve", {"T": 100.03, "beta": 1.0, "deltas": {"formula": "[0, T/2]"},
               "step": 0.025}),
])
def test_shift_of_half_t_snapping_past_it_runs(tmp_path, monkeypatch, capsys,
                                                kind, config):
    # alpha = T/2 = 50.015 lies in the domain; it snaps to 50.025, past
    # T/2, and the moment integrates the snapped shift
    monkeypatch.chdir(tmp_path)
    cfg = _write_json(tmp_path / "cfg.json", config)
    assert cli.main([kind, "--config", cfg, "--threads", "1",
                     *(["--out", "curve.csv"] if kind == "curve" else [])]) == 0
    payload = json.loads(capsys.readouterr().out)["payload"]
    assert payload["warnings"] == [
        "shifts snapped to step 0.025 grid, max residual 1.000e-02"]
    res = payload["results"]
    rows = res["rows"] if kind == "curve" else [res]
    assert all(row["moment"] > 0.0 for row in rows)
    if kind == "moment":
        assert res["snapped_alpha"] == [0.0, pytest.approx(50.025, abs=1e-12)]
        assert res["snap_residuals"] == [0.0, pytest.approx(-0.01, abs=1e-12)]


@pytest.mark.parametrize("cache", ["absent.zgrd", "."])
def test_unreadable_cache_exits_2(tmp_path, monkeypatch, capsys, cache):
    monkeypatch.chdir(tmp_path)
    cfg = _write_json(tmp_path / "cfg.json", {"T": 100.0, "alpha": [0.0],
                                              "beta": [1.0], "step": 0.025})
    rc = cli.main(["moment", "--config", cfg, "--cache", cache])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("zetacorr: cannot read cache") and err.count("\n") == 1


@pytest.mark.parametrize("kind,cfg,args", [
    ("curve", {"T": 100.0, "beta": 1.0, "deltas": [0.0, 1.0], "step": 0.05},
     ["--out", "curve.csv", "--report", "missing/r.json"]),
    ("curve", {"T": 100.0, "beta": 1.0, "deltas": [0.0, 1.0], "step": 0.05},
     ["--out", "curve.csv", "--report", "."]),
    ("predict", {"T": 1e4, "alpha": [0.0, 2.0], "beta": [1.0, 1.0]},
     ["--report", "missing/r.json"]),
])
def test_output_path_failure_exits_2(tmp_path, monkeypatch, capsys, kind, cfg,
                                     args):
    # one unwritable output: no output is written, no temp file is left
    monkeypatch.chdir(tmp_path)
    path = _write_json(tmp_path / "cfg.json", cfg)
    rc = cli.main([kind, "--config", path, *args])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.err.startswith("zetacorr: ") and captured.err.count("\n") == 1
    assert captured.out == ""
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]


@pytest.mark.parametrize("kind,args", [
    ("moment", ["--config", "m.json", "--cache", "g.zgrd", "--report", "g.zgrd"]),
    ("predict", ["--config", "m.json", "--report", "m.json"]),
    ("curve", ["--config", "c.json", "--out", "same.txt", "--report", "same.txt"]),
    ("curve", ["--config", "c.json", "--cache", "g.zgrd", "--out", "./g.zgrd"]),
    ("curve", ["--config", "c.json", "--out", "c.json"]),
    ("classify", ["--config", "k.json", "--t0", "1e5", "--t1", "100010",
                  "--step", "1", "--out", "r.json", "--report", "./r.json"]),
    ("classify", ["--config", "k.json", "--t0", "1e5", "--t1", "100010",
                  "--step", "1", "--out", "k.json"]),
    ("sample", ["--t0", "98", "--t1", "99", "--step", "0.0125",
                "--out", "g.zgrd", "--report", "g.zgrd"]),
])
def test_output_naming_another_file_exits_2(tmp_path, monkeypatch, capsys,
                                            kind, args):
    # two outputs on one file, or an output on the config or the cache:
    # refused before anything runs, every input left as it was
    monkeypatch.chdir(tmp_path)
    _write_json(tmp_path / "m.json", _VALID_CONFIGS["moment"])
    _write_json(tmp_path / "c.json", {**_VALID_CONFIGS["curve"], "step": 0.025})
    _write_json(tmp_path / "k.json", _CLASSIFY_CONFIG)
    (tmp_path / "g.zgrd").write_bytes(zeta.cache_bytes(
        zeta.sample_critical_line(98.0, 204.2, 0.0125, correction_terms=4)))
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    rc = cli.main([kind, *args])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.err.startswith("zetacorr: parameters ")
    assert "name one file" in captured.err and captured.err.count("\n") == 1
    assert captured.out == ""
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before


def test_argparse_rejections_exit_2(tmp_path):
    with pytest.raises(SystemExit) as exc:
        cli.main(["moment"])          # missing required --config
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        cli.main(["unknown-command"])
    assert exc.value.code == 2
    # the curve plot is tools/plot_curve.py over the CSV, not an option
    cfg = _write_json(tmp_path / "cfg.json", _CURVE_CONFIG)
    with pytest.raises(SystemExit) as exc:
        cli.main(["curve", "--config", cfg, "--out", str(tmp_path / "c.csv"),
                  "--plot", str(tmp_path / "x.svg")])
    assert exc.value.code == 2
    assert [p.name for p in tmp_path.iterdir()] == ["cfg.json"]


_CLASSIFY_ARGS = ["--t0", "1e5", "--t1", "1.0001e5", "--step", "1.0"]


@pytest.mark.parametrize("kind,cfg,args", [
    ("curve", {"T": 100.0, "beta": 1.0, "step": 0.05,
               "deltas": {"formula": 1}}, ["--out", "curve.csv"]),
    ("curve", {"T": 100.0, "beta": 1.0, "step": 0.05,
               "deltas": {"formula": "[[1]]"}}, ["--out", "curve.csv"]),
    ("curve", {"T": 100.0, "beta": 1.0, "step": 0.05,
               "deltas": [float("nan")]}, ["--out", "curve.csv"]),
    ("predict", {"T": 1e4, "alpha": [0, float("nan")], "beta": [1, 1]}, []),
    ("predict", {"T": 1e4, "alpha": [0, 1], "beta": [1, float("inf")]}, []),
    ("predict", {"T": float("nan"), "alpha": [0, 1], "beta": [1, 1]}, []),
    ("classify", {"T": 1e5, "beta": [1, 1], "exponent_scale": float("nan")},
     _CLASSIFY_ARGS),
    ("classify", {"T": 1e5, "beta": [1, 1], "exponent_scale": 0.5,
                  "band_count": -3}, _CLASSIFY_ARGS),
    ("classify", {"T": 1e5, "beta": [1, 1], "exponent_scale": 0.5,
                  "band_count": True}, _CLASSIFY_ARGS),
    ("predict", {"T": 1e4, "alpha": {"formula": "[]"}, "beta": [1]}, []),
    ("curve", {"T": 100.0, "beta": [1.0, 2.0], "step": 0.05,
               "deltas": [0.0]}, ["--out", "curve.csv"]),
])
def test_config_boundary_exits_2(tmp_path, monkeypatch, capsys, kind, cfg, args):
    monkeypatch.chdir(tmp_path)
    path = _write_json(tmp_path / "cfg.json", cfg)
    rc = cli.main([kind, "--config", path, *args])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("zetacorr: ") and err.count("\n") == 1
    assert "Traceback" not in err
    assert not (tmp_path / "curve.csv").exists()


@pytest.mark.parametrize("argv", [
    ["classify", "--t0", "1e5", "--t1", "1.0001e5", "--step", "inf"],
    ["classify", "--t0", "nan", "--t1", "1.0001e5", "--step", "1.0"],
    ["classify", "--t0", "1e5", "--t1", "inf", "--step", "1.0"],
    ["verify", "lemma26", "--x-cutoff", "nan"],
    ["verify", "lemma26", "--x-cutoff", "inf"],
    ["verify", "lemma21", "--t-height", "nan"],
    ["sample", "--t0", "nan", "--t1", "204.2", "--step", "0.0125",
     "--out", "grid.zgrd"],
])
def test_nonfinite_flags_exit_2(tmp_path, monkeypatch, capsys, argv):
    monkeypatch.chdir(tmp_path)
    if argv[0] == "classify":
        argv = [*argv, "--config", _write_json(
            tmp_path / "cfg.json",
            {"T": 1e5, "beta": [1, 1], "exponent_scale": 0.5})]
    rc = cli.main(argv)
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("zetacorr: ") and err.count("\n") == 1
    assert "Traceback" not in err
    assert not (tmp_path / "grid.zgrd").exists()


# ---------------------------------------------------------------------------
# artifact round trips


def test_sample_then_cached_moment(tmp_path, capsys):
    cache = tmp_path / "grid.zgrd"
    rc = cli.main(["sample", "--t0", "98", "--t1", "204.2",
                   "--step", "0.0125", "--rs-terms", "6",
                   "--out", str(cache)])
    assert rc == 0
    capsys.readouterr()
    grid = zeta.cache_read(str(cache))
    assert grid.step == 0.0125
    assert grid.correction_terms == 6

    cfg = _write_json(tmp_path / "m.json",
                      {"T": 100.0, "alpha": [0.0], "beta": [1.0],
                       "step": 0.025, "rs_terms": 6})
    rc = cli.main(["moment", "--config", cfg, "--cache", str(cache)])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)["payload"]
    res = payload["results"]
    assert abs(res["moment"] - 441.19761150674876) / 441.19761150674876 < 1e-8
    assert res["ratio"] == res["moment"] / res["prediction"]
    assert payload["cache_versions"][0]["step"] == 0.0125
    assert payload["cache_versions"][0]["rs_terms"] == 6
    assert payload["cache_versions"][0]["version"] == 2

    # sample and moment with their default RS depths agree on it
    rc = cli.main(["sample", "--t0", "98", "--t1", "204.2",
                   "--step", "0.0125", "--out", str(cache)])
    assert rc == 0
    capsys.readouterr()
    cfg = _write_json(tmp_path / "m.json",
                      {"T": 100, "alpha": [0], "beta": [1], "step": 0.025})
    rc = cli.main(["moment", "--config", cfg, "--cache", str(cache)])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)["payload"]
    assert payload["cache_versions"][0]["rs_terms"] == 4


def test_classify_out_file_shape(tmp_path, capsys):
    cfg = _write_json(tmp_path / "c.json",
                      {"T": 1e5, "beta": [1.0, 1.0], "exponent_scale": 0.5})
    out = tmp_path / "classes.json"
    rc = cli.main(["classify", "--config", cfg, "--t0", "1e5", "--t1", "1.2e5",
                   "--step", "1.0", "--out", str(out), "--seed", "5"])
    assert rc == 0
    capsys.readouterr()
    flat = json.loads(out.read_text(encoding="utf-8"))
    expect_keys = {
        "good_fraction", "bad_fractions", "square_fractions", "bounds",
        "block_bounds", "points", "levels", "band_count", "degenerate",
        "seed", "warnings",
    }
    assert set(flat) == expect_keys
    assert flat["seed"] == 5
    assert flat["levels"] == 2
    assert flat["degenerate"] is False
    assert math.isclose(flat["good_fraction"] + sum(flat["bad_fractions"]),
                        1.0, rel_tol=1e-12)
    assert len(flat["square_fractions"]) == flat["band_count"]
    # coarse spacing draws the measure-resolution warning
    assert any("spacing" in w for w in flat["warnings"])


def test_payload_bytes_identical_across_threads(tmp_path, capsys):
    cfg = _write_json(tmp_path / "m.json",
                      {"T": 100.0, "alpha": [0.0, 1.0], "beta": [1.0, 1.0],
                       "step": 0.025, "rs_terms": 6})
    payloads = []
    for threads in ("1", "8"):
        rep = tmp_path / f"rep{threads}.json"
        rc = cli.main(["moment", "--config", cfg, "--threads", threads,
                       "--seed", "3", "--report", str(rep)])
        assert rc == 0
        capsys.readouterr()
        doc = json.loads(rep.read_text(encoding="utf-8"))
        payloads.append(cli.canonical_json(doc["payload"]).encode("ascii"))
        assert doc["meta"]["threads"] == int(threads)
    assert payloads[0] == payloads[1]


def _plot_tool():
    """tools/plot_curve.py, loaded as a module."""
    spec = importlib.util.spec_from_file_location(
        "plot_curve", pathlib.Path(__file__).parents[1] / "tools" / "plot_curve.py")
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


# a curve CSV as `curve --out` prints it, and the sha256 of the SVG that
# `curve --plot` drew from the same rows before the plot left the command
_CURVE_CSV = """delta,moment,prediction,ratio,nsw_F,step_halving_delta
0.0,152.5,230.25,0.6623235613463626,1.0,1.5e-09
0.5,120.0,200.0,0.6,1.25,-2e-10
2.0,101.75,190.5,0.5341207349081365,1.1,3e-11
"""
_CURVE_SVG_SHA256 = "47a13ad82f2e80941351143952f341a59057fe2a2648ca1dec667b597165b630"


def test_curve_csv_and_svg(tmp_path, capsys):
    cfg = _write_json(tmp_path / "curve.json",
                      {"T": 100.0, "beta": 1.0, "deltas": [0.0, 0.5, 2.0],
                       "step": 0.05, "rs_terms": 6})
    out = tmp_path / "curve.csv"
    plot = tmp_path / "curve.svg"
    rc = cli.main(["curve", "--config", cfg, "--out", str(out)])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)["payload"]
    assert len(payload["results"]["rows"]) == 3

    lines = out.read_text(encoding="utf-8").strip().split("\n")
    assert lines[0] == "delta,moment,prediction,ratio,nsw_F,step_halving_delta"
    assert len(lines) == 4
    csv_rows = [line.split(",") for line in lines[1:]]
    # repr round-trip: each text field parses back to the payload value
    for row, fields in zip(payload["results"]["rows"], csv_rows):
        assert float(fields[0]) == row["delta"]
        assert float(fields[1]) == row["moment"]
        assert float(fields[2]) == row["prediction"]
        assert float(fields[3]) == row["ratio"]
        assert float(fields[4]) == row["nsw_F"]
        assert float(fields[5]) == row["step_halving_delta"]

    tool = _plot_tool()
    assert tool.main([str(out), str(plot)]) == 0
    root = ET.fromstring(plot.read_text(encoding="utf-8"))
    circles = [el for el in root.iter() if el.tag.endswith("circle")]
    polylines = [el for el in root.iter() if el.tag.endswith("polyline")]
    assert len(circles) == 6          # two panels, three rows each
    assert len(polylines) == 2
    ratio_markers = [el for el in circles if "data-ratio" in el.attrib]
    moment_markers = [el for el in circles if "data-moment" in el.attrib]
    for el, fields in zip(ratio_markers, csv_rows):
        assert el.attrib["data-delta"] == fields[0]
        assert el.attrib["data-ratio"] == fields[3]
        assert el.attrib["data-nsw-f"] == fields[4]
    for el, fields in zip(moment_markers, csv_rows):
        assert el.attrib["data-moment"] == fields[1]
        assert el.attrib["data-prediction"] == fields[2]
        assert el.attrib["data-step-halving-delta"] == fields[5]

    literal = tmp_path / "literal.csv"
    literal.write_text(_CURVE_CSV, encoding="utf-8")
    assert tool.main([str(literal), str(plot)]) == 0
    assert hashlib.sha256(plot.read_bytes()).hexdigest() == _CURVE_SVG_SHA256


def test_curve_publishes_the_snap_warnings(tmp_path):
    # each delta's moment report warns of its snap; the curve publishes
    # those warnings in delta order, each distinct one once
    cfg = {"T": 100.0, "beta": 1.0, "deltas": [0.0, 0.013, 0.52, 0.013],
           "step": 0.05}
    out = str(tmp_path / "curve.csv")
    curve = _run("curve", config=cfg, out=out).payload["warnings"]
    moment = [_run("moment", config={"T": 100.0, "alpha": [0.0, d],
                                     "beta": [1.0, 1.0], "step": 0.05}
                   ).payload["warnings"] for d in (0.013, 0.52)]
    assert curve == [w for ws in moment for w in ws]
    assert curve == [
        "shifts snapped to step 0.05 grid, max residual 1.300e-02",
        "shifts snapped to step 0.05 grid, max residual 2.000e-02"]


def test_curve_rows_are_the_moment_results(tmp_path):
    # a curve row is its delta and the results of `moment` at shifts
    # (0, delta) and exponents (beta, beta) over the same cache
    cache = str(tmp_path / "grid.zgrd")
    _run("sample", t0=98.0, t1=204.2, step=0.0125, rs_terms=6, out=cache)
    deltas = [0.0, 0.5, 2.0, 0.013, 0.52, 0.013]
    curve = _run("curve", cache=cache, out=str(tmp_path / "curve.csv"), config={
        "T": 100.0, "beta": 1.0, "deltas": deltas, "step": 0.025,
        "rs_terms": 6}).payload
    runs = [_run("moment", cache=cache, config={
        "T": 100.0, "alpha": [0.0, d], "beta": [1.0, 1.0], "step": 0.025,
        "rs_terms": 6}).payload for d in deltas]
    rows = curve["results"]["rows"]
    assert len(rows) == len(deltas)
    for d, row, run in zip(deltas, rows, runs):
        res = run["results"]
        assert row == {"delta": d, **{k: res[k] for k in (
            "moment", "prediction", "ratio", "nsw_F", "step_halving_delta")}}
        assert res["ratio"] == res["moment"] / res["prediction"]
        assert res["nsw_F"] == moments.nsw_F(0.0, d, 100.0)
        assert res["step_halving_delta"] < 1e-5
    assert curve["warnings"] == list(dict.fromkeys(
        w for run in runs for w in run["warnings"]))
    assert len(curve["warnings"]) == 2
    # zero separation doubles the exponent: the moment is largest there
    assert rows[0]["moment"] > rows[2]["moment"]


@pytest.mark.parametrize("deltas", [[0.5, 2.0], [-1.0, -0.5]])
def test_curve_without_delta_zero_samples_shift_zero(tmp_path, deltas):
    # every row integrates shifts (0, delta), so the curve's window holds
    # shift 0 even when no delta is 0
    cfg = {"T": 100.0, "beta": 1.0, "deltas": deltas, "step": 0.025,
           "rs_terms": 6}
    keys = ("moment", "prediction", "ratio", "nsw_F", "step_halving_delta")
    out = str(tmp_path / "curve.csv")
    # without a cache the curve samples moment_window(T, (0, *deltas)) on
    # the lattice from T: its rows are the moments on that grid
    rows = _run("curve", out=out, config=cfg).payload["results"]["rows"]
    grid = zeta.sample_critical_line(
        *moments.moment_window(100.0, (0.0, *deltas), 0.025), 0.0125,
        anchor=100.0, correction_terms=6, workers=1)
    for d, row in zip(deltas, rows):
        spec = moments.ShiftSpec(alpha=(0.0, d), beta=(1.0, 1.0), t_height=100.0)
        res = moments.moment_report(spec, grid, moments.predict_bound(spec))[0]
        assert row == {"delta": d, **{k: res[k] for k in keys}}
    # with or without a cache, each row is the `moment` run at (0, delta):
    # a sample depends only on its node of the lattice from T, not on
    # where the window starts (T - 1 for deltas [-1, -0.5], T - 0.5 for
    # the moment at -0.5)
    path = str(tmp_path / "grid.zgrd")
    _run("sample", t0=98.0, t1=204.2, step=0.0125, rs_terms=6, out=path)
    for cache in (None, path):
        curve = _run("curve", out=out, cache=cache, config=cfg).payload
        rows = curve["results"]["rows"]
        for d, row in zip(deltas, rows):
            res = _run("moment", cache=cache, config={
                "T": 100.0, "alpha": [0.0, d], "beta": [1.0, 1.0], "step": 0.025,
                "rs_terms": 6}).payload["results"]
            assert row == {"delta": d, **{k: res[k] for k in keys}}


def test_svg_degenerate_inputs(tmp_path, capsys):
    tool = _plot_tool()
    header, row = _CURVE_CSV.split("\n")[:2]
    svg = tmp_path / "out.svg"
    for text in ("", header + "\n",                        # no rows to plot
                 f"{header}\n{row.replace(',152.5,', ',0.0,')}\n",
                 f"{header}\n{row.replace(',1.0,', ',nan,')}\n",
                 f"{header}\n{row.replace(',1.0,', ',x,')}\n",
                 f"{header}\n0.0,1.0\n", "moment\n1.0\n"):
        (tmp_path / "in.csv").write_text(text, encoding="utf-8")
        assert tool.main([str(tmp_path / "in.csv"), str(svg)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("plot_curve: ") and err.count("\n") == 1
        assert not svg.exists()
    with pytest.raises(SystemExit) as exc:       # the SVG over its own CSV
        tool.main([str(tmp_path / "in.csv"), str(tmp_path / "in.csv")])
    assert exc.value.code == 2
    assert (tmp_path / "in.csv").read_text(encoding="utf-8") == "moment\n1.0\n"
    # the script's own entry point: one line on stderr, no traceback
    (tmp_path / "in.csv").write_text(header + "\n", encoding="utf-8")
    done = subprocess.run(
        [sys.executable, str(pathlib.Path(__file__).parents[1] / "tools" /
                             "plot_curve.py"), str(tmp_path / "in.csv"), str(svg)],
        capture_output=True, text=True, timeout=60)
    assert done.returncode == 1
    assert done.stderr == "plot_curve: cannot plot an empty curve table\n"
    assert not svg.exists()

    (tmp_path / "in.csv").write_text(f"{header}\n{row}\n", encoding="utf-8")
    assert tool.main([str(tmp_path / "in.csv"), str(svg)]) == 0
    root = ET.fromstring(svg.read_text(encoding="utf-8"))
    circles = [el for el in root.iter() if el.tag.endswith("circle")]
    polylines = [el for el in root.iter() if el.tag.endswith("polyline")]
    assert len(circles) == 2
    assert not polylines                  # one point draws markers only


def test_verify_cli_and_report(tmp_path, capsys):
    rep = tmp_path / "verify.json"
    rc = cli.main(["verify", "lemma33", "--trials", "3", "--seed", "7",
                   "--report", str(rep)])
    assert rc == 0
    stdout_doc = json.loads(capsys.readouterr().out)
    file_doc = json.loads(rep.read_text(encoding="utf-8"))
    assert stdout_doc["payload"] == file_doc["payload"]
    payload = file_doc["payload"]
    assert payload["seed"] == 7
    assert payload["results"]["violations"] == 0
    assert payload["results"]["trials"] == 3


@pytest.mark.parametrize("argv", [
    ["verify", "lemma22", "--trials", "1", "--points", "5"],
    ["verify", "lemma26", "--x-cutoff", "100", "--trials", "3"],
    ["verify", "lemma21", "--points", "10", "--x-cutoff", "100"],
    ["verify", "lemma33", "--trials", "1", "--t-height", "1e5"],
])
def test_verify_unread_flag_exits_2(capsys, argv):
    # each property takes only the flags it reads
    rc = cli.main(argv)
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.err.startswith("zetacorr: ")
    assert captured.err.count("\n") == 1
    assert captured.out == ""


@pytest.mark.parametrize("params", [
    {"property": "lemma99"},
    {"property": "lemma22", "trials": 1, "points": 5},
    {"property": "lemma21", "trials": 3},
    {"property": "lemma26", "trials": 3},
    {"property": "lemma33", "trials": 1, "t_height": 1e5},
])
def test_run_refuses_unread_verify_parameters(params):
    # a library caller gets the command line's refusal, not a KeyError
    # or a payload recording a key the property never read
    cfg = cli.ExperimentConfig(kind="verify", parameters={"report": None, **params},
                               seed=1, threads=1)
    with pytest.raises(ConfigError) as err:
        cli.run(cfg)
    assert err.value.exit_code == 2


def test_verify_rejects_bad_counts():
    with pytest.raises(SystemExit):
        cli.main(["verify", "nonsense"])
    rc = cli.main(["verify", "lemma33", "--trials", "0"])
    assert rc == 2


def _run(kind, **params):
    return cli.run(cli.ExperimentConfig(
        kind=kind, parameters={"report": None, **params}, seed=1, threads=1))


_CLASSIFY_CONFIG = {"T": 1e5, "beta": [1, 1], "exponent_scale": 0.5}


@pytest.mark.parametrize("kind,params", [
    ("verify", {"property": "lemma22", "trials": -3}),
    ("verify", {"property": "lemma22", "trials": 2.5}),
    ("verify", {"property": "lemma22", "trials": "3"}),
    ("verify", {"property": "lemma22", "trials": True}),
    ("verify", {"property": "lemma26", "x_cutoff": "1e4"}),
    ("verify", {"property": "lemma21", "points": 0}),
    ("classify", {"config": _CLASSIFY_CONFIG, "t0": 1e5, "t1": 1.0001e5,
                  "step": 0.0}),
    ("classify", {"config": _CLASSIFY_CONFIG, "t0": 1e5, "t1": 1.0001e5,
                  "step": -1.0}),
    ("classify", {"config": _CLASSIFY_CONFIG, "t0": 1e5, "t1": 0.9e5,
                  "step": 1.0}),
    ("sample", {"t0": 99.0, "t1": 98.0, "step": 0.0125, "out": "grid.zgrd"}),
])
def test_run_checks_parameter_values(kind, params):
    # `run` parses its dict through the rows that flags and config
    # files pass, so a library caller gets the same exit 2
    with pytest.raises(ConfigError) as err:
        _run(kind, **params)
    assert err.value.exit_code == 2


@pytest.mark.parametrize("band_count", [20, 40, 1000])
def test_band_count_past_the_sieve_exits_2(band_count):
    # classify sieves to e^(band_count + 1); 20 already passes the sieve's
    # 1e9 limit, and 1000 overflowed math.exp
    with pytest.raises(ConfigError, match=r"'band_count': must be <= 19\b") as err:
        _run("classify", config={**_CLASSIFY_CONFIG, "band_count": band_count},
             t0=1e5, t1=1.0001e5, step=1.0)
    assert err.value.exit_code == 2


def test_band_count_past_the_sieve_from_a_config_file(tmp_path, capsys):
    cfg = _write_json(tmp_path / "c.json",
                      {**_CLASSIFY_CONFIG, "band_count": 1000})
    rc = cli.main(["classify", "--config", cfg, *_CLASSIFY_ARGS])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("zetacorr: ") and err.count("\n") == 1
    assert "band_count" in err and "19" in err


def test_documented_classify_inputs_run():
    # a band_count below the sieve's cap, the abscissa "one", and the
    # default exponent scale, whose scheme is degenerate at this height
    grid = {"t0": 1e5, "t1": 1.0001e5, "step": 1.0}
    res = _run("classify", config={**_CLASSIFY_CONFIG, "band_count": 7},
               **grid).payload["results"]
    assert res["band_count"] == 7 and len(res["square_fractions"]) == 7
    one = _run("classify", config={**_CLASSIFY_CONFIG, "abscissa": "one"},
               **grid).payload
    assert one["config"]["abscissa"] == "one" and one["results"]["points"] == 11
    default = _run("classify", config={"T": 1e5, "beta": [1, 1]}, **grid).payload
    assert default["results"]["degenerate"] is True
    assert any("degenerate" in w for w in default["warnings"])


def test_curve_beta_pair_reads_as_its_number(tmp_path):
    runs = []
    for i, beta in enumerate((1.0, [1.0, 1.0])):
        out = tmp_path / f"curve{i}.csv"
        rep = _run("curve", out=str(out), config={**_CURVE_CONFIG, "beta": beta})
        runs.append((cli.canonical_json(rep.payload["results"]), out.read_bytes()))
    assert runs[0] == runs[1]


@pytest.mark.parametrize("depth,step,message", [
    (4, 0.0, "bad grid geometry"),
    (7, 0.0125, "RS depth 7"),
])
def test_cache_with_a_valid_checksum_and_bad_header_exits_3(
        tmp_path, capsys, depth, step, message):
    count = 8497                                  # 98 .. 204.2 at 0.0125
    body = struct.pack("<4sIIIddQ", b"ZGRD", 2, 1, depth, 98.0, step, count) \
        + np.ones(count, dtype="<f8").tobytes()
    cache = tmp_path / "grid.zgrd"
    cache.write_bytes(body + struct.pack("<I", zlib.crc32(body)))
    cfg = _write_json(tmp_path / "m.json", {"T": 100.0, "alpha": [0.0],
                                            "beta": [1.0], "step": 0.025})
    rc = cli.main(["moment", "--config", cfg, "--cache", str(cache)])
    err = capsys.readouterr().err
    assert rc == 3
    assert message in err and err.count("\n") == 1


def test_null_parameter_takes_its_default():
    payload = _run("verify", property="prop34", trials=None).payload
    assert payload["results"]["trials"] == 50
    assert payload["config"]["trials"] is None


def test_oversized_lemma21_audit_exits_5(capsys):
    # the doubled audit would sample 2e10 nodes: refused before any array
    rc = cli.main(["verify", "lemma21", "--points", "10000000000",
                   "--t-height", "1e3"])
    err = capsys.readouterr().err
    assert rc == 5
    assert err.startswith("zetacorr: ") and err.count("\n") == 1


# ---------------------------------------------------------------------------
# the parameter rows: fuzzed, and documented in README


_VALID_CONFIGS = {
    "moment": {"T": 100.0, "alpha": [0.0], "beta": [1.0], "step": 0.025},
    "predict": {"T": 1e4, "alpha": [0.0], "beta": [1.0]},
    "curve": {"T": 100.0, "beta": 1.0, "deltas": [0.0], "step": 0.05},
    "classify": _CLASSIFY_CONFIG,
}
# a valid `run` dict of each subcommand but verify
_VALID_RUNS = {
    "sample": {"t0": 98.0, "t1": 99.0, "step": 0.0125, "rs_terms": 4,
               "out": "grid.zgrd"},
    "classify": {"config": _CLASSIFY_CONFIG, "t0": 1e5, "t1": 1.0001e5,
                 "step": 1.0},
    "moment": {"config": _VALID_CONFIGS["moment"]},
    "predict": {"config": _VALID_CONFIGS["predict"]},
    "curve": {"config": _VALID_CONFIGS["curve"], "out": "curve.csv"},
}
_MISSING = object()
_MALFORMED = (math.nan, math.inf, -math.inf, True, False, "1", [[1.0]],
              10 ** 400)
# values malformed only for some parsers
_MALFORMED_FOR = {cli._count: (0, -3), cli._band_count: (0, -3, 20),
                  cli._positive: (0.0, -1.0),
                  cli._step: (0.0, -1.0), cli._rs_terms: (-1, 7),
                  cli._t1: (97.0,)}      # below sample's t0 and classify's
_ROWS = ([("config", kind, row) for kind, rows in cli._CONFIG_FIELDS.items()
          for row in rows]
         + [("flags", kind, row) for kind, (_, _, rows) in cli._COMMANDS.items()
            if kind != "verify" for row in rows]
         + [("verify", prop, row) for prop, (_, rows) in cli._VERIFY.items()
            for row in rows])


@st.composite
def _malformed_input(draw):
    where, kind, (key, parse, default) = draw(st.sampled_from(_ROWS))
    bad = (*_MALFORMED, *_MALFORMED_FOR.get(parse, ()))
    if parse is cli._path:          # any nonempty string is a path
        bad = tuple(v for v in bad if not isinstance(v, str)) + ("",)
    if default is cli._REQUIRED:
        bad += (_MISSING,)
    return where, kind, key, draw(st.sampled_from(bad))


@settings(max_examples=200, deadline=None)
@given(_malformed_input())
def test_malformed_parameters_exit_2(case):
    # every value drawn is malformed, so nothing runs past the parse
    where, kind, key, value = case
    base = {"config": _VALID_CONFIGS, "flags": _VALID_RUNS,
            "verify": {}}[where].get(kind, {})
    params = {k: v for k, v in base.items() if k != key}
    if value is not _MISSING:
        params[key] = value
    with _fresh_dir() as tmp:
        with pytest.raises(ConfigError):
            if where == "config":
                cli.read_config(cli._CONFIG_FIELDS[kind], params, kind)
            elif where == "flags":
                _run(kind, **params)
            else:
                _run("verify", property=kind, **params)
        assert not list(tmp.iterdir())


@pytest.mark.parametrize("kind,params", [
    ("classify", {"config": [1, 2], "t0": 1e5, "t1": 1.0001e5, "step": 1.0}),
    ("moment", {"config": [1, 2]}),
    ("predict", {"config": [1, 2]}),
    ("curve", {"config": [1, 2], "out": "curve.csv"}),
    ("classify", {"t0": 1e5, "t1": 1.0001e5, "step": 1.0}),
    ("moment", {}),
    ("predict", {}),
    ("curve", {"out": "curve.csv"}),
    ("sample", {k: v for k, v in _VALID_RUNS["sample"].items() if k != "out"}),
    ("sample", {**_VALID_RUNS["sample"], "out": 3}),
    ("curve", {"config": _VALID_CONFIGS["curve"]}),
    # the other path keys are paths too, checked before anything runs
    ("curve", {**_VALID_RUNS["curve"], "cache": 5}),
    ("predict", {**_VALID_RUNS["predict"], "report": 7}),
    ("moment", {**_VALID_RUNS["moment"], "cache": [1]}),
    # an output that would replace another output or the cache
    ("curve", {**_VALID_RUNS["curve"], "report": "./curve.csv"}),
    ("sample", {**_VALID_RUNS["sample"], "report": "grid.zgrd"}),
])
def test_run_needs_a_config_object_and_an_out_path(tmp_path, monkeypatch,
                                                   kind, params):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(ConfigError) as err:
        _run(kind, **params)
    assert err.value.exit_code == 2
    assert not list(tmp_path.iterdir())


def test_run_echoes_path_like_paths_as_strings(tmp_path, monkeypatch):
    # a `run` dict may pass os.PathLike paths; the payload echoes them as
    # the strings they stand for, and the report is written
    monkeypatch.chdir(tmp_path)
    blobs = []
    for wrap in (str, pathlib.Path):
        report = _run("sample", **{**_VALID_RUNS["sample"],
                                   "out": wrap("grid.zgrd"),
                                   "report": wrap("report.json")})
        blobs.append(cli.payload_bytes(report))
        written = json.loads((tmp_path / "report.json").read_text())
        assert written["payload"] == report.payload
        assert report.payload["config"]["out"] == "grid.zgrd"
    assert blobs[0] == blobs[1]


@pytest.mark.parametrize("kind,cfg,code", [
    ("predict", {"T": 1e300, "alpha": [0.0, 1.0], "beta": [3.0, 3.0]}, 4),
    ("predict", {"T": 100.0, "alpha": [0.0], "beta": [60.0]}, 4),
    ("moment", {"T": 100.0, "alpha": [0.0], "beta": [60.0], "step": 0.025}, 4),
    ("classify", {**_CLASSIFY_CONFIG, "exponent_scale": 100.0}, 2),
    ("classify", {**_CLASSIFY_CONFIG, "exponent_scale": 10.0}, 2),
    ("classify", {**_CLASSIFY_CONFIG, "exponent_scale": 1e308}, 5),
    ("classify", {**_CLASSIFY_CONFIG, "beta": [1e308, 1e308]}, 4),
])
def test_numbers_out_of_range_exit_with_their_code(tmp_path, monkeypatch, capsys,
                                                   kind, cfg, code):
    # an overflowing prediction (T (log T)^(sum beta^2)) exits 4; a sieve
    # past its limit (the top block T_L is inf from exponent_scale ~68 at
    # T = 1e5) exits 2; a level count or exponent sum beyond the float
    # range exits 5 or 4
    monkeypatch.chdir(tmp_path)
    args = [*_CLASSIFY_ARGS, "--out", "o.json"] if kind == "classify" else []
    rc = cli.main([kind, "--config", _write_json(tmp_path / "cfg.json", cfg),
                   "--report", "r.json", *args])
    captured = capsys.readouterr()
    assert rc == code
    assert captured.err.startswith("zetacorr: ") and captured.err.count("\n") == 1
    assert captured.out == ""
    assert [p.name for p in tmp_path.iterdir()] == ["cfg.json"]


@pytest.mark.parametrize("kind", sorted(_VALID_CONFIGS))
def test_config_key_no_row_reads_exits_2(tmp_path, monkeypatch, kind):
    # a typo such as "rs_term" would otherwise run at the default depth
    # and echo the typo in the payload
    monkeypatch.chdir(tmp_path)
    params = {**_VALID_RUNS[kind],
              "config": {**_VALID_CONFIGS[kind], "rs_term": 6, "zz": 1}}
    with pytest.raises(ConfigError, match=f"^{kind} config does not read "
                                          "'rs_term', 'zz'$") as err:
        _run(kind, **params)
    assert err.value.exit_code == 2
    assert not list(tmp_path.iterdir())


_CURVE_CONFIG = {"T": 100.0, "beta": 1.0, "deltas": [0.0, 1.0], "step": 0.05}


@pytest.mark.parametrize("kind,cfg,args,key", [
    ("curve", _CURVE_CONFIG, ["--out", "curve.csv", "--cache", ""], "cache"),
    ("curve", _CURVE_CONFIG, ["--out", "curve.csv", "--report", ""], "report"),
    ("curve", _CURVE_CONFIG, ["--out", ""], "out"),
    ("classify", _CLASSIFY_CONFIG, [*_CLASSIFY_ARGS, "--out", ""], "out"),
    ("sample", None, ["--t0", "98", "--t1", "99", "--step", "0.0125",
                      "--out", ""], "out"),
    ("moment", _VALID_CONFIGS["moment"], ["--cache", ""], "cache"),
])
def test_empty_path_exits_2_before_anything_runs(tmp_path, monkeypatch, capsys,
                                                 kind, cfg, args, key):
    monkeypatch.chdir(tmp_path)
    if cfg is not None:
        args = ["--config", _write_json(tmp_path / "cfg.json", cfg), *args]
    rc = cli.main([kind, *args])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.err == (f"zetacorr: {kind} parameter {key!r}: must be a "
                            f"path, got an empty string\n")
    assert captured.out == ""
    assert [p.name for p in tmp_path.iterdir()] == ["cfg.json"] * (cfg is not None)


_README = (pathlib.Path(__file__).parents[1] / "README.md").read_text(
    encoding="utf-8")


def _readme_rows():
    """README's "Config fields" table as {subcommand: [(field, default)]},
    `-` for a required field and a JSON default otherwise."""
    table = _README.split("| subcommand | fields (default) |", 1)[1]
    out = {}
    for line in table.split("\n")[2:]:
        if not line.startswith("|"):
            break
        label, fields = (cell.strip() for cell in line.strip("|").split("|"))
        out[label.replace("`", "")] = [
            (name, "-" if rest == "-" else json.loads(
                rest[1:-1].replace("`", "").split(":")[0]))
            for name, rest in (re.fullmatch(r"`(\w+)` (.+)", piece).groups()
                               for piece in re.split(r", (?=`)", fields))]
    return out


def test_readme_config_table_matches_the_rows():
    # README tables every row but the paths, and lists those beside it
    flags = {kind: rows for kind, (_, _, rows) in cli._COMMANDS.items()
             if kind != "verify"}
    expect = {}
    for tables, label in ((cli._CONFIG_FIELDS, "{}"), (flags, "{} flags"),
                          ({p: rows for p, (_, rows) in cli._VERIFY.items()},
                           "verify {}")):
        for kind, rows in tables.items():
            listed = [(key, "-" if default is cli._REQUIRED else default)
                      for key, parse, default in rows if parse is not cli._path]
            if listed:
                expect[label.format(kind)] = listed
    assert _readme_rows() == expect
    paths = {"--" + key.replace("_", "-") for _, _, rows in cli._COMMANDS.values()
             for key, parse, _ in rows if parse is cli._path}
    listed = re.search(r"Paths \(([^)]*)\)", _README).group(1)
    assert sorted(re.findall(r"`(--[\w-]+)`", listed)) == sorted({"--config", *paths})


# ---------------------------------------------------------------------------
# the command line itself: pinned, and fuzzed


# the default thread count is the CPUs this process may run on
_CPUS = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
         else os.cpu_count() or 1)
_COMMON_FLAGS = {"--threads": ("int", False, _CPUS),
                 "--seed": ("int", False, 0), "--report": ("str", False, None)}
_GRID_FLAGS = {"--t0": ("float", True, None), "--t1": ("float", True, None),
               "--step": ("float", True, None)}
_CONFIG_FLAG = {"--config": ("str", True, None)}
# each subcommand's flags as (type of the value it echoes, required, default)
_FLAGS = {
    "sample": {**_COMMON_FLAGS, **_GRID_FLAGS, "--rs-terms": ("int", False, 4),
               "--out": ("str", True, None)},
    "classify": {**_COMMON_FLAGS, **_CONFIG_FLAG, **_GRID_FLAGS,
                 "--out": ("str", False, None)},
    "moment": {**_COMMON_FLAGS, **_CONFIG_FLAG, "--cache": ("str", False, None)},
    "predict": {**_COMMON_FLAGS, **_CONFIG_FLAG},
    "curve": {**_COMMON_FLAGS, **_CONFIG_FLAG, "--cache": ("str", False, None),
              "--out": ("str", True, None)},
    "verify": {**_COMMON_FLAGS, "--trials": ("int", False, None),
               "--points": ("int", False, None),
               "--x-cutoff": ("float", False, None),
               "--t-height": ("float", False, None)},
}


def test_flags_and_their_echo_types_are_pinned():
    parser = cli._build_parser()
    sub = next(a for a in parser._actions
               if isinstance(a, argparse._SubParsersAction))
    assert sorted(sub.choices) == sorted(_FLAGS)
    for kind, flags in _FLAGS.items():
        actions = [a for a in sub.choices[kind]._actions if a.dest != "help"]
        assert {a.option_strings[0]: a.required for a in actions
                if a.option_strings} == {f: req for f, (_, req, _) in flags.items()}
        assert [(a.dest, a.choices) for a in actions if not a.option_strings] == (
            [("property", sorted(cli._VERIFY))] if kind == "verify" else [])
        head = [kind, *(["lemma22"] if kind == "verify" else [])]
        head += [x for flag, (_, req, _) in flags.items() if req for x in (flag, "7")]
        defaults = vars(parser.parse_args(head))
        for flag, (echo, req, default) in flags.items():
            dest = flag[2:].replace("-", "_")
            assert req or defaults[dest] == default
            given = vars(parser.parse_args([*head, flag, "7"]))[dest]
            assert type(given).__name__ == echo
    # 24 flags, counting verify's property once and the common three once,
    # plus 18 config fields: 42 settable options
    flag_count = 1 + len(_COMMON_FLAGS) + sum(
        len(flags) - len(_COMMON_FLAGS) for flags in _FLAGS.values())
    assert flag_count + sum(map(len, cli._CONFIG_FIELDS.values())) == 42


# a tiny valid command line of each subcommand, with its config file
_ARGV = {
    "sample": ["sample", "--t0", "98", "--t1", "99", "--step", "0.0125",
               "--out", "grid.zgrd"],
    "moment": ["moment", "--config", "cfg.json"],
    "predict": ["predict", "--config", "cfg.json"],
    "curve": ["curve", "--config", "cfg.json", "--out", "curve.csv"],
    "classify": ["classify", "--config", "cfg.json", "--t0", "1e5",
                 "--t1", "100010", "--step", "1"],
    "verify": ["verify", "lemma33", "--trials", "1"],
}
_ARGV_CONFIGS = {
    "moment": {"T": 100.0, "alpha": [0.0, 1.0], "beta": [1.0, 1.0],
               "step": 0.025},
    "predict": {"T": 100.0, "alpha": [0.0, 1.0], "beta": [1.0, 1.0]},
    "curve": {"T": 100.0, "beta": 1.0, "deltas": [0.0, 1.0], "step": 0.025},
    "classify": _CLASSIFY_CONFIG,
}
_SHIFT_KEYS = {"moment": "alpha", "curve": "deltas"}
# config numbers that can overflow what is computed from them
_NUMBER_KEYS = ("T", "beta", "exponent_scale", "band_count")
_NUMBER_VALUES = (1e300, -1e300, 1e-300, 1.7976931348623157e308, 0.0, 60.0,
                  100.0, 0, 60, 10 ** 300)
_FLAG_VALUES = ("nan", "inf", "-1", "0", "2.5", "1e400", "abc", "", "x" * 10_000)
_BAD_FORMULAS = ("T.real", "log(0)", "[1][0]", "T +", "(" * 5000 + "T" + ")" * 5000,
                 "-" * 5000 + "T", "[" * 5000 + "T" + "]" * 5000)


@st.composite
def _mutated_command_line(draw):
    """(argv, config or None): one valid command line changed in one place."""
    kind = draw(st.sampled_from(sorted(_ARGV)))
    argv, config = list(_ARGV[kind]), _ARGV_CONFIGS.get(kind)
    how = draw(st.sampled_from(("value", "drop", "bogus")
                               + (("formula",) if kind in _SHIFT_KEYS else ())
                               + (("number",) if config else ())))
    if how == "value":
        flag = draw(st.sampled_from(sorted(_FLAGS[kind])))
        value = draw(st.sampled_from(_FLAG_VALUES))
        if flag in argv:
            argv[argv.index(flag) + 1] = value
        else:
            argv += [flag, value]
    elif how == "drop":
        required = [f for f, (_, req, _) in _FLAGS[kind].items() if req]
        if required:
            i = argv.index(draw(st.sampled_from(required)))
            del argv[i:i + 2]
        else:
            argv.remove("lemma33")
    elif how == "bogus":
        argv += ["--bogus", "1"]
    elif how == "formula":
        formula = draw(st.sampled_from(_BAD_FORMULAS))
        config = {**config, _SHIFT_KEYS[kind]: {"formula": formula}}
    else:
        key = draw(st.sampled_from([key for key, _, _ in cli._CONFIG_FIELDS[kind]
                                    if key in _NUMBER_KEYS]))
        value = draw(st.sampled_from(_NUMBER_VALUES))
        if isinstance(config.get(key), list):
            value = [value] * len(config[key])
        config = {**config, key: value}
    return argv, config


@settings(max_examples=300, deadline=None)
@given(_mutated_command_line())
def test_mutated_command_lines_exit_cleanly(case):
    # a documented exit code, no traceback, and on failure no output
    argv, config = case
    with _fresh_dir() as tmp:
        inputs = [_write_json(tmp / "cfg.json", config)] if config else []
        err = io.StringIO()
        with contextlib.redirect_stderr(err), \
                contextlib.redirect_stdout(io.StringIO()):
            try:
                rc = cli.main(argv)
            except SystemExit as exc:
                rc = exc.code
        assert rc in (0, 2, 3, 4, 5)
        assert "Traceback" not in err.getvalue()
        if rc:
            assert sorted(str(p) for p in tmp.iterdir()) == inputs
