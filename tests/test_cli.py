"""Command line harness: config validation, exit codes, artifact
formats, and payload determinism."""

import json
import math
import struct
import xml.etree.ElementTree as ET
import zlib

import numpy as np
import pytest

from zetacorr import cli, moments, zeta
from zetacorr.errors import ConfigError
from zetacorr.moments import CurveRow


def _write_json(path, obj):
    path.write_text(json.dumps(obj), encoding="utf-8")
    return str(path)


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
        def shifts(raw):
            return cli.read_config(kind, {**base, key: raw})[key]

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
                cli.read_config(kind, {**base, **bad})


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


@pytest.mark.parametrize("kind,cfg,args", [
    ("curve", {"T": 100.0, "beta": 1.0, "deltas": [0.0, 1.0], "step": 0.05},
     ["--out", "curve.csv", "--plot", "missing/p.svg"]),
    ("curve", {"T": 100.0, "beta": 1.0, "deltas": [0.0, 1.0], "step": 0.05},
     ["--out", "curve.csv", "--plot", "."]),
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


def test_argparse_rejections_exit_2(tmp_path):
    with pytest.raises(SystemExit) as exc:
        cli.main(["moment"])          # missing required --config
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        cli.main(["unknown-command"])
    assert exc.value.code == 2


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


def test_curve_csv_and_svg(tmp_path, capsys):
    cfg = _write_json(tmp_path / "curve.json",
                      {"T": 100.0, "beta": 1.0, "deltas": [0.0, 0.5, 2.0],
                       "step": 0.05, "rs_terms": 6})
    out = tmp_path / "curve.csv"
    plot = tmp_path / "curve.svg"
    rc = cli.main(["curve", "--config", cfg, "--out", str(out),
                   "--plot", str(plot)])
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


def _fake_row(delta=1.0, moment=10.0):
    return CurveRow(delta=delta, moment=moment, prediction=20.0,
                    ratio=moment / 20.0, nsw_value=1.1,
                    step_halving_delta=1e-9)


def test_svg_degenerate_inputs():
    from zetacorr.errors import DomainError
    with pytest.raises(DomainError):
        cli.emit_plot_svg([])
    with pytest.raises(DomainError):
        cli.emit_plot_svg([_fake_row(moment=0.0)])
    svg = cli.emit_plot_svg([_fake_row()])
    root = ET.fromstring(svg)
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


def test_verify_rejects_bad_counts():
    with pytest.raises(SystemExit):
        cli.main(["verify", "nonsense"])
    rc = cli.main(["verify", "lemma33", "--trials", "0"])
    assert rc == 2
