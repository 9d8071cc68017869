import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from wsteenrod.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_mul_exterior(capsys):
    code, out, _ = run(capsys, "algebra", "mul", "P(1)", "P(1)")
    assert code == 0
    assert out.strip() == "0"


def test_basis_two_monomials(capsys):
    code, out, _ = run(capsys, "algebra", "basis", "--stem", "3", "--weight", "1")
    assert code == 0
    assert out.splitlines() == ["Q(0)P(1)", "Q(1)"]


def test_basis_dual(capsys):
    code, out, _ = run(
        capsys, "algebra", "basis", "--stem", "3", "--weight", "1", "--dual"
    )
    assert out.splitlines() == ["t0 x1", "t1"]


def test_antipode(capsys):
    code, out, _ = run(capsys, "algebra", "antipode", "x2")
    assert code == 0
    assert out.strip() == "x2 + x1^3"


def test_conjugate(capsys):
    code, out, _ = run(capsys, "algebra", "conjugate", "P(1)")
    assert out.strip() == "P(1)"


def test_pst_and_pair(capsys):
    code, out, _ = run(capsys, "algebra", "pst", "--t", "1")
    assert out.strip() == "P(1)"
    code, out, _ = run(capsys, "algebra", "pair", "P(1)", "x1")
    assert out.strip() == "1"


def test_parse_error_exit_code(capsys):
    code, out, err = run(capsys, "algebra", "mul", "P(1", "P(1)")
    assert code == 2
    assert "parse error" in err


def test_window_error_exit_code(capsys):
    code, out, err = run(
        capsys, "algebra", "--max-stem", "4", "mul", "P(2)", "P(2)"
    )
    assert code == 2
    assert "window" in err


def test_resolve_deterministic(tmp_path, capsys):
    out1 = tmp_path / "a.json"
    out2 = tmp_path / "b.json"
    for path in (out1, out2):
        code, _, _ = run(
            capsys,
            "resolve",
            "--module",
            "kw:0",
            "--max-stem",
            "8",
            "--max-filt",
            "9",
            "--out",
            str(path),
        )
        assert code == 0
    assert out1.read_bytes() == out2.read_bytes()
    data = json.loads(out1.read_text())
    assert data["format_version"] == 1
    assert data["module"] == "kw:0"
    assert {(c["s"], c["stem"], c["weight"]) for c in data["classes"]} == {
        (s, s, s) for s in range(9)
    }


def test_resolve_sphere_contains_w0(tmp_path, capsys):
    out = tmp_path / "sphere.json"
    run(
        capsys,
        "resolve",
        "--module",
        "sphere",
        "--max-stem",
        "2",
        "--max-filt",
        "3",
        "--out",
        str(out),
    )
    data = json.loads(out.read_text())
    assert {"s": 1, "stem": 1, "weight": 1, "mult": 1} in data["classes"]


def test_resolve_wbp1(tmp_path, capsys):
    out = tmp_path / "wbp1.json"
    run(
        capsys,
        "resolve",
        "--module",
        "wbp:1",
        "--max-stem",
        "6",
        "--max-filt",
        "7",
        "--out",
        str(out),
    )
    data = json.loads(out.read_text())
    got = {(c["s"], c["stem"], c["weight"]) for c in data["classes"]}
    want = set()
    for a in range(7):
        for b in range(2):
            if a + 5 * b <= 6:
                want.add((a + b, a + 5 * b, a + 3 * b))
    assert got == want


def test_resolve_partial_flag(tmp_path, capsys):
    out = tmp_path / "partial.json"
    code, _, err = run(
        capsys,
        "resolve",
        "--module",
        "sphere",
        "--max-stem",
        "8",
        "--max-filt",
        "4",
        "--max-gens",
        "0",
        "--out",
        str(out),
    )
    assert code == 0
    data = json.loads(out.read_text())
    assert data.get("partial") is True
    assert data["completed_stem"] == data["max_stem"] == -1


def test_chart_roundtrip_and_outputs(tmp_path, capsys):
    chart_path = tmp_path / "chart.json"
    run(
        capsys,
        "resolve",
        "--module",
        "kw:0",
        "--max-stem",
        "6",
        "--max-filt",
        "7",
        "--out",
        str(chart_path),
    )
    svg1 = tmp_path / "c1.svg"
    tsv1 = tmp_path / "c1.tsv"
    json1 = tmp_path / "c1.json"
    code, _, _ = run(
        capsys,
        "chart",
        "--in",
        str(chart_path),
        "--svg",
        str(svg1),
        "--tsv",
        str(tsv1),
        "--json",
        str(json1),
    )
    assert code == 0
    # byte-identical reserialization
    assert json1.read_bytes() == chart_path.read_bytes()
    svg2 = tmp_path / "c2.svg"
    tsv2 = tmp_path / "c2.tsv"
    run(capsys, "chart", "--in", str(chart_path), "--svg", str(svg2), "--tsv", str(tsv2))
    assert svg1.read_bytes() == svg2.read_bytes()
    assert tsv1.read_bytes() == tsv2.read_bytes()
    assert svg1.read_text().startswith("<?xml")
    assert tsv1.read_text().splitlines()[0] == "stem\ts\tweight\tmult"


def test_chart_empty_svg(tmp_path, capsys):
    from wsteenrod.charts import ExtChart, chart_file_dumps

    path = tmp_path / "empty.json"
    path.write_text(chart_file_dumps(ExtChart("empty", 4)))
    svg = tmp_path / "empty.svg"
    code, _, _ = run(capsys, "chart", "--in", str(path), "--svg", str(svg))
    assert code == 0
    assert "</svg>" in svg.read_text()


def test_chart_schema_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"module": "x"}')
    code, out, err = run(capsys, "chart", "--in", str(bad))
    assert code == 2
    assert "format_version" in err


NON_INTEGER_CLASS = json.dumps(
    {
        "format_version": 1,
        "module": "x",
        "max_stem": 2,
        "classes": [{"s": "a", "stem": 0, "weight": 0, "mult": 1}],
    }
)


@pytest.mark.parametrize(
    "text",
    [None, "{not json", "[1, 2]", "null", NON_INTEGER_CLASS],
    ids=["missing", "not-json", "list", "null", "non-integer"],
)
def test_chart_bad_input_exit_2(tmp_path, capsys, text):
    path = tmp_path / "in.json"
    if text is not None:
        path.write_text(text)
    code, out, err = run(capsys, "chart", "--in", str(path))
    assert code == 2
    assert out == ""
    assert "chart file" in err


def test_verify_small_suite(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "pst", "--max-stem", "12")
    assert code == 0
    assert "verdict: pass" in out
    assert "[pass] pst_exteriority" in out


def test_verify_unknown_suite(capsys):
    with pytest.raises(SystemExit) as exc:
        run(capsys, "verify", "--suite", "nope")
    assert exc.value.code == 2
    assert "unknown suite 'nope'" in capsys.readouterr().err


def test_verify_checks_every_suite_first(capsys):
    with pytest.raises(SystemExit) as exc:
        run(capsys, "verify", "--suite", "pst,nope")
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert "pst_exteriority" not in captured.out
    assert "unknown suite 'nope'" in captured.err


@pytest.mark.parametrize("max_filt, expected", [(0, [0, 0]), (1, [1, 1]), (16, [13, 3])])
def test_verify_max_filt_caps_charts(capsys, max_filt, expected):
    # the change-of-rings bounds are 13 (n = 0) and 3 (n = 1) at chart stem 12
    code, out, _ = run(
        capsys, "verify", "--suite", "charts", "--max-stem", "14", "--max-filt", str(max_filt)
    )
    assert code == 0
    params = [json.loads(line.split(" ", 2)[2]) for line in out.splitlines()[:-1]]
    assert [p["n"] for p in params] == [0, 1]
    assert [p["max_filt"] for p in params] == expected
    assert out.endswith("verdict: pass\n")


@pytest.mark.parametrize("max_stem", range(7))
def test_verify_small_windows(max_stem):
    # in a child process, so that a sampling loop that never ends fails the
    # test by its timeout instead of hanging the run
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-m", "wsteenrod.cli", "verify", "--max-stem", str(max_stem)],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    assert proc.stdout.endswith("verdict: pass\n")


def test_env_window(monkeypatch, capsys):
    monkeypatch.setenv("WSTEENROD_MAX_STEM", "4")
    code, out, err = run(capsys, "algebra", "mul", "P(2)", "P(2)")
    assert code == 2
    assert "window" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["resolve", "--module", "kw:x"],
        ["resolve", "--module", "wbp:x"],
        ["resolve", "--module", "kw:-1"],
        ["resolve", "--module", "nope"],
        ["resolve", "--module", "sphere", "--max-stem", "-3"],
        ["resolve", "--module", "sphere", "--max-filt", "-1"],
        ["resolve", "--module", "sphere", "--max-gens", "-1"],
        ["verify", "--max-stem", "-3"],
        ["verify", "--max-filt", "-2"],
        ["algebra", "--max-stem", "-3", "pst", "--t", "1"],
        ["algebra", "pst", "--t", "0"],
        ["algebra", "pst", "--s", "-1", "--t", "1"],
    ],
)
def test_hostile_flags_exit_2(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "error: argument" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("value", ["-2", "x"])
def test_hostile_env_window_exit_2(monkeypatch, capsys, value):
    monkeypatch.setenv("WSTEENROD_MAX_STEM", value)
    with pytest.raises(SystemExit) as exc:
        main(["algebra", "pst", "--t", "1"])
    assert exc.value.code == 2
    assert "WSTEENROD_MAX_STEM" in capsys.readouterr().err
