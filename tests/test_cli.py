import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from wsteenrod import cli, resolution, verify
from wsteenrod.charts import chart_file_loads, compare_charts, polynomial_chart, w_class_degree
from wsteenrod.cli import _ALGEBRA_SUBCOMMANDS, MAX_STEM, main
from wsteenrod.gf2 import BitMatrix
from wsteenrod.modules import AlgebraModule
from wsteenrod.towers import KwComplex
from wsteenrod.verify import SUITES


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


@pytest.mark.parametrize("n", [*range(15), 29])
def test_resolve_wbp_is_polynomial_on_the_w_classes(tmp_path, capsys, n):
    # w_k sits at stem 2^(k+2) - 3, so at n = 1, 5, 13, 29 the top stem holds
    # a w_k whose P_{k+1} the resolver reads at internal stem n + 1
    out = tmp_path / "wbp.json"
    argv = ["resolve", "--module", "wbp", "--max-stem", str(n), "--max-filt", str(n + 2)]
    code, _, _ = run(capsys, *argv, "--out", str(out))
    assert code == 0
    chart, partial = chart_file_loads(out.read_text())
    assert not partial
    oracle = polynomial_chart([w for w in map(w_class_degree, range(5)) if w.stem <= n], n)
    assert compare_charts(chart, oracle, n, n + 2) == []


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


def test_chart_json_keeps_the_partial_header(tmp_path, capsys):
    # a truncated resolution stays marked partial through chart --json
    path = tmp_path / "partial.json"
    argv = ["resolve", "--module", "wbp", "--max-stem", "24", "--max-filt", "12"]
    code, _, _ = run(capsys, *argv, "--max-gens", "1", "--out", str(path))
    assert code == 0
    data = json.loads(path.read_text())
    assert (data["partial"], data["completed_stem"], data["max_stem"]) == (True, 5, 5)
    again = tmp_path / "again.json"
    code, _, _ = run(capsys, "chart", "--in", str(path), "--json", str(again))
    assert code == 0
    assert again.read_bytes() == path.read_bytes()


def test_chart_tsv_and_svg_mark_a_partial_chart(tmp_path, capsys):
    # a truncated resolution's TSV (file and stdout) and SVG say it is
    # partial; a complete chart's say nothing of it
    argv = ["resolve", "--module", "wbp", "--max-stem", "24", "--max-filt", "12"]
    partial, complete = tmp_path / "partial.json", tmp_path / "complete.json"
    assert run(capsys, *argv, "--max-gens", "1", "--out", str(partial))[0] == 0
    assert run(capsys, *argv[:4], "5", "--max-filt", "4", "--out", str(complete))[0] == 0
    header = "stem\ts\tweight\tmult"
    for path, marked in ((partial, True), (complete, False)):
        tsv, svg = tmp_path / f"{path.stem}.tsv", tmp_path / f"{path.stem}.svg"
        code, _, _ = run(capsys, "chart", "--in", str(path), "--tsv", str(tsv), "--svg", str(svg))
        assert code == 0
        code, out, _ = run(capsys, "chart", "--in", str(path))
        assert code == 0 and out == tsv.read_text()
        lines = out.splitlines()
        if marked:
            assert lines[:2] == ["# partial: complete through stem 5", header]
            assert "(partial, complete through stem 5; stem vs filtration" in svg.read_text()
        else:
            assert lines[0] == header
            assert "partial" not in out and "partial" not in svg.read_text()


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


def chart_text(top=None, **entry):
    """A one-class chart file, with top-level and class fields overridden."""
    data = {"format_version": 1, "module": "x", "max_stem": 2}
    data["classes"] = [dict({"s": 0, "stem": 0, "weight": 0, "mult": 1}, **entry)]
    data.update(top or {})
    return json.dumps(data)


@pytest.mark.parametrize(
    "text",
    [
        None,
        "{not json",
        "[1, 2]",
        "null",
        chart_text(s="a"),
        chart_text(s=2.5),
        chart_text(stem="7"),
        chart_text(weight=True),
        chart_text(mult=-3),
        chart_text(mult=0),
        chart_text({"format_version": True}),
        chart_text({"max_stem": 2.0}),
        chart_text({"module": 5}),
        chart_text({"classes": [{"s": 0, "stem": 0, "weight": 0, "mult": 1}] * 2}),
        chart_text(stem=3),
        chart_text(s=-1000000000),
        chart_text({"partial": False, "completed_stem": 2}),
        chart_text({"partial": "true", "completed_stem": 2}),
        chart_text({"partial": True}),
        chart_text({"completed_stem": 2}),
        chart_text({"partial": True, "completed_stem": 1}),
        chart_text({"partial": True, "completed_stem": 2.0}),
    ],
    ids=[
        "missing",
        "not-json",
        "list",
        "null",
        "non-integer",
        "float-s",
        "string-stem",
        "bool-weight",
        "negative-mult",
        "zero-mult",
        "bool-version",
        "float-max-stem",
        "non-string-module",
        "duplicate-class",
        "stem-above-max-stem",
        "s-beyond-max-filt",
        "partial-false",
        "partial-string",
        "partial-without-completed-stem",
        "completed-stem-without-partial",
        "completed-stem-below-max-stem",
        "float-completed-stem",
    ],
)
def test_chart_bad_input_exit_2(tmp_path, capsys, text):
    path = tmp_path / "in.json"
    if text is not None:
        path.write_text(text)
    code, out, err = run(capsys, "chart", "--in", str(path))
    assert code == 2
    assert out == ""
    assert ("cannot read chart file" if text is None else "bad chart file: ") in err


@pytest.mark.parametrize(
    "argv",
    [
        ["resolve", "--module", "sphere", "--max-stem", "4", "--max-filt", "2", "--out"],
        ["verify", "--suite", "pst", "--max-stem", "6", "--out"],
        ["chart", "--in", "{chart}", "--svg"],
        ["chart", "--in", "{chart}", "--tsv"],
        ["chart", "--in", "{chart}", "--json"],
    ],
    ids=["resolve-out", "verify-out", "chart-svg", "chart-tsv", "chart-json"],
)
def test_unwritable_output_exit_2(tmp_path, capsys, argv):
    from wsteenrod.charts import ExtChart, chart_file_dumps

    chart = tmp_path / "in.json"
    chart.write_text(chart_file_dumps(ExtChart("empty", 4)))
    target = tmp_path / "missing" / "out"
    argv = [a.replace("{chart}", str(chart)) for a in argv] + [str(target)]
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith(f"cannot write {target}: ")
    assert err.count("\n") == 1
    assert "Traceback" not in err
    assert not target.parent.exists()


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


@pytest.mark.parametrize("spec", ["kw:x", "wbp:\u00b2", "kw:-1", "nope"])
def test_resolve_unknown_module_exit_2(capsys, spec):
    # a superscript digit passes str.isdigit but not int(), so N is decimal
    with pytest.raises(SystemExit) as exc:
        run(capsys, "resolve", "--module", spec, "--max-stem", "4", "--max-filt", "2")
    assert exc.value.code == 2
    assert "unknown module" in capsys.readouterr().err


def test_verify_checks_every_suite_first(capsys):
    with pytest.raises(SystemExit) as exc:
        run(capsys, "verify", "--suite", "pst,nope")
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert "pst_exteriority" not in captured.out
    assert "unknown suite 'nope'" in captured.err


@pytest.mark.parametrize("suites", ["", ",,", " , "])
def test_verify_empty_suite_list_exit_2(capsys, suites):
    # a list naming no suite would pass without checking anything
    with pytest.raises(SystemExit) as exc:
        run(capsys, "verify", "--suite", suites)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error: argument --suite: no suite named" in captured.err


def test_verify_repeated_suite_runs_once(tmp_path, capsys):
    path = tmp_path / "v.json"
    code, out, _ = run(
        capsys, "verify", "--suite", "pst,margolis,pst", "--max-stem", "12", "--out", str(path)
    )
    assert code == 0
    payload = json.loads(path.read_text())
    assert payload["suites"] == ["pst", "margolis"]
    checks = [r["check"] for r in payload["reports"]]
    assert checks[:3] == ["pst_exteriority", "pt_commutativity", "conjugation_involution"]
    assert checks.count("pst_exteriority") == 1
    assert set(checks[3:]) == {"margolis_exact"}
    assert out.count("pst_exteriority") == 1


# SHA-256 of each --help text at 80 columns; the --suite help lists the
# suites from verify.SUITES
HELP_SHA256 = {
    (): "d637937ac6af9e47fa711decc504540fdbbbab236fa826f753b2846bcac6347f",
    ("resolve",): "e6d28cdba4c24a198c0c0ad09156107236628604ef1690127f52a310f3c2de5a",
    ("verify",): "9c3fadd1c0cb556adb06d2ef9d54fbb879ee3f0e28262d0ee957ffb69ac8381d",
    ("algebra",): "7ae9cb638232202780d1132894f39a239c0201a11792409efe998e854fe4795e",
}


@pytest.mark.parametrize("command", sorted(HELP_SHA256))
def test_help_bytes_pinned(capsys, monkeypatch, command):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exc:
        main([*command, "--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == HELP_SHA256[command]


def test_verify_max_filt_caps_charts(capsys):
    # the change-of-rings bounds are 13 (n = 0) and 3 (n = 1) at chart stem
    # 12: one filtration past the most copies of |w_n| that fit
    code, out, _ = run(capsys, "verify", "--suite", "charts", "--max-stem", "14")
    assert code == 0
    params = [json.loads(line.split(" ", 2)[2]) for line in out.splitlines()[:-1]]
    assert [p["n"] for p in params] == [0, 1]
    assert [p["max_filt"] for p in params] == [13, 3]
    assert out.endswith("verdict: pass\n")


# SHA-256 of `verify --max-stem 24 --out F` with the default seed
VERIFY_24_SHA256 = "e4ad3f160abada30001799acb4e9b2c9ef3f67de24bbbc951b2ebe7c71e23526"


def test_verify_out_bytes_pinned(tmp_path, capsys):
    path = tmp_path / "v24.json"
    code, _, _ = run(capsys, "verify", "--max-stem", "24", "--out", str(path))
    assert code == 0
    assert hashlib.sha256(path.read_bytes()).hexdigest() == VERIFY_24_SHA256


# SHA-256 of `verify --max-stem 32 --out F` with the default seed; stem 32 is
# the first pinned window whose wBP layers reach xi_4
VERIFY_32_SHA256 = "e6db9a5eba4c9192b1a83a1b5ae606a8dd4f12545993fc71f255ae1eda8130c9"


def test_verify_out_bytes_pinned_at_32(tmp_path, capsys):
    path = tmp_path / "v32.json"
    code, _, _ = run(capsys, "verify", "--max-stem", "32", "--out", str(path))
    assert code == 0
    assert hashlib.sha256(path.read_bytes()).hexdigest() == VERIFY_32_SHA256


# SHA-256 of `verify --suite hopf --max-stem 40 --out F` and at 48: windows
# where the per-monomial coassociativity check reads about 3.0 M and 12.7 M
# packed triples; it runs only when the proof on the generators fails
VERIFY_HOPF_40_SHA256 = "2505f2b731cf5830753c7af3b28cce9b7ee360c581b7802636fa841726d97f2f"
VERIFY_HOPF_48_SHA256 = "882369a4b1573d7c40a5fa0460b2dc2332e451e6457d230fffc051a76cb13041"


def _hopf_out_sha256(tmp_path, capsys, max_stem):
    path = tmp_path / "hopf.json"
    code, _, _ = run(
        capsys, "verify", "--suite", "hopf", "--max-stem", max_stem, "--out", str(path)
    )
    assert code == 0
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_verify_hopf_out_bytes_pinned_at_40(tmp_path, capsys):
    assert _hopf_out_sha256(tmp_path, capsys, "40") == VERIFY_HOPF_40_SHA256


def test_verify_hopf_out_bytes_pinned_at_48(tmp_path, capsys):
    assert _hopf_out_sha256(tmp_path, capsys, "48") == VERIFY_HOPF_48_SHA256


def test_verify_progress_changes_no_bytes(tmp_path, capsys):
    plain, flagged = tmp_path / "plain.json", tmp_path / "progress.json"
    code, out, err = run(capsys, "verify", "--max-stem", "12", "--out", str(plain))
    assert (code, err) == (0, "")
    code, out2, err2 = run(
        capsys, "verify", "--max-stem", "12", "--out", str(flagged), "--progress"
    )
    assert code == 0
    assert out2 == out
    assert flagged.read_bytes() == plain.read_bytes()
    lines = [json.loads(line) for line in err2.splitlines()]
    assert [line["suite"] for line in lines] == list(SUITES)
    checks = [c for line in lines for c in line["checks"]]
    reports = json.loads(plain.read_text())["reports"]
    assert checks == [[r["check"], r["verdict"]] for r in reports]
    assert all(line["seconds"] >= 0 for line in lines)
    hopf_steps = {"coproducts", "counit_antipode", "coassociativity", "duality"}
    assert [set(line["steps"]) for line in lines] == [hopf_steps] + [set()] * (len(SUITES) - 1)
    assert all(s >= 0 for s in lines[0]["steps"].values())


def test_resolve_progress_changes_no_bytes(tmp_path, capsys, monkeypatch):
    argv = ["resolve", "--module", "sphere", "--max-stem", "20", "--max-filt", "12"]
    code, plain, err = run(capsys, *argv)
    assert (code, err) == (0, "")
    cells = []
    extended = []
    eliminate = resolution.extend_image
    monkeypatch.setattr(
        resolution,
        "extend_image",
        lambda m, vs: cells.append(m) or extended.append(len(vs)) or eliminate(m, vs),
    )
    algebras = []
    new_algebra = cli.MilnorAlgebra
    monkeypatch.setattr(cli, "MilnorAlgebra", lambda n: algebras.append(new_algebra(n)) or algebras[-1])
    code, flagged, err = run(capsys, *argv, "--progress")
    assert code == 0
    assert flagged == plain
    path = tmp_path / "sphere.json"
    code, out, _ = run(capsys, *argv, "--progress", "--out", str(path))
    assert (code, out) == (0, "")
    assert path.read_text() == plain
    lines = [json.loads(line) for line in err.splitlines()]
    assert [line["t"] for line in lines] == list(range(20 + 12 + 1))
    classes = json.loads(plain)["classes"]
    assert sum(line["generators"] for line in lines) == sum(c["mult"] for c in classes)
    # one elimination per visited cell, two runs with the flag
    assert 2 * sum(line["cells"] for line in lines) == len(cells)
    assert all(line["rows"] >= 0 and line["cols"] >= 0 for line in lines)
    # kernel: the vectors each cell extends its image by, two runs again
    assert all(0 <= line["generators"] <= line["kernel"] for line in lines)
    assert 2 * sum(line["kernel"] for line in lines) == sum(extended)
    assert all(line["assembly_s"] >= 0 and line["elimination_s"] >= 0 for line in lines)
    assert all(list(line) == PROGRESS_KEYS for line in lines)
    # the run's algebra is fresh, so the lines count every unit block it holds
    assert all(line["unit_blocks"] >= 0 for line in lines)
    assert sum(line["unit_blocks"] for line in lines) == len(algebras[-1]._rmul) > 0


PROGRESS_KEYS = [
    "t", "cells", "rows", "cols", "kernel", "generators", "unit_blocks", "assembly_s",
    "elimination_s",
]


def test_verify_failed_check_lists_witnesses(tmp_path, capsys, monkeypatch):
    # a failing tower check reaches --out as its report, witnesses and all
    monkeypatch.setattr(KwComplex, "homology_dim", lambda self, q, d: 0)
    path = tmp_path / "kw.json"
    code, out, _ = run(
        capsys, "verify", "--suite", "kw", "--max-stem", "12", "--out", str(path)
    )
    assert code == 1
    assert out.endswith("verdict: fail\n")
    reports = json.loads(path.read_text())["reports"]
    assert {
        "check": "kw_chow",
        "params": {"n": 0, "m": 1, "window": 12},
        "verdict": "fail",
        "witnesses": [{"sharp_at": {"stem": 3, "weight": 2}, "chow": -1, "dim": 0}],
    } in reports


def test_verify_kw_homology_witnesses_reach_out(tmp_path, capsys, monkeypatch):
    # with no homology anywhere, degree 0 misses the quotient A//E(P_{n+1})
    # at each bidegree where it is nonzero, and each miss is one witness
    monkeypatch.setattr(KwComplex, "homology_dim", lambda self, q, d: 0)
    path = tmp_path / "kw.json"
    code, _, _ = run(capsys, "verify", "--suite", "kw", "--max-stem", "12", "--out", str(path))
    assert code == 1
    reports = json.loads(path.read_text())["reports"]
    homology = [r for r in reports if r["check"] == "kw_homology"]
    common = [(4, 1), (4, 2), (5, 2)]
    tail = [(6, 3), (7, 3), (8, 3), (8, 4), (9, 4), (10, 4), (10, 5), (11, 4), (11, 5),
            (12, 5), (12, 6)]
    missed = {
        0: [(0, 0), (1, 0), (3, 1)] + common + tail,
        1: [(0, 0), (1, 0), (2, 1), (3, 1)] + common + [(6, 2)] + tail,
    }
    assert [r["params"] for r in homology] == [
        {"n": n, "m": 3, "window": 12} for n in (0, 1)
    ]
    for n, r in enumerate(homology):
        assert r["verdict"] == "fail"
        assert r["witnesses"] == [
            {"degree": 0, "stem": stem, "weight": weight} for stem, weight in missed[n]
        ]


def test_verify_change_of_rings_witnesses_reach_out(tmp_path, capsys, monkeypatch):
    # an oracle with one class too many fails both charts with the one
    # mismatch, left (the resolution) 0 and right (the oracle) 1
    koszul_chart = verify.koszul_chart

    def one_more(ts, max_stem):
        chart = koszul_chart(ts, max_stem)
        chart.add(1, 2, 0)
        return chart

    monkeypatch.setattr(verify, "koszul_chart", one_more)
    path = tmp_path / "charts.json"
    code, _, _ = run(capsys, "verify", "--suite", "charts", "--max-stem", "12", "--out", str(path))
    assert code == 1
    assert json.loads(path.read_text())["reports"] == [
        {
            "check": "change_of_rings",
            "params": {"n": n, "max_stem": 10, "max_filt": max_filt},
            "verdict": "fail",
            "witnesses": [[{"s": 1, "stem": 2, "weight": 0, "left": 0, "right": 1}]],
        }
        for n, max_filt in ((0, 11), (1, 3))
    ]


def test_verify_non_exterior_action_is_a_failed_report(tmp_path, capsys, monkeypatch):
    # an action whose P_t squares to nonzero fails margolis_exact with the
    # bidegree as witness; the run still writes --out and prints no trace
    op_matrix = AlgebraModule.op_matrix

    def plus_identity(self, a, d):
        m = op_matrix(self, a, d)
        if m.nrows != m.ncols:
            return m
        return BitMatrix(m.ncols, [r ^ (1 << i) for i, r in enumerate(m.rows)])

    monkeypatch.setattr(AlgebraModule, "op_matrix", plus_identity)
    path = tmp_path / "margolis.json"
    code, out, err = run(
        capsys, "verify", "--suite", "margolis", "--max-stem", "12", "--out", str(path)
    )
    assert code == 1
    assert out.endswith("verdict: fail\n")
    assert err == ""
    reports = json.loads(path.read_text())["reports"]
    assert reports[0] == {
        "check": "margolis_exact",
        "params": {"module": "A", "t": 1, "max_stem": 12, "margin": 2, "safe_stem": 10},
        "verdict": "fail",
        "witnesses": [{"identity": "P_t.P_t = 0", "t": 1, "stem": 1, "weight": 0}],
    }


def run_child(argv, timeout):
    """The CLI in a child process, so that a loop that never ends fails the
    test by its timeout instead of hanging the run."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    return subprocess.run(
        [sys.executable, "-m", "wsteenrod.cli", *argv],
        capture_output=True,
        text=True,
        env=env,
        timeout=timeout,
    )


@pytest.mark.parametrize("max_stem", range(7))
def test_verify_small_windows(max_stem):
    proc = run_child(["verify", "--max-stem", str(max_stem)], timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    assert proc.stdout.endswith("verdict: pass\n")


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
        ["verify", "--max-stem", "x"],
        ["algebra", "--max-stem", "-3", "pst", "--t", "1"],
        ["algebra", "pst", "--t", "0"],
        ["algebra", "pst", "--s", "-1", "--t", "1"],
        ["resolve", "--module", "sphere", "--max-filt", "1025"],
    ],
)
def test_hostile_flags_exit_2(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "error: argument" in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["algebra", "--max-filt", "7", "basis", "--stem", "0", "--weight", "0"], "--max-filt"),
        (["algebra", "--max-stem", "7", "-x", "7", "pst", "--t", "1"], "-x"),
        (["verify", "--max-filt", "-2"], "--max-filt"),
        (["verify", "--max-filt", "1025"], "--max-filt"),
    ],
)
def test_unknown_flags_named_exit_2(capsys, argv, flag):
    # only resolve takes --max-filt; an unknown flag before algebra's
    # subcommand is named, not the value after it
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"error: unrecognized arguments: {flag}" in err
    assert "Traceback" not in err


def test_algebra_subcommand_names_match_parser(capsys):
    # main scans algebra's flags up to the first of these names, so a
    # subcommand missing here would have its own flags refused
    with pytest.raises(SystemExit):
        main(["algebra", "--help"])
    assert "{" + ",".join(_ALGEBRA_SUBCOMMANDS) + "}" in capsys.readouterr().out


@pytest.mark.parametrize(
    "argv",
    [
        ["mul", "Q(1000000)", "1"],
        ["pair", "1", "t100000000"],
        ["pst", "--s", "100000000", "--t", "1"],
        ["pst", "--t", "1000"],
        ["mul", "P(" + "9" * 5000 + ")", "1"],
        ["antipode", "x1^" + "9" * 5000],
        ["antipode", "x1000000"],
        ["antipode", "x1^" + "9" * 100],
        ["pair", "Q(0)", "x1"],
    ],
)
def test_hostile_elements_exit_2(argv):
    # indices and exponents far outside the window, and numbers too long to
    # convert, are rejected before any degree is computed; operands of two
    # bidegrees are rejected too
    proc = run_child(["algebra", *argv], timeout=10)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.startswith(("parse error:", "window error:", "bidegree mismatch:"))
    assert len(proc.stderr) < 100
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("huge, small", [("wbp:100000", "wbp:1"), ("kw:1000000000", "kw:3")])
def test_huge_module_index_resolves_fast(capsys, huge, small):
    # at window 12 only P_1 and P_2 fit; an index past the window kills
    # nothing, so it is dropped before its degree 2^(t+1) - 2 is computed
    window = ["--max-stem", "10", "--max-filt", "4"]
    proc = run_child(["resolve", "--module", huge, *window], timeout=10)
    assert proc.returncode == 0, proc.stderr
    _, want, _ = run(capsys, "resolve", "--module", small, *window)
    assert proc.stdout == want.replace(f'"{small}"', f'"{huge}"')


@pytest.mark.parametrize(
    "argv",
    [
        ["algebra", "--max-stem", "100000", "mul", "Q(15)", "1"],
        ["resolve", "--module", "sphere", "--max-stem", "1" + "0" * 20, "--max-filt", "1"],
        ["verify", "--max-stem", "256"],
    ],
)
def test_hostile_window_exit_2(argv):
    # a stem window above the maximum is refused before any table is built
    proc = run_child(argv, timeout=10)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert f"--max-stem: must be <= {MAX_STEM}" in proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize(
    "argv, expected",
    [
        (["--max-stem", "127", "mul", "Q(6)", "1"], "Q(6)\n"),
        (["--max-stem", "255", "mul", "Q(7)", "1"], "Q(7)\n"),
        (["--max-stem", "255", "mul", "Q(6)", "Q(5)"], "Q(5,6)\n"),
    ],
)
def test_single_product_at_large_degree(argv, expected):
    # one product costs its own terms, not a table of its whole bidegree
    proc = run_child(["algebra", *argv], timeout=10)
    assert proc.returncode == 0
    assert proc.stdout == expected
    assert proc.stderr == ""


def test_single_antipode_at_large_degree():
    # one antipode costs its own terms, not the matrix of its whole bidegree
    # (t7 sits in bidegree (255,127), which holds 13,172 monomials)
    argv = ["algebra", "--max-stem", "255"]
    proc = run_child([*argv, "antipode", "x1^100"], timeout=10)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "x1^100\n", "")
    proc = run_child([*argv, "antipode", "t7"], timeout=10)
    assert proc.returncode == 0
    terms = proc.stdout.strip().split(" + ")
    assert len(terms) == 128
    assert terms[0] == "t0 x7"
    proc = run_child([*argv, "conjugate", "Q(5)"], timeout=10)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "Q(5)\n", "")


def test_largest_window_accepted(capsys):
    code, out, _ = run(capsys, "algebra", "--max-stem", str(MAX_STEM), "pst", "--t", "1")
    assert code == 0
    assert out == "P(1)\n"
