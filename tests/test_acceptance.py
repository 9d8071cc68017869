"""Acceptance criteria, one test per criterion, exact equality throughout.

Each test prints one PASS/FAIL line (visible with pytest -s or in captured
output).  Windows follow the stated bounds; the backing algebra window is
two stems above a resolution's chart window by the resolver's contract.
"""

import random
from contextlib import contextmanager

from wsteenrod import algebra as shared_algebra
from wsteenrod.charts import compare_charts, koszul_chart, polynomial_chart, w_class_degree
from wsteenrod.classical import milnor_product, to_classical
from wsteenrod.milnor import enumerate_window_monomials, pst_degree, xi_degree
from wsteenrod.modules import AlgebraModule, QuotientModule, margolis
from wsteenrod.resolution import minimal_resolution
from wsteenrod.towers import (
    k_invariant_check,
    kw_chow_check,
    smash_chow_check,
    wbp_complex_check,
    wbp_differential_check,
)
from wsteenrod.verify import VerifyConfig, suite_hopf


@contextmanager
def criterion(num: int, text: str):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {num:02d} [FAIL] {text}")
        raise
    print(f"ACCEPTANCE {num:02d} [PASS] {text}")


def test_criterion_01_hopf_axioms():
    with criterion(1, "Hopf axioms for every monomial with stem <= 24"):
        reports = suite_hopf(VerifyConfig(max_stem=24))
        for r in reports:
            assert r.verdict, (r.check, r.witnesses[:3])


def test_criterion_02_pst_exteriority():
    with criterion(2, "P^s_t squares vanish iff s < t, 2|P^s_t| stem <= 24"):
        alg = shared_algebra(24)
        pairs = []
        s = 0
        while 2 * pst_degree(s, 1).stem <= 24:
            t = 1
            while 2 * pst_degree(s, t).stem <= 24:
                pairs.append((s, t))
                t += 1
            s += 1
        assert (0, 1) in pairs and (2, 1) in pairs and (1, 2) in pairs
        for s, t in pairs:
            el = alg.pst(s, t)
            assert alg.product(el, el).is_zero() == (s < t), (s, t)


def test_criterion_03_pt_commutativity():
    with criterion(3, "P_s P_t = P_t P_s for combined stem <= 30"):
        alg = shared_algebra(30)
        ts = [t for t in range(1, 6) if xi_degree(t).stem <= 30]
        checked = 0
        for a in ts:
            for b in ts:
                if xi_degree(a).stem + xi_degree(b).stem > 30:
                    continue
                assert alg.product(alg.pt(a), alg.pt(b)) == alg.product(
                    alg.pt(b), alg.pt(a)
                ), (a, b)
                checked += 1
        assert checked >= 9  # covers {1,2,3} at least


def test_criterion_04_margolis_exactness():
    with criterion(4, "H(A; P_t) = 0 for t = 1,2,3 in stems <= 30 - |P_t|"):
        alg = shared_algebra(30)
        module = AlgebraModule(alg)
        for t in (1, 2, 3):
            dims = margolis(module, t)
            assert dims == {}, (t, dims)


def test_criterion_05_kw_ext_charts():
    with criterion(5, "kw_n Ext equals the Koszul chart (n=0,1 @24; n=2 @28)"):
        for n, stems in ((0, 24), (1, 24), (2, 28)):
            alg = shared_algebra(stems + 2)
            module = QuotientModule(alg, (n + 1,))
            # a little filtration headroom beyond the last expected class,
            # so spurious higher-filtration classes would be caught
            max_filt = stems // w_class_degree(n).stem + 3
            _, chart = minimal_resolution(module, stems, max_filt)
            oracle = koszul_chart((n + 1,), stems)
            mismatches = compare_charts(chart, oracle, stems, max_filt)
            assert mismatches == [], (n, mismatches[:5])
            # equivalently, classes exactly at (s, s(2^{n+2}-3), s(2^{n+1}-1))
            wn = w_class_degree(n)
            assert wn == (2 ** (n + 2) - 3, 2 ** (n + 1) - 1)
            expected = {
                (s, s * wn.stem, s * wn.weight): 1
                for s in range(stems // wn.stem + 1)
                if s <= max_filt
            }
            assert chart.classes == expected, n


def test_criterion_06_wbp_ext_chart():
    with criterion(6, "wBP Ext matches F2[w_0,w_1,w_2] additively, stems <= 20"):
        alg = shared_algebra(22)
        module = QuotientModule(alg, range(1, 23))
        assert module.ts == (1, 2, 3)
        _, chart = minimal_resolution(module, 20, 22)
        oracle = polynomial_chart([w_class_degree(n) for n in (0, 1, 2)], 20)
        # w_3 first appears at stem 29, beyond this window
        assert w_class_degree(3).stem == 29
        mismatches = compare_charts(chart, oracle, 20, 22)
        assert mismatches == [], mismatches[:5]


def test_criterion_07_kw_tower_checks():
    with criterion(7, "kw Chow vanishing/sharpness and k-invariants, n<=2 m<=4"):
        alg = shared_algebra(30)
        for n in (0, 1, 2):
            for m in (0, 1, 2, 3, 4):
                rep = kw_chow_check(alg, n, m)
                assert rep.verdict, (n, m)
            for m in (1, 2, 3, 4):
                rep = k_invariant_check(alg, n, m)
                assert rep.verdict and rep.witnesses[0] == {"square_zero": True}, (n, m)


def test_criterion_08_wbp_complex():
    with criterion(8, "wBP complex: d^2 = 0 (i<=3), resolution in stems <= 24"):
        alg = shared_algebra(24)
        rep = wbp_complex_check(alg, 3)
        assert rep.verdict, rep.witnesses[:5]


def test_criterion_09_conjugation_identities():
    with criterion(9, "conjugation identities through j = 4 at window 32"):
        alg = shared_algebra(32)
        rep = wbp_differential_check(alg, i_max=3)
        assert rep.verdict, rep.witnesses[:5]
        assert set(rep.params["covered_j"]) >= {2, 3, 4}
        assert rep.params["sequences_checked"] >= 4


def test_criterion_10_classical_oracle():
    with criterion(10, "to_classical multiplicative on 120 random pairs <= 24"):
        alg = shared_algebra(24)
        rng = random.Random(20260810)
        by_weight: dict[int, list] = {}
        for m in enumerate_window_monomials(24):
            if not m.eps:
                by_weight.setdefault(m.degree.weight, []).append(m)
        weights = sorted(by_weight)
        checked = 0
        while checked < 120:
            w1, w2 = rng.choice(weights), rng.choice(weights)
            if 2 * (w1 + w2) > 24:
                continue
            r = rng.choice(by_weight[w1]).r
            s = rng.choice(by_weight[w2]).r
            got = to_classical(alg.product(alg.pR(r), alg.pR(s)))
            assert got.terms == milnor_product(r, s).terms, (r, s)
            checked += 1
        assert checked >= 100


def test_criterion_11_smash_chow():
    with criterion(11, "smash squares and cubes of kw quotients, n <= 1"):
        for n in (0, 1):
            assert smash_chow_check(shared_algebra(14), n, 2).verdict, n
            assert smash_chow_check(shared_algebra(10), n, 3).verdict, n


def test_criterion_12_cli_contract(tmp_path, capsys):
    with criterion(12, "CLI round trips, deterministic bytes, verify all"):
        from wsteenrod.cli import main

        chart_path = tmp_path / "kw0.json"
        for run in range(2):
            out = tmp_path / f"kw0-{run}.json"
            assert (
                main(
                    [
                        "resolve",
                        "--module",
                        "kw:0",
                        "--max-stem",
                        "8",
                        "--max-filt",
                        "9",
                        "--out",
                        str(out),
                    ]
                )
                == 0
            )
        assert (tmp_path / "kw0-0.json").read_bytes() == (
            tmp_path / "kw0-1.json"
        ).read_bytes()
        chart_path.write_bytes((tmp_path / "kw0-0.json").read_bytes())
        svgs, tsvs = [], []
        for run in range(2):
            svg = tmp_path / f"c{run}.svg"
            tsv = tmp_path / f"c{run}.tsv"
            rejson = tmp_path / f"c{run}.json"
            assert (
                main(
                    [
                        "chart",
                        "--in",
                        str(chart_path),
                        "--svg",
                        str(svg),
                        "--tsv",
                        str(tsv),
                        "--json",
                        str(rejson),
                    ]
                )
                == 0
            )
            svgs.append(svg.read_bytes())
            tsvs.append(tsv.read_bytes())
            assert rejson.read_bytes() == chart_path.read_bytes()
        assert svgs[0] == svgs[1]
        assert tsvs[0] == tsvs[1]
        assert main(["verify", "--suite", "all"]) == 0
        capsys.readouterr()
