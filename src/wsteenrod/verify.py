"""Named verification suites behind the command line and the test suite.

Each suite runs a family of structural checks at the configured window and
returns VerificationReport objects; a suite passes when every report does.
Suites aim for seconds at the default window; the acceptance tests rerun
the demanding ones at their full stated windows.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .charts import compare_charts, koszul_chart
from .classical import classical_product, milnor_product, to_classical
from .milnor import (
    BiDegree,
    MilnorAlgebra,
    SteenrodElement,
    UNIT_MONOMIAL,
    antipode_monomial,
    bidegree_basis,
    coproduct_monomial,
    dual_element,
    enumerate_window_monomials,
    multiply_monomials,
    pst_degree,
    steenrod_element,
    xi_degree,
)
from .modules import (
    AlgebraModule,
    ExteriorProfile,
    InvariantViolation,
    margolis,
    quotient_by_exterior,
)
from .resolution import minimal_resolution
from .towers import (
    VerificationReport,
    k_invariant_check,
    kw_chow_check,
    kw_homology,
    smash_chow_check,
    wbp_complex_check,
    wbp_differential_check,
)


@dataclass
class VerifyConfig:
    max_stem: int = 24
    max_filt: int = 16
    seed: int = 20170927


# ---------------------------------------------------------------------------
# hopf suite


def _triple_coproduct(m, first_left: bool):
    acc: dict = {}
    for a, b in coproduct_monomial(m):
        inner = coproduct_monomial(a) if first_left else coproduct_monomial(b)
        for c, d in inner:
            key = (c, d, b) if first_left else (a, c, d)
            acc[key] = acc.get(key, 0) ^ 1
    return {k for k, v in acc.items() if v}


def suite_hopf(config: VerifyConfig) -> list[VerificationReport]:
    alg = MilnorAlgebra(config.max_stem)
    coassoc = VerificationReport("hopf_coassociativity", {"max_stem": config.max_stem})
    counit = VerificationReport("hopf_counit", {"max_stem": config.max_stem})
    antipode = VerificationReport("hopf_antipode_axiom", {"max_stem": config.max_stem})
    for m in enumerate_window_monomials(config.max_stem):
        if _triple_coproduct(m, True) != _triple_coproduct(m, False):
            coassoc.fail({"monomial": repr(m)})
        left = {b for a, b in coproduct_monomial(m) if a.is_unit}
        right = {a for a, b in coproduct_monomial(m) if b.is_unit}
        if left != {m} or right != {m}:
            counit.fail({"monomial": repr(m)})
        acc: dict = {}
        for a, b in coproduct_monomial(m):
            for cb in antipode_monomial(b):
                t = multiply_monomials(a, cb)
                if t is not None:
                    acc[t] = acc.get(t, 0) ^ 1
        result = {k for k, v in acc.items() if v}
        expected = {UNIT_MONOMIAL} if m.is_unit else set()
        if result != expected:
            antipode.fail({"monomial": repr(m)})

    duality = VerificationReport(
        "product_coproduct_duality",
        {"max_stem": config.max_stem, "samples": 200},
    )
    rng = random.Random(config.seed)
    degrees = [d for d in alg.bidegrees(config.max_stem // 2) if alg.dim(d)]
    for _ in range(200):
        d1 = rng.choice(degrees)
        d2 = rng.choice(degrees)
        if (d1 + d2).stem > config.max_stem:
            continue
        a = SteenrodElement(d1, rng.getrandbits(alg.dim(d1)))
        b = SteenrodElement(d2, rng.getrandbits(alg.dim(d2)))
        ab = alg.product(a, b)
        for m in bidegree_basis(d1 + d2):
            want = 0
            for l, r in coproduct_monomial(m):
                if l.degree == d1:
                    want ^= alg.pair(a, dual_element([l])) & alg.pair(
                        b, dual_element([r])
                    )
            got = alg.pair(ab, dual_element([m]))
            if got != want:
                duality.fail({"monomial": repr(m), "d1": d1, "d2": d2})
    return [coassoc, counit, antipode, duality]


# ---------------------------------------------------------------------------
# pst suite


def suite_pst(config: VerifyConfig) -> list[VerificationReport]:
    alg = MilnorAlgebra(config.max_stem)
    table = VerificationReport("pst_exteriority", {"max_stem": config.max_stem, "pairs": []})
    s = 0
    pairs = []
    while True:
        if 2 * pst_degree(s, 1).stem > config.max_stem:
            break
        t = 1
        while 2 * pst_degree(s, t).stem <= config.max_stem:
            pairs.append((s, t))
            t += 1
        s += 1
    table.params["pairs"] = pairs
    for s, t in pairs:
        el = alg.pst(s, t)
        square = alg.product(el, el)
        if square.is_zero() != (s < t):
            table.fail({"s": s, "t": t, "square_zero": square.is_zero()})

    comm = VerificationReport("pt_commutativity", {"max_stem": config.max_stem})
    ts = [t for t in range(1, 8) if xi_degree(t).stem <= config.max_stem]
    for i, a in enumerate(ts):
        for b in ts[i:]:
            if xi_degree(a).stem + xi_degree(b).stem > config.max_stem:
                continue
            ab = alg.product(alg.pt(a), alg.pt(b))
            ba = alg.product(alg.pt(b), alg.pt(a))
            if ab != ba:
                comm.fail({"s": a, "t": b})

    conj = VerificationReport("conjugation_involution", {"max_stem": min(config.max_stem, 16)})
    for d in alg.bidegrees(min(config.max_stem, 16)):
        for el in alg.basis_functionals(d):
            if alg.conjugate(alg.conjugate(el)) != el:
                conj.fail({"degree": d})
                break
    return [table, comm, conj]


# ---------------------------------------------------------------------------
# classical oracle suite


def suite_classical(config: VerifyConfig, samples: int = 120) -> list[VerificationReport]:
    alg = MilnorAlgebra(config.max_stem)
    report = VerificationReport(
        "classical_oracle",
        {"max_stem": config.max_stem, "samples": samples},
    )
    rng = random.Random(config.seed + 1)
    # eps-free monomials by weight, i.e. the classical image
    by_weight: dict[int, list] = {}
    for m in enumerate_window_monomials(config.max_stem):
        if not m.eps:
            by_weight.setdefault(m.degree.weight, []).append(m)
    weights = sorted(by_weight)
    done = 0
    while done < samples:
        w1 = rng.choice(weights)
        w2 = rng.choice(weights)
        if 2 * (w1 + w2) > config.max_stem:
            continue
        r = rng.choice(by_weight[w1]).r
        s = rng.choice(by_weight[w2]).r
        motivic = alg.product(alg.pR(r), alg.pR(s))
        got = to_classical(motivic)
        want = milnor_product(r, s)
        if got.terms != want.terms:
            report.fail({"r": r, "s": s})
        done += 1
    # multiplicativity on two-term sums exercises bilinearity of the oracle;
    # a window too small to hold a two-term sum times anything samples none
    sum_weights = [w for w in weights if len(by_weight[w]) >= 2]
    fits = sum_weights and 2 * (sum_weights[0] + weights[0]) <= config.max_stem
    sum_samples = 30 if fits else 0
    sums = VerificationReport("classical_oracle_sums", {"samples": sum_samples})
    done = 0
    while done < sum_samples:
        w1 = rng.choice(weights)
        w2 = rng.choice(weights)
        if 2 * (w1 + w2) > config.max_stem or len(by_weight[w1]) < 2:
            continue
        picks = rng.sample(by_weight[w1], 2)
        a = steenrod_element(picks, BiDegree(2 * w1, w1))
        b = alg.pR(rng.choice(by_weight[w2]).r)
        got = to_classical(alg.product(a, b))
        want = classical_product(to_classical(a), to_classical(b))
        if got.terms != want.terms:
            sums.fail({"a": [p.r for p in picks], "b": b.dual_monomials()[0].r})
        done += 1
    return [report, sums]


# ---------------------------------------------------------------------------
# margolis suite


def suite_margolis(config: VerifyConfig) -> list[VerificationReport]:
    alg = MilnorAlgebra(config.max_stem)
    module = AlgebraModule(alg)
    out = []
    t = 1
    while 2 * xi_degree(t).stem <= config.max_stem:
        rep = margolis(module, t)
        r = VerificationReport(
            "margolis_exact",
            {
                "module": "A",
                "t": t,
                "max_stem": rep.max_stem,
                "margin": rep.margin,
                "safe_stem": rep.safe_stem,
            },
        )
        if not rep.is_zero():
            r.fail(rep.to_json()["dims"])
        out.append(r)
        t += 1
    return out


# ---------------------------------------------------------------------------
# kw and wbp suites


def _guarded(fn, check: str, params: dict) -> VerificationReport:
    """Run a check that raises on failure, converting to a failed report."""
    try:
        result = fn()
    except InvariantViolation as exc:
        return VerificationReport(check, params, False, [str(exc)])
    if isinstance(result, VerificationReport):
        return result
    return VerificationReport(check, params, result.verdict, result.to_json()["witnesses"])


def suite_kw(config: VerifyConfig) -> list[VerificationReport]:
    alg = MilnorAlgebra(config.max_stem)
    out = []
    n = 0
    while 2 * xi_degree(n + 1).stem <= config.max_stem:
        # bottom homology of the truncated tower complex is the quotient,
        # interior degrees vanish
        hom = kw_homology(alg, n, 3)
        q = quotient_by_exterior(ExteriorProfile.of(n + 1), alg)
        r = VerificationReport("kw_homology", {"n": n, "m": 3, "window": config.max_stem})
        dims0 = hom.dims_at(0)
        for d in alg.bidegrees(hom.safe_coefficient_stem(0)):
            if dims0.get(d, 0) != q.dim(d):
                r.fail({"degree": 0, "stem": d.stem, "weight": d.weight})
        for interior in (1, 2):
            for d, v in hom.dims_at(interior).items():
                r.fail({"degree": interior, "stem": d.stem, "weight": d.weight, "dim": v})
        out.append(r)
        for m in (0, 1, 2, 3, 4):
            out.append(
                _guarded(
                    lambda n=n, m=m: kw_chow_check(alg, n, m),
                    "kw_chow",
                    {"n": n, "m": m},
                )
            )
            if m >= 1:
                out.append(
                    _guarded(
                        lambda n=n, m=m: k_invariant_check(alg, n, m),
                        "k_invariant",
                        {"n": n, "m": m},
                    )
                )
        n += 1
    return out


def suite_wbp(config: VerifyConfig) -> list[VerificationReport]:
    alg = MilnorAlgebra(config.max_stem)
    out = []
    # the differential identities are about P_1, which must fit the window
    if xi_degree(1).stem <= config.max_stem:
        out.append(
            _guarded(
                lambda: wbp_differential_check(alg, i_max=2),
                "wbp_differential",
                {"window": config.max_stem},
            )
        )
    out.append(
        _guarded(
            lambda: wbp_complex_check(alg, i_max=3),
            "wbp_complex",
            {"window": config.max_stem},
        )
    )
    for n in (0, 1):
        if xi_degree(n + 1).stem * 2 <= config.max_stem:
            out.append(
                _guarded(
                    lambda n=n: smash_chow_check(alg, n, 2, min(config.max_stem, 14)),
                    "smash_chow",
                    {"n": n, "power": 2},
                )
            )
    return out


# ---------------------------------------------------------------------------
# chart suite (change of rings)


def suite_charts(config: VerifyConfig) -> list[VerificationReport]:
    out = []
    chart_stem = min(config.max_stem - 2, 12)
    if chart_stem < 0:
        # the resolution needs the algebra two stems past the chart, so a
        # window below 2 holds no chart
        return []
    for n in (0, 1):
        alg = MilnorAlgebra(chart_stem + 2)
        module = quotient_by_exterior(ExteriorProfile.of(n + 1), alg)
        max_filt = min(chart_stem // max(w_stem(n), 1) + 1, config.max_filt)
        _, chart = minimal_resolution(module, chart_stem, max_filt)
        oracle = koszul_chart((n + 1,), chart_stem)
        diff = compare_charts(chart, oracle, chart_stem, max_filt)
        r = VerificationReport(
            "change_of_rings",
            {"n": n, "max_stem": chart_stem, "max_filt": max_filt},
        )
        if not diff.is_empty():
            r.fail(diff.to_json()["mismatches"])
        out.append(r)
    return out


def w_stem(n: int) -> int:
    return xi_degree(n + 1).stem - 1


SUITES = {
    "hopf": suite_hopf,
    "pst": suite_pst,
    "classical": suite_classical,
    "margolis": suite_margolis,
    "kw": suite_kw,
    "wbp": suite_wbp,
    "charts": suite_charts,
}


def suite_names(names: list[str]) -> list[str]:
    """The suites to run for ``names``, with ``["all"]`` expanded.

    Raises ValueError naming the first unknown suite.
    """
    if names == ["all"]:
        return list(SUITES)
    for name in names:
        if name not in SUITES:
            raise ValueError(f"unknown suite {name!r}; choose from {sorted(SUITES)} or 'all'")
    return names


def run_suites(names: list[str], config: VerifyConfig) -> tuple[list[VerificationReport], bool]:
    """Run the named suites in order; every name is checked before any runs."""
    reports: list[VerificationReport] = []
    for name in suite_names(names):
        reports.extend(SUITES[name](config))
    return reports, all(r.verdict for r in reports)
