"""Named verification suites behind the command line and the test suite.

Each suite runs a family of structural checks at the configured window and
returns VerificationReport objects; a suite passes when every report does.
Suites aim for seconds at the default window; the acceptance tests rerun
the demanding ones at their full stated windows.  The tower checks
(``towers``) and the classical oracle (``classical``) are imported by the
suites that run them, so importing this module loads neither.
"""

from __future__ import annotations

import random
import time
from bisect import bisect_right
from typing import Callable

from .charts import compare_charts, koszul_chart, w_class_degree
from .milnor import (
    CODE_BITS,
    MAX_STEM,
    TAU_MASK,
    BiDegree,
    BidegreeMismatch,
    MilnorAlgebra,
    SteenrodElement,
    antipode_monomial,
    bidegree_basis,
    coproduct_monomial,
    enumerate_window_monomials,
    monomial_code,
    pst_degree,
    steenrod_element,
    xi_degree,
)
from .modules import AlgebraModule, NotExterior, QuotientModule, margolis
from .resolution import minimal_resolution


class VerificationReport:
    """One named check: its parameters, verdict and failure witnesses.

    Serializes to {"check", "params", "verdict", "witnesses"}; a holder
    that the check fills in, so it compares by identity.
    """

    __slots__ = ("check", "params", "verdict", "witnesses")

    def __init__(self, check: str, params: dict, verdict: bool = True, witnesses=None):
        self.check = check
        self.params = params
        self.verdict = verdict
        self.witnesses = [] if witnesses is None else witnesses

    def fail(self, witness) -> None:
        """Mark the check failed, with one more witness."""
        self.verdict = False
        self.witnesses.append(witness)

    def to_json(self) -> dict:
        return {
            "check": self.check,
            "params": self.params,
            "verdict": "pass" if self.verdict else "fail",
            "witnesses": self.witnesses,
        }

    def __repr__(self) -> str:
        return (
            f"VerificationReport(check={self.check!r}, params={self.params!r}, "
            f"verdict={self.verdict!r}, witnesses={self.witnesses!r})"
        )


class VerifyConfig:
    """The window and random seed every suite reads.

    ``steps`` is where a suite records the seconds of its steps (the Hopf
    suite's, by step name); run_suites empties it before each suite and
    puts it in that suite's progress line.  No report carries it.
    """

    __slots__ = ("max_stem", "seed", "steps")

    def __init__(self, max_stem: int, seed: int = 20170927):
        self.max_stem = max_stem
        self.seed = seed
        self.steps: dict[str, float] = {}


# ---------------------------------------------------------------------------
# hopf suite


def _multiplicative(table: dict, taus: int, generators: list[int]) -> bool:
    """Whether a map on codes is the algebra map its generator values fix:
    it takes 1 to 1, every value is strictly ascending, table[m] = table[g]
    . table[m / g] for every other m, g its lowest generator, and each term
    of a table[tau_i] holds a bit of taus, so that table[tau_i]^2 = 0.

    The largest generator code at or below the lowest set bit of m's code
    is g: that bit is m's lowest tau or the low bit of its lowest xi's
    field.  The product sums codes and drops a pair with a common bit of
    taus.
    """
    tau_terms = [p for g in generators if g <= TAU_MASK for p in table[g]]
    if table[0] != (0,) or not all(p & taus for p in tau_terms):
        return False
    for cm, terms in table.items():
        if not cm:
            continue
        g = generators[bisect_right(generators, cm & -cm) - 1]
        if g == cm:
            product = set(terms)
        else:
            product = set()
            rest = table[cm - g]
            for x in table[g]:
                product.symmetric_difference_update([x + y for y in rest if not x & y & taus])
        if sorted(product) != list(terms):
            return False
    return True


def _coassociative(pairs: dict, cm: int) -> bool:
    """Whether (D (x) 1) D and (1 (x) D) D agree on the monomial of code cm.

    Both sides are XORed into one set of packed triples, which is empty
    iff they agree.  symmetric_difference_update makes a set of its
    argument first, so each call takes one term's triples of one side: two
    terms, or two sides, may share a triple, and in one call that triple
    would count once instead of cancelling.
    """
    low = (1 << CODE_BITS) - 1
    diff: set[int] = set()
    for p in pairs[cm]:
        left, right = p >> CODE_BITS, p & low
        d_left, d_right = pairs.get(left), pairs.get(right)
        if d_left is None or d_right is None:  # a factor outside the window
            return False
        high = left << 2 * CODE_BITS
        diff.symmetric_difference_update([q << CODE_BITS | right for q in d_left])
        diff.symmetric_difference_update([high | q for q in d_right])
    return not diff


def _antipode_axiom(pairs: dict, antipodes: dict, cm: int) -> bool:
    """Whether sum m_(1) S(m_(2)) is the counit of the monomial of code cm;
    a product with a common tau is zero."""
    low = (1 << CODE_BITS) - 1
    total: set[int] = set()
    for p in pairs[cm]:
        left, s_right = p >> CODE_BITS, antipodes.get(p & low)
        if s_right is None:  # a right factor outside the window
            return False
        total.symmetric_difference_update([left + c for c in s_right if not left & c & TAU_MASK])
    return total == ({0} if not cm else set())


def _name_witnesses(report: VerificationReport, window, holds: Callable[[int], bool]) -> None:
    """Fail report with each window monomial whose code holds rejects."""
    for m, cm in window:
        if not holds(cm):
            report.fail({"monomial": repr(m)})


def suite_hopf(config: VerifyConfig) -> list[VerificationReport]:
    """Coassociativity, counit, antipode axiom and product-coproduct duality
    on every monomial of the window; config.steps gets the seconds of the
    coproduct build, counit and antipode, coassociativity and duality.

    When the cached D and S are multiplicative (_multiplicative), (D (x) 1)
    D and (1 (x) D) D are algebra maps, and so are m -> sum m_(1) S(m_(2))
    and the counit, the dual being commutative; each pair agrees on the
    window once it agrees on the generators xi_j and tau_i.  So each axiom
    is checked on the generators, and per monomial only when that proof
    fails, to name the witnesses.

    The checks read milnor's packed codes (CODE_BITS bits a monomial): a
    coproduct term c (x) d is ``c << CODE_BITS | d``, as coproduct_monomial
    caches it, and a triple c (x) d (x) e is ``c << 2*CODE_BITS | d <<
    CODE_BITS | e``, so a triple is one term shifted by CODE_BITS with a
    code added below or above it.  The unit's code is 0, so a term with a
    unit factor is below 1 << CODE_BITS (unit left) or has no bits below it
    (unit right), which is how the counit check finds them.  A term with a
    factor that is no window monomial's code fails its monomial's
    coassociativity check, and its antipode check when that factor is on
    the right, instead of raising.
    """
    clock = time.perf_counter
    steps = config.steps
    start = clock()
    alg = MilnorAlgebra(config.max_stem)
    coassoc = VerificationReport("hopf_coassociativity", {"max_stem": config.max_stem})
    counit = VerificationReport("hopf_counit", {"max_stem": config.max_stem})
    antipode = VerificationReport("hopf_antipode_axiom", {"max_stem": config.max_stem})
    window = [(m, monomial_code(m)) for m in enumerate_window_monomials(config.max_stem)]
    generators = sorted(cm for m, cm in window if len(m.eps) + sum(m.r) == 1)
    low = (1 << CODE_BITS) - 1
    # by code: the cached coproduct terms, ascending
    pairs = {cm: coproduct_monomial(m) for m, cm in window}
    steps["coproducts"] = clock() - start
    start = clock()
    antipodes = {cm: antipode_monomial(m) for m, cm in window}
    for m, cm in window:
        # the terms with a unit factor are 1 (x) m and m (x) 1, once each
        units = sorted(p for p in pairs[cm] if p <= low or not p & low)
        if units != ([cm, cm << CODE_BITS] if cm else [0]):
            counit.fail({"monomial": repr(m)})
    # with every code a window code and 2 * max_stem <= MAX_STEM, no code
    # sum below carries, so the packed products are the algebra's
    d_map = (
        2 * config.max_stem <= MAX_STEM
        and all(p >> CODE_BITS in pairs and p & low in pairs for t in pairs.values() for p in t)
        and _multiplicative(pairs, TAU_MASK << CODE_BITS | TAU_MASK, generators)
    )
    s_map = (
        d_map
        and all(c in pairs for t in antipodes.values() for c in t)
        and _multiplicative(antipodes, TAU_MASK, generators)
    )
    if not (s_map and all(_antipode_axiom(pairs, antipodes, g) for g in generators)):
        _name_witnesses(antipode, window, lambda cm: _antipode_axiom(pairs, antipodes, cm))
    steps["counit_antipode"] = clock() - start
    start = clock()
    if not (d_map and all(_coassociative(pairs, g) for g in generators)):
        _name_witnesses(coassoc, window, lambda cm: _coassociative(pairs, cm))
    steps["coassociativity"] = clock() - start
    start = clock()

    duality = VerificationReport(
        "product_coproduct_duality",
        {"max_stem": config.max_stem, "samples": 200},
    )
    rng = random.Random(config.seed)
    degrees = [d for d in alg.bidegrees(config.max_stem // 2) if alg.dim(d)]
    basis_codes = {d: [monomial_code(m) for m in bidegree_basis(d)] for d in degrees}
    for _ in range(200):
        d1 = rng.choice(degrees)
        d2 = rng.choice(degrees)
        a = SteenrodElement(d1, rng.getrandbits(alg.dim(d1)))
        b = SteenrodElement(d2, rng.getrandbits(alg.dim(d2)))
        ab = alg.product(a, b)
        # <a.b, m> is the parity of the terms of D(m) in supp(a) (x) supp(b)
        lefts = [c << CODE_BITS for i, c in enumerate(basis_codes[d1]) if a.bits >> i & 1]
        rights = [c for j, c in enumerate(basis_codes[d2]) if b.bits >> j & 1]
        support = {l | r for l in lefts for r in rights}
        for i, m in enumerate(bidegree_basis(d1 + d2)):
            want = len(support.intersection(coproduct_monomial(m))) & 1
            got = (ab.bits >> i) & 1
            if got != want:
                duality.fail({"monomial": repr(m), "d1": d1, "d2": d2})
    steps["duality"] = clock() - start
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
            try:
                involution = alg.conjugate(alg.conjugate(el)) == el
            except BidegreeMismatch:  # an antipode leaving its bidegree
                involution = False
            if not involution:
                conj.fail({"degree": d})
                break
    return [table, comm, conj]


# ---------------------------------------------------------------------------
# classical oracle suite


def suite_classical(config: VerifyConfig) -> list[VerificationReport]:
    from .classical import classical_product, milnor_product, to_classical

    samples = 120
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
        margin = xi_degree(t).stem
        r = VerificationReport(
            "margolis_exact",
            {
                "module": "A",
                "t": t,
                "max_stem": config.max_stem,
                "margin": margin,
                "safe_stem": config.max_stem - margin,
            },
        )
        # a failed exteriority check is a failed report, not an abort
        try:
            dims = margolis(module, t)
        except NotExterior as exc:
            d = exc.degree
            r.fail({"identity": "P_t.P_t = 0", "t": t, "stem": d.stem, "weight": d.weight})
        else:
            if dims:
                r.fail([
                    {"stem": d.stem, "weight": d.weight, "dim": v}
                    for d, v in sorted(dims.items())
                ])
        out.append(r)
        t += 1
    return out


# ---------------------------------------------------------------------------
# kw and wbp suites


def suite_kw(config: VerifyConfig) -> list[VerificationReport]:
    from .towers import k_invariant_check, kw_chow_check, kw_homology

    alg = MilnorAlgebra(config.max_stem)
    out = []
    n = 0
    while 2 * xi_degree(n + 1).stem <= config.max_stem:
        # bottom homology of the truncated tower complex is the quotient,
        # interior degrees vanish
        hom = kw_homology(alg, n, 3)
        q = QuotientModule(alg, (n + 1,))
        r = VerificationReport("kw_homology", {"n": n, "m": 3, "window": config.max_stem})
        for d in alg.bidegrees(config.max_stem):
            if hom[0].get(d, 0) != q.dim(d):
                r.fail({"degree": 0, "stem": d.stem, "weight": d.weight})
        for interior in (1, 2):
            for d, v in hom[interior].items():
                r.fail({"degree": interior, "stem": d.stem, "weight": d.weight, "dim": v})
        out.append(r)
        for m in (0, 1, 2, 3, 4):
            out.append(kw_chow_check(alg, n, m))
            if m >= 1:
                out.append(k_invariant_check(alg, n, m))
        n += 1
    return out


def suite_wbp(config: VerifyConfig) -> list[VerificationReport]:
    from .towers import smash_chow_check, wbp_complex_check, wbp_differential_check

    alg = MilnorAlgebra(config.max_stem)
    out = []
    # the differential identities are about P_1, which must fit the window;
    # they conjugate, so an antipode leaving its bidegree fails the report
    if xi_degree(1).stem <= config.max_stem:
        try:
            out.append(wbp_differential_check(alg, i_max=2))
        except BidegreeMismatch as exc:
            params = {"i_max": 2, "window": config.max_stem}
            out.append(VerificationReport("wbp_differential", params, False, [str(exc)]))
    out.append(wbp_complex_check(alg, i_max=3))
    # smash_chow checks its algebra's whole window, held at 14 for every max_stem
    small = MilnorAlgebra(min(config.max_stem, 14))
    for n in (0, 1):
        if xi_degree(n + 1).stem * 2 <= config.max_stem:
            out.append(smash_chow_check(small, n, 2))
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
        module = QuotientModule(alg, (n + 1,))
        max_filt = chart_stem // w_class_degree(n).stem + 1
        _, chart = minimal_resolution(module, chart_stem, max_filt)
        oracle = koszul_chart((n + 1,), chart_stem)
        mismatches = compare_charts(chart, oracle, chart_stem, max_filt)
        r = VerificationReport(
            "change_of_rings",
            {"n": n, "max_stem": chart_stem, "max_filt": max_filt},
        )
        if mismatches:
            r.fail([
                {"s": s, "stem": stem, "weight": weight, "left": a, "right": b}
                for (s, stem, weight), a, b in mismatches
            ])
        out.append(r)
    return out


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


def run_suites(
    names: list[str], config: VerifyConfig, progress: Callable[[dict], None] | None = None
) -> tuple[list[VerificationReport], bool]:
    """Run the named suites in order; every name is checked before any runs.

    ``progress``, when given, is called after each suite with a plain dict:
    the suite name, its seconds, the seconds of its steps (config.steps;
    empty for a suite without steps), and [check, verdict] for each report.
    """
    reports: list[VerificationReport] = []
    for name in suite_names(names):
        start = time.perf_counter()
        config.steps.clear()
        done = SUITES[name](config)
        if progress is not None:
            progress({
                "suite": name,
                "seconds": round(time.perf_counter() - start, 3),
                "steps": {step: round(s, 3) for step, s in config.steps.items()},
                "checks": [[r.check, "pass" if r.verdict else "fail"] for r in done],
            })
        reports.extend(done)
    return reports, all(r.verdict for r in reports)
