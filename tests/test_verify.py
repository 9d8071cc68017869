import json
import sys
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from wsteenrod import milnor, verify
from wsteenrod.cli import main
from wsteenrod.milnor import (
    CODE_BITS,
    TAU_MASK,
    UNIT_MONOMIAL,
    BiDegree,
    DualMonomial,
    antipode_monomial,
    bidegree_basis,
    coproduct_monomial,
    enumerate_window_monomials,
    monomial,
    monomial_code,
    tau_monomial,
    xi_monomial,
)
from wsteenrod.verify import VerifyConfig, suite_hopf, suite_kw


def pair_code(left, right):
    """The packed coproduct term left (x) right."""
    return monomial_code(left) << CODE_BITS | monomial_code(right)


TARGET = monomial((1,), (2, 1))  # tau_1 xi_1^2 xi_2, stem 13


def _hopf_failures(monkeypatch, coproduct=None, antipode=None):
    """(check, witness count) of the failing Hopf checks at window 20, with
    the coproduct or antipode of TARGET replaced."""
    with monkeypatch.context() as mp:
        if coproduct is not None:
            mp.setattr(
                verify,
                "coproduct_monomial",
                lambda m: coproduct if m == TARGET else coproduct_monomial(m),
            )
        if antipode is not None:
            mp.setattr(
                verify,
                "antipode_monomial",
                lambda m: antipode if m == TARGET else antipode_monomial(m),
            )
        reports = suite_hopf(VerifyConfig(max_stem=20))
    return [(r.check, len(r.witnesses)) for r in reports if not r.verdict]


def test_hopf_suite_sees_broken_structure(monkeypatch):
    assert _hopf_failures(monkeypatch) == []
    terms = coproduct_monomial(TARGET)
    left, right = xi_monomial(1), monomial((0,), (2, 1))
    term = pair_code(left, right)
    k = terms.index(term)
    both = [("hopf_coassociativity", 15), ("hopf_antipode_axiom", 1)]
    assert _hopf_failures(monkeypatch, coproduct=terms[:k] + terms[k + 1:]) == both
    swapped = terms[:k] + (pair_code(right, left),) + terms[k + 1:]
    assert _hopf_failures(monkeypatch, coproduct=swapped) == both
    extra = tuple(sorted(antipode_monomial(TARGET) + (monomial_code(monomial((2,), (0, 1))),)))
    assert _hopf_failures(monkeypatch, antipode=extra) == [("hopf_antipode_axiom", 9)]
    # a term with a factor that is no window monomial's code fails, and
    # does not crash, the checks that look the factor up
    outside = xi_monomial(1, 11)  # stem 22
    for stray in (pair_code(left, outside), pair_code(outside, left)):
        broken = tuple(sorted(terms + (stray,)))
        assert _hopf_failures(monkeypatch, coproduct=broken) == both


def two_set_coassociativity(max_stem, coproduct):
    """The witnesses of the monomials where (D (x) 1) D and (1 (x) D) D
    differ, each side built as its own XOR set of packed triples and the
    two sets compared: the reference for suite_hopf's one-set check."""
    low = (1 << CODE_BITS) - 1
    window = [(m, monomial_code(m)) for m in enumerate_window_monomials(max_stem)]
    factors = {cm: coproduct(m) for m, cm in window}
    failing = []
    for m, cm in window:
        left: set[int] = set()
        right: set[int] = set()
        for p in factors[cm]:
            pa, pb = p >> CODE_BITS, p & low
            left.symmetric_difference_update([q << CODE_BITS | pb for q in factors[pa]])
            right.symmetric_difference_update([pa << 2 * CODE_BITS | q for q in factors[pb]])
        if left != right:
            failing.append({"monomial": repr(m)})
    return failing


def _patch_fallback(mp, refuse=False):
    """Record the checks whose per-monomial loop runs, in order; with
    refuse, a loop that starts raises instead."""
    ran = []
    name_witnesses = verify._name_witnesses

    def fallback(report, window, holds):
        if refuse:
            raise AssertionError(f"{report.check} ran its per-monomial loop")
        ran.append(report.check)
        name_witnesses(report, window, holds)

    mp.setattr(verify, "_name_witnesses", fallback)
    return ran


def _replaced(table, target, broken):
    """table with broken in place of its value on target."""
    return lambda m: broken if m == target else table(m)


def _swapped(terms, left, right):
    """terms with left (x) right turned into right (x) left."""
    k = terms.index(pair_code(left, right))
    return tuple(sorted(terms[:k] + (pair_code(right, left),) + terms[k + 1:]))


def _coproducts_with_faulty_delta_tau(monkeypatch, max_stem):
    """The window's coproducts built from D(tau_i) without 1 (x) tau_i:
    multiplicative, but wrong on each tau_i, so only the generators'
    coassociativity and antipode checks see the fault."""
    delta_tau = milnor._delta_tau
    with monkeypatch.context() as mp:
        mp.setattr(milnor, "_delta_tau", lambda i: delta_tau(i)[:-1])
        coproduct_monomial.cache_clear()
        table = {m: coproduct_monomial(m) for m in enumerate_window_monomials(max_stem)}
    coproduct_monomial.cache_clear()
    return table.__getitem__


def test_coassociativity_matches_two_set_reference(monkeypatch):
    terms = coproduct_monomial(TARGET)
    left, right = xi_monomial(1), monomial((0,), (2, 1))
    k = terms.index(pair_code(left, right))
    added = (xi_monomial(2), monomial((0,), (0, 1)))
    assert pair_code(*added) not in terms
    assert added[0].degree + added[1].degree == TARGET.degree
    stray = next(m for m in bidegree_basis(TARGET.degree) if m != TARGET)
    unit = UNIT_MONOMIAL
    xi1, xi2, tau1, xi1_sq = xi_monomial(1), xi_monomial(2), tau_monomial(1), xi_monomial(1, 2)
    cases = {
        "unbroken": (TARGET, terms),
        "drop": (TARGET, terms[:k] + terms[k + 1:]),
        "swap": (TARGET, terms[:k] + (pair_code(right, left),) + terms[k + 1:]),
        "add": (TARGET, tuple(sorted(terms + (pair_code(*added),)))),
        # the counit fails, so the suite reads the full coproducts
        "drop counit term": (TARGET, tuple(t for t in terms if t != pair_code(TARGET, unit))),
        "stray unit term": (TARGET, tuple(sorted(terms + (pair_code(unit, stray),)))),
        # the counit holds, but D(1) is not 1 (x) 1 alone
        "unit": (unit, (0, pair_code(xi_monomial(1), xi_monomial(1)))),
        # a generator's coproduct broken with the counit intact
        "swap in D(xi_2)": (xi2, _swapped(coproduct_monomial(xi2), xi1_sq, xi1)),
        "swap in D(tau_1)": (tau1, _swapped(coproduct_monomial(tau1), xi1, tau_monomial(0))),
        # D(xi_1^2) + xi_1 (x) xi_1 is coassociative but not D(xi_1)^2
        "not multiplicative": (
            xi1_sq,
            tuple(sorted(coproduct_monomial(xi1_sq) + (pair_code(xi1, xi1),))),
        ),
    }
    cases = {name: _replaced(coproduct_monomial, *case) for name, case in cases.items()}
    cases["faulty D(tau_i)"] = _coproducts_with_faulty_delta_tau(monkeypatch, 20)
    counit_broken = {"drop counit term", "stray unit term", "faulty D(tau_i)"}
    for name, coproduct in cases.items():
        want = two_set_coassociativity(20, coproduct)
        with monkeypatch.context() as mp:
            mp.setattr(verify, "coproduct_monomial", coproduct)
            ran = _patch_fallback(mp, refuse=name == "unbroken")
            report, counit = suite_hopf(VerifyConfig(max_stem=20))[:2]
        assert report.check == "hopf_coassociativity"
        assert report.witnesses == want, name
        assert bool(want) == (name != "unbroken"), name
        assert counit.verdict == (name not in counit_broken), name
        # a broken coproduct is no proof of either axiom
        if name != "unbroken":
            assert ran == ["hopf_antipode_axiom", "hopf_coassociativity"], name


def direct_antipode_axiom(max_stem, coproduct, antipode):
    """The witnesses of the monomials m where sum m' S(m'') is not eps(m),
    each product counted with its multiplicity mod 2: the reference for
    suite_hopf's antipode check."""
    low = (1 << CODE_BITS) - 1
    by_code = {monomial_code(m): m for m in enumerate_window_monomials(max_stem)}
    failing = []
    for m in by_code.values():
        count = Counter()
        for p in coproduct(m):
            left, right = p >> CODE_BITS, p & low
            if right not in by_code:  # a right factor outside the window
                break
            count.update(left + c for c in antipode(by_code[right]) if not left & c & TAU_MASK)
        else:
            if {c for c, n in count.items() if n & 1} == ({0} if m.is_unit else set()):
                continue
        failing.append({"monomial": repr(m)})
    return failing


def test_antipode_axiom_matches_direct_reference(monkeypatch):
    xi2, tau1 = xi_monomial(2), tau_monomial(1)
    s_target = tuple(sorted(antipode_monomial(TARGET) + (monomial_code(monomial((2,), (0, 1))),)))
    d_xi2 = _swapped(coproduct_monomial(xi2), xi_monomial(1, 2), xi_monomial(1))
    cases = {
        "unbroken": (None, None),
        # a generator's antipode with a term dropped
        "S(xi_2) drops xi_1^3": (None, _replaced(antipode_monomial, xi2, (monomial_code(xi2),))),
        "S(tau_1) drops xi_1 tau_0": (
            None,
            _replaced(antipode_monomial, tau1, (monomial_code(tau1),)),
        ),
        # a non-generator's antipode that is not the product of its factors'
        "S(TARGET) plus a term": (None, _replaced(antipode_monomial, TARGET, s_target)),
        # multiplicative, but not the antipode on xi_2
        "identity": (None, lambda m: (monomial_code(m),)),
        # a generator's coproduct broken with the counit intact
        "swap in D(xi_2)": (_replaced(coproduct_monomial, xi2, d_xi2), None),
    }
    for name, (d_case, s_case) in cases.items():
        coproduct = d_case or coproduct_monomial
        antipode = s_case or antipode_monomial
        want = direct_antipode_axiom(20, coproduct, antipode)
        with monkeypatch.context() as mp:
            mp.setattr(verify, "coproduct_monomial", coproduct)
            mp.setattr(verify, "antipode_monomial", antipode)
            ran = _patch_fallback(mp, refuse=name == "unbroken")
            report = suite_hopf(VerifyConfig(max_stem=20))[2]
        assert report.check == "hopf_antipode_axiom"
        assert report.witnesses == want, name
        # the swap in D(xi_2) keeps sum m' S(m'') = 0: its loop runs and passes
        assert bool(want) == (s_case is not None), name
        if name != "unbroken":
            # a broken antipode leaves the proof of coassociativity standing
            assert ran == ["hopf_antipode_axiom"] + ["hopf_coassociativity"] * bool(d_case), name


WINDOW_14 = list(enumerate_window_monomials(14))
CODES_14 = [monomial_code(m) for m in WINDOW_14]


@settings(max_examples=60)
@given(
    which=st.sampled_from("DS"),
    target=st.sampled_from(WINDOW_14),
    pick=st.integers(0, 1 << 16),
    new=st.booleans(),
)
def test_hopf_reports_match_references_under_a_random_toggle(which, target, pick, new):
    """One term of D or S toggled at one monomial: every Hopf report
    equals the per-monomial loops' alone, and the two axioms equal their
    references."""
    table = coproduct_monomial if which == "D" else antipode_monomial
    terms = table(target)
    if new or not terms:
        term = CODES_14[pick % len(CODES_14)]
        if which == "D":
            term = term << CODE_BITS | CODES_14[pick // len(CODES_14) % len(CODES_14)]
    else:
        term = terms[pick % len(terms)]
    broken = _replaced(table, target, tuple(sorted(set(terms) ^ {term})))
    coproduct = broken if which == "D" else coproduct_monomial
    antipode = broken if which == "S" else antipode_monomial
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(verify, "coproduct_monomial", coproduct)
        mp.setattr(verify, "antipode_monomial", antipode)
        got = [r.to_json() for r in suite_hopf(VerifyConfig(max_stem=14))]
        mp.setattr(verify, "_multiplicative", lambda *args: False)
        loops = [r.to_json() for r in suite_hopf(VerifyConfig(max_stem=14))]
    assert got == loops
    assert got[0]["witnesses"] == two_set_coassociativity(14, coproduct)
    assert got[2]["witnesses"] == direct_antipode_axiom(14, coproduct, antipode)


def _clear_hopf_caches():
    """Empty both cached Hopf maps and the shared ints of antipode codes;
    the maps are this module's imports, never a fault patched over them."""
    coproduct_monomial.cache_clear()
    antipode_monomial.cache_clear()
    milnor._SHARED.clear()


@pytest.fixture
def cold_hopf():
    _clear_hopf_caches()
    yield
    _clear_hopf_caches()


def test_cold_hopf_suite_reads_packed_codes_only(monkeypatch, cold_hopf):
    def decoder(m):
        raise AssertionError("the Hopf suite decoded a coproduct")

    monkeypatch.setattr(milnor, "coproduct_terms", decoder)
    reports = suite_hopf(VerifyConfig(max_stem=24))
    assert all(r.verdict for r in reports)
    # every cached coproduct is a window monomial's, held as a tuple of ints
    window = list(enumerate_window_monomials(24))
    built = coproduct_monomial.cache_info()
    assert built.currsize == len(window)
    for m in window:
        terms = coproduct_monomial(m)
        assert type(terms) is tuple and all(type(p) is int for p in terms), m
    assert coproduct_monomial.cache_info().misses == built.misses
    # every cached antipode is a window monomial's, held as a tuple of ints,
    # and equal codes across cached antipodes are one object
    built = antipode_monomial.cache_info()
    assert built.currsize == len(window)
    shared = {}
    for m in window:
        codes = antipode_monomial(m)
        assert type(codes) is tuple and all(type(c) is int for c in codes), m
        assert all(shared.setdefault(c, c) is c for c in codes), m
    assert antipode_monomial.cache_info().misses == built.misses


def _times_unfiltered(xs, ys, taus):
    """_times without its tau filter: a common tau carries into the next bit."""
    acc = set()
    for x in xs:
        acc.symmetric_difference_update([x + y for y in ys])
    return acc


def _antipode_quadrupled(antipode):
    """antipode_monomial with c << 2 for c << 1 in its doubling step, which
    puts S(xi_j^(2e)) in twice its bidegree."""

    def faulty(m):
        eps, r = m
        if not eps and len(r) - r.count(0) == 1 and r[-1] % 2 == 0:
            return tuple(c << 2 for c in milnor.antipode_monomial(xi_monomial(len(r), r[-1] // 2)))
        return antipode(m)

    return faulty


@pytest.mark.parametrize("fault", ["times_unfiltered", "antipode_quadrupled"])
def test_verify_reports_a_faulty_hopf_map(monkeypatch, cold_hopf, tmp_path, fault):
    if fault == "times_unfiltered":
        monkeypatch.setattr(milnor, "_times", _times_unfiltered)
    else:
        faulty = _antipode_quadrupled(antipode_monomial)
        monkeypatch.setattr(milnor, "antipode_monomial", faulty)
        monkeypatch.setattr(verify, "antipode_monomial", faulty)
    out = tmp_path / "verify.json"
    assert main(["verify", "--max-stem", "24", "--out", str(out)]) == 1
    reports = json.loads(out.read_text())["reports"]
    # every suite ran: the report list has its full length
    assert len(reports) == 37
    failed = {r["check"]: r["witnesses"] for r in reports if r["verdict"] == "fail"}
    hopf_checks = ("hopf_counit", "hopf_antipode_axiom", "hopf_coassociativity")
    hopf = [failed.get(check, []) for check in hopf_checks]
    assert any(hopf)
    for witnesses in hopf:
        assert all(w["monomial"].startswith("DualMonomial(") for w in witnesses)


def test_algebra_commands_report_an_antipode_leaving_its_bidegree(monkeypatch, cold_hopf, capsys):
    monkeypatch.setattr(milnor, "antipode_monomial", _antipode_quadrupled(antipode_monomial))
    for args in (["antipode", "x1^2"], ["conjugate", "P(2)"]):
        assert main(["algebra", *args]) == 2, args
        err = capsys.readouterr().err
        assert "has the term DualMonomial(eps=(), r=(4,)) outside (4,2)" in err, args


def _patch_sweep(monkeypatch, fn):
    """Replace enumerate_window_monomials in every wsteenrod module that
    holds it, so a module importing it by name sees fn too."""
    for name, module in list(sys.modules.items()):
        if name.startswith("wsteenrod") and hasattr(module, "enumerate_window_monomials"):
            monkeypatch.setattr(module, "enumerate_window_monomials", fn)


class _NegativeChow(DualMonomial):
    """A stand-in monomial whose bidegree (1, 1) has Chow degree -1."""

    @property
    def degree(self):
        return BiDegree(1, 1)


def test_kw_sweep_reaches_every_report(monkeypatch):
    # suite_kw builds its own MilnorAlgebra, so the sweep it memoizes is
    # fresh and reads the patched enumeration
    bad = _NegativeChow((), (99,))
    sweep = milnor.enumerate_window_monomials

    def with_bad(max_stem):
        yield from sweep(max_stem)
        yield bad

    _patch_sweep(monkeypatch, with_bad)
    reports = [r for r in suite_kw(VerifyConfig(max_stem=16)) if r.check == "kw_chow"]
    assert len(reports) == 10  # m = 0..4 for n = 0, 1
    witness = {"monomial": repr(bad), "chow": -1, "weight": 1}
    for r in reports:
        assert not r.verdict
        assert witness in r.witnesses


def test_kw_suite_sweeps_the_window_once(monkeypatch):
    calls = []
    sweep = milnor.enumerate_window_monomials

    def counted(max_stem):
        calls.append(max_stem)
        return sweep(max_stem)

    _patch_sweep(monkeypatch, counted)
    reports = suite_kw(VerifyConfig(max_stem=32))
    assert sum(r.check == "kw_chow" for r in reports) == 15
    assert calls == [32]
