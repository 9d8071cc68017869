import sys

from wsteenrod import milnor, verify
from wsteenrod.milnor import (
    UNIT_MONOMIAL,
    BiDegree,
    DualMonomial,
    antipode_monomial,
    bidegree_basis,
    coproduct_monomial,
    monomial,
    multiply_monomials,
    xi_monomial,
)
from wsteenrod.verify import VerifyConfig, pack_window, suite_hopf, suite_kw


def test_packing_injective_and_additive():
    for max_stem in range(41):
        codes, width, tau_mask = pack_window(max_stem)
        assert len(set(codes.values())) == len(codes), max_stem
        assert all(0 <= c < 1 << width for c in codes.values())
        if max_stem > 24 and max_stem not in (32, 40):
            continue  # every window's pairs would take about a second
        # every pair whose product degree is in the window
        by_stem = sorted(codes, key=lambda m: m.degree.stem)
        stems = [m.degree.stem for m in by_stem]
        for a, sa in zip(by_stem, stems):
            for b, sb in zip(by_stem, stems):
                if sa + sb > max_stem:
                    break
                product = multiply_monomials(a, b)
                if product is None:
                    assert codes[a] & codes[b] & tau_mask
                else:
                    assert not codes[a] & codes[b] & tau_mask
                    assert codes[product] == codes[a] + codes[b]


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
    term = (xi_monomial(1), monomial((0,), (2, 1)))
    k = terms.index(term)
    both = [("hopf_coassociativity", 15), ("hopf_antipode_axiom", 1)]
    assert _hopf_failures(monkeypatch, coproduct=terms[:k] + terms[k + 1:]) == both
    swapped = terms[:k] + (term[::-1],) + terms[k + 1:]
    assert _hopf_failures(monkeypatch, coproduct=swapped) == both
    extra = tuple(sorted(antipode_monomial(TARGET) + (monomial((2,), (0, 1)),)))
    assert _hopf_failures(monkeypatch, antipode=extra) == [("hopf_antipode_axiom", 9)]


def two_set_coassociativity(max_stem, coproduct):
    """The witnesses of the monomials where (D (x) 1) D and (1 (x) D) D
    differ, each side built as its own XOR set of packed triples and the
    two sets compared: the reference for suite_hopf's one-set check."""
    codes, width, _ = pack_window(max_stem)
    factors = {}
    for m, cm in codes.items():
        terms = coproduct(m)
        factors[cm] = ([codes[l] for l, _ in terms], [codes[r] for _, r in terms])
    failing = []
    for m, cm in codes.items():
        left: set[int] = set()
        right: set[int] = set()
        for pa, pb in zip(*factors[cm]):
            high = pb << 2 * width
            left.symmetric_difference_update(
                [c | (d << width) | high for c, d in zip(*factors[pa])]
            )
            right.symmetric_difference_update(
                [pa | (c << width) | (d << 2 * width) for c, d in zip(*factors[pb])]
            )
        if left != right:
            failing.append({"monomial": repr(m)})
    return failing


def test_coassociativity_matches_two_set_reference(monkeypatch):
    terms = coproduct_monomial(TARGET)
    term = (xi_monomial(1), monomial((0,), (2, 1)))
    k = terms.index(term)
    added = (xi_monomial(2), monomial((0,), (0, 1)))
    assert added not in terms
    assert added[0].degree + added[1].degree == TARGET.degree
    stray = next(m for m in bidegree_basis(TARGET.degree) if m != TARGET)
    unit = UNIT_MONOMIAL
    cases = {
        "unbroken": (TARGET, terms),
        "drop": (TARGET, terms[:k] + terms[k + 1:]),
        "swap": (TARGET, terms[:k] + (term[::-1],) + terms[k + 1:]),
        "add": (TARGET, tuple(sorted(terms + (added,)))),
        # the counit fails, so the suite reads the full coproducts
        "drop counit term": (TARGET, tuple(t for t in terms if t != (TARGET, unit))),
        "stray unit term": (TARGET, tuple(sorted(terms + ((unit, stray),)))),
        # the counit holds, but D(1) is not 1 (x) 1 alone
        "unit": (unit, ((unit, unit), (xi_monomial(1), xi_monomial(1)))),
    }
    counit_broken = {"drop counit term", "stray unit term"}
    for name, (target, broken) in cases.items():
        def coproduct(m, target=target, broken=broken):
            return broken if m == target else coproduct_monomial(m)

        want = two_set_coassociativity(20, coproduct)
        with monkeypatch.context() as mp:
            mp.setattr(verify, "coproduct_monomial", coproduct)
            report, counit = suite_hopf(VerifyConfig(max_stem=20))[:2]
        assert report.check == "hopf_coassociativity"
        assert report.witnesses == want, name
        assert bool(want) == (name != "unbroken"), name
        assert counit.verdict == (name not in counit_broken), name


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
