from wsteenrod import verify
from wsteenrod.milnor import (
    antipode_monomial,
    coproduct_monomial,
    monomial,
    multiply_monomials,
    xi_monomial,
)
from wsteenrod.verify import VerifyConfig, pack_window, suite_hopf


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
