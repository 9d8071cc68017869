import pytest

from wsteenrod.milnor import (
    UNIT_MONOMIAL,
    BiDegree,
    MilnorAlgebra,
    enumerate_window_monomials,
    monomial,
    pst_degree,
    xi_degree,
    xi_monomial,
)
from wsteenrod.modules import QuotientModule
from wsteenrod.towers import (
    KwComplex,
    WbpComplex,
    _divide,
    _indices,
    _label,
    _short_sequences,
    k_invariant_check,
    kw_chow_check,
    kw_homology,
    smash_chow_check,
    vi_basis,
    wbp_complex_check,
    wbp_differential_check,
)


def test_kw_m0_homology_is_algebra(alg16):
    dims = kw_homology(alg16, 0, 0)[0]
    for d in alg16.bidegrees(16):
        assert dims.get(d, 0) == alg16.dim(d)


def test_kw_degree0_matches_quotient(alg16):
    for n in (0, 1):
        dims = kw_homology(alg16, n, 3 if n == 0 else 1)[0]
        q = QuotientModule(alg16, (n + 1,))
        # degree 0 reads the whole window
        for d in alg16.bidegrees(16):
            assert dims.get(d, 0) == q.dim(d), (n, d)


def test_kw_interior_degrees_vanish(alg16):
    dims = kw_homology(alg16, 0, 3)
    assert len(dims) == 4
    assert dims[1] == {}
    assert dims[2] == {}
    assert dims[3] != {}


def test_kw_top_degree_lowest_class(alg16):
    # the right annihilator of P_1 starts at P_1 itself: class at (3, 2)
    top = kw_homology(alg16, 0, 1)[1]
    assert min(top) == BiDegree(3, 2)
    assert BiDegree(3, 2).chow == -1


def test_kw_chow_check_passes(alg16):
    for m in (0, 1, 2):
        rep = kw_chow_check(alg16, 0, m)
        assert rep.verdict
        if m:
            assert rep.witnesses[-1]["chow"] == -m


def test_kw_chow_failure_is_a_report(alg16, monkeypatch):
    # with the sharpness class gone the check returns its witness, no raise
    monkeypatch.setattr(KwComplex, "homology_dim", lambda self, q, d: 0)
    rep = kw_chow_check(alg16, 0, 1)
    assert not rep.verdict
    assert rep.witnesses == [{"sharp_at": {"stem": 3, "weight": 2}, "chow": -1, "dim": 0}]
    assert rep.to_json()["verdict"] == "fail"


def test_kw_chow_window_guard(alg16):
    with pytest.raises(ValueError, match="window"):
        kw_chow_check(alg16, 2, 1)  # needs products at stem 28


def test_k_invariant_check(alg16):
    rep = k_invariant_check(alg16, 0, 1)
    assert rep.verdict
    assert rep.check == "k_invariant"
    assert rep.params == {"n": 0, "m": 1}
    square, existence, uniqueness = rep.witnesses
    assert square == {"square_zero": True}
    existence, uniqueness = existence["existence"], uniqueness["uniqueness"]
    # the existence bidegrees are (m+1)r - (m,0) and (m+2)r - (m,0)
    assert [(w["stem"], w["weight"]) for w in existence] == [(3, 2), (5, 3)]
    assert all(w["chow"] == -1 for w in existence)
    assert all(w["dim"] == 0 for w in existence)
    assert [(w["stem"], w["weight"], w["chow"]) for w in uniqueness] == [(4, 3, -2)]


def test_k_invariant_large_m_beyond_window(alg30):
    # the obstruction bidegrees sit far outside the table window; emptiness
    # is still verified by direct enumeration
    for n in (0, 1, 2):
        for m in (1, 2, 3, 4):
            rep = k_invariant_check(alg30, n, m)
            assert rep.verdict, (n, m)


def test_kw_complex_d_squared(alg16):
    # per generator, d(d(a . g_q)) multiplies by P_{n+1} twice; sweep every
    # coefficient degree that fits two applications
    for n in (0, 1):
        cx = KwComplex(alg16, n, 3)
        for x in alg16.bidegrees(16 - 2 * cx.r.stem):
            first = alg16.right_pt_matrix(n + 1, x)
            second = alg16.right_pt_matrix(n + 1, BiDegree(*x) + cx.r)
            assert first.compose(second).is_zero(), (n, x)


def test_vi_basis_examples():
    layer0 = vi_basis(0, 20)
    assert layer0 == (UNIT_MONOMIAL,)
    assert layer0[0].degree == (0, 0)

    # e_R is the xi monomial xi^(0, R), of the same degree
    layer1 = vi_basis(1, 20)
    assert {(m.r, tuple(m.degree)) for m in layer1} == {
        ((0, 1), (6, 3)),
        ((0, 0, 1), (14, 7)),
    }
    layer2 = vi_basis(2, 20)
    assert {(m.r, tuple(m.degree)) for m in layer2} == {
        ((0, 2), (12, 6)),
        ((0, 1, 1), (20, 10)),
    }
    # lexicographic order on the exponent tuples R
    assert [_label(m) for m in layer2] == ["e(1,1)", "e(2)"]
    assert _label(UNIT_MONOMIAL) == "e()"
    # even the unit has stem 0, outside a negative window
    assert vi_basis(0, -1) == ()


def test_sequence_enumerations_match_window_sweep():
    # the independent raw-loop sweep, filtered to xi monomials, is the oracle
    xis = [(m.r, m.degree) for m in enumerate_window_monomials(48) if not m.eps]
    for window in range(49):
        here = [(r, d) for r, d in xis if d.stem <= window]
        for i in range(6):
            # no xi_1 factor, i factors
            expected = sorted((r[1:], d) for r, d in here if not any(r[:1]) and sum(r) == i)
            layer = vi_basis(i, window)
            assert all(not m.eps for m in layer)
            assert [(m.r[1:], m.degree) for m in layer] == expected, (window, i)
        for max_len in range(1, 6):
            # P_1 . c(P^{2R}) sits at stem 2 + 2|R|
            expected = sorted(
                r for r, d in here if 1 <= sum(r) <= max_len and 2 + 2 * d.stem <= window
            )
            got = [m.r for m in _short_sequences(max_len, window)]
            assert got == expected, (window, max_len)


def test_sequence_minus():
    # e_R -> e_{R - D_j} is division by xi_j
    gen = monomial(r=(0, 1, 1))
    assert _indices(gen) == [2, 3]
    assert _divide(gen, 2) == monomial(r=(0, 0, 1))
    assert _divide(gen, 3) == monomial(r=(0, 1))
    assert _divide(xi_monomial(2), 2) == UNIT_MONOMIAL


def test_wbp_differential_on_generator(alg16):
    # d(e_{D2}) = [P_2] (x) e_0
    cx = WbpComplex(alg16, 2)
    d, v = cx.generator_vector(xi_monomial(2))
    assert d == (6, 3)
    image = cx.differential_matrix(0, d).vec_mul(v)
    q = cx.quotient
    p2 = alg16.pst(0, 2)
    expected = q.projection_matrix(d).vec_mul(p2.coeffs())
    assert image == expected
    assert not image.is_zero()


def test_wbp_d_squared_examples(alg24):
    cx = WbpComplex(alg24, 2)
    for r in ((0, 2), (0, 1, 1)):
        d, v = cx.generator_vector(monomial(r=r))
        once = cx.differential_matrix(1, d).vec_mul(v)
        twice = cx.differential_matrix(0, d).vec_mul(once)
        assert twice.is_zero(), r


def test_wbp_complex_check():
    rep = wbp_complex_check(MilnorAlgebra(14), 2)
    assert rep.verdict


def test_wbp_position0_at_origin():
    cx = WbpComplex(MilnorAlgebra(14), 1)
    d = BiDegree(0, 0)
    from wsteenrod.gf2 import rank

    h0 = cx.dim(0, d) - rank(cx.differential_matrix(0, d))
    assert h0 == 1


def test_wbp_differential_check(alg24):
    rep = wbp_differential_check(alg24, i_max=2)
    assert rep.verdict
    assert rep.params["covered_j"] == [2, 3]
    assert "doubled" in rep.params["convention"]


def test_wbp_differential_reports_broken_identity(monkeypatch):
    # with P_3 read as zero, (b) fails at j = 3 and (d) names every layer
    # generator through layer 3 that has a component at index 3
    pst = MilnorAlgebra.pst

    def broken(self, s, t):
        return self.zero(pst_degree(0, 3)) if (s, t) == (0, 3) else pst(self, s, t)

    monkeypatch.setattr(MilnorAlgebra, "pst", broken)
    rep = wbp_differential_check(MilnorAlgebra(32), i_max=3)
    assert not rep.verdict
    assert rep.params["covered_j"] == [2, 3, 4]
    assert rep.witnesses == [{"identity": "P_j = P_1.c(P^{2D_{j-1}})", "j": 3}] + [
        {"generator": g, "component": 3} for g in ("e(0,1)", "e(0,2)", "e(1,1)", "e(2,1)")
    ]


def test_conjugation_identity_values(alg16):
    # [P_2] = [P_1 . c(P^{2 D_1})] at (6,3)
    q = QuotientModule(alg16, (1,))
    p1 = alg16.pst(0, 1)
    p2 = alg16.pst(0, 2)
    rhs = alg16.product(p1, alg16.conjugate(alg16.pR((2,))))
    proj = q.projection_matrix(BiDegree(6, 3))
    assert proj.vec_mul(p2.coeffs()) == proj.vec_mul(rhs.coeffs())
    assert not proj.vec_mul(p2.coeffs()).is_zero()


def test_conjugation_identity_j3(alg16):
    # [P_3] = [P_1 . c(P^{2 D_2})] at (14,7)
    q = QuotientModule(alg16, (1,))
    p1 = alg16.pst(0, 1)
    p3 = alg16.pst(0, 3)
    rhs = alg16.product(p1, alg16.conjugate(alg16.pR((0, 2))))
    proj = q.projection_matrix(BiDegree(14, 7))
    assert proj.vec_mul(p3.coeffs()) == proj.vec_mul(rhs.coeffs())


def test_undoubled_convention_fails_on_bidegree():
    # P_1 . c(P^{D_1}) lives at (4,2), not at |P_2| = (6,3)
    assert BiDegree(2, 1) + xi_degree(1) == (4, 2)
    assert xi_degree(2) == (6, 3)


def test_smash_chow():
    for n in (0, 1):
        rep = smash_chow_check(MilnorAlgebra(12), n, 2)
        assert rep.verdict
    rep = smash_chow_check(MilnorAlgebra(9), 0, 3)
    assert rep.verdict


def test_layer_connectivity_bound():
    rep = wbp_complex_check(MilnorAlgebra(20), 3)
    assert rep.verdict  # includes the 5i+1 connectivity assertion
