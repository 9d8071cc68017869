import random

from hypothesis import example, given
from hypothesis import strategies as st

from wsteenrod.classical import milnor_product as classical_milnor_product
from wsteenrod.gf2 import BitMatrix
from wsteenrod.milnor import (
    CODE_BITS,
    BiDegree,
    MilnorAlgebra,
    SteenrodElement,
    basis_index,
    bidegree_basis,
    coproduct_monomial,
    coproduct_terms,
    dual_element,
    enumerate_window_monomials,
    monomial,
    monomial_code,
    pst_degree,
    tau_monomial,
    xi_degree,
    xi_monomial,
)


def test_p1_squared_zero(alg16):
    p1 = alg16.pst(0, 1)
    assert alg16.product(p1, p1).is_zero()


def test_p1_p2_commute(alg16):
    p1, p2 = alg16.pst(0, 1), alg16.pst(0, 2)
    assert alg16.product(p1, p2) == alg16.product(p2, p1)


def test_q0_squared_zero(alg16):
    q0 = alg16.q(0)
    # the target bidegree (2, 0) has empty basis
    assert bidegree_basis(BiDegree(2, 0)) == ()
    assert alg16.product(q0, q0).is_zero()


def test_pst_degrees(alg16):
    assert alg16.pst(0, 1).degree == (2, 1)
    assert alg16.pst(0, 2).degree == (6, 3)
    assert pst_degree(1, 1) == (4, 2)
    assert alg16.pR((2,)).degree == (4, 2)
    assert alg16.pR((2,)) == alg16.pst(1, 1)


def test_exteriority_iff(alg24):
    # squares of P^s_t vanish exactly when s < t, across the window
    for s in range(4):
        for t in range(1, 4):
            if 2 * pst_degree(s, t).stem > 24:
                continue
            el = alg24.pst(s, t)
            assert alg24.product(el, el).is_zero() == (s < t), (s, t)


def test_milnor_basis_product_example(alg16):
    # P(1).P(2) = P(3) while P(2).P(1) = P(3) + P(0,1)
    a = alg16.pR((1,))
    b = alg16.pR((2,))
    assert alg16.product(a, b).dual_monomials() == (xi_monomial(1, 3),)
    assert set(alg16.product(b, a).dual_monomials()) == {
        xi_monomial(1, 3),
        xi_monomial(2),
    }


def test_noncommutative_with_q(alg16):
    q0, p1 = alg16.q(0), alg16.pst(0, 1)
    qp = alg16.product(q0, p1)
    pq = alg16.product(p1, q0)
    assert qp.dual_monomials() == (monomial([0], [1]),)
    assert set(pq.dual_monomials()) == {monomial([0], [1]), tau_monomial(1)}


def test_associativity_random(alg16):
    rng = random.Random(7)
    degrees = [d for d in alg16.bidegrees(5)]
    for _ in range(80):
        d1, d2, d3 = (rng.choice(degrees) for _ in range(3))
        if (d1 + d2 + d3).stem > 15:
            continue
        a = SteenrodElement(d1, rng.getrandbits(alg16.dim(d1)))
        b = SteenrodElement(d2, rng.getrandbits(alg16.dim(d2)))
        c = SteenrodElement(d3, rng.getrandbits(alg16.dim(d3)))
        assert alg16.product(alg16.product(a, b), c) == alg16.product(
            a, alg16.product(b, c)
        )


def test_unit_neutral(alg16):
    one = alg16.unit()
    for d in alg16.bidegrees(10):
        for el in alg16.basis_functionals(d):
            assert alg16.product(one, el) == el
            assert alg16.product(el, one) == el


def _right_pt_closed_form(t, d1):
    """x -> x . P_t on basis functionals at d1, from structure constants.

    A right factor exactly xi_t in the coproduct of m comes from one odd
    exponent r_j (j >= t), replacing xi_j by xi_{j-t}^(2^t) on the left.
    """
    d = d1 + xi_degree(t)
    idx1 = basis_index(d1)
    rows = [0] * len(idx1)
    for mi, m in enumerate(bidegree_basis(d)):
        for j in range(t, len(m.r) + 1):
            if m.r[j - 1] % 2 == 0:
                continue
            rr = list(m.r)
            rr[j - 1] -= 1
            if j > t:
                rr[j - t - 1] += 2**t
            i = idx1.get(monomial(m.eps, rr))
            if i is not None:
                rows[i] ^= 1 << mi
    return BitMatrix(len(bidegree_basis(d)), rows)


def _left_pt_closed_form(t, d2):
    """x -> P_t . x on basis functionals at d2, from structure constants.

    A left factor exactly xi_t comes from an odd r_t, or from tau_t turning
    into tau_0 when tau_0 is not already present.
    """
    d = d2 + xi_degree(t)
    idx2 = basis_index(d2)
    rows = [0] * len(idx2)
    for mi, m in enumerate(bidegree_basis(d)):
        if t <= len(m.r) and m.r[t - 1] % 2 == 1:
            rr = list(m.r)
            rr[t - 1] -= 1
            i = idx2.get(monomial(m.eps, rr))
            if i is not None:
                rows[i] ^= 1 << mi
        if t in m.eps and 0 not in m.eps:
            i = idx2.get(monomial([0] + [e for e in m.eps if e != t], m.r))
            if i is not None:
                rows[i] ^= 1 << mi
    return BitMatrix(len(bidegree_basis(d)), rows)


def test_pt_products_match_closed_forms(alg24):
    # the general product at P_t, right and left, against the P_t structure
    # constants; the left side covers tau_t -> tau_0 in _tau_moves
    checked = 0
    for t in (1, 2, 3):
        pt = alg24.pt(t)
        for d in alg24.bidegrees(24 - xi_degree(t).stem):
            assert alg24.right_mult_matrix(d, pt) == _right_pt_closed_form(t, d), (t, d)
            assert alg24.left_mult_matrix(pt, d) == _left_pt_closed_form(t, d), (t, d)
            checked += 1
    assert checked == 85


def test_mult_matrices_consistent(alg16):
    rng = random.Random(13)
    degrees = [d for d in alg16.bidegrees(7)]
    for _ in range(40):
        d1, d2 = rng.choice(degrees), rng.choice(degrees)
        if (d1 + d2).stem > 15:
            continue
        a = SteenrodElement(d1, rng.getrandbits(alg16.dim(d1)))
        b = SteenrodElement(d2, rng.getrandbits(alg16.dim(d2)))
        prod = alg16.product(a, b)
        assert alg16.right_mult_matrix(d1, b).vec_mul(a.coeffs()).bits == prod.bits
        assert alg16.left_mult_matrix(a, d2).vec_mul(b.coeffs()).bits == prod.bits


def test_coproduct_components(alg16):
    # primitives split as expected
    for t in (1, 2):
        pt = alg16.pst(0, t)
        d = pt.degree
        comps = alg16.coproduct_components(pt, BiDegree(0, 0))
        assert [(u.bits, v.bits) for u, v in comps] == [(1, pt.bits)]
        comps = alg16.coproduct_components(pt, d)
        assert [(u.dual_monomials(), v.bits) for u, v in comps] == [
            (pt.dual_monomials(), 1)
        ]
        # no middle terms for a primitive
        for s in range(1, d.stem):
            for w in range(d.weight + 1):
                mid = BiDegree(s, w)
                if mid == d or mid == BiDegree(0, 0):
                    continue
                assert alg16.coproduct_components(pt, mid) == []


def test_coproduct_of_squared_dual_has_diagonal(alg16):
    # the functional dual to xi_1^2 has a P_1 (x) P_1 component
    el = alg16.pR((2,))
    comps = alg16.coproduct_components(el, BiDegree(2, 1))
    p1 = alg16.pst(0, 1)
    assert any(u == p1 and v == p1 for u, v in comps)


def test_conjugate_examples(alg16):
    p1 = alg16.pst(0, 1)
    assert alg16.conjugate(p1) == p1
    for t in (1, 2, 3):
        if xi_degree(t).stem <= 16:
            pt = alg16.pst(0, t)
            assert alg16.conjugate(pt) == pt
    el = alg16.pR((2,))
    c = alg16.conjugate(el)
    assert alg16.conjugate(c) == el
    assert alg16.pair(c, dual_element([xi_monomial(1, 2)])) == 1


def test_conjugate_antihomomorphism(alg16):
    rng = random.Random(19)
    degrees = [d for d in alg16.bidegrees(7)]
    for _ in range(50):
        d1, d2 = rng.choice(degrees), rng.choice(degrees)
        if (d1 + d2).stem > 15:
            continue
        a = SteenrodElement(d1, rng.getrandbits(alg16.dim(d1)))
        b = SteenrodElement(d2, rng.getrandbits(alg16.dim(d2)))
        assert alg16.conjugate(alg16.product(a, b)) == alg16.product(
            alg16.conjugate(b), alg16.conjugate(a)
        )


def _direct_table(d1, d2):
    """mult_table by its definition: coproduct terms with left factor in d1."""
    idx1, idx2 = basis_index(d1), basis_index(d2)
    return tuple(
        tuple(
            (idx1[left], idx2[right])
            for left, right in coproduct_terms(m)
            if left.degree == d1
        )
        for m in bidegree_basis(d1 + d2)
    )


def test_mult_table_split_build_matches_definition():
    # every split of every target up to stem 12, against the coproduct
    alg = MilnorAlgebra(16)
    targets = list(alg.bidegrees(12))
    empty = 0
    for d in targets:
        for s in range(d.stem + 1):
            for w in range(d.weight + 1):
                d1 = BiDegree(s, w)
                table = alg.mult_table(d1, d - d1)
                assert table == _direct_table(d1, d - d1), (d1, d)
                empty += not any(table)
    assert empty  # splits without coproduct terms are covered too


def test_coproduct_monomial_cache_matches_uncached():
    for m in enumerate_window_monomials(12):
        assert coproduct_monomial(m) == coproduct_monomial.__wrapped__(m)


ORACLE_STEM = 28
# window monomials by stem, so a right factor can be drawn that fits
_BY_STEM = sorted(enumerate_window_monomials(ORACLE_STEM), key=lambda m: m.degree.stem)


def _fitting(m1):
    room = ORACLE_STEM - m1.degree.stem
    return [m for m in _BY_STEM if m.degree.stem <= room]


def _basis_product(alg, m1, m2):
    """The product of the basis functionals dual to m1 and m2."""
    return alg.product(alg.from_dual_monomial(m1), alg.from_dual_monomial(m2))


@given(
    st.sampled_from(_BY_STEM).flatmap(
        lambda m1: st.tuples(st.just(m1), st.sampled_from(_fitting(m1)))
    )
)
@example((monomial([1], [1]), monomial([0], [0, 1])))
@example((monomial([0], [2, 1]), monomial([1], [1])))
@example((xi_monomial(1, 4), tau_monomial(2)))
def test_milnor_product_is_transposed_coproduct(pair):
    # <a.b, m> = sum <a, m_(1)> <b, m_(2)>, read off the cached coproduct
    # itself, whose term m1 (x) m2 is packed as below
    m1, m2 = pair
    term = monomial_code(m1) << CODE_BITS | monomial_code(m2)
    want = tuple(
        m
        for m in bidegree_basis(m1.degree + m2.degree)
        if term in coproduct_monomial(m)
    )
    assert _basis_product(MilnorAlgebra(ORACLE_STEM), m1, m2).dual_monomials() == want


def test_xi_memo_is_the_classical_product():
    # every eps-free pair through stem 28 goes through one algebra's memo,
    # and each memo entry is the classical Milnor product P(r) . P(s)
    alg = MilnorAlgebra(ORACLE_STEM)
    xi_only = [m for m in _BY_STEM if not m.eps]
    pairs = 0
    for m1 in xi_only:
        for m2 in _fitting(m1):
            if m2.eps:
                continue
            pairs += 1
            got = alg.product(alg.from_dual_monomial(m1), alg.from_dual_monomial(m2))
            want = classical_milnor_product(m1.r, m2.r).terms
            assert {m.r for m in got.dual_monomials()} == want, (m1, m2)
    assert len(alg._xi) == pairs
    for (r, s), ts in alg._xi.items():
        assert len(set(ts)) == len(ts)
        assert set(ts) == classical_milnor_product(r, s).terms, (r, s)


def _right_mult_by_definition(d1, b):
    """Rows x -> x . b, pair by pair of basis functionals, from the products
    of an algebra of their own."""
    alg = MilnorAlgebra(16)
    rows = []
    for m1 in bidegree_basis(d1):
        bits = 0
        for m2 in b.dual_monomials():
            bits ^= _basis_product(alg, m1, m2).bits
        rows.append(bits)
    return rows


def test_right_mult_matrix_is_the_sum_over_the_support():
    alg = MilnorAlgebra(16)
    rng = random.Random(29)
    degrees = list(alg.bidegrees(8))
    seen_multi = 0
    for _ in range(60):
        d1, d2 = rng.choice(degrees), rng.choice(degrees)
        if (d1 + d2).stem > 16:
            continue
        n1, n2 = alg.dim(d1), alg.dim(d2)
        for bits in (0, 1 << rng.randrange(n2), rng.getrandbits(n2)):
            b = SteenrodElement(d2, bits)
            mat = alg.right_mult_matrix(d1, b)
            assert (mat.nrows, mat.ncols) == (n1, alg.dim(d1 + d2))
            assert list(mat.rows) == _right_mult_by_definition(d1, b), (d1, b)
            seen_multi += bin(bits).count("1") > 1
    assert seen_multi
    # b = 0 is the zero map, even where the target bidegree is empty
    zero = alg.right_mult_matrix(BiDegree(2, 1), alg.zero(BiDegree(1, 0)))
    assert (zero.nrows, zero.ncols, zero.rows) == (1, alg.dim(BiDegree(3, 1)), (0,))
    # a one-term b is its unit block, built once
    p1 = alg.pst(0, 1)
    assert alg.right_mult_matrix(BiDegree(4, 2), p1) is alg.right_mult_matrix(BiDegree(4, 2), p1)


def test_algebras_share_no_memo():
    a, b = MilnorAlgebra(16), MilnorAlgebra(16)
    x, y = a.pR((2,)), a.pR((0, 1))
    a.product(x, y)
    a.right_mult_matrix(BiDegree(4, 2), y)
    assert a._xi and a._rmul
    assert not b._xi and not b._rmul


def test_product_is_a_sum_of_milnor_products(alg16):
    # the basis products come from an algebra of their own
    pairs = MilnorAlgebra(16)
    rng = random.Random(31)
    degrees = list(alg16.bidegrees(8))
    for _ in range(60):
        d1, d2 = rng.choice(degrees), rng.choice(degrees)
        if (d1 + d2).stem > 16:
            continue
        a = SteenrodElement(d1, rng.getrandbits(alg16.dim(d1)))
        b = SteenrodElement(d2, rng.getrandbits(alg16.dim(d2)))
        want = 0
        for m1 in a.dual_monomials():
            for m2 in b.dual_monomials():
                want ^= _basis_product(pairs, m1, m2).bits
        assert alg16.product(a, b) == SteenrodElement(d1 + d2, want)
