import random

import pytest

from wsteenrod.gf2 import BitMatrix, BitVector
from wsteenrod.milnor import (
    CODE_BITS,
    TAU_MASK,
    BiDegree,
    DualMonomial,
    MilnorAlgebra,
    SteenrodElement,
    UNIT_MONOMIAL,
    WindowError,
    DualElement,
    antipode_monomial,
    basis_index,
    bidegree_basis,
    coproduct_monomial,
    coproduct_terms,
    dual_element,
    enumerate_window_monomials,
    monomial,
    monomial_code,
    tau_monomial,
    xi_degree,
    xi_monomial,
)
from wsteenrod.milnor import _SIDE, _decode, _delta_tau, _delta_xi_power


def test_generator_degrees():
    assert xi_degree(1) == (2, 1)
    assert xi_degree(2) == (6, 3)
    assert xi_degree(3) == (14, 7)
    assert xi_degree(4) == (30, 15)
    assert tau_monomial(0).degree == (1, 0)
    assert tau_monomial(1).degree == (3, 1)


def test_chow_counts_tau_factors():
    for m in enumerate_window_monomials(14):
        assert m.degree.chow == len(m.eps)


def test_basis_examples():
    assert bidegree_basis(BiDegree(2, 1)) == (xi_monomial(1),)
    b31 = bidegree_basis(BiDegree(3, 1))
    assert set(b31) == {tau_monomial(1), monomial([0], [1])}
    assert len(b31) == 2
    assert bidegree_basis(BiDegree(2, 0)) == ()


def test_basis_empty_outside_cone():
    assert bidegree_basis(BiDegree(3, 2)) == ()  # negative chow
    assert bidegree_basis(BiDegree(2, -1)) == ()


def test_basis_matches_window_sweep():
    # the per-bidegree enumeration and the raw exponent sweep agree
    by_degree = {}
    for m in enumerate_window_monomials(16):
        by_degree.setdefault(m.degree, set()).add(m)
    for d, monos in by_degree.items():
        assert set(bidegree_basis(d)) == monos
    for s in range(17):
        for w in range(s + 1):
            d = BiDegree(s, w)
            assert set(bidegree_basis(d)) == by_degree.get(d, set())


def multiply_by_exponents(a, b):
    """The dual product, exponent by exponent; None when a tau repeats: the
    reference for the packed code sum and for coproduct_components."""
    if a.is_unit:
        return b
    if b.is_unit:
        return a
    if set(a.eps) & set(b.eps):
        return None
    eps = tuple(sorted(a.eps + b.eps))
    n = max(len(a.r), len(b.r))
    r = tuple(
        (a.r[i] if i < len(a.r) else 0) + (b.r[i] if i < len(b.r) else 0)
        for i in range(n)
    )
    return DualMonomial(eps, r)


def test_coproduct_xi1():
    terms = set(coproduct_terms(xi_monomial(1)))
    assert terms == {(xi_monomial(1), UNIT_MONOMIAL), (UNIT_MONOMIAL, xi_monomial(1))}


def test_coproduct_tau1():
    terms = set(coproduct_terms(tau_monomial(1)))
    assert terms == {
        (tau_monomial(1), UNIT_MONOMIAL),
        (xi_monomial(1), tau_monomial(0)),
        (UNIT_MONOMIAL, tau_monomial(1)),
    }


def test_coproduct_unit():
    assert coproduct_monomial(UNIT_MONOMIAL) == (0,)
    assert coproduct_terms(UNIT_MONOMIAL) == ((UNIT_MONOMIAL, UNIT_MONOMIAL),)


def test_coproduct_refuses_monomials_past_the_packed_layout():
    # the packed terms hold tau_0..tau_7 and xi_j exponents up to the largest
    # at stem 255, which every term of a monomial of stem <= 255 fits;
    # xi_2^43 (stem 258) has the antipode term xi_1^129, past xi_1's 7 bits
    for hopf_map in (coproduct_monomial, antipode_monomial):
        for m in (tau_monomial(8), xi_monomial(1, 128), xi_monomial(2, 43), xi_monomial(8)):
            with pytest.raises(WindowError, match="255"):
                hopf_map(m)
    big = xi_monomial(1, 64)
    assert coproduct_terms(big) == ((UNIT_MONOMIAL, big), (big, UNIT_MONOMIAL))
    assert antipode_monomial(big) == (monomial_code(big),)
    # xi_7 has stem 254: its 1-bit field is the top bit, 35, and the
    # right-hand term 1 (x) xi_7 must not spill into the left code
    top = xi_monomial(7)
    want = [(top, UNIT_MONOMIAL), (UNIT_MONOMIAL, top)]
    want += [(xi_monomial(7 - i, 1 << i), xi_monomial(i)) for i in range(1, 7)]
    assert coproduct_terms(top) == tuple(sorted(want))
    assert CODE_BITS == 36 and TAU_MASK == 0xFF


def decoded(codes):
    """Packed coproduct terms as (left, right) monomial pairs."""
    return [(_decode(code >> CODE_BITS), _decode(code & _SIDE)) for code in codes]


def delta_xi_power_by_compositions(j, e):
    """D(xi_j^e) as monomial pairs, one per assignment of the binary digits
    of e to the slots 0..j: the reference for the packed _delta_xi_power."""
    digits = [1 << k for k in range(e.bit_length()) if (e >> k) & 1]
    terms = []

    def rec(idx, comp):
        if idx == len(digits):
            left = UNIT_MONOMIAL
            right = UNIT_MONOMIAL
            for i, c in enumerate(comp):
                if c == 0:
                    continue
                if j - i > 0:
                    left = multiply_by_exponents(left, xi_monomial(j - i, (2**i) * c))
                if i > 0:
                    right = multiply_by_exponents(right, xi_monomial(i, c))
            terms.append((left, right))
            return
        for i in range(j + 1):
            comp[i] += digits[idx]
            rec(idx + 1, comp)
            comp[i] -= digits[idx]

    rec(0, [0] * (j + 1))
    return terms


def delta_tau_by_monomials(i):
    """D(tau_i) as monomial pairs: the reference for the packed _delta_tau."""
    terms = [(tau_monomial(i), UNIT_MONOMIAL)]
    for k in range(i + 1):
        left = xi_monomial(i - k, 2**k) if i - k > 0 else UNIT_MONOMIAL
        terms.append((left, tau_monomial(k)))
    return terms


def test_packed_factors_match_monomial_builders():
    # every xi_j^e and tau_i of stem <= 255: xi_1^1..xi_1^127 up to xi_7,
    # and tau_0..tau_7
    for j in range(1, 8):
        for e in range(1, 255 // xi_degree(j).stem + 1):
            assert decoded(_delta_xi_power(j, e)) == delta_xi_power_by_compositions(j, e), (j, e)
    for i in range(8):
        assert decoded(_delta_tau(i)) == delta_tau_by_monomials(i), i


def coproduct_from_factors(m):
    """D(m) multiplied out from the coproducts of all its generator powers,
    starting from the unit: the reference for the cached coproduct_monomial,
    which multiplies one factor onto the cached coproduct of the rest."""
    factors = [decoded(_delta_xi_power(j, e)) for j, e in enumerate(m.r, start=1) if e]
    factors += [decoded(_delta_tau(i)) for i in m.eps]
    acc = {(UNIT_MONOMIAL, UNIT_MONOMIAL): 1}
    for factor in factors:
        nxt = {}
        for left, right in acc:
            for fl, fr in factor:
                pair = (multiply_by_exponents(left, fl), multiply_by_exponents(right, fr))
                if None not in pair:
                    nxt[pair] = nxt.get(pair, 0) ^ 1
        acc = {pair: 1 for pair, odd in nxt.items() if odd}
    return tuple(sorted(acc))


def test_coproduct_matches_product_of_factors():
    for m in enumerate_window_monomials(28):
        assert coproduct_terms(m) == coproduct_from_factors(m), m
    # the extremes of the layout: its top tau and xi, and the largest
    # exponents of xi_1 and xi_2
    for m in (tau_monomial(7), xi_monomial(7), xi_monomial(1, 127), xi_monomial(2, 42)):
        assert coproduct_terms(m) == coproduct_from_factors(m), m


def test_codes_round_trip():
    # every monomial of stem <= 48, and each xi_j at its largest exponent
    # of stem <= 255, which fills its field
    tops = [xi_monomial(j, 255 // xi_degree(j).stem) for j in range(1, 8)]
    for m in [*enumerate_window_monomials(48), *tops]:
        code = monomial_code(m)
        assert 0 <= code < 1 << CODE_BITS
        assert _decode(code) == m, m
        assert monomial_code(_decode(code)) == code, m


def test_packing_injective_and_additive():
    # one layout for every window, so the pairs of window 40 cover those of
    # every smaller window
    window = list(enumerate_window_monomials(40))
    codes = {m: monomial_code(m) for m in window}
    assert len(set(codes.values())) == len(codes)
    by_stem = sorted(window, key=lambda m: m.degree.stem)
    stems = [m.degree.stem for m in by_stem]
    for a, sa in zip(by_stem, stems):
        for b, sb in zip(by_stem, stems):
            if sa + sb > 40:
                break
            product = multiply_by_exponents(a, b)
            if product is None:
                assert codes[a] & codes[b] & TAU_MASK
            else:
                assert not codes[a] & codes[b] & TAU_MASK
                assert codes[product] == codes[a] + codes[b]


def coproduct_components_by_transpose(d, left):
    """The (left, d - left) component of the coproduct of each basis
    functional at d, as (i, j) pairs: the transpose of the dual products
    basis(left)[i] * basis(d - left)[j], multiplied exponent by exponent."""
    index = basis_index(d)
    out = {k: [] for k in range(len(index))}
    for i, lm in enumerate(bidegree_basis(left)):
        for j, rm in enumerate(bidegree_basis(d - left)):
            m = multiply_by_exponents(lm, rm)
            if m is not None:
                out[index[m]].append((i, j))
    return out


def test_coproduct_components_transpose_the_dual_product(alg16):
    # every basis functional of stem <= 16 at every left bidegree, and the
    # sum of all of them, whose components are the union of theirs
    for d in alg16.bidegrees(16):
        for left in alg16.bidegrees(d.stem):
            want = coproduct_components_by_transpose(d, left)

            def components(pairs):
                return [
                    (SteenrodElement(left, 1 << i), SteenrodElement(d - left, 1 << j))
                    for i, j in pairs
                ]

            for k, pairs in want.items():
                got = alg16.coproduct_components(SteenrodElement(d, 1 << k), left)
                assert got == components(pairs), (d, left, k)
            every = SteenrodElement(d, (1 << len(want)) - 1)
            union = sorted(pair for pairs in want.values() for pair in pairs)
            assert alg16.coproduct_components(every, left) == components(union), (d, left)


def test_coproduct_components_refuse_operations_past_the_packed_layout(alg16):
    # the terms of an operation at stem 256 have codes that overflow their
    # fields, so its coproduct is refused like coproduct_monomial's
    a = SteenrodElement(BiDegree(256, 128), 1)
    with pytest.raises(WindowError, match="255"):
        alg16.coproduct_components(a, BiDegree(0, 0))


def antipode_terms(m):
    """The terms of the cached antipode of m, decoded."""
    return {_decode(code) for code in antipode_monomial(m)}


def test_antipode_generators():
    assert antipode_terms(xi_monomial(1)) == {xi_monomial(1)}
    assert antipode_terms(tau_monomial(0)) == {tau_monomial(0)}
    assert antipode_terms(xi_monomial(2)) == {xi_monomial(2), xi_monomial(1, 3)}


def antipode_by_recursion(m, memo):
    """The connected-Hopf recursion S(m) = m + sum m_(1) S(m_(2)), over the
    coproduct terms with both factors nonunit: the reference for the
    multiplicative antipode_monomial."""
    if m.is_unit:
        return (UNIT_MONOMIAL,)
    if m not in memo:
        acc = {m: 1}
        for left, right in coproduct_terms(m):
            if left.is_unit or right.is_unit:
                continue
            for c in antipode_by_recursion(right, memo):
                t = multiply_by_exponents(left, c)
                if t is not None:
                    acc[t] = acc.get(t, 0) ^ 1
        memo[m] = tuple(sorted(t for t, odd in acc.items() if odd))
    return memo[m]


def test_antipode_matches_recursion():
    memo = {}
    for m in enumerate_window_monomials(32):
        # the cached antipode is the ascending codes of the terms
        want = sorted(monomial_code(t) for t in antipode_by_recursion(m, memo))
        assert antipode_monomial(m) == tuple(want), m


def conjugate_by_transpose(a):
    """c(a) as the transpose of the antipode matrix, whose row i is S(m_i)
    over the basis: the XOR of the columns that a selects."""
    basis = bidegree_basis(a.degree)
    index = basis_index(a.degree)
    rows = []
    for m in basis:
        bits = 0
        for t in antipode_terms(m):
            bits ^= 1 << index[t]
        rows.append(bits)
    columns = BitMatrix(len(basis), rows).transpose()
    return SteenrodElement(a.degree, columns.vec_mul(BitVector(len(basis), a.bits)).bits)


def test_conjugate_matches_antipode_transpose():
    alg = MilnorAlgebra(32)
    for d in alg.bidegrees(24):
        for a in alg.basis_functionals(d):
            assert alg.conjugate(a) == conjugate_by_transpose(a), a
    rng = random.Random(5)
    for w in alg.weights(32):
        d = BiDegree(32, w)
        for _ in range(3):
            a = SteenrodElement(d, rng.getrandbits(alg.dim(d)))
            assert alg.conjugate(a) == conjugate_by_transpose(a), a


def test_pairing(alg16):
    p1 = alg16.pst(0, 1)
    assert alg16.pair(p1, dual_element([xi_monomial(1)])) == 1
    assert len(bidegree_basis(BiDegree(2, 1))) == 1
    assert alg16.pair(alg16.unit(), dual_element([UNIT_MONOMIAL])) == 1
    with pytest.raises(Exception):
        alg16.pair(p1, dual_element([tau_monomial(0)]))
    # an operation pairs with a dual element only, in that order
    x1 = DualElement(p1.degree, p1.bits)
    with pytest.raises(TypeError):
        alg16.pair(p1, p1)
    with pytest.raises(TypeError):
        alg16.pair(x1, p1)


def test_operations_and_dual_elements_do_not_add(alg16):
    p1 = alg16.pt(1)
    x1 = DualElement(p1.degree, 1)
    with pytest.raises(TypeError):
        p1 + x1
    with pytest.raises(TypeError):
        x1 + p1
    assert x1 + x1 == DualElement(p1.degree, 0)
    assert p1 + p1 == alg16.zero(p1.degree)


def test_window_error():
    alg = MilnorAlgebra(6)
    with pytest.raises(WindowError):
        alg.pst(0, 3)
    with pytest.raises(WindowError):
        alg.require(BiDegree(7, 0))


def dual_product(alg, a, b):
    """The product of two dual elements, monomial by monomial."""
    d = alg.require(a.degree + b.degree)
    index = basis_index(d)
    bits = 0
    for ma in a.monomials():
        for mb in b.monomials():
            m = multiply_by_exponents(ma, mb)
            if m is not None:
                bits ^= 1 << index[m]
    return DualElement(d, bits)


def test_dual_product_element(alg16):
    t0 = dual_element([tau_monomial(0)])
    sq = dual_product(alg16, t0, t0)
    assert sq.is_zero()
    x1 = dual_element([xi_monomial(1)])
    assert dual_product(alg16, x1, x1).monomials() == (xi_monomial(1, 2),)


def test_antipode_dual_element(alg16):
    x2 = dual_element([xi_monomial(2)])
    assert set(alg16.antipode_dual(x2).monomials()) == {
        xi_monomial(2),
        xi_monomial(1, 3),
    }


def test_antipode_involution_random(alg16):
    rng = random.Random(2)
    degrees = [d for d in alg16.bidegrees(14)]
    for _ in range(60):
        d = rng.choice(degrees)
        from wsteenrod.milnor import DualElement

        x = DualElement(d, rng.getrandbits(alg16.dim(d)))
        assert alg16.antipode_dual(alg16.antipode_dual(x)) == x
