import random

from wsteenrod.classical import (
    ClassicalElement,
    classical_product,
    classical_weight,
    milnor_product,
    to_classical,
)
from wsteenrod.milnor import enumerate_window_monomials


def sq(r):
    """The classical Milnor basis element Sq(r), r zero-trimmed."""
    return ClassicalElement(classical_weight(r), frozenset([r]))


def test_milnor_matrix_known_products():
    assert milnor_product((1,), (2,)).terms == {(3,)}
    assert milnor_product((2,), (1,)).terms == {(3,), (0, 1)}
    assert milnor_product((2,), (2,)).terms == {(1, 1)}
    assert milnor_product((1,), (1,)).terms == set()
    assert milnor_product((0, 1), (0, 1)).terms == set()
    assert milnor_product((), (2, 1)).terms == {(2, 1)}


def test_q_sequence_commutes_classically():
    q0 = (1,)
    q1 = (0, 1)
    assert milnor_product(q0, q1).terms == milnor_product(q1, q0).terms


def test_to_classical_pt_is_q(alg16):
    # P_t maps to the functional dual to xi_t, the shifted Milnor generator
    assert to_classical(alg16.pst(0, 1)).terms == {(1,)}
    assert to_classical(alg16.pst(0, 2)).terms == {(0, 1)}


def test_to_classical_kills_q0(alg16):
    assert to_classical(alg16.q(0)).is_zero()
    assert to_classical(alg16.q(1)).is_zero()


def test_to_classical_multiplicative_randomized(alg24):
    rng = random.Random(41)
    by_weight = {}
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
        got = to_classical(alg24.product(alg24.pR(r), alg24.pR(s)))
        assert got.terms == milnor_product(r, s).terms, (r, s)
        checked += 1
    assert checked == 120


def test_classical_product_bilinear():
    a = sq((3,)) + sq((0, 1))  # both weight 3
    b = sq((2,))
    left = classical_product(a, b)
    split = milnor_product((3,), (2,)) + milnor_product((0, 1), (2,))
    assert left.terms == split.terms
