import pytest

from wsteenrod.grammar import (
    GrammarError,
    format_dual,
    format_steenrod,
    parse_dual,
    parse_steenrod,
)
from wsteenrod.milnor import BiDegree


def test_parse_steenrod_terms(alg24):
    el = parse_steenrod("Q(0,2)P(2,1)", alg24)
    assert el.degree == BiDegree(1, 0) + BiDegree(7, 3) + BiDegree(4, 2) + BiDegree(6, 3)
    assert format_steenrod(el) == "Q(0,2)P(2,1)"


def test_parse_whitespace_insensitive(alg16):
    a = parse_steenrod(" Q( 0 ) P(1) + Q( 1 ) ", alg16)
    b = parse_steenrod("Q(0)P(1)+Q(1)", alg16)
    assert a == b


def test_parse_unit_and_zero(alg16):
    assert parse_steenrod("1", alg16) == alg16.unit()
    assert parse_steenrod("0", alg16).is_zero()
    assert format_steenrod(alg16.unit()) == "1"


def test_repeated_term_cancels(alg16):
    assert parse_steenrod("P(1) + P(1)", alg16).is_zero()


def test_parse_dual(alg30):
    x = parse_dual("t0 t2 x1^2 x3", alg30)
    assert len(x.monomials()) == 1
    m = x.monomials()[0]
    assert m.eps == (0, 2)
    assert m.r == (2, 0, 1)
    assert format_dual(x) == "t0 t2 x1^2 x3"


def test_parse_dual_compact(alg16):
    assert parse_dual("t0x1", alg16) == parse_dual("t0 x1", alg16)


def test_parse_error_cites_token(alg16):
    with pytest.raises(GrammarError) as exc:
        parse_steenrod("P(1) + R(2)", alg16)
    assert "'R'" in str(exc.value)
    assert "position" in str(exc.value)


def test_parse_error_positions(alg16):
    with pytest.raises(GrammarError, match="unclosed"):
        parse_steenrod("P(1", alg16)
    with pytest.raises(GrammarError, match="repeated index"):
        parse_steenrod("Q(0,0)", alg16)
    with pytest.raises(GrammarError, match="repeated exterior factor 't0'"):
        parse_dual("t0 t0", alg16)
    with pytest.raises(GrammarError, match="exponent on exterior factor"):
        parse_dual("t1^2", alg16)
    with pytest.raises(GrammarError, match="unequal bidegree"):
        parse_steenrod("P(1) + Q(0)", alg16)
    with pytest.raises(GrammarError, match="empty"):
        parse_steenrod("P(1) +", alg16)


@pytest.mark.parametrize("text", ["Q(-1)", "P(-1)"])
def test_negative_index_is_an_unexpected_token(alg16, text):
    # the int token is digits only, so the sign is refused before any value
    with pytest.raises(GrammarError, match="^unexpected token '-' at position 2$"):
        parse_steenrod(text, alg16)


def test_format_sorts_canonically(alg16):
    a = parse_steenrod("P(3) + P(0,1)", alg16)
    b = parse_steenrod("P(0,1) + P(3)", alg16)
    assert format_steenrod(a) == format_steenrod(b) == "P(0,1) + P(3)"


def test_roundtrip_random(alg16):
    import random

    from wsteenrod.milnor import ZERO_DEGREE, DualElement, SteenrodElement

    rng = random.Random(4)
    degrees = [d for d in alg16.bidegrees(12)]
    for _ in range(60):
        d = rng.choice(degrees)
        el = SteenrodElement(d, rng.getrandbits(alg16.dim(d)))
        if el.is_zero():
            continue
        assert parse_steenrod(format_steenrod(el), alg16) == el
    for _ in range(60):
        d = rng.choice(degrees)
        x = DualElement(d, rng.getrandbits(alg16.dim(d)))
        if x.is_zero():
            continue
        assert parse_dual(format_dual(x), alg16) == x
    # zero is spelled "0" and parses to the zero bidegree
    zero = SteenrodElement(ZERO_DEGREE, 0)
    assert parse_steenrod(format_steenrod(zero), alg16) == zero
    dual_zero = DualElement(ZERO_DEGREE, 0)
    assert parse_dual(format_dual(dual_zero), alg16) == dual_zero
