"""Text grammar for algebra elements.

Operations are sums of Milnor basis terms written ``Q(i,j,...)P(r1,r2,...)``
with either factor omissible, e.g. ``Q(0)``, ``P(2,1)``, ``Q(1,2)P(4)``; the
unit is ``1`` and the zero element ``0``.  Dual elements are sums of
monomial terms written with ``t<i>`` and ``x<j>`` factors, e.g.
``t0 t2 x1^2 x3``.  Whitespace never matters.  All terms of an element must
share one bidegree.  An index or exponent that cannot fit the window is
rejected before any degree is computed, and so is a number longer than
any window can use.
"""

from __future__ import annotations

import re

from .milnor import (
    BiDegree,
    DualElement,
    DualMonomial,
    MilnorAlgebra,
    SteenrodElement,
    WindowError,
    ZERO_DEGREE,
    _monomial_bits,
    basis_index,
    monomial,
    tau_degree,
    xi_degree,
)


class GrammarError(ValueError):
    """A parse failure; the message cites the offending token and position."""


_TOKEN = re.compile(
    r"\s*(?:(?P<plus>\+)|(?P<tgen>t\d+)|(?P<xgen>x\d+)|(?P<caret>\^)"
    r"|(?P<letter>[QP])|(?P<lpar>\()|(?P<rpar>\))|(?P<comma>,)"
    r"|(?P<int>\d+)|(?P<junk>\S))"
)


# more digits than any computable window can use; int() refuses much longer runs
_MAX_DIGITS = 100


def _int(digits: str, pos: int) -> int:
    if len(digits) > _MAX_DIGITS:
        raise GrammarError(f"number too long at position {pos}")
    return int(digits)


def _require_fits(unit, index: int, exponent: int, max_stem: int, what: str, pos: int) -> None:
    """Raise WindowError unless exponent copies of unit(index) (xi_degree or
    tau_degree) fit the window.  Both units have stem above their index, so
    an index past the window is rejected before 2**index is computed."""
    if index > max_stem or exponent * unit(index).stem > max_stem:
        raise WindowError(f"{what} at position {pos} exceeds window stem<={max_stem}")


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            break
        kind = m.lastgroup
        value = m.group(m.lastgroup)
        if kind == "junk":
            raise GrammarError(f"unexpected token {value!r} at position {m.start(m.lastgroup)}")
        tokens.append((kind, value, m.start(m.lastgroup)))
        pos = m.end()
    return tokens


def _split_terms(tokens):
    term: list = []
    for tok in tokens:
        if tok[0] == "plus":
            if not term:
                raise GrammarError(f"empty term before '+' at position {tok[2]}")
            yield term
            term = []
        else:
            term.append(tok)
    if not term:
        if tokens:
            raise GrammarError(f"empty term at position {tokens[-1][2]}")
        raise GrammarError("empty element")
    yield term


def _parse_int_list(tokens, i, what):
    """Parse '( n , n , ... )' starting at index i; returns (values, next)."""
    if i >= len(tokens) or tokens[i][0] != "lpar":
        where = tokens[i][2] if i < len(tokens) else -1
        raise GrammarError(f"expected '(' after {what} at position {where}")
    i += 1
    values = []
    expect_value = True
    while i < len(tokens):
        kind, value, pos = tokens[i]
        if kind == "rpar":
            if expect_value and values:
                raise GrammarError(f"trailing ',' before ')' at position {pos}")
            return values, i + 1
        if expect_value and kind == "int":
            values.append(_int(value, pos))
            expect_value = False
        elif not expect_value and kind == "comma":
            expect_value = True
        else:
            raise GrammarError(f"unexpected token {value!r} at position {pos}")
        i += 1
    raise GrammarError(f"unclosed '(' in {what}")


def _steenrod_term(tokens, max_stem: int) -> DualMonomial:
    if len(tokens) == 1 and tokens[0][0] == "int" and tokens[0][1] == "1":
        return monomial()
    i = 0
    eps: list[int] = []
    r: list[int] = []
    seen_q = seen_p = False
    while i < len(tokens):
        kind, value, pos = tokens[i]
        if kind == "letter" and value == "Q":
            if seen_q or seen_p:
                raise GrammarError(f"unexpected token 'Q' at position {pos}")
            seen_q = True
            eps, i = _parse_int_list(tokens, i + 1, "Q")
            if len(set(eps)) != len(eps):
                raise GrammarError(f"repeated index in Q(...) at position {pos}")
            for v in eps:
                _require_fits(tau_degree, v, 1, max_stem, "Q(...)", pos)
        elif kind == "letter" and value == "P":
            if seen_p:
                raise GrammarError(f"unexpected token 'P' at position {pos}")
            seen_p = True
            r, i = _parse_int_list(tokens, i + 1, "P")
            for j, e in enumerate(r, start=1):
                if e:
                    _require_fits(xi_degree, j, e, max_stem, "P(...)", pos)
        else:
            raise GrammarError(f"unexpected token {value!r} at position {pos}")
    return monomial(eps, r)


def _dual_term(tokens, max_stem: int) -> DualMonomial:
    if len(tokens) == 1 and tokens[0][0] == "int" and tokens[0][1] == "1":
        return monomial()
    eps: list[int] = []
    exps: dict[int, int] = {}
    i = 0
    while i < len(tokens):
        kind, value, pos = tokens[i]
        if kind == "tgen":
            idx = _int(value[1:], pos)
            if idx in eps:
                raise GrammarError(f"repeated exterior factor {value!r} at position {pos}")
            if i + 1 < len(tokens) and tokens[i + 1][0] == "caret":
                raise GrammarError(f"exponent on exterior factor {value!r} at position {pos}")
            _require_fits(tau_degree, idx, 1, max_stem, "t factor", pos)
            eps.append(idx)
            i += 1
        elif kind == "xgen":
            idx = _int(value[1:], pos)
            if idx < 1:
                raise GrammarError(f"bad generator {value!r} at position {pos}")
            e = 1
            i += 1
            if i < len(tokens) and tokens[i][0] == "caret":
                if i + 1 >= len(tokens) or tokens[i + 1][0] != "int":
                    raise GrammarError(f"missing exponent after '^' at position {tokens[i][2]}")
                e = _int(tokens[i + 1][1], tokens[i + 1][2])
                if e < 1:
                    raise GrammarError(f"bad exponent {e} at position {tokens[i + 1][2]}")
                i += 2
            _require_fits(xi_degree, idx, e, max_stem, "x factor", pos)
            exps[idx] = exps.get(idx, 0) + e
        else:
            raise GrammarError(f"unexpected token {value!r} at position {pos}")
    r = [0] * (max(exps) if exps else 0)
    for j, e in exps.items():
        r[j - 1] = e
    return monomial(eps, r)


def _assemble(monomials: list[DualMonomial], algebra: MilnorAlgebra) -> tuple[BiDegree, int]:
    degree = monomials[0].degree
    for m in monomials[1:]:
        if m.degree != degree:
            raise GrammarError(
                f"terms of unequal bidegree: {degree} vs {m.degree}"
            )
    algebra.require(degree)
    return degree, _monomial_bits(basis_index(degree), monomials)


def parse_steenrod(text: str, algebra: MilnorAlgebra) -> SteenrodElement:
    tokens = _tokenize(text)
    if len(tokens) == 1 and tokens[0][0] == "int" and tokens[0][1] == "0":
        return SteenrodElement(ZERO_DEGREE, 0)
    monomials = [_steenrod_term(t, algebra.max_stem) for t in _split_terms(tokens)]
    degree, bits = _assemble(monomials, algebra)
    return SteenrodElement(degree, bits)


def parse_dual(text: str, algebra: MilnorAlgebra) -> DualElement:
    tokens = _tokenize(text)
    if len(tokens) == 1 and tokens[0][0] == "int" and tokens[0][1] == "0":
        return DualElement(ZERO_DEGREE, 0)
    monomials = [_dual_term(t, algebra.max_stem) for t in _split_terms(tokens)]
    degree, bits = _assemble(monomials, algebra)
    return DualElement(degree, bits)


def format_monomial_steenrod(m: DualMonomial) -> str:
    if m.is_unit:
        return "1"
    parts = []
    if m.eps:
        parts.append("Q(" + ",".join(str(i) for i in m.eps) + ")")
    if m.r:
        parts.append("P(" + ",".join(str(e) for e in m.r) + ")")
    return "".join(parts)


def format_monomial_dual(m: DualMonomial) -> str:
    if m.is_unit:
        return "1"
    parts = [f"t{i}" for i in m.eps]
    for j, e in enumerate(m.r, start=1):
        if e == 1:
            parts.append(f"x{j}")
        elif e > 1:
            parts.append(f"x{j}^{e}")
    return " ".join(parts)


def format_steenrod(a: SteenrodElement) -> str:
    if a.is_zero():
        return "0"
    return " + ".join(format_monomial_steenrod(m) for m in a.dual_monomials())


def format_dual(x: DualElement) -> str:
    if x.is_zero():
        return "0"
    return " + ".join(format_monomial_dual(m) for m in x.monomials())
