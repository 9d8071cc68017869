"""The classical mod-2 Steenrod algebra in the Milnor basis, as an oracle.

The motivic dual algebra maps onto F2[xi_1, xi_2, ...] by killing the tau
generators; dualizing embeds the classical algebra into the motivic one,
graded by weight alone.  On the image, products can be computed by Milnor's
matrix formula with Lucas-style multinomial tests.  The motivic product
(MilnorAlgebra.product) uses the same formula, but this module shares no
code with it: it builds each matrix whole and tests its diagonals at the
end, so it stays an independent cross-check of the motivic product.

Milnor matrices here use the orientation in which Sq(2).Sq(1) equals
Sq(3) + Sq(0,1); that matches the convention that the left operand of a
product pairs against the left coproduct factor.
"""

from __future__ import annotations

from typing import Iterable

from ._record import Record
from .milnor import SteenrodElement, _trim


class ClassicalElement(Record):
    """F2 span of classical Milnor basis elements Sq(R), graded by weight."""

    __slots__ = ("weight", "terms")

    def __init__(self, weight: int, terms: frozenset[tuple[int, ...]]):
        self.weight = weight
        self.terms = terms

    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other: "ClassicalElement") -> "ClassicalElement":
        if self.weight != other.weight:
            raise ValueError(f"weight {self.weight} vs {other.weight}")
        return ClassicalElement(self.weight, self.terms ^ other.terms)


def classical_weight(r: Iterable[int]) -> int:
    return sum(e * (2**j - 1) for j, e in enumerate(r, start=1))


def to_classical(a: SteenrodElement) -> ClassicalElement:
    """Image under the quotient that kills every tau-divisible functional."""
    terms = frozenset(m.r for m in a.dual_monomials() if not m.eps)
    return ClassicalElement(a.degree.weight, terms)


def _bits_disjoint(parts: list[int]) -> bool:
    """The multinomial coefficient of the parts is odd iff no binary carries."""
    acc = 0
    for p in parts:
        if acc & p:
            return False
        acc |= p
    return True


def _milnor_matrices(r: tuple[int, ...], s: tuple[int, ...]):
    """All Milnor matrices for Sq(r).Sq(s) whose coefficient is odd.

    A matrix has entries x[i][j] for i, j >= 1, with the derived border
    x[i][0] = r_i - sum_j 2^j x[i][j] and x[0][j] = s_j - sum_i x[i][j],
    all required nonnegative.  Yields the diagonal-sum sequence T with
    T_l = sum_{i+j=l} x[i][j] whenever every diagonal multinomial is odd.
    """
    rows = len(r)
    cols = len(s)
    x = [[0] * (cols + 1) for _ in range(rows + 1)]

    def emit():
        col_used = [0] * (cols + 1)
        for i in range(1, rows + 1):
            for j in range(1, cols + 1):
                col_used[j] += x[i][j]
        border_top = []
        for j in range(1, cols + 1):
            v = s[j - 1] - col_used[j]
            if v < 0:
                return None
            border_top.append(v)
        border_left = []
        for i in range(1, rows + 1):
            v = r[i - 1] - sum((2**j) * x[i][j] for j in range(1, cols + 1))
            if v < 0:
                return None
            border_left.append(v)
        t = []
        for l in range(1, rows + cols + 1):
            parts = []
            if l <= cols:
                parts.append(border_top[l - 1])
            for i in range(1, rows + 1):
                j = l - i
                if j == 0:
                    parts.append(border_left[i - 1])
                elif 1 <= j <= cols:
                    parts.append(x[i][j])
            if not _bits_disjoint(parts):
                return None
            t.append(sum(parts))
        return _trim(t)

    def rec(i: int, j: int):
        if i > rows:
            t = emit()
            if t is not None:
                yield t
            return
        ni, nj = (i, j + 1) if j < cols else (i + 1, 1)
        budget = r[i - 1] - sum((2**jj) * x[i][jj] for jj in range(1, j))
        for v in range(budget // (2**j) + 1):
            x[i][j] = v
            yield from rec(ni, nj)
        x[i][j] = 0

    if rows == 0 or cols == 0:
        t = emit()
        if t is not None:
            yield t
        return
    yield from rec(1, 1)


def milnor_product(r: Iterable[int], s: Iterable[int]) -> ClassicalElement:
    """Sq(r).Sq(s) by Milnor matrices, all coefficients mod 2."""
    r = _trim(r)
    s = _trim(s)
    acc: dict[tuple[int, ...], int] = {}
    for t in _milnor_matrices(r, s):
        acc[t] = acc.get(t, 0) ^ 1
    return ClassicalElement(
        classical_weight(r) + classical_weight(s),
        frozenset(k for k, v in acc.items() if v),
    )


def classical_product(a: ClassicalElement, b: ClassicalElement) -> ClassicalElement:
    out = ClassicalElement(a.weight + b.weight, frozenset())
    for r in a.terms:
        for s in b.terms:
            out = out + milnor_product(r, s)
    return out
