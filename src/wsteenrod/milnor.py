"""The motivic mod-2 Steenrod algebra over C with tau killed, in the Milnor basis.

The dual algebra is the bigraded Hopf algebra

    F2[xi_1, xi_2, ...] (x) E(tau_0, tau_1, ...),

with |xi_n| = (2^{n+1}-2, 2^n-1) and |tau_n| = (2^{n+1}-1, 2^n-1) in
(stem, weight) bidegrees, coproduct

    D(xi_n)  = sum_i xi_{n-i}^{2^i} (x) xi_i,
    D(tau_n) = tau_n (x) 1 + sum_i xi_{n-i}^{2^i} (x) tau_i,

extended multiplicatively.  Operations are the linear functionals dual to
this monomial basis; their product is dual to the coproduct, with the fixed
convention that the LEFT operand pairs against the LEFT tensor factor:
<a.b, m> = sum <a, m_(1)> <b, m_(2)>.  Under this convention "x . P" is
precomposition with P, the form used by tower differentials.  Products are
computed by Milnor's matrix formula with tau parts (_product_bits), one
pair of basis functionals at a time, never by transposing coproducts.

The Chow degree stem - 2*weight of a monomial equals its number of tau
factors, so the whole algebra is concentrated in Chow degrees >= 0 and
minimality arguments terminate.  The antipode is an algebra map (the dual
is commutative), computed from its values on the generators without
reading any coproduct.

Bases, coproducts and antipodes are intrinsic to a bidegree or a monomial
and cached at module level: bidegree_basis and basis_index by bidegree,
coproduct_monomial and antipode_monomial by monomial.  The dual product
is the sum of packed codes everywhere: tau_i is one bit and each xi_j
exponent a field just wide enough for stem MAX_STEM = 255, 36 bits in
all, so monomials with no common tau multiply by adding their codes.
Both Hopf maps multiply cached terms through the one product _times, and
the coproduct of an operation (coproduct_components) reads it at code
sums.  A coproduct is the coproduct of the monomial's first generator
power, built as codes (one tensor slot per binary digit of its exponent),
times the cached coproduct of the rest.  An antipode is the product of
cached sub-antipodes.  Both maps are cached as ascending tuples of codes,
which the Hopf suite reads directly; coproduct_terms decodes a coproduct
into monomial pairs, and conjugate and antipode_dual look an antipode's
codes up in the codes of its bidegree's basis.  That layout holds every
term of a monomial of stem <= 255, and all three refuse larger ones with
a WindowError.  Antipode codes are interned: the terms of S(m) all lie in
m's bidegree and repeat across antipodes, so equal codes across all
cached antipodes are one shared int.  Coproduct codes are not.

A MilnorAlgebra instance adds a stem window, guards against leaving it,
and keeps the product caches, which live and die with it: the classical
xi part of a product by its pair of exponent tuples, and the unit block of
right multiplication by one basis monomial by the source bidegree and that
monomial's place in its basis.  A product reads only the basis products it
needs, so no whole multiplication table is built.  All cached data is
immutable once built.
"""

from __future__ import annotations

from bisect import bisect_left
from functools import lru_cache, reduce
from itertools import accumulate
from operator import xor
from typing import Iterable, Iterator, NamedTuple, Sequence

from ._record import Record
from .gf2 import BitMatrix, BitVector


class WindowError(ValueError):
    """Raised when a computation would leave the configured stem window."""


class BidegreeMismatch(ValueError):
    """Raised when two operands must share a bidegree but do not."""


class BiDegree(NamedTuple):
    stem: int
    weight: int

    @property
    def chow(self) -> int:
        return self.stem - 2 * self.weight

    def __add__(self, other: "BiDegree") -> "BiDegree":
        return BiDegree(self.stem + other.stem, self.weight + other.weight)

    def __sub__(self, other: "BiDegree") -> "BiDegree":
        return BiDegree(self.stem - other.stem, self.weight - other.weight)

    def times(self, k: int) -> "BiDegree":
        return BiDegree(k * self.stem, k * self.weight)

    def __str__(self) -> str:
        return f"({self.stem},{self.weight})"


ZERO_DEGREE = BiDegree(0, 0)


def xi_degree(j: int) -> BiDegree:
    """Bidegree of xi_j, j >= 1; also the bidegree of the operation P_j."""
    if j < 1:
        raise ValueError(f"xi index must be >= 1, got {j}")
    return BiDegree(2 ** (j + 1) - 2, 2**j - 1)


def tau_degree(i: int) -> BiDegree:
    """Bidegree of tau_i, i >= 0."""
    if i < 0:
        raise ValueError(f"tau index must be >= 0, got {i}")
    return BiDegree(2 ** (i + 1) - 1, 2**i - 1)


def pst_degree(s: int, t: int) -> BiDegree:
    """Bidegree of P^s_t, the functional dual to xi_t^(2^s)."""
    return xi_degree(t).times(2**s)


def _trim(r: Iterable[int]) -> tuple[int, ...]:
    out = list(r)
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


class DualMonomial(NamedTuple):
    """A monomial tau_eps * xi^r; eps is a sorted tuple, r is zero-trimmed.

    Tuple comparison gives the canonical basis order: lexicographic on the
    ascending tau index list, then on the exponent sequence.
    """

    eps: tuple[int, ...]
    r: tuple[int, ...]

    @property
    def degree(self) -> BiDegree:
        stem = sum(2 ** (i + 1) - 1 for i in self.eps)
        weight = sum(2**i - 1 for i in self.eps)
        for j, e in enumerate(self.r, start=1):
            stem += e * (2 ** (j + 1) - 2)
            weight += e * (2**j - 1)
        return BiDegree(stem, weight)

    @property
    def is_unit(self) -> bool:
        return not self.eps and not self.r


UNIT_MONOMIAL = DualMonomial((), ())


def monomial(eps: Iterable[int] = (), r: Iterable[int] = ()) -> DualMonomial:
    eps = tuple(sorted(set(eps)))
    return DualMonomial(eps, _trim(r))


def xi_monomial(j: int, e: int = 1) -> DualMonomial:
    if e == 0:
        return UNIT_MONOMIAL
    r = [0] * j
    r[j - 1] = e
    return DualMonomial((), tuple(r))


def tau_monomial(i: int) -> DualMonomial:
    return DualMonomial((i,), ())


# ---------------------------------------------------------------------------
# basis enumeration


def _eps_sets(count: int, start: int, weight_budget: int) -> Iterator[tuple[tuple[int, ...], int]]:
    """Tau index sets of the given size, yielding (indices, weight used)."""
    if count == 0:
        yield (), 0
        return
    i = start
    while 2**i - 1 <= weight_budget:
        for rest, w in _eps_sets(count - 1, i + 1, weight_budget - (2**i - 1)):
            yield (i,) + rest, w + 2**i - 1
        i += 1


@lru_cache(maxsize=None)
def _xi_exponents(weight: int, jmax: int) -> tuple[tuple[int, ...], ...]:
    """Exponent tuples (r_1..r_jmax, trimmed) with sum r_j*(2^j - 1) = weight."""
    if weight == 0:
        return ((),)
    if jmax == 0:
        return ()
    out = []
    unit = 2**jmax - 1
    for e in range(weight // unit + 1):
        for rest in _xi_exponents(weight - e * unit, jmax - 1):
            if e == 0:
                out.append(rest)
            else:
                r = list(rest) + [0] * (jmax - len(rest))
                r[jmax - 1] = e
                out.append(tuple(r))
    return tuple(out)


@lru_cache(maxsize=None, typed=True)
def bidegree_basis(d: BiDegree) -> tuple[DualMonomial, ...]:
    """All dual monomials of bidegree d, in canonical order.

    Empty when the Chow degree is negative or the weight is; the Chow degree
    of a monomial counts its tau factors, which pins the search.  The cache
    is typed: a plain (stem, weight) tuple hashes and compares equal to its
    BiDegree, so an untyped cache would answer it once the BiDegree had
    been asked and fail on it before; typed, it always fails.
    """
    chow = d.chow
    if chow < 0 or d.weight < 0:
        return ()
    out = []
    for eps, wtau in _eps_sets(chow, 0, d.weight if chow else 0):
        wxi = d.weight - wtau
        # largest j with 2^j - 1 <= wxi
        jmax = 0
        j = 1
        while 2**j - 1 <= wxi:
            jmax = j
            j += 1
        for r in _xi_exponents(wxi, jmax):
            out.append(DualMonomial(tuple(eps), r))
    out.sort()
    return tuple(out)


@lru_cache(maxsize=None, typed=True)
def basis_index(d: BiDegree) -> dict[DualMonomial, int]:
    return {m: i for i, m in enumerate(bidegree_basis(d))}


def enumerate_window_monomials(max_stem: int) -> Iterator[DualMonomial]:
    """Sweep all monomials of stem <= max_stem by raw exponent loops.

    Independent of the per-bidegree enumeration, so the two can be checked
    against each other, and basis-level claims (Chow nonnegativity, weight
    nonnegativity) can be asserted on concrete monomials.
    """

    def xi_part(j: int, budget: int) -> Iterator[tuple[tuple[int, ...], int]]:
        if j == 0 or budget < xi_degree(1).stem:
            yield (), 0
            return
        unit = xi_degree(j).stem
        for rest, used in xi_part(j - 1, budget):
            e = 0
            while used + e * unit <= budget:
                if e == 0:
                    yield rest, used
                else:
                    r = list(rest) + [0] * (j - len(rest))
                    r[j - 1] = e
                    yield tuple(r), used + e * unit
                e += 1

    jmax = 0
    while xi_degree(jmax + 1).stem <= max_stem:
        jmax += 1
    taus = [i for i in range(max_stem.bit_length() + 1) if tau_degree(i).stem <= max_stem]

    def tau_part(k: int, budget: int) -> Iterator[tuple[tuple[int, ...], int]]:
        if k == len(taus):
            yield (), 0
            return
        for rest, used in tau_part(k + 1, budget):
            yield rest, used
            cost = tau_degree(taus[k]).stem
            if used + cost <= budget:
                yield (taus[k],) + rest, used + cost

    for eps, tau_stem in tau_part(0, max_stem):
        for r, _ in xi_part(jmax, max_stem - tau_stem):
            yield DualMonomial(tuple(sorted(eps)), _trim(r))


def bidegree_dim(d: BiDegree) -> int:
    return len(bidegree_basis(d))


# ---------------------------------------------------------------------------
# coproduct and antipode


# The largest stem window.  Its worst single bidegree enumerates in well
# under a second, while windows far beyond it would spend minutes or more
# listing bases before any output.  The command line refuses larger
# windows, and the packed layout below is sized for it.
MAX_STEM = 255


# Coproduct and antipode terms are multiplied as packed ints.  A monomial's
# code has tau_i at bit i for the taus of stem <= MAX_STEM (tau_0..tau_7,
# bits 0-7), and above them the exponent of each xi_j of stem <= MAX_STEM
# in a field just wide enough for its largest exponent at that stem: 7, 6,
# 5, 4, 3, 2 and 1 bits for xi_1..xi_7, CODE_BITS = 36 bits in all.  So the
# product of two monomials with no common tau is the sum of their codes.
# A term left (x) right is left << CODE_BITS | right, and the product of
# two terms is again the sum when neither side shares a tau.  Every factor
# of a coproduct or antipode term of m, and of every partial product that
# builds it, has stem <= |m|, so for |m| <= MAX_STEM every exponent fits
# its field and nothing carries; both maps refuse larger m with a
# WindowError.
_TAU_BITS = sum(tau_degree(i).stem <= MAX_STEM for i in range(MAX_STEM.bit_length()))
_WIDTHS = [
    (MAX_STEM // xi_degree(j).stem).bit_length()
    for j in range(1, MAX_STEM.bit_length())
    if xi_degree(j).stem <= MAX_STEM
]
# _XI[j] is the offset of xi_j's field, j >= 1, and _XI[-1] the code width
_XI = (0, *accumulate([_TAU_BITS, *_WIDTHS]))
_FIELDS = tuple(zip(_XI[1:], _WIDTHS))
CODE_BITS = _XI[-1]
TAU_MASK = (1 << _TAU_BITS) - 1
_SIDE = (1 << CODE_BITS) - 1
_PAIR_TAUS = TAU_MASK << CODE_BITS | TAU_MASK


def monomial_code(m: DualMonomial) -> int:
    """The packed code of a monomial of stem <= MAX_STEM."""
    code = 0
    for i in m.eps:
        code |= 1 << i
    for j, e in enumerate(m.r, start=1):
        code += e << _XI[j]
    return code


def _delta_xi_power(j: int, e: int) -> list[int]:
    """Coproduct of xi_j^e as packed terms: assign each binary digit of e
    to a tensor slot.

    Slot i contributes xi_{j-i}^(2^i c) on the left and xi_i^c on the right;
    distinct digit assignments give distinct compositions, which is exactly
    the odd-multinomial (Lucas) condition, so no parity bookkeeping is
    needed here.  The digits of one slot are distinct bits, so adding their
    codes never carries.
    """
    terms = [0]
    for c in (1 << k for k in range(e.bit_length()) if e >> k & 1):
        slots = []
        for i in range(j + 1):
            left = (c << i) << _XI[j - i] if i < j else 0
            right = c << _XI[i] if i > 0 else 0
            slots.append(left << CODE_BITS | right)
        terms = [t + slot for t in terms for slot in slots]
    return terms


def _delta_tau(i: int) -> list[int]:
    """Coproduct of tau_i as packed terms: tau_i (x) 1 plus
    xi_{i-k}^(2^k) (x) tau_k for k = 0..i."""
    terms = [(1 << i) << CODE_BITS]
    for k in range(i + 1):
        left = (1 << k) << _XI[i - k] if k < i else 0
        right = 1 << k
        terms.append(left << CODE_BITS | right)
    return terms


def _times(xs: Iterable[int], ys: Sequence[int], taus: int) -> set[int]:
    """The F2 sum of x + y over the pairs of codes that share no bit of
    taus: the packed product (sum xs) . (sum ys).  For one x the sums with
    distinct ys are distinct, so one update per x adds each product once."""
    acc: set[int] = set()
    for x in xs:
        acc.symmetric_difference_update([x + y for y in ys if not x & y & taus])
    return acc


def _decode(code: int) -> DualMonomial:
    """The monomial of a packed code."""
    eps = tuple(i for i in range(_TAU_BITS) if code >> i & 1) if code & TAU_MASK else ()
    # the xi fields up to the one holding the top bit, so r comes trimmed
    fields = _FIELDS[: bisect_left(_XI, code.bit_length(), 1) - 1]
    return DualMonomial(eps, tuple([code >> offset & (1 << width) - 1 for offset, width in fields]))


# code -> the one shared int of that code, for the codes of cached antipodes
_SHARED: dict[int, int] = {}


def _check_packable(m: DualMonomial | SteenrodElement, what: str) -> None:
    if m.degree.stem > MAX_STEM:
        raise WindowError(
            f"{what} of {m!r} exceeds stem <= {MAX_STEM}, the bound of its packed terms"
        )


def _code_places(d: BiDegree) -> dict[int, int]:
    """The place of each monomial of the basis of d, by its code."""
    return {monomial_code(m): i for i, m in enumerate(bidegree_basis(d))}


@lru_cache(maxsize=None)
def coproduct_monomial(m: DualMonomial) -> tuple[int, ...]:
    """The full coproduct of a monomial as an F2 set of packed terms
    left << CODE_BITS | right, ascending.

    D(m) = D(first) . D(rest), where first is m's first generator power
    (its lowest xi power, or its first tau when it has no xi) and the
    cached codes of D(rest) are multiplied by it directly.  A monomial of
    stem above MAX_STEM = 255 raises WindowError.  coproduct_terms decodes
    the terms into monomial pairs.
    """
    eps, r = m
    if not (eps or r):
        return (0,)
    _check_packable(m, "coproduct")
    if r:
        j = next(j for j, e in enumerate(r, start=1) if e)
        factor = _delta_xi_power(j, r[j - 1])
        rest = DualMonomial(eps, _trim(r[: j - 1] + (0,) + r[j:]))
    else:
        factor = _delta_tau(eps[0])
        rest = DualMonomial(eps[1:], r)
    return tuple(sorted(_times(coproduct_monomial(rest), factor, _PAIR_TAUS)))


def coproduct_terms(m: DualMonomial) -> tuple[tuple[DualMonomial, DualMonomial], ...]:
    """The coproduct of a monomial as sorted (left, right) monomial pairs,
    decoded afresh from coproduct_monomial."""
    terms = coproduct_monomial(m)
    return tuple(sorted([(_decode(p >> CODE_BITS), _decode(p & _SIDE)) for p in terms]))


@lru_cache(maxsize=None)
def antipode_monomial(m: DualMonomial) -> tuple[int, ...]:
    """Antipode on a monomial, as an algebra map: the packed codes of its
    terms, ascending.

    The dual is commutative, so S(m) = S(one factor) . S(the rest).  On
    generators the antipode axiom gives

        S(xi_n)  = xi_n  + sum_{0<i<n} xi_{n-i}^(2^i) S(xi_i),
        S(tau_n) = tau_n + sum_{0<=k<n} xi_{n-k}^(2^k) S(tau_k),

    and squaring is additive mod 2, so S(xi_j^(2e)) is S(xi_j^e) with its
    exponents doubled.  No coproduct is read, which keeps the antipode
    axiom in the Hopf suite an independent check.  The sub-antipodes are
    multiplied as packed ints by _times, like coproduct terms, so a
    monomial of stem above MAX_STEM = 255 raises WindowError, and each
    code is the one shared int of its value.
    """
    if m.is_unit:
        return (0,)
    _check_packable(m, "antipode")
    eps, r = m
    if len(eps) + len(r) - r.count(0) > 1:  # two or more generator powers
        if eps:
            first, rest = tau_monomial(eps[0]), DualMonomial(eps[1:], r)
        else:
            first, rest = xi_monomial(len(r), r[-1]), DualMonomial((), _trim(r[:-1]))
        acc = _times(antipode_monomial(first), antipode_monomial(rest), TAU_MASK)
    elif not eps and r[-1] > 1:
        j, e = len(r), r[-1]
        if e % 2 == 0:
            # tau-free, so doubling the code doubles the exponent in every
            # field, and the doubled exponents still fit theirs
            acc = [c << 1 for c in antipode_monomial(xi_monomial(j, e // 2))]
        else:
            first, rest = xi_monomial(j), xi_monomial(j, e - 1)
            acc = _times(antipode_monomial(first), antipode_monomial(rest), TAU_MASK)
    else:
        # a generator: tau_n (its terms run from k = 0) or xi_n (from k = 1)
        n, generator, low = (eps[0], tau_monomial, 0) if eps else (len(r), xi_monomial, 1)
        acc = {1 << n if eps else 1 << _XI[n]}
        for k in range(low, n):
            acc ^= _times([(1 << k) << _XI[n - k]], antipode_monomial(generator(k)), TAU_MASK)
    return tuple(sorted([_SHARED.setdefault(c, c) for c in acc]))


# ---------------------------------------------------------------------------
# the product of two basis functionals


def _xi_product(r: tuple[int, ...], s: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    """The exponents T whose D(xi^T) holds xi^r (x) xi^s oddly: P(r) . P(s).

    D(xi^T) picks, for each diagonal n, a split of T_n into entries x_ij
    (i + j = n) that put xi_i^(2^j x_ij) on the left and xi_j^(x_ij) on the
    right, with multinomial coefficient T_n! / prod x_ij!.  So xi^r (x) xi^s
    arises once per Milnor matrix with sum_j 2^j x_ij = r_i (row i >= 1) and
    sum_i x_ij = s_j (column j >= 1), and the coefficient is odd exactly when
    the entries of every diagonal have disjoint binary digits; T_n is then
    their bitwise union.  The free entries are i, j >= 1, filled row by row;
    x_i0 and x_0j take what is left of r_i and s_j.  A diagonal is dropped
    the moment a new entry shares a digit with it.  Two matrices may give
    the same T, so T is kept when it is reached an odd number of times.
    """
    rows, cols = len(r), len(s)
    if not rows or not cols:
        return (r or s,)
    out: dict[tuple[int, ...], int] = {}
    diag = [0] * (rows + cols + 1)
    rem_s = list(s)

    def cell(i: int, j: int, rem_r: int) -> None:
        if j > cols:
            # row i is complete: x_i0 is what r_i has left
            if rem_r & diag[i]:
                return
            diag[i] |= rem_r
            if i < rows:
                cell(i + 1, 1, r[i])
            elif not any(rem_s[k - 1] & diag[k] for k in range(1, cols + 1)):
                t = diag[1:]
                for k in range(cols):
                    t[k] |= rem_s[k]
                key = _trim(t)
                out[key] = out.get(key, 0) ^ 1
            diag[i] ^= rem_r
            return
        n = i + j
        seen = diag[n]
        for v in range(min(rem_r >> j, rem_s[j - 1]) + 1):
            if v & seen:
                continue
            diag[n] = seen | v
            rem_s[j - 1] -= v
            cell(i, j + 1, rem_r - (v << j))
            rem_s[j - 1] += v
        diag[n] = seen

    cell(1, 1, r[0])
    return tuple(t for t, odd in out.items() if odd)


def _tau_moves(
    eps: tuple[int, ...], r: tuple[int, ...], ks: tuple[int, ...]
) -> Iterator[tuple[tuple[int, ...], tuple[int, ...]]]:
    """Place the right factor's tau_k (k in ks) on taus of the result.

    D(tau_n) = tau_n (x) 1 + sum_k xi_{n-k}^(2^k) (x) tau_k, so each tau_k
    on the right comes from its own tau_n, n >= k, that is not already a
    left tau.  For n > k it leaves xi_{n-k}^(2^k) on the left, which is
    taken out of the left exponents r.  Yields the result's taus and what
    is left of r, once per placement.
    """
    if not ks:
        yield eps, r
        return
    k, rest = ks[0], ks[1:]
    if k not in eps:
        yield from _tau_moves(tuple(sorted(eps + (k,))), r, rest)
    step = 1 << k
    for i, e in enumerate(r, start=1):
        if e >= step and k + i not in eps:
            left = list(r)
            left[i - 1] -= step
            yield from _tau_moves(tuple(sorted(eps + (k + i,))), _trim(left), rest)


# The memo of classical xi parts: (r, s) -> _xi_product(r, s).
_XiMemo = dict[tuple[tuple[int, ...], tuple[int, ...]], tuple[tuple[int, ...], ...]]


def _monomial_bits(index: dict[DualMonomial, int], monomials: Iterable[DualMonomial]) -> int:
    """The sum of the monomials, as bits over index."""
    bits = 0
    for m in monomials:
        bits ^= 1 << index[m]
    return bits


def _antipode_rows(d: BiDegree, monomials: Iterable[DualMonomial]) -> Iterator[int]:
    """S(m) for each of the monomials, of bidegree d, as bits over the
    basis of d, whose places are looked up by code.  A term outside it,
    which only a faulty antipode gives, raises BidegreeMismatch."""
    places = _code_places(d)
    for m in monomials:
        bits = 0
        try:
            for c in antipode_monomial(m):
                bits ^= 1 << places[c]
        except KeyError as exc:
            raise BidegreeMismatch(
                f"antipode of {m!r} has the term {_decode(exc.args[0])!r} outside {d}"
            ) from None
        yield bits


def _product_bits(
    index: dict[DualMonomial, int],
    lefts: Iterable[DualMonomial],
    rights: tuple[DualMonomial, ...],
    xi: _XiMemo,
) -> int:
    """The sum of the products of lefts by rights, as bits over index.

    Each pair (m1, m2) reaches tau_eps xi^T once per tau placement
    (_tau_moves) and exponent T of that placement's xi part, read from, or
    added to, the memo xi; a tau-free m2 has the one placement (m1.eps,
    m1.r).  Two placements may reach the same monomial, so the bits are
    XORed and a monomial reached an odd number of times is a term.
    """
    bits = 0
    for m1 in lefts:
        for m2 in rights:
            s = m2.r
            places = _tau_moves(m1.eps, m1.r, m2.eps) if m2.eps else (m1,)
            for eps, r in places:
                ts = xi.get((r, s))
                if ts is None:
                    ts = xi[r, s] = _xi_product(r, s)
                for t in ts:
                    bits ^= 1 << index[DualMonomial(eps, t)]
    return bits


# ---------------------------------------------------------------------------
# elements


class _Element(Record):
    """An F2 combination of the monomials of one bidegree, as packed bits:
    bit i is the coefficient of the i-th canonical monomial."""

    __slots__ = ("degree", "bits")

    def __init__(self, degree: BiDegree, bits: int):
        self.degree = degree
        self.bits = bits

    def is_zero(self) -> bool:
        return self.bits == 0

    def coeffs(self) -> BitVector:
        return BitVector(bidegree_dim(self.degree), self.bits)

    def _monomials(self) -> tuple[DualMonomial, ...]:
        basis = bidegree_basis(self.degree)
        return tuple(basis[i] for i in range(len(basis)) if (self.bits >> i) & 1)

    def __add__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        if self.degree != other.degree:
            raise BidegreeMismatch(f"{self.degree} vs {other.degree}")
        return self.__class__(self.degree, self.bits ^ other.bits)


class DualElement(_Element):
    """An F2 combination of dual monomials in one bidegree, as packed bits."""

    __slots__ = ()

    monomials = _Element._monomials


class SteenrodElement(_Element):
    """An operation: a functional on the dual monomials of one bidegree.

    Coordinate i is the value on the i-th canonical monomial, so P^R is the
    unit vector at xi^R and Q(i) the unit vector at tau_i.
    """

    __slots__ = ()

    dual_monomials = _Element._monomials


def dual_element(monomials: Iterable[DualMonomial], degree: BiDegree | None = None) -> DualElement:
    monomials = list(monomials)
    if degree is None:
        if not monomials:
            raise ValueError("degree required for an empty combination")
        degree = monomials[0].degree
    for m in monomials:
        if m.degree != degree:
            raise BidegreeMismatch(f"{m} not in bidegree {degree}")
    return DualElement(degree, _monomial_bits(basis_index(degree), monomials))


def steenrod_element(duals: Iterable[DualMonomial], degree: BiDegree | None = None) -> SteenrodElement:
    el = dual_element(duals, degree)
    return SteenrodElement(el.degree, el.bits)


# ---------------------------------------------------------------------------
# the windowed algebra


class MilnorAlgebra:
    """The algebra of operations, enumerated for stems up to max_stem.

    Products, the left and right multiplication matrices and mult_table add
    up basis products over the support of the fixed operand(s) only.  There
    is one product path: right_pt_matrix is right_mult_matrix at P_t, a
    name kept for the tower code and the bench tracer.  The instance's
    caches:

    - _xi: (r, s) -> the exponents T of P(r) . P(s), the classical xi part
      left once the taus of a product are placed (_tau_moves); every
      product of this algebra reads it.
    - _rmul: (d1, |m2|, the bit of m2 in its basis) -> the unit block of
      x -> x . m2 on the basis of d1, built by unit_block alone;
      right_mult_matrix and the resolver's matrix assembly add these up,
      and the resolver reads it by key.
    - _dims: stem -> the (weight, dim) pairs, weight ascending, of the
      nonempty bases of that stem (weight_dims); the resolver lays out a
      free module at every weight of an internal stem from it in one pass.
    - _sweep: every monomial of the window with its bidegree, from one
      enumerate_window_monomials sweep (window_sweep).
    """

    def __init__(self, max_stem: int):
        if max_stem < 0:
            raise ValueError("max_stem must be >= 0")
        self.max_stem = max_stem
        self._rmul: dict[tuple[BiDegree, BiDegree, int], BitMatrix] = {}
        self._xi: _XiMemo = {}
        self._dims: dict[int, tuple[tuple[int, int], ...]] = {}
        self._sweep: tuple[tuple[DualMonomial, BiDegree], ...] | None = None

    # -- window -------------------------------------------------------

    def require(self, d: BiDegree) -> BiDegree:
        if d.stem > self.max_stem:
            raise WindowError(f"bidegree {d} exceeds window stem<={self.max_stem}")
        return d

    def bidegrees(self, max_stem: int) -> Iterator[BiDegree]:
        """Bidegrees with nonempty basis and stem at most max_stem, within
        the window."""
        top = min(max_stem, self.max_stem)
        for s in range(top + 1):
            for w, _ in self.weight_dims(s):
                yield BiDegree(s, w)

    def weight_dims(self, stem: int) -> tuple[tuple[int, int], ...]:
        """The pairs (w, dim of the basis at (stem, w)), w ascending, with a
        nonempty basis, for any stem >= 0 (not only the window's)."""
        dims = self._dims.get(stem)
        if dims is None:
            dims = tuple(
                (w, n) for w in range(stem // 2 + 1) if (n := bidegree_dim(BiDegree(stem, w)))
            )
            self._dims[stem] = dims
        return dims

    def window_sweep(self) -> tuple[tuple[DualMonomial, BiDegree], ...]:
        """(monomial, bidegree) for every monomial of the window, in the
        order of enumerate_window_monomials, swept once per instance."""
        if self._sweep is None:
            self._sweep = tuple(
                (m, m.degree) for m in enumerate_window_monomials(self.max_stem)
            )
        return self._sweep

    # -- dual side ------------------------------------------------------

    def dim(self, d: BiDegree) -> int:
        return len(bidegree_basis(d))

    def antipode_dual(self, x: DualElement) -> DualElement:
        """The antipode of x, from its own monomials only."""
        d = self.require(x.degree)
        return DualElement(d, reduce(xor, _antipode_rows(d, x.monomials()), 0))

    # -- pairing and products -------------------------------------------

    def pair(self, a: SteenrodElement, x: DualElement) -> int:
        """The value of the operation a on the dual element x."""
        if not (isinstance(a, SteenrodElement) and isinstance(x, DualElement)):
            raise TypeError(
                "pair takes an operation and a dual element, not "
                f"{type(a).__name__} and {type(x).__name__}"
            )
        if a.degree != x.degree:
            raise BidegreeMismatch(f"{a.degree} vs {x.degree}")
        return (a.bits & x.bits).bit_count() & 1

    def mult_table(self, d1: BiDegree, d2: BiDegree) -> tuple[tuple[tuple[int, int], ...], ...]:
        """Structure constants of the product at (d1, d2), built afresh.

        Entry m lists the (i, j) with basis(d1)[i] (x) basis(d2)[j] occurring
        in the coproduct of the m-th monomial of d1 + d2.  Products never
        read this view; it is the whole table at once, for inspection.
        """
        index = basis_index(self.require(d1 + d2))
        rows: list[list[tuple[int, int]]] = [[] for _ in index]
        for i, m1 in enumerate(bidegree_basis(d1)):
            for j, m2 in enumerate(bidegree_basis(d2)):
                bits = _product_bits(index, (m1,), (m2,), self._xi)
                while bits:
                    low = bits & -bits
                    rows[low.bit_length() - 1].append((i, j))
                    bits ^= low
        return tuple(map(tuple, rows))

    def product(self, a: SteenrodElement, b: SteenrodElement) -> SteenrodElement:
        d = self.require(a.degree + b.degree)
        bits = _product_bits(basis_index(d), a.dual_monomials(), b.dual_monomials(), self._xi)
        return SteenrodElement(d, bits)

    def unit_block(self, d1: BiDegree, d2: BiDegree, low: int) -> BitMatrix:
        """The unit block x -> x . m2 on basis functionals at d1, where m2
        is the monomial of d2 at the single bit low; built once and kept
        in _rmul under (d1, d2, low)."""
        key = (d1, d2, low)
        unit = self._rmul.get(key)
        if unit is None:
            index = basis_index(self.require(d1 + d2))
            m2 = (bidegree_basis(d2)[low.bit_length() - 1],)
            rows = [_product_bits(index, (m1,), m2, self._xi) for m1 in bidegree_basis(d1)]
            unit = self._rmul[key] = BitMatrix(len(index), rows)
        return unit

    def right_mult_matrix(self, d1: BiDegree, b: SteenrodElement) -> BitMatrix:
        """Matrix of x -> x . b on basis functionals at d1.

        The XOR of the unit blocks x -> x . m2 over the monomials m2 of b
        (unit_block); a one-term b returns its unit block itself, and a sum
        is added up afresh from them.
        """
        units = []
        bits = b.bits
        while bits:
            low = bits & -bits
            bits ^= low
            units.append(self.unit_block(d1, b.degree, low))
        if len(units) == 1:
            return units[0]
        rows = [0] * bidegree_dim(d1)
        for unit in units:
            rows = list(map(xor, rows, unit.rows))
        return BitMatrix(bidegree_dim(self.require(d1 + b.degree)), rows)

    def left_mult_matrix(self, a: SteenrodElement, d2: BiDegree) -> BitMatrix:
        """Matrix of x -> a . x on basis functionals at d2."""
        index = basis_index(self.require(a.degree + d2))
        left = a.dual_monomials()
        rows = [_product_bits(index, left, (m2,), self._xi) for m2 in bidegree_basis(d2)]
        return BitMatrix(len(index), rows)

    def right_pt_matrix(self, t: int, d1: BiDegree) -> BitMatrix:
        """Matrix of x -> x . P_t on basis functionals at d1."""
        return self.right_mult_matrix(d1, self.pt(t))

    # -- coproduct on operations and conjugation ------------------------

    def coproduct_components(
        self, a: SteenrodElement, left: BiDegree
    ) -> list[tuple[SteenrodElement, SteenrodElement]]:
        """The (left, |a|-left) component of the coproduct of an operation.

        Transposes the dual product: the (i, j) coefficient is the bit of a
        at code(basis(left)[i]) + code(basis(right)[j]) when the two codes
        share no tau, else 0, so a of stem above MAX_STEM raises
        WindowError.  The dual algebra is commutative, so this coproduct is
        cocommutative and no pairing convention enters.
        """
        _check_packable(a, "coproduct")
        right = a.degree - left
        lcodes = [monomial_code(m) for m in bidegree_basis(left)]
        rcodes = [monomial_code(m) for m in bidegree_basis(right)]
        if not lcodes or not rcodes:
            return []
        places = _code_places(a.degree)
        bits = a.bits
        return [
            (SteenrodElement(left, 1 << i), SteenrodElement(right, 1 << j))
            for i, x in enumerate(lcodes)
            for j, y in enumerate(rcodes)
            if not x & y & TAU_MASK and bits >> places[x + y] & 1
        ]

    def conjugate(self, a: SteenrodElement) -> SteenrodElement:
        """Transpose of the dual antipode: <c(a), x> = <a, c(x)>.  Bit j is
        set when a meets S(m_j), the antipode of the j-th basis monomial, an
        odd number of times."""
        d = self.require(a.degree)
        bits = 0
        for j, row in enumerate(_antipode_rows(d, bidegree_basis(d))):
            if (a.bits & row).bit_count() & 1:
                bits |= 1 << j
        return SteenrodElement(d, bits)

    # -- named elements ---------------------------------------------------

    def unit(self) -> SteenrodElement:
        return SteenrodElement(ZERO_DEGREE, 1)

    def zero(self, d: BiDegree) -> SteenrodElement:
        return SteenrodElement(d, 0)

    def from_dual_monomial(self, m: DualMonomial) -> SteenrodElement:
        d = self.require(m.degree)
        return SteenrodElement(d, 1 << basis_index(d)[m])

    def pst(self, s: int, t: int) -> SteenrodElement:
        """The operation P^s_t, dual to xi_t^(2^s); pst(0, t) is P_t."""
        if s < 0 or t < 1:
            raise ValueError(f"need s >= 0 and t >= 1, got ({s}, {t})")
        # 2**s > s and |xi_t| > t, so an s or t past the window never fits
        if s > self.max_stem or t > self.max_stem or pst_degree(s, t).stem > self.max_stem:
            raise WindowError(f"P^{s}_{t} exceeds window stem<={self.max_stem}")
        return self.from_dual_monomial(xi_monomial(t, 2**s))

    def pt(self, t: int) -> SteenrodElement:
        return self.pst(0, t)

    def pR(self, r: Iterable[int]) -> SteenrodElement:
        """The Milnor basis element P^R, dual to xi_1^{r_1} xi_2^{r_2} ..."""
        return self.from_dual_monomial(monomial((), r))

    def q(self, i: int) -> SteenrodElement:
        """The functional dual to tau_i."""
        if i < 0:
            raise ValueError(f"need i >= 0, got {i}")
        return self.from_dual_monomial(tau_monomial(i))

    def basis_functionals(self, d: BiDegree) -> list[SteenrodElement]:
        d = self.require(d)
        return [SteenrodElement(d, 1 << i) for i in range(self.dim(d))]


@lru_cache(maxsize=None)
def algebra(max_stem: int) -> MilnorAlgebra:
    """Shared algebra instance per window size."""
    return MilnorAlgebra(max_stem)
