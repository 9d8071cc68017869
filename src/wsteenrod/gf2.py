"""Dense bit-packed linear algebra over the two-element field.

Vectors are fixed-length bit strings packed into Python integers (bit j is
coordinate j), so vector addition is a single XOR and all arithmetic is
exact.

Every elimination goes through one routine, ``_insert``.  It keeps a
reduced row echelon basis as a list of rows sorted by pivot column, where a
row's pivot is its lowest set bit and no other row has that bit.  A new
vector is first reduced: each basis row whose pivot bit it carries is added
to it.  If the remainder is nonzero, its lowest bit becomes a new pivot,
that column is cleared from the rows with smaller pivots, and the remainder
is inserted in pivot order.  ``rref``, ``rank``, ``kernel``, ``solve`` and
``Subspace.extend`` are loops of it, and ``Subspace.reduce`` is its first
half.

The output is canonical.  A subspace has exactly one reduced row echelon
basis, and a vector exactly one remainder modulo it (the element of its
coset that vanishes at every pivot).  So echelon rows, pivots and
remainders depend only on the span of the rows fed in, not on their order,
which makes every derived basis reproducible across runs.

Everything here is immutable after construction and safe to share between
threads.
"""

from __future__ import annotations

from bisect import bisect
from dataclasses import dataclass
from typing import Callable, Iterable, NamedTuple


class DimensionMismatch(ValueError):
    """Raised when an operand has the wrong ambient dimension."""


def _mask(n: int) -> int:
    return (1 << n) - 1


class BitVector:
    """A vector over GF(2) of fixed length, packed into one integer."""

    __slots__ = ("length", "bits")

    def __init__(self, length: int, bits: int = 0):
        if length < 0:
            raise DimensionMismatch(f"negative length {length}")
        if bits < 0 or bits >> length:
            raise DimensionMismatch(f"bits 0x{bits:x} overflow length {length}")
        self.length = length
        self.bits = bits

    @classmethod
    def from_support(cls, length: int, support: Iterable[int]) -> "BitVector":
        bits = 0
        for j in support:
            if not 0 <= j < length:
                raise DimensionMismatch(f"index {j} out of range for length {length}")
            bits ^= 1 << j
        return cls(length, bits)

    def __len__(self) -> int:
        return self.length

    def __getitem__(self, j: int) -> int:
        if not 0 <= j < self.length:
            raise IndexError(j)
        return (self.bits >> j) & 1

    def __xor__(self, other: "BitVector") -> "BitVector":
        if self.length != other.length:
            raise DimensionMismatch(f"length {self.length} vs {other.length}")
        return BitVector(self.length, self.bits ^ other.bits)

    __add__ = __xor__

    def dot(self, other: "BitVector") -> int:
        if self.length != other.length:
            raise DimensionMismatch(f"length {self.length} vs {other.length}")
        return (self.bits & other.bits).bit_count() & 1

    def is_zero(self) -> bool:
        return self.bits == 0

    def support(self) -> tuple[int, ...]:
        return tuple(j for j in range(self.length) if (self.bits >> j) & 1)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, BitVector)
            and self.length == other.length
            and self.bits == other.bits
        )

    def __hash__(self) -> int:
        return hash((self.length, self.bits))

    def __repr__(self) -> str:
        return f"BitVector({self.length}, 0b{self.bits:0{max(self.length, 1)}b})"


class BitMatrix:
    """A list of equal-length bit-packed rows."""

    __slots__ = ("nrows", "ncols", "rows")

    def __init__(self, ncols: int, rows: Iterable[int]):
        rows = tuple(rows)
        if ncols < 0:
            raise DimensionMismatch(f"negative column count {ncols}")
        for r in rows:
            if r < 0 or r >> ncols:
                raise DimensionMismatch(f"row 0x{r:x} overflows {ncols} columns")
        self.ncols = ncols
        self.nrows = len(rows)
        self.rows = rows

    @classmethod
    def from_vectors(cls, ncols: int, vectors: Iterable[BitVector]) -> "BitMatrix":
        vecs = list(vectors)
        for v in vecs:
            if v.length != ncols:
                raise DimensionMismatch(f"row length {v.length} vs {ncols} columns")
        return cls(ncols, (v.bits for v in vecs))

    @classmethod
    def from_entries(cls, entries: list[list[int]], ncols: int | None = None) -> "BitMatrix":
        if ncols is None:
            ncols = len(entries[0]) if entries else 0
        rows = []
        for row in entries:
            if len(row) != ncols:
                raise DimensionMismatch("ragged rows")
            bits = 0
            for j, v in enumerate(row):
                if v & 1:
                    bits |= 1 << j
            rows.append(bits)
        return cls(ncols, rows)

    @classmethod
    def identity(cls, n: int) -> "BitMatrix":
        return cls(n, (1 << i for i in range(n)))

    @classmethod
    def zero(cls, nrows: int, ncols: int) -> "BitMatrix":
        return cls(ncols, (0,) * nrows)

    def row(self, i: int) -> BitVector:
        return BitVector(self.ncols, self.rows[i])

    def entry(self, i: int, j: int) -> int:
        return (self.rows[i] >> j) & 1

    def mul_vec(self, v: BitVector) -> BitVector:
        """Matrix times column vector: coordinate i is row_i . v."""
        if v.length != self.ncols:
            raise DimensionMismatch(f"vector length {v.length} vs {self.ncols} columns")
        bits = 0
        for i, r in enumerate(self.rows):
            if (r & v.bits).bit_count() & 1:
                bits |= 1 << i
        return BitVector(self.nrows, bits)

    def vec_mul(self, v: BitVector) -> BitVector:
        """Row vector times matrix: XOR of the rows selected by v."""
        if v.length != self.nrows:
            raise DimensionMismatch(f"vector length {v.length} vs {self.nrows} rows")
        acc = 0
        bits = v.bits
        while bits:
            i = (bits & -bits).bit_length() - 1
            acc ^= self.rows[i]
            bits &= bits - 1
        return BitVector(self.ncols, acc)

    def compose(self, other: "BitMatrix") -> "BitMatrix":
        """Self followed by other, rows acting on the left (row_i @ other)."""
        if self.ncols != other.nrows:
            raise DimensionMismatch(f"{self.ncols} columns vs {other.nrows} rows")
        out = []
        for r in self.rows:
            acc = 0
            bits = r
            while bits:
                i = (bits & -bits).bit_length() - 1
                acc ^= other.rows[i]
                bits &= bits - 1
            out.append(acc)
        return BitMatrix(other.ncols, out)

    def transpose(self) -> "BitMatrix":
        """Columns as rows; walks the set bits only, peeling each row's lowest."""
        cols = [0] * self.ncols
        for i, r in enumerate(self.rows):
            bit = 1 << i
            while r:
                low = r & -r
                cols[low.bit_length() - 1] |= bit
                r ^= low
        return BitMatrix(self.nrows, cols)

    def is_zero(self) -> bool:
        return not any(self.rows)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, BitMatrix)
            and self.ncols == other.ncols
            and self.rows == other.rows
        )

    def __hash__(self) -> int:
        return hash((self.ncols, self.rows))

    def __repr__(self) -> str:
        return f"BitMatrix({self.nrows}x{self.ncols})"


class RrefResult(NamedTuple):
    echelon: BitMatrix
    pivots: tuple[int, ...]
    rank: int


def _reduce(rows: Iterable[int], pivots: Iterable[int], v: int) -> int:
    """The remainder of v modulo a reduced echelon basis: v plus every row
    whose pivot bit v carries."""
    for r, p in zip(rows, pivots):
        if (v >> p) & 1:
            v ^= r
    return v


def _insert(rows: list[int], pivots: list[int], v: int, ncols: int) -> int:
    """Reduce v against the reduced echelon basis (rows, pivots) and, if the
    remainder has a bit below ncols, insert it; returns the remainder.

    The rows are sorted by pivot.  Bits at or above ncols are carried along
    (``solve`` records row combinations there) but never become pivots.
    """
    v = _reduce(rows, pivots, v)
    low = v & _mask(ncols)
    if low:
        p = (low & -low).bit_length() - 1
        k = bisect(pivots, p)
        # rows with a larger pivot have no bit below it
        for i in range(k):
            if (rows[i] >> p) & 1:
                rows[i] ^= v
        rows.insert(k, v)
        pivots.insert(k, p)
    return v


def _rref_rows(rows: Iterable[int], ncols: int) -> tuple[list[int], list[int]]:
    """The reduced row echelon basis of the rows' span: (nonzero rows in
    pivot order, pivot columns)."""
    ech: list[int] = []
    pivots: list[int] = []
    for v in rows:
        if len(pivots) == ncols:
            break
        _insert(ech, pivots, v, ncols)
    return ech, pivots


def rref(m: BitMatrix) -> RrefResult:
    """Reduced row echelon form of ``m``.

    Returns a matrix of the same shape (zero rows kept at the bottom), the
    pivot columns in increasing order, and the rank.
    """
    ech, pivots = _rref_rows(m.rows, m.ncols)
    rk = len(pivots)
    return RrefResult(BitMatrix(m.ncols, ech + [0] * (m.nrows - rk)), tuple(pivots), rk)


def rank(m: BitMatrix) -> int:
    _, pivots = _rref_rows(m.rows, m.ncols)
    return len(pivots)


@dataclass(frozen=True)
class Subspace:
    """A subspace of GF(2)^n given by a reduced row echelon basis."""

    ambient_dim: int
    basis: BitMatrix
    pivots: tuple[int, ...]

    @classmethod
    def from_vectors(cls, ambient_dim: int, vectors: Iterable[BitVector]) -> "Subspace":
        return cls.from_matrix_rows(BitMatrix.from_vectors(ambient_dim, vectors))

    @classmethod
    def from_matrix_rows(cls, m: BitMatrix) -> "Subspace":
        ech, pivots = _rref_rows(m.rows, m.ncols)
        return cls(m.ncols, BitMatrix(m.ncols, ech), tuple(pivots))

    @property
    def dim(self) -> int:
        return self.basis.nrows

    def reduce(self, v: BitVector) -> BitVector:
        """Subtract basis rows until all pivot coordinates vanish."""
        if v.length != self.ambient_dim:
            raise DimensionMismatch(f"length {v.length} vs ambient {self.ambient_dim}")
        return BitVector(self.ambient_dim, _reduce(self.basis.rows, self.pivots, v.bits))

    def extend(self, vectors: Iterable[int]) -> tuple["Subspace", list[int]]:
        """Add bit rows one at a time.

        Each row is reduced modulo this space and the rows kept before it;
        returns the enlarged space and the nonzero remainders, in order.
        """
        n = self.ambient_dim
        rows, pivots = list(self.basis.rows), list(self.pivots)
        kept = []
        for v in vectors:
            if v < 0 or v >> n:
                raise DimensionMismatch(f"row 0x{v:x} overflows ambient {n}")
            r = _insert(rows, pivots, v, n)
            if r:
                kept.append(r)
        return Subspace(n, BitMatrix(n, rows), tuple(pivots)), kept

    def __contains__(self, v: BitVector) -> bool:
        return self.reduce(v).is_zero()


def kernel(m: BitMatrix) -> Subspace:
    """Right kernel of ``m``: the space of v with m . v = 0."""
    ech, pivots = _rref_rows(m.rows, m.ncols)
    pivot_set = set(pivots)
    vectors = []
    for f in range(m.ncols):
        if f in pivot_set:
            continue
        bits = 1 << f
        for r, p in zip(ech, pivots):
            if (r >> f) & 1:
                bits |= 1 << p
        vectors.append(bits)
    return Subspace.from_matrix_rows(BitMatrix(m.ncols, vectors))


def solve(m: BitMatrix, b: BitVector) -> BitVector | None:
    """Express ``b`` over the rows of ``m``.

    Returns x with x . m = b (length = number of rows), or None when b is
    not in the row space.  x only uses rows that are independent of the rows
    before them, which makes it unique.  Raises DimensionMismatch if the
    lengths differ.
    """
    if b.length != m.ncols:
        raise DimensionMismatch(f"rhs length {b.length} vs {m.ncols} columns")
    n = m.ncols
    # each row carries its identity coordinate above bit n, so every echelon
    # row records the input rows it sums
    ech, pivots = _rref_rows((r | 1 << (n + i) for i, r in enumerate(m.rows)), n)
    rem = _reduce(ech, pivots, b.bits)
    if rem & _mask(n):
        return None
    return BitVector(m.nrows, rem >> n)


def quotient(
    ambient_dim: int, s: Subspace
) -> tuple[list[int], Callable[[BitVector], BitVector]]:
    """Quotient of GF(2)^ambient_dim by the subspace ``s``.

    Returns the non-pivot coordinates (one coset representative per index)
    and a linear idempotent projection whose kernel is exactly ``s``.
    """
    if s.ambient_dim != ambient_dim:
        raise DimensionMismatch(f"subspace ambient {s.ambient_dim} vs {ambient_dim}")
    pivot_set = set(s.pivots)
    reps = [j for j in range(ambient_dim) if j not in pivot_set]
    return reps, s.reduce
