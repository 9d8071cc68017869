"""Dense bit-packed linear algebra over the two-element field.

Vectors are fixed-length bit strings packed into Python integers (bit j is
coordinate j), so vector addition is a single XOR and all arithmetic is
exact.

Every elimination goes through one routine, ``_Echelon.insert``.  It keeps
a semi-echelon basis keyed by pivot bit, where a row's pivot is its lowest
set bit and no two rows share a pivot (a row may carry later rows'
pivots).  A new vector is reduced by clearing its lowest carried pivot
with that pivot's row, repeatedly: each step only changes bits above the
pivot it clears, so the pivots cleared rise and the loop ends with no
pivot bit left.  A nonzero remainder joins the basis as it is, keyed by
its lowest bit; no stored row is touched.  ``_Echelon.basis``
back-substitutes once, top pivot first, into the reduced row echelon
basis.  ``rref``, ``rank``, ``solve``, ``image_and_left_kernel`` (and
``kernel`` through it) and ``extend_image`` are loops of it, and
``Subspace.reduce`` does its first half against a finished basis.

The output is canonical.  A subspace has exactly one reduced row echelon
basis, and a vector exactly one remainder modulo it (the element of its
coset that vanishes at every pivot); the pivots of any semi-echelon basis
are those of the reduced one, so a semi-echelon insert leaves the same
remainders.  So echelon rows, pivots and remainders depend only on the
span of the rows fed in, not on their order or on the basis held, which
makes every derived basis reproducible across runs.

Everything here is immutable after construction and safe to share between
threads.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple

from ._record import Record


class DimensionMismatch(ValueError):
    """Raised when an operand has the wrong ambient dimension."""


def _mask(n: int) -> int:
    return (1 << n) - 1


class BitVector(Record):
    """A vector over GF(2) of fixed length, packed into one integer."""

    __slots__ = ("length", "bits")

    def __init__(self, length: int, bits: int):
        if length < 0:
            raise DimensionMismatch(f"negative length {length}")
        if bits < 0 or bits >> length:
            raise DimensionMismatch(f"bits 0x{bits:x} overflow length {length}")
        self.length = length
        self.bits = bits

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

    def is_zero(self) -> bool:
        return self.bits == 0

    def support(self) -> tuple[int, ...]:
        return tuple(j for j in range(self.length) if (self.bits >> j) & 1)

    def __repr__(self) -> str:
        return f"BitVector({self.length}, 0b{self.bits:0{max(self.length, 1)}b})"


class BitMatrix:
    """A list of equal-length bit-packed rows."""

    __slots__ = ("nrows", "ncols", "rows")

    def __init__(self, ncols: int, rows: Iterable[int]):
        rows = tuple(rows)
        if ncols < 0:
            raise DimensionMismatch(f"negative column count {ncols}")
        # one pass in C; the rows are walked only to name the bad one
        if rows and (min(rows) < 0 or max(rows) >> ncols):
            r = next(r for r in rows if r < 0 or r >> ncols)
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
    def identity(cls, n: int) -> "BitMatrix":
        return cls(n, (1 << i for i in range(n)))

    @classmethod
    def zero(cls, nrows: int, ncols: int) -> "BitMatrix":
        return cls(ncols, (0,) * nrows)

    def row(self, i: int) -> BitVector:
        return BitVector(self.ncols, self.rows[i])

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


class _Echelon:
    """A semi-echelon basis being built: rows keyed by their pivot bit,
    the row's lowest bit, which no other row has as its pivot.

    Bits at or above ncols are carried along (``solve`` and
    ``image_and_left_kernel`` record row combinations there) but never
    become pivots.
    """

    __slots__ = ("rows", "pivot_mask", "low_mask")

    def __init__(self, ncols: int):
        self.rows: dict[int, int] = {}
        self.pivot_mask = 0
        self.low_mask = _mask(ncols)

    def insert(self, v: int) -> int:
        """Reduce v and, if the remainder has a bit below ncols, add it to
        the basis; returns the remainder."""
        rows = self.rows
        pivots = self.pivot_mask
        carried = v & pivots
        while carried:
            v ^= rows[carried & -carried]
            carried = v & pivots
        low = v & self.low_mask
        if low:
            b = low & -low
            rows[b] = v
            self.pivot_mask = pivots | b
        return v

    def basis(self) -> tuple[list[int], list[int]]:
        """The reduced row echelon basis: (rows in pivot order, pivot
        columns).  Back-substitutes from the top pivot down, so each row
        is cleared of later pivots by rows already reduced."""
        rows = self.rows
        keys = sorted(rows)
        mask = 0
        for k in reversed(keys):
            r = rows[k]
            carried = r & mask
            while carried:
                b = carried & -carried
                r ^= rows[b]
                carried ^= b
            rows[k] = r
            mask |= k
        return [rows[k] for k in keys], [k.bit_length() - 1 for k in keys]


def _rref_rows(rows: Iterable[int], ncols: int) -> tuple[list[int], list[int]]:
    """The reduced row echelon basis of the rows' span: (nonzero rows in
    pivot order, pivot columns)."""
    ech = _Echelon(ncols)
    for v in rows:
        if len(ech.rows) == ncols:
            break
        ech.insert(v)
    return ech.basis()


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


class Subspace(Record):
    """A subspace of GF(2)^n given by a reduced row echelon basis."""

    __slots__ = ("ambient_dim", "basis", "pivots")

    def __init__(self, ambient_dim: int, basis: BitMatrix, pivots: tuple[int, ...]):
        self.ambient_dim = ambient_dim
        self.basis = basis
        self.pivots = pivots

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

    def __contains__(self, v: BitVector) -> bool:
        return self.reduce(v).is_zero()


def _eliminate_tagged(m: BitMatrix) -> tuple[_Echelon, list[int]]:
    """One elimination of [m | I]: the echelon of m's rows and the reduced
    row echelon basis of the left kernel (the x with x . m = 0).

    Row i enters as r_i with the unit coordinate i carried above bit ncols,
    so every echelon row records the input rows it sums.  A row whose part
    below ncols reduces to zero is a relation: its upper bits are a kernel
    vector, and the row does not enter the echelon.  Rows enter last-first,
    so relation i is bit i plus bits of later rows that did enter (an
    echelon row's tag only records rows that entered, whatever echelon
    basis is held).  Its pivot (lowest bit) is i, and no relation carries
    another's pivot: the relations, in reverse order of finding, are
    already the canonical basis.
    """
    n = m.ncols
    low = _mask(n)
    ech = _Echelon(n)
    insert = ech.insert
    rows = m.rows
    relations = []
    for i in range(m.nrows - 1, -1, -1):
        v = insert(rows[i] | 1 << (n + i))
        if not v & low:
            relations.append(v >> n)
    relations.reverse()
    return ech, relations


def image_and_left_kernel(m: BitMatrix) -> tuple[Subspace, Subspace]:
    """The row space of ``m`` and its left kernel (the x with x . m = 0),
    both in reduced row echelon form, from one elimination of [m | I]."""
    n = m.ncols
    ech, ker = _eliminate_tagged(m)
    rows, pivots = ech.basis()
    low = _mask(n)
    image = Subspace(n, BitMatrix(n, [r & low for r in rows]), tuple(pivots))
    return image, _kernel_subspace(m.nrows, ker)


def _kernel_subspace(n: int, relations: list[int]) -> Subspace:
    """The subspace of GF(2)^n whose reduced row echelon basis is the
    relations of ``_eliminate_tagged``."""
    pivots = tuple((r & -r).bit_length() - 1 for r in relations)
    return Subspace(n, BitMatrix(n, relations), pivots)


def extend_image(m: BitMatrix, vectors: Iterable[int]) -> tuple[list[int], list[int]]:
    """The remainders that extend the row space of ``m`` by ``vectors``, and
    the left kernel of ``m``, from one elimination of [m | I].

    The remainders are each vector reduced modulo the row space of ``m``
    and the vectors kept before it, the nonzero ones in order; being
    canonical, they depend on the row space, not on the rows of ``m``.  The
    kernel is the rows of ``image_and_left_kernel(m)[1]``, its reduced row
    echelon basis.  No subspace is built.
    """
    n = m.ncols
    low = _mask(n)
    ech, ker = _eliminate_tagged(m)
    kept = []
    for v in vectors:
        if v < 0 or v >> n:
            raise DimensionMismatch(f"row 0x{v:x} overflows ambient {n}")
        # echelon rows carry their tags above n; the part below is canonical
        r = ech.insert(v) & low
        if r:
            kept.append(r)
    return kept, ker


def kernel(m: BitMatrix) -> Subspace:
    """Right kernel of ``m``: the space of v with m . v = 0, the left
    kernel of its transpose."""
    return _kernel_subspace(m.ncols, _eliminate_tagged(m.transpose())[1])


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
