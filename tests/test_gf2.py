import random

import pytest
from hypothesis import given, strategies as st

from wsteenrod.gf2 import (
    BitMatrix,
    BitVector,
    DimensionMismatch,
    Subspace,
    _Echelon,
    extend_image,
    image_and_left_kernel,
    kernel,
    rank,
    rref,
    solve,
)


def extend(span, vectors):
    """Add bit rows to a subspace one at a time.

    Each row is reduced modulo the span and the rows kept before it;
    returns the enlarged subspace and the nonzero remainders, in order.
    The plain reference for ``extend_image``'s remainders.
    """
    n = span.ambient_dim
    ech = _Echelon(n)
    for row in span.basis.rows:
        ech.insert(row)
    kept = []
    for v in vectors:
        if v < 0 or v >> n:
            raise DimensionMismatch(f"row 0x{v:x} overflows ambient {n}")
        r = ech.insert(v)
        if r:
            kept.append(r)
    rows, pivots = ech.basis()
    return Subspace(n, BitMatrix(n, rows), tuple(pivots)), kept


def V(length, support):
    """A vector of the given length with ones on the support, repeats cancelling."""
    bits = 0
    for j in support:
        bits ^= 1 << j
    return BitVector(length, bits)


def M(entries):
    """A matrix from rows of 0/1 entries, entry j of a row being bit j."""
    ncols = len(entries[0]) if entries else 0
    assert all(len(row) == ncols for row in entries)
    return BitMatrix(ncols, (sum(v << j for j, v in enumerate(row)) for row in entries))


def test_rref_identity():
    m = BitMatrix.identity(2)
    ech, pivots, rk = rref(m)
    assert ech == m
    assert pivots == (0, 1)
    assert rk == 2


def test_rref_duplicate_rows():
    ech, pivots, rk = rref(M([[1, 1], [1, 1]]))
    assert ech == M([[1, 1], [0, 0]])
    assert rk == 1


def test_rref_zero_matrix():
    ech, pivots, rk = rref(BitMatrix.zero(3, 4))
    assert rk == 0
    assert pivots == ()
    assert ech == BitMatrix.zero(3, 4)


def test_rref_idempotent_random():
    rng = random.Random(11)
    for _ in range(50):
        nrows = rng.randrange(1, 9)
        ncols = rng.randrange(1, 9)
        m = BitMatrix(ncols, (rng.getrandbits(ncols) for _ in range(nrows)))
        ech, _, _ = rref(m)
        again, _, _ = rref(ech)
        assert again == ech


def test_kernel_sum_zero():
    sub = kernel(M([[1, 1]]))
    assert sub.dim == 1
    assert V(2, [0, 1]) in sub


def test_kernel_identity_and_zero():
    assert kernel(BitMatrix.identity(4)).dim == 0
    full = kernel(BitMatrix.zero(2, 3))
    assert full.dim == 3


def test_kernel_members_annihilate():
    rng = random.Random(5)
    for _ in range(40):
        nrows = rng.randrange(0, 7)
        ncols = rng.randrange(0, 7)
        m = BitMatrix(ncols, (rng.getrandbits(ncols) for _ in range(nrows)))
        sub = kernel(m)
        assert rank(m) + sub.dim == ncols
        # v is in the kernel when every row of m meets it an even number of times
        for v in sub.basis.rows:
            assert all((r & v).bit_count() % 2 == 0 for r in m.rows)


def test_rank_nullity_wide():
    rng = random.Random(99)
    for ncols in (64, 200, 512):
        nrows = ncols // 2 + 3
        m = BitMatrix(ncols, (rng.getrandbits(ncols) for _ in range(nrows)))
        assert rank(m) + kernel(m).dim == ncols


def test_solve_identity():
    m = BitMatrix.identity(3)
    b = V(3, [0, 2])
    x = solve(m, b)
    assert x == b


def test_solve_absent():
    assert solve(M([[1, 1]]), V(2, [0])) is None


def test_solve_zero():
    x = solve(BitMatrix.zero(2, 3), BitVector(3, 0))
    assert x is not None
    assert x.is_zero()


def test_solve_roundtrip_random():
    rng = random.Random(17)
    for _ in range(60):
        nrows = rng.randrange(1, 8)
        ncols = rng.randrange(1, 8)
        m = BitMatrix(ncols, (rng.getrandbits(ncols) for _ in range(nrows)))
        combo = BitVector(nrows, rng.getrandbits(nrows))
        b = m.vec_mul(combo)
        x = solve(m, b)
        assert x is not None
        assert m.vec_mul(x) == b


def test_solve_uses_earliest_rows():
    # rows 0 and 2 are equal; x picks row 0, which comes first
    m = M([[0, 1, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1], [1, 0, 0, 0]])
    assert solve(m, V(4, [1])) == V(5, [0])


@pytest.mark.parametrize(
    "rows, ncols, bad",
    [([1, 2, 8], 3, 8), ([1, -1, 2], 3, -1), ([4], 0, 4), ([0, 16, 32], 5, 32)],
)
def test_bitmatrix_names_the_bad_row(rows, ncols, bad):
    with pytest.raises(DimensionMismatch, match=f"row 0x{bad:x} overflows {ncols} columns"):
        BitMatrix(ncols, rows)


def test_solve_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        solve(M([[1, 1]]), BitVector(3, 0))


# -- the quotient GF(2)^n / s: coset representatives are the non-pivot
# coordinates, and reduce is the projection onto them --


def non_pivots(sub):
    return [j for j in range(sub.ambient_dim) if j not in sub.pivots]


def test_quotient_full_space():
    sub = Subspace.from_matrix_rows(BitMatrix.identity(2))
    assert non_pivots(sub) == []
    assert sub.reduce(V(2, [1])).is_zero()


def test_quotient_diagonal():
    # span{(1,1)} in dim 2: the two unit vectors land in the same coset
    sub = Subspace.from_vectors(2, [V(2, [0, 1])])
    assert len(non_pivots(sub)) == 1
    assert sub.reduce(V(2, [0])) == sub.reduce(V(2, [1]))
    # brute force over all four vectors: projection is constant on cosets
    seen = {}
    for bits in range(4):
        v = BitVector(2, bits)
        key = sub.reduce(v).bits
        coset = min(bits, bits ^ 0b11)
        seen.setdefault(coset, set()).add(key)
    assert all(len(vals) == 1 for vals in seen.values())


def test_project_idempotent_and_kernel():
    rng = random.Random(23)
    for _ in range(40):
        dim = rng.randrange(1, 9)
        vecs = [BitVector(dim, rng.getrandbits(dim)) for _ in range(rng.randrange(0, 4))]
        sub = Subspace.from_vectors(dim, vecs)
        for _ in range(10):
            v = BitVector(dim, rng.getrandbits(dim))
            assert sub.reduce(sub.reduce(v)) == sub.reduce(v)
        # kernel of the projection is exactly the subspace, both inclusions
        for i in range(sub.basis.nrows):
            assert sub.reduce(sub.basis.row(i)).is_zero()
        for bits in range(1 << dim if dim <= 6 else 0):
            v = BitVector(dim, bits)
            if sub.reduce(v).is_zero():
                assert v in sub


def test_vec_mul_and_transpose():
    m = M([[1, 0, 1], [0, 1, 1]])
    v = V(2, [0, 1])
    assert m.vec_mul(v) == V(3, [0, 1])
    assert m.transpose().transpose() == m


# -- the insertion routine against the column-pivot elimination it replaced --


def column_pivot_rref(rows, ncols):
    """Column-by-column elimination: the pivot of each column is the lowest
    remaining row that has it, swapped up and cleared from every other row."""
    rows = list(rows)
    pivots = []
    pivot_row = 0
    for col in range(ncols):
        bit = 1 << col
        src = next((i for i in range(pivot_row, len(rows)) if rows[i] & bit), -1)
        if src < 0:
            continue
        rows[pivot_row], rows[src] = rows[src], rows[pivot_row]
        for i in range(len(rows)):
            if i != pivot_row and rows[i] & bit:
                rows[i] ^= rows[pivot_row]
        pivots.append(col)
        pivot_row += 1
        if pivot_row == len(rows):
            break
    return rows, pivots


def extend_by_rebuild(span, vectors):
    """Reduce each vector, then re-eliminate the whole basis with it added."""
    kept = []
    for bits in vectors:
        v = span.reduce(BitVector(span.ambient_dim, bits))
        if not v.is_zero():
            kept.append(v.bits)
            span = Subspace.from_matrix_rows(
                BitMatrix(span.ambient_dim, span.basis.rows + (v.bits,))
            )
    return span, kept


def random_matrix(rng, nrows, ncols, rank_cap=None):
    """Random rows, or random sums of rank_cap random rows when given."""
    if rank_cap is None:
        return BitMatrix(ncols, (rng.getrandbits(ncols) for _ in range(nrows)))
    gens = [rng.getrandbits(ncols) for _ in range(rank_cap)]
    rows = []
    for _ in range(nrows):
        acc = 0
        for g in gens:
            if rng.getrandbits(1):
                acc ^= g
        rows.append(acc)
    return BitMatrix(ncols, rows)


def test_rref_matches_column_pivot_oracle():
    rng = random.Random(2024)
    for trial in range(400):
        nrows = rng.randrange(0, 40)
        ncols = rng.choice((0, 1, 3, 8, 17, 64, 130))
        cap = rng.choice((None, 1, 3, 7)) if trial % 2 else None
        m = random_matrix(rng, nrows, ncols, cap)
        rows, pivots = column_pivot_rref(m.rows, m.ncols)
        assert rref(m) == (BitMatrix(ncols, rows), tuple(pivots), len(pivots))


def test_extend_matches_reduce_and_rebuild():
    rng = random.Random(7)
    for _ in range(200):
        ncols = rng.randrange(0, 24)
        span = Subspace.from_matrix_rows(random_matrix(rng, rng.randrange(0, 10), ncols, 4))
        vectors = random_matrix(rng, rng.randrange(0, 12), ncols, rng.choice((None, 5))).rows
        assert extend(span, vectors) == extend_by_rebuild(span, vectors)


def test_extend_units_and_overflow():
    span = Subspace.from_vectors(3, [V(3, [0, 1])])
    bigger, kept = extend(span, [1, 2, 4])
    # e0 leaves e1 modulo e0 + e1, which then absorbs e1; e2 is new
    assert kept == [0b010, 0b100]
    assert bigger.dim == 3
    with pytest.raises(DimensionMismatch):
        extend(span, [8])


def double_loop_transpose(m):
    """The transpose by testing every (row, column) pair."""
    cols = []
    for j in range(m.ncols):
        bits = 0
        for i, r in enumerate(m.rows):
            if (r >> j) & 1:
                bits |= 1 << i
        cols.append(bits)
    return BitMatrix(m.nrows, cols)


def left_kernel_by_search(m):
    """Every x with x . m = 0, by trying all 2^nrows combinations."""
    return [x for x in range(1 << m.nrows) if m.vec_mul(BitVector(m.nrows, x)).is_zero()]


# -- properties --------------------------------------------------------------


@st.composite
def matrices(draw, max_rows=9, max_cols=10):
    ncols = draw(st.integers(0, max_cols))
    rows = draw(st.lists(st.integers(0, (1 << ncols) - 1), max_size=max_rows))
    return BitMatrix(ncols, rows)


@st.composite
def matrix_and_vector(draw):
    m = draw(matrices())
    if draw(st.booleans()):
        b = m.vec_mul(BitVector(m.nrows, draw(st.integers(0, (1 << m.nrows) - 1))))
    else:
        b = BitVector(m.ncols, draw(st.integers(0, (1 << m.ncols) - 1)))
    return m, b


def in_row_space(m, v):
    return rank(BitMatrix(m.ncols, m.rows + (v.bits,))) == rank(m)


@given(matrices())
def test_property_rref_matches_oracle(m):
    rows, pivots = column_pivot_rref(m.rows, m.ncols)
    assert rref(m) == (BitMatrix(m.ncols, rows), tuple(pivots), len(pivots))


@given(matrices())
def test_property_rank_nullity(m):
    assert rank(m) + kernel(m).dim == m.ncols


@given(matrices(max_rows=14))
def test_property_left_kernel_annihilates(m):
    _, ker = image_and_left_kernel(m)
    assert ker.ambient_dim == m.nrows
    for i in range(ker.dim):
        assert m.vec_mul(ker.basis.row(i)).is_zero()


@given(matrices(max_rows=14))
def test_property_image_rank_plus_left_kernel_dim(m):
    image, ker = image_and_left_kernel(m)
    assert image.dim == rank(m)
    assert image.dim + ker.dim == m.nrows


@given(matrices(max_rows=14))
def test_property_image_is_row_space(m):
    assert image_and_left_kernel(m)[0] == Subspace.from_matrix_rows(m)


@given(matrices(max_rows=14))
def test_property_left_kernel_is_kernel_of_transpose(m):
    # both canonical reduced echelon bases of one space, so equal row for row
    _, ker = image_and_left_kernel(m)
    assert ker == kernel(m.transpose())
    assert ker == Subspace.from_matrix_rows(BitMatrix(m.nrows, left_kernel_by_search(m)))


@given(matrices())
def test_property_rows_reduce_to_zero(m):
    span = Subspace.from_matrix_rows(m)
    for i in range(m.nrows):
        assert span.reduce(m.row(i)).is_zero()


@given(matrix_and_vector())
def test_property_solve(mb):
    m, b = mb
    x = solve(m, b)
    assert (x is None) == (not in_row_space(m, b))
    if x is not None:
        assert m.vec_mul(x) == b
        # x only uses rows independent of the rows before them
        for i in x.support():
            assert rank(BitMatrix(m.ncols, m.rows[: i + 1])) > rank(BitMatrix(m.ncols, m.rows[:i]))


@given(matrix_and_vector())
def test_property_quotient_projection(mb):
    m, v = mb
    s = Subspace.from_matrix_rows(m)
    p = s.reduce(v)
    assert s.reduce(p) == p
    assert p.is_zero() == in_row_space(m, v)
    reps = non_pivots(s)
    assert all(j in reps for j in p.support())


@given(matrices(), matrices())
def test_property_extend(a, b):
    span = Subspace.from_matrix_rows(a)
    vectors = [r & ((1 << a.ncols) - 1) for r in b.rows]
    assert extend(span, vectors) == extend_by_rebuild(span, vectors)


@st.composite
def cell_matrices(draw):
    """A matrix of one of the shapes a resolver cell meets: random, all
    zero, full rank (rows independent, or columns all reached), with no
    rows or with no columns."""
    shape = draw(st.sampled_from(["random", "zero", "full-row", "full-col", "no-rows", "no-cols"]))
    ncols = 0 if shape == "no-cols" else draw(st.integers(0, 10))
    nrows = 0 if shape == "no-rows" else draw(st.integers(0, 9))
    entries = st.integers(0, (1 << ncols) - 1)
    if shape == "zero":
        rows = [0] * nrows
    elif shape == "full-row":
        # row i has its lowest bit at column i, so the rows are independent
        k = min(nrows, ncols)
        rows = [1 << i | draw(entries) >> (i + 1) << (i + 1) for i in range(k)]
        rows = draw(st.permutations(rows))
    elif shape == "full-col":
        rows = draw(st.permutations([1 << j for j in range(ncols)] + draw(st.lists(entries, max_size=3))))
    else:
        rows = draw(st.lists(entries, min_size=nrows, max_size=nrows))
    return BitMatrix(ncols, rows)


@given(cell_matrices(), st.data())
def test_property_extend_image_is_one_cell(m, data):
    # random vectors and vectors from the row space, repeats possible
    entries = st.integers(0, (1 << m.ncols) - 1)
    spans = st.integers(0, (1 << m.nrows) - 1).map(lambda x: m.vec_mul(BitVector(m.nrows, x)).bits)
    vectors = data.draw(st.lists(st.one_of(entries, spans), max_size=8))
    image, ker = image_and_left_kernel(m)
    kept, left_kernel = extend_image(m, vectors)
    assert kept == extend(image, vectors)[1]
    assert list(left_kernel) == list(ker.basis.rows)


class RrefEchelon:
    """The reduced row echelon insert that ``_Echelon`` replaced, kept as an
    oracle: each new pivot is cleared from every stored row at once, so the
    basis is reduced after every insert.  Bits at or above ncols are
    carried but never become pivots, as in ``_Echelon``."""

    def __init__(self, ncols):
        self.rows = {}
        self.pivot_mask = 0
        self.low_mask = (1 << ncols) - 1

    def insert(self, v):
        carried = v & self.pivot_mask
        while carried:
            b = carried & -carried
            v ^= self.rows[b]
            carried ^= b
        low = v & self.low_mask
        if low:
            b = low & -low
            for k, r in self.rows.items():
                if r & b:
                    self.rows[k] = r ^ v
            self.rows[b] = v
            self.pivot_mask |= b
        return v

    def basis(self):
        keys = sorted(self.rows)
        return [self.rows[k] for k in keys], [k.bit_length() - 1 for k in keys]


def rref_insert_cell(m, vectors):
    """One cell on the oracle: the rows of m enter last-first tagged with
    their unit coordinate above ncols, the vectors follow untagged.
    Returns the basis after the rows, the relations (upper bits of the rows
    that reduce to zero below ncols, in row order), every vector's full
    remainder and the basis after the vectors."""
    n = m.ncols
    ech = RrefEchelon(n)
    relations = []
    for i in range(m.nrows - 1, -1, -1):
        v = ech.insert(m.rows[i] | 1 << (n + i))
        if not v & ech.low_mask:
            relations.append(v >> n)
    relations.reverse()
    image = ech.basis()
    return image, relations, [ech.insert(v) for v in vectors], ech.basis()


@given(cell_matrices(), st.data())
def test_property_semi_echelon_matches_rref_insert(m, data):
    n = m.ncols
    low = (1 << n) - 1
    entries = st.integers(0, low)
    vectors = data.draw(st.lists(entries, max_size=8))
    b = BitVector(n, data.draw(entries))
    (tagged, _), relations, remainders, final = rref_insert_cell(m, vectors)
    # the same tagged rows and vectors through _Echelon: every remainder,
    # tags included, and the reduced basis are the oracle's
    semi = _Echelon(n)
    for i in range(m.nrows - 1, -1, -1):
        semi.insert(m.rows[i] | 1 << (n + i))
    assert [semi.insert(v) for v in vectors] == remainders
    assert semi.basis() == final
    # and so is what every entry point returns
    oracle = RrefEchelon(n)
    for r in m.rows:
        oracle.insert(r)
    rows, pivots = oracle.basis()
    assert rref(m) == (BitMatrix(n, rows + [0] * (m.nrows - len(rows))), tuple(pivots), len(rows))
    image, ker = image_and_left_kernel(m)
    assert image == Subspace(n, BitMatrix(n, [r & low for r in tagged]), tuple(pivots))
    assert list(ker.basis.rows) == relations
    assert extend_image(m, vectors) == ([r & low for r in remainders if r & low], relations)
    # solve: rows enter in order, each tagged with its unit coordinate
    oracle = RrefEchelon(n)
    for i, r in enumerate(m.rows):
        oracle.insert(r | 1 << (n + i))
    rem = oracle.insert(b.bits)
    assert solve(m, b) == (None if rem & low else BitVector(m.nrows, rem >> n))


def test_extend_image_overflow():
    m = M([[1, 0], [1, 1]])
    assert extend_image(m, [1, 2, 3]) == ([], [])
    for v in (4, -1):
        with pytest.raises(DimensionMismatch):
            extend_image(m, [1, v])
    with pytest.raises(DimensionMismatch):
        extend_image(BitMatrix.zero(3, 0), [1])


@given(matrices(max_rows=40, max_cols=70))
def test_property_transpose_matches_double_loop(m):
    assert m.transpose() == double_loop_transpose(m)


@given(matrices(max_rows=40, max_cols=70))
def test_property_double_transpose_is_identity(m):
    t = m.transpose()
    assert (t.nrows, t.ncols) == (m.ncols, m.nrows)
    assert t.transpose() == m


@given(st.integers(0, 12))
def test_property_transpose_empty_shapes(n):
    for m in (BitMatrix.zero(0, n), BitMatrix.zero(n, 0)):
        t = m.transpose()
        assert (t.nrows, t.ncols) == (m.ncols, m.nrows)
        assert t == double_loop_transpose(m)
        assert t.transpose() == m
