import random

import pytest
from hypothesis import given, strategies as st

from wsteenrod.gf2 import (
    BitMatrix,
    BitVector,
    DimensionMismatch,
    Subspace,
    kernel,
    quotient,
    rank,
    rref,
    solve,
)


def M(entries, ncols=None):
    return BitMatrix.from_entries(entries, ncols)


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
    assert BitVector.from_support(2, [0, 1]) in sub


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
        for i in range(sub.basis.nrows):
            assert m.mul_vec(sub.basis.row(i)).is_zero()


def test_rank_nullity_wide():
    rng = random.Random(99)
    for ncols in (64, 200, 512):
        nrows = ncols // 2 + 3
        m = BitMatrix(ncols, (rng.getrandbits(ncols) for _ in range(nrows)))
        assert rank(m) + kernel(m).dim == ncols


def test_solve_identity():
    m = BitMatrix.identity(3)
    b = BitVector.from_support(3, [0, 2])
    x = solve(m, b)
    assert x == b


def test_solve_absent():
    assert solve(M([[1, 1]]), BitVector.from_support(2, [0])) is None


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
    assert solve(m, BitVector.from_support(4, [1])) == BitVector.from_support(5, [0])


def test_solve_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        solve(M([[1, 1]]), BitVector(3, 0))


def test_quotient_zero_subspace():
    sub = Subspace.from_vectors(3, [])
    reps, project = quotient(3, sub)
    assert reps == [0, 1, 2]
    v = BitVector.from_support(3, [1])
    assert project(v) == v


def test_quotient_full_space():
    sub = Subspace.from_matrix_rows(BitMatrix.identity(2))
    reps, project = quotient(2, sub)
    assert reps == []
    assert project(BitVector.from_support(2, [1])).is_zero()


def test_quotient_diagonal():
    # span{(1,1)} in dim 2: the two unit vectors land in the same coset
    sub = Subspace.from_vectors(2, [BitVector.from_support(2, [0, 1])])
    reps, project = quotient(2, sub)
    assert len(reps) == 1
    assert project(BitVector.from_support(2, [0])) == project(
        BitVector.from_support(2, [1])
    )
    # brute force over all four vectors: projection is constant on cosets
    seen = {}
    for bits in range(4):
        v = BitVector(2, bits)
        key = project(v).bits
        coset = min(bits, bits ^ 0b11)
        seen.setdefault(coset, set()).add(key)
    assert all(len(vals) == 1 for vals in seen.values())


def test_project_idempotent_and_kernel():
    rng = random.Random(23)
    for _ in range(40):
        dim = rng.randrange(1, 9)
        vecs = [BitVector(dim, rng.getrandbits(dim)) for _ in range(rng.randrange(0, 4))]
        sub = Subspace.from_vectors(dim, vecs)
        reps, project = quotient(dim, sub)
        for _ in range(10):
            v = BitVector(dim, rng.getrandbits(dim))
            assert project(project(v)) == project(v)
        # kernel of the projection is exactly the subspace, both inclusions
        for i in range(sub.basis.nrows):
            assert project(sub.basis.row(i)).is_zero()
        for bits in range(1 << dim if dim <= 6 else 0):
            v = BitVector(dim, bits)
            if project(v).is_zero():
                assert v in sub


def test_vec_mul_and_transpose():
    m = M([[1, 0, 1], [0, 1, 1]])
    v = BitVector.from_support(2, [0, 1])
    assert m.vec_mul(v) == BitVector.from_support(3, [0, 1])
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
        assert span.extend(vectors) == extend_by_rebuild(span, vectors)


def test_extend_units_and_overflow():
    span = Subspace.from_vectors(3, [BitVector.from_support(3, [0, 1])])
    bigger, kept = span.extend([1, 2, 4])
    # e0 leaves e1 modulo e0 + e1, which then absorbs e1; e2 is new
    assert kept == [0b010, 0b100]
    assert bigger.dim == 3
    with pytest.raises(DimensionMismatch):
        span.extend([8])


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
    reps, project = quotient(m.ncols, s)
    p = project(v)
    assert project(p) == p
    assert p.is_zero() == in_row_space(m, v)
    assert all(j in reps for j in p.support())


@given(matrices(), matrices())
def test_property_extend(a, b):
    span = Subspace.from_matrix_rows(a)
    vectors = [r & ((1 << a.ncols) - 1) for r in b.rows]
    assert span.extend(vectors) == extend_by_rebuild(span, vectors)


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
