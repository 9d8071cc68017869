import random

import pytest
from hypothesis import given, strategies as st

from wsteenrod.gf2 import BitMatrix, BitVector, rank
from wsteenrod.milnor import BiDegree, MilnorAlgebra, SteenrodElement, xi_degree
from wsteenrod.modules import (
    AlgebraModule,
    GradedModule,
    InvariantViolation,
    QuotientModule,
    TensorModule,
    TrivialModule,
    margolis,
    tensor_power,
)


def test_quotient_dims_examples(alg16):
    q = QuotientModule(alg16, (1,))
    assert q.dim(BiDegree(0, 0)) == 1
    assert q.dim(BiDegree(2, 1)) == 0  # P_1 is a right multiple of P_1
    # A at (2, 1) is spanned by P_1, so all of it is killed
    assert q.killed_subspace(BiDegree(2, 1)).dim == alg16.dim(BiDegree(2, 1))
    assert q.representatives(BiDegree(2, 1)) == ()
    assert q.projection_matrix(BiDegree(2, 1)).is_zero()
    assert q.dim(BiDegree(1, 0)) == 1  # Q(0) is not


def test_quotient_action_examples(alg16):
    q = QuotientModule(alg16, (1,))
    one = BitVector(1, 1)
    p1 = alg16.pst(0, 1)
    assert q.act(p1, BiDegree(0, 0), one).is_zero()
    p2 = alg16.pst(0, 2)
    assert not q.act(p2, BiDegree(0, 0), one).is_zero()


def _assert_quotient_reads_its_echelon(q, d):
    """The representatives are the non-pivots of the killed subspace, the
    lift is a section of the projection, and the projection's kernel is the
    killed subspace: it holds every killed row, and its rank leaves room
    for nothing more."""
    killed = q.killed_subspace(d)
    n = q.algebra.dim(d)
    proj = q.projection_matrix(d)
    assert q.representatives(d) == tuple(j for j in range(n) if j not in killed.pivots)
    assert q.lift_matrix(d).compose(proj) == BitMatrix.identity(q.dim(d))
    assert all(proj.vec_mul(killed.basis.row(i)).is_zero() for i in range(killed.dim))
    assert rank(proj) == q.dim(d) == n - killed.dim


def test_quotient_kills_exactly_right_multiples(alg16, alg24):
    # per bidegree, the kernel of the projection is the span of x . P_t
    for q in (QuotientModule(alg16, (1, 2)), QuotientModule(alg24, range(1, 25))):
        for d in q.algebra.bidegrees(q.window):
            _assert_quotient_reads_its_echelon(q, d)


def test_quotient_by_nothing_is_the_algebra(alg16):
    q = QuotientModule(alg16, ())
    assert (q.ts, q.name) == ((), "A//E()")
    for d in alg16.bidegrees(16):
        n = alg16.dim(d)
        assert q.representatives(d) == tuple(range(n))
        assert q.projection_matrix(d) == BitMatrix.identity(n)


@given(st.sets(st.sampled_from((1, 2, 3))), st.randoms(use_true_random=False))
def test_property_quotient_projection(alg16, ts, rng):
    q = QuotientModule(alg16, ts)
    assert q.ts == tuple(sorted(ts))
    for d in alg16.bidegrees(16):
        _assert_quotient_reads_its_echelon(q, d)
        # a vector and the lift of its projection share a coset
        n = alg16.dim(d)
        v = BitVector(n, rng.getrandbits(n))
        back = q.lift_matrix(d).vec_mul(q.projection_matrix(d).vec_mul(v))
        assert v ^ back in q.killed_subspace(d)


def test_quotient_indices_are_checked_then_filtered(alg16):
    with pytest.raises(ValueError, match="exterior indices must be >= 1"):
        QuotientModule(alg16, (0,))
    with pytest.raises(ValueError, match="exterior indices must be >= 1"):
        QuotientModule(alg16, (10**9, -1))
    # a huge index lies past the window and is dropped without its degree
    assert QuotientModule(alg16, (10**9,)).ts == ()
    # P_4 has stem 30, past the window; duplicates collapse
    q = QuotientModule(alg16, [4, 2, 1, 2])
    assert (q.ts, q.name) == ((1, 2), "A//E(P_1,P_2)")


def test_milnor_moore_freeness(alg16):
    # dim A = sum over subsets S of {P_1, P_2} of dim A//E(1,2) shifted by S
    q = QuotientModule(alg16, (1, 2))
    shifts = [
        BiDegree(0, 0),
        xi_degree(1),
        xi_degree(2),
        xi_degree(1) + xi_degree(2),
    ]
    for d in alg16.bidegrees(16 - 8):
        total = 0
        for sh in shifts:
            src = BiDegree(*d) - sh
            if src.stem >= 0 and src.weight >= 0:
                total += q.dim(src)
        assert total == alg16.dim(d), d


def test_act_associative_on_quotient(alg16):
    # the quotient, and the tensor squares of A//E(P_1) and A//E(P_2) with
    # the diagonal action
    q1, q2 = QuotientModule(alg16, (1,)), QuotientModule(alg16, (2,))
    for module in (q1, TensorModule(q1, q1), TensorModule(q2, q2)):
        _assert_act_associative(module, random.Random(31))


def _assert_act_associative(module, rng):
    alg = module.algebra
    degrees = [d for d in alg.bidegrees(4)]
    for _ in range(30):
        d1, d2 = rng.choice(degrees), rng.choice(degrees)
        for dm in list(module.support(6)):
            if (dm + d1 + d2).stem > 14:
                continue
            a = SteenrodElement(d1, rng.getrandbits(alg.dim(d1)))
            b = SteenrodElement(d2, rng.getrandbits(alg.dim(d2)))
            n = module.dim(dm)
            if n == 0:
                continue
            x = BitVector(n, rng.getrandbits(n))
            lhs = module.act(alg.product(a, b), dm, x)
            rhs = module.act(a, BiDegree(*dm) + d2, module.act(b, dm, x))
            assert lhs == rhs


def test_unit_acts_as_identity(alg16):
    q = QuotientModule(alg16, (1,))
    one = alg16.unit()
    for d in q.support(10):
        n = q.dim(d)
        mat = q.op_matrix(one, d)
        assert mat == BitMatrix.identity(n)


def test_cofinite_profile(alg24):
    # every P_t of the window: the constructor keeps the t whose P_t fits
    assert QuotientModule(alg24, range(1, 25)).ts == (1, 2, 3)
    assert QuotientModule(MilnorAlgebra(13), range(1, 14)).ts == (1, 2)
    q = QuotientModule(alg24, range(1, 25))
    assert q.name == "A//E(P_1,P_2,P_3)"
    assert q.dim(BiDegree(0, 0)) == 1


def test_tensor_diagonal_examples(alg16):
    q = QuotientModule(alg16, (1,))
    t = TensorModule(q, q)
    assert t.dim(BiDegree(0, 0)) == 1
    p1 = alg16.pst(0, 1)
    assert t.act(p1, BiDegree(0, 0), BitVector(1, 1)).is_zero()
    # all bidegrees of the tensor square have nonnegative chow
    for s in range(15):
        for w in range(s + 1):
            if t.dim(BiDegree(s, w)):
                assert s - 2 * w >= 0


def tensor_op_matrix_by_vectors(t, a, d):
    """TensorModule.op_matrix one basis vector at a time: x_i (x) y_j goes
    to the sum of a'x_i (x) a''y_j over the coproduct components, through
    act on each factor and a per-vector layout (left bidegree, i, j) in the
    order of left.support().  The reference for the block action."""

    def layout(d):
        return [
            (dl, i, j)
            for dl in sorted(t.left.support())
            if (d - dl).stem >= 0 and (d - dl).weight >= 0
            for i in range(t.left.dim(dl))
            for j in range(t.right.dim(d - dl))
        ]

    target = d + a.degree
    target_pos = {key: p for p, key in enumerate(layout(target))}
    rows = []
    for dl, i, j in layout(d):
        dr = d - dl
        acc = 0
        for d1s in range(a.degree.stem + 1):
            for d1w in range(a.degree.weight + 1):
                d1 = BiDegree(d1s, d1w)
                for u, v in t.algebra.coproduct_components(a, d1):
                    lv = t.left.act(u, dl, BitVector(t.left.dim(dl), 1 << i))
                    rv = t.right.act(v, dr, BitVector(t.right.dim(dr), 1 << j))
                    for li in lv.support():
                        for rj in rv.support():
                            acc ^= 1 << target_pos[(dl + d1, li, rj)]
        rows.append(acc)
    return BitMatrix(len(target_pos), rows)


def test_tensor_action_matches_per_vector_reference(alg16):
    # random operations on the tensor squares of A//E(P_1) and A//E(P_2)
    # and on their mixed product, whose factors differ in every block shape
    rng = random.Random(5)
    q1, q2 = QuotientModule(alg16, (1,)), QuotientModule(alg16, (2,))
    modules = [TensorModule(q1, q1), TensorModule(q2, q2), TensorModule(q1, q2)]
    degrees = list(alg16.bidegrees(16))
    checked = 0
    while checked < 200:
        t, da, d = rng.choice(modules), rng.choice(degrees), rng.choice(degrees)
        if (d + da).stem > 16 or t.dim(d) == 0:
            continue
        a = SteenrodElement(da, rng.getrandbits(alg16.dim(da)) or 1)
        assert t.op_matrix(a, d) == tensor_op_matrix_by_vectors(t, a, d), (t.name, da, d)
        checked += 1


def test_tensor_power_cube(alg16):
    q = QuotientModule(alg16, (1,))
    t3 = tensor_power(q, 3)
    assert t3.dim(BiDegree(0, 0)) == 1
    conv = {}
    for d1 in q.support(8):
        for d2 in q.support(8):
            for d3 in q.support(8):
                d = BiDegree(*d1) + BiDegree(*d2) + BiDegree(*d3)
                if d.stem <= 8:
                    conv[d] = conv.get(d, 0) + q.dim(d1) * q.dim(d2) * q.dim(d3)
    for d, expected in conv.items():
        assert t3.dim(d) == expected


def test_margolis_of_algebra_vanishes(alg16):
    module = AlgebraModule(alg16)
    for t in (1, 2):
        # homology past the safe stem 16 - |P_t| would be the truncation's
        assert margolis(module, t) == {}


def test_margolis_trivial_module(alg16):
    assert margolis(TrivialModule(alg16), 1) == {BiDegree(0, 0): 1}
    assert margolis(TrivialModule(alg16), 2) == {BiDegree(0, 0): 1}


def test_margolis_trivial_module_respects_window():
    # the safe window is the module's window less |P_t|; at window 2 it
    # holds stem 0 alone, where the unit is
    assert margolis(TrivialModule(MilnorAlgebra(2)), 1) == {BiDegree(0, 0): 1}
    assert margolis(TrivialModule(MilnorAlgebra(8)), 1) == {BiDegree(0, 0): 1}


def test_margolis_nonzero_on_quotient(alg16):
    # P_2 has homology on A//E(P_2): the unit survives at (0, 0)
    q = QuotientModule(alg16, (2,))
    assert margolis(q, 2).get(BiDegree(0, 0)) == 1


class _BadModule(GradedModule):
    """P_1 deliberately acts with nonzero square: one copy of F2 in every
    bidegree of the cone, with every op matrix the identity-ish map."""

    name = "bad"

    def __init__(self, algebra):
        self.algebra = algebra

    def dim(self, d):
        d = BiDegree(*d)
        return 1 if 0 <= d.weight * 2 <= d.stem else 0

    def op_matrix(self, a, d):
        d = BiDegree(*d)
        target = self.dim(d + a.degree)
        if self.dim(d) == 0:
            return BitMatrix(target, ())
        return BitMatrix(target, (1,) if target else (0,))


def test_margolis_rejects_non_exterior_action(alg16):
    with pytest.raises(InvariantViolation, match="not exterior"):
        margolis(_BadModule(alg16), 1)
