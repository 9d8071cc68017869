"""Bidegree-wise graded left modules over the motivic Steenrod algebra.

A module exposes its dimension at each bidegree and its left action as
matrices, all built from exact bit-packed linear algebra.  A quotient
A//E(P_t : t in ts) is computed per bidegree as the cokernel of right
multiplication by the P_t, never from closed-form monomial combinatorics,
so the rank tests in the suite certify its bases.
"""

from __future__ import annotations

from typing import Iterable, Iterator

from .gf2 import BitMatrix, BitVector, Subspace, rank
from .milnor import (
    BiDegree,
    MilnorAlgebra,
    SteenrodElement,
    ZERO_DEGREE,
    bidegree_basis,
    xi_degree,
)


class InvariantViolation(AssertionError):
    """A machine-checked structural claim failed; the message says where."""


class NotExterior(InvariantViolation):
    """P_t squares to nonzero on a module at ``degree``."""

    def __init__(self, module_name: str, t: int, degree: BiDegree):
        super().__init__(f"P_{t} is not exterior on {module_name} at {degree}")
        self.degree = degree


class GradedModule:
    """Contract: dims per bidegree and left action matrices."""

    algebra: MilnorAlgebra
    name: str = "module"

    @property
    def window(self) -> int:
        return self.algebra.max_stem

    def dim(self, d: BiDegree) -> int:
        raise NotImplementedError

    def op_matrix(self, a: SteenrodElement, d: BiDegree) -> BitMatrix:
        """Row i is act(a, e_i) in the basis of d + |a|."""
        raise NotImplementedError

    def act(self, a: SteenrodElement, d: BiDegree, v: BitVector) -> BitVector:
        return self.op_matrix(a, d).vec_mul(v)

    def generator_action_matrix(self, d1: BiDegree, d2: BiDegree, bits: int) -> BitMatrix:
        """Row i is act(x_i, v) over the algebra basis x_i at d1, v fixed at d2."""
        v = BitVector(self.dim(d2), bits)
        rows = []
        for a in self.algebra.basis_functionals(d1):
            rows.append(self.op_matrix(a, d2).vec_mul(v).bits)
        return BitMatrix(self.dim(d1 + d2), rows)

    def support(self, max_stem: int | None = None) -> Iterator[BiDegree]:
        top = self.window if max_stem is None else min(max_stem, self.window)
        for s in range(top + 1):
            for w in range(s // 2 + 1):
                d = BiDegree(s, w)
                if self.dim(d):
                    yield d


class AlgebraModule(GradedModule):
    """The algebra as a left module over itself."""

    def __init__(self, algebra: MilnorAlgebra):
        self.algebra = algebra
        self.name = "A"

    def dim(self, d: BiDegree) -> int:
        return self.algebra.dim(d)

    def op_matrix(self, a: SteenrodElement, d: BiDegree) -> BitMatrix:
        return self.algebra.left_mult_matrix(a, d)

    def generator_action_matrix(self, d1: BiDegree, d2: BiDegree, bits: int) -> BitMatrix:
        b = SteenrodElement(d2, bits)
        return self.algebra.right_mult_matrix(d1, b)


class TrivialModule(GradedModule):
    """F2 concentrated at (0, 0); operations act through the counit."""

    def __init__(self, algebra: MilnorAlgebra):
        self.algebra = algebra
        self.name = "F2"

    def dim(self, d: BiDegree) -> int:
        return 1 if d == ZERO_DEGREE else 0

    def op_matrix(self, a: SteenrodElement, d: BiDegree) -> BitMatrix:
        target = self.dim(d + a.degree)
        if self.dim(d) == 0:
            return BitMatrix(target, ())
        unit_value = a.bits & 1 if a.degree == ZERO_DEGREE else 0
        return BitMatrix(target, (unit_value,))

    def generator_action_matrix(self, d1: BiDegree, d2: BiDegree, bits: int) -> BitMatrix:
        n = self.algebra.dim(d1)
        target = self.dim(d1)
        if target and bits & 1:
            # only the counit coordinate of x survives; x is a functional on
            # the monomials of d1, and the counit support is the unit monomial
            rows = [1 if bidegree_basis(d1)[i].is_unit else 0 for i in range(n)]
            return BitMatrix(1, rows)
        return BitMatrix(target, (0,) * n)


class QuotientModule(GradedModule):
    """A//E(P_t : t in ts): A modulo the right multiples A.P_t.

    ``ts`` is any iterable of indices >= 1.  A P_t past the window kills
    nothing in it, so its index is dropped; ``self.ts`` keeps the rest,
    ascending, and the name lists them.  Per bidegree the killed subspace
    is spanned by the rows of the right multiplication matrices; coset
    representatives are the non-pivot coordinates of its reduced echelon
    basis.  The left action descends because a.(b.P_t) = (a.b).P_t.
    """

    def __init__(self, algebra: MilnorAlgebra, ts: Iterable[int]):
        ts = sorted(set(ts))
        if ts and ts[0] < 1:
            raise ValueError("exterior indices must be >= 1")
        top = algebra.max_stem
        self.algebra = algebra
        # t <= top is tested first: |P_t| = 2^(t+1) - 2 > t, so a huge index
        # is dropped without computing its degree
        self.ts = tuple(t for t in ts if t <= top and xi_degree(t).stem <= top)
        self.name = "A//E(" + ",".join(f"P_{t}" for t in self.ts) + ")"
        self._data: dict[BiDegree, tuple[Subspace, tuple[int, ...], BitMatrix]] = {}

    def _bidegree_data(self, d: BiDegree):
        d = self.algebra.require(d)
        data = self._data.get(d)
        if data is None:
            n = self.algebra.dim(d)
            rows: list[int] = []
            for t in self.ts:
                src = d - xi_degree(t)
                if src.stem < 0 or src.weight < 0 or self.algebra.dim(src) == 0:
                    continue
                rows.extend(self.algebra.right_pt_matrix(t, src).rows)
            sub = Subspace.from_matrix_rows(BitMatrix(n, rows))
            pivot_rows = dict(zip(sub.pivots, sub.basis.rows))
            reps = tuple(j for j in range(n) if j not in pivot_rows)
            rep_pos = {j: k for k, j in enumerate(reps)}
            # e_i projects to itself off the pivots, and at pivot i to its
            # echelon row less e_i, whose bits, the echelon being reduced,
            # all lie on representatives
            proj_rows = []
            for i in range(n):
                rest = pivot_rows.get(i, 0) ^ (1 << i)
                out = 0
                while rest:
                    j = (rest & -rest).bit_length() - 1
                    out |= 1 << rep_pos[j]
                    rest &= rest - 1
                proj_rows.append(out)
            data = (sub, reps, BitMatrix(len(reps), proj_rows))
            self._data[d] = data
        return data

    def killed_subspace(self, d: BiDegree) -> Subspace:
        return self._bidegree_data(d)[0]

    def representatives(self, d: BiDegree) -> tuple[int, ...]:
        return self._bidegree_data(d)[1]

    def projection_matrix(self, d: BiDegree) -> BitMatrix:
        """Algebra coordinates at d down to coset representative coordinates."""
        return self._bidegree_data(d)[2]

    def lift_matrix(self, d: BiDegree) -> BitMatrix:
        reps = self.representatives(d)
        return BitMatrix(self.algebra.dim(d), tuple(1 << j for j in reps))

    def dim(self, d: BiDegree) -> int:
        return len(self._bidegree_data(d)[1])

    def op_matrix(self, a: SteenrodElement, d: BiDegree) -> BitMatrix:
        full = self.algebra.left_mult_matrix(a, d)
        lifted = self.lift_matrix(d).compose(full)
        return lifted.compose(self.projection_matrix(d + a.degree))

    def right_pt_matrix(self, t: int, d: BiDegree) -> BitMatrix:
        """Right multiplication by P_t on the quotient; well defined since
        P_t commutes with P_1, ..., checked by the suite."""
        full = self.algebra.right_pt_matrix(t, d)
        return self.lift_matrix(d).compose(full).compose(
            self.projection_matrix(d + xi_degree(t))
        )

    def generator_action_matrix(self, d1: BiDegree, d2: BiDegree, bits: int) -> BitMatrix:
        lifted = self.lift_matrix(d2).vec_mul(BitVector(self.dim(d2), bits))
        b = SteenrodElement(d2, lifted.bits)
        full = self.algebra.right_mult_matrix(d1, b)
        return full.compose(self.projection_matrix(d1 + d2))


class TensorModule(GradedModule):
    """Tensor product with the diagonal action a.(x (x) y) = sum a_(1)x (x) a_(2)y.

    The basis at d has one block per left bidegree dl, and x_i (x) y_j of
    a block is at offset + i * (right dim) + j; an operation acts on a
    block by the Kronecker products of the factors' action matrices.
    """

    def __init__(self, left: GradedModule, right: GradedModule):
        if left.algebra is not right.algebra:
            raise ValueError("tensor factors must share the algebra")
        self.algebra = left.algebra
        self.left = left
        self.right = right
        self.name = f"{left.name} (x) {right.name}"
        self._lsupport = sorted(left.support())

    def blocks(self, d: BiDegree) -> tuple[tuple[BiDegree, int, int, int], ...]:
        """(dl, left dim, right dim, offset) for each left bidegree dl
        where both factors are nonzero."""
        out = []
        offset = 0
        for dl in self._lsupport:
            dr = d - dl
            if dr.stem < 0 or dr.weight < 0:
                continue
            nr = self.right.dim(dr)
            if nr == 0:
                continue
            nl = self.left.dim(dl)
            out.append((dl, nl, nr, offset))
            offset += nl * nr
        return tuple(out)

    def dim(self, d: BiDegree) -> int:
        return sum(nl * nr for _, nl, nr, _ in self.blocks(d))

    def op_matrix(self, a: SteenrodElement, d: BiDegree) -> BitMatrix:
        target = d + a.degree
        source, target_blocks = self.blocks(d), self.blocks(target)
        places = {dl: (nr, offset) for dl, _, nr, offset in target_blocks}
        splits = []
        for d1 in self.algebra.bidegrees(a.degree.stem):
            comps = self.algebra.coproduct_components(a, d1)
            if comps:
                splits.append((d1, comps))
        rows = [0] * sum(nl * nr for _, nl, nr, _ in source)
        for dl, _, nr, offset in source:
            for d1, comps in splits:
                if dl + d1 not in places:
                    continue
                tnr, toffset = places[dl + d1]
                for u, v in comps:
                    rrows = self.right.op_matrix(v, d - dl).rows
                    for i, lrow in enumerate(self.left.op_matrix(u, dl).rows):
                        # x_i (x) y_j, at offset + i * nr + j, adds
                        # x'_k (x) rrows[j] for each bit k of lrow
                        for k in range(lrow.bit_length()):
                            if lrow >> k & 1:
                                shift = toffset + k * tnr
                                for p, rrow in enumerate(rrows, offset + i * nr):
                                    rows[p] ^= rrow << shift
        return BitMatrix(sum(nl * nr for _, nl, nr, _ in target_blocks), rows)


def tensor_power(m: GradedModule, power: int) -> GradedModule:
    if power < 1:
        raise ValueError("power must be >= 1")
    out = m
    for _ in range(power - 1):
        out = TensorModule(out, m)
    return out


def margolis(module: GradedModule, t: int) -> dict[BiDegree, int]:
    """The nonzero ker/im dimensions of the left P_t action, by bidegree.

    Truncation creates spurious homology near the cutoff, so homology is
    reported only at stems <= window - |P_t|, the module's window less the
    stem of P_t.  Exteriority of the action is verified as far as the
    window allows composing P_t twice; a nonzero square raises NotExterior.
    """
    max_stem = module.window
    pt = module.algebra.pst(0, t)
    dt = pt.degree
    mats: dict[BiDegree, BitMatrix] = {}

    def op(d: BiDegree) -> BitMatrix:
        if d not in mats:
            mats[d] = module.op_matrix(pt, d)
        return mats[d]

    for d in module.support(max_stem - 2 * dt.stem):
        if not op(d).compose(op(d + dt)).is_zero():
            raise NotExterior(module.name, t, d)

    dims: dict[BiDegree, int] = {}
    for d in module.support(max_stem - dt.stem):
        rank_out = rank(op(d))
        src = d - dt
        rank_in = 0
        if src.stem >= 0 and src.weight >= 0 and module.dim(src):
            rank_in = rank(op(src))
        h = module.dim(d) - rank_out - rank_in
        if h:
            dims[d] = h
    return dims
