"""Algebraic models of the periodicity towers and their machine checks.

The kw-side model is the truncated complex of free rank-one modules whose
differential is right multiplication by P_{n+1}; homology lives in
coefficient degrees, so a term shifted by q copies of |P_{n+1}| - (1,0)
can be examined far beyond the table window.  The wBP-side model is the
complex (A mod right P_1 multiples) tensor V_i; a generator e_R of V_i is
an xi monomial xi^(0, R) of length i with no xi_1 factor (one per monomial
in P_2, P_3, ...), and the differential peels one index at a time.

Every check returns a ``verify.VerificationReport`` serializing to
{"check", "params", "verdict", "witnesses"}; a failed check returns
verdict False with its witnesses and never raises.  Only bad arguments
(a window too small for the check, m < 1) raise ValueError.
"""

from __future__ import annotations

from typing import Iterator

from .charts import w_class_degree
from .gf2 import BitMatrix, BitVector, rank
from .milnor import (
    BiDegree,
    DualMonomial,
    MilnorAlgebra,
    SteenrodElement,
    WindowError,
    _trim,
    bidegree_basis,
    bidegree_dim,
    xi_degree,
    xi_monomial,
)
from .modules import QuotientModule, tensor_power
from .verify import VerificationReport


# ---------------------------------------------------------------------------
# the kw tower complex


class KwComplex:
    """Free terms g_0, ..., g_m with d(g_q) = g_{q-1} . P_{n+1}.

    Term q is a rank-one free module on a generator of bidegree
    q * (|P_{n+1}| - (1,0)); the differential raises the total bidegree by
    (1,0) and the coefficient degree by |P_{n+1}|.  d.d = 0 because P_{n+1}
    is exterior.
    """

    def __init__(self, algebra: MilnorAlgebra, n: int, m: int):
        if n < 0 or m < 0:
            raise ValueError("need n >= 0 and m >= 0")
        self.algebra = algebra
        self.n = n
        self.m = m
        self.r = xi_degree(n + 1)
        self.shift = w_class_degree(n)

    def generator_degree(self, q: int) -> BiDegree:
        return self.shift.times(q)

    def coefficient_degree(self, q: int, d: BiDegree) -> BiDegree:
        return d - self.generator_degree(q)

    def _pt_matrix(self, x: BiDegree) -> BitMatrix:
        return self.algebra.right_pt_matrix(self.n + 1, x)

    def homology_dim(self, q: int, d: BiDegree) -> int:
        """Homology at term q and total bidegree d; exact when the
        coefficient arithmetic fits the window (see kw_homology)."""
        if not 0 <= q <= self.m:
            return 0
        x = self.coefficient_degree(q, d)
        n_here = bidegree_dim(x)
        if q >= 1:
            ker = n_here - rank(self._pt_matrix(x))
        else:
            ker = n_here
        im = 0
        if q + 1 <= self.m:
            src = x - self.r
            if bidegree_dim(src):
                im = rank(self._pt_matrix(src))
        return ker - im


def kw_homology(algebra: MilnorAlgebra, n: int, m: int) -> list[dict[BiDegree, int]]:
    """Homology of the kw complex: for q = 0..m, the nonzero dimensions at
    homological degree q, by total bidegree.

    Degree q is reported at every total bidegree whose coefficient degree
    sits in the safe window (full window at q = 0, margin |P_{n+1}| above).
    """
    r = xi_degree(n + 1)
    if algebra.max_stem < r.stem:
        raise WindowError(f"window {algebra.max_stem} below |P_{n + 1}| = {r}")
    cx = KwComplex(algebra, n, m)
    out = []
    for q in range(m + 1):
        dims: dict[BiDegree, int] = {}
        shift = cx.generator_degree(q)
        for x in algebra.bidegrees(algebra.max_stem - (r.stem if q else 0)):
            d = x + shift
            h = cx.homology_dim(q, d)
            if h:
                dims[d] = h
        out.append(dims)
    return out


def kw_chow_check(algebra: MilnorAlgebra, n: int, m: int) -> VerificationReport:
    """Chow accounting for the kw complex: no chains below degree -m, and a
    nonzero homology class exactly at Chow degree -m.

    The lower bound is asserted on bases: every monomial in the window has
    Chow degree and weight >= 0, so term q sits in Chow >= -q >= -m.  The
    sharpness witness is the kernel class P_{n+1} . g_m, located by a rank
    computation at coefficient degree |P_{n+1}|.
    """
    cx = KwComplex(algebra, n, m)
    report = VerificationReport("kw_chow", {"n": n, "m": m, "window": algebra.max_stem})
    for mono, deg in algebra.window_sweep():
        if deg.chow < 0 or deg.weight < 0:
            report.fail({"monomial": repr(mono), "chow": deg.chow, "weight": deg.weight})
    if m == 0:
        if bidegree_dim(BiDegree(0, 0)) != 1:
            report.fail({"missing": "unit at (0,0)"})
            return report
        total, h = BiDegree(0, 0), 1
    else:
        if 2 * cx.r.stem > algebra.max_stem:
            raise ValueError(
                f"window {algebra.max_stem} too small for the sharpness kernel "
                f"at stem {2 * cx.r.stem}"
            )
        total = cx.r + cx.generator_degree(m)
        h = cx.homology_dim(m, total)
    witness = {
        "sharp_at": {"stem": total.stem, "weight": total.weight},
        "chow": total.chow,
        "dim": h,
    }
    if h < 1 or total.chow != -m:
        report.fail(witness)
    else:
        report.witnesses.append(witness)
    return report


def k_invariant_check(algebra: MilnorAlgebra, n: int, m: int) -> VerificationReport:
    """The two obstruction groups for stage m + 1 of the kw_n tower.

    Existence needs the homology of the m-1 truncation to vanish at
    (m+1)r - (m,0) and (m+2)r - (m,0); uniqueness needs the m truncation
    to vanish at (m+2)r - (m+1,0).  Both live in Chow degrees below the
    truncation bound, so each chain group is empty; that emptiness is
    verified by enumerating the actual coefficient bidegrees, which works
    at any total degree.  The square P_{n+1}^2 = 0 is recomputed exactly.
    """
    if m < 1:
        raise ValueError("need m >= 1")
    cx = KwComplex(algebra, n, m)
    p = algebra.pst(0, n + 1)
    square_zero = algebra.product(p, p).is_zero()

    def obstruction(top_q: int, target: BiDegree) -> dict:
        dim = sum(bidegree_dim(cx.coefficient_degree(q, target)) for q in range(top_q + 1))
        return {"stem": target.stem, "weight": target.weight, "chow": target.chow, "dim": dim}

    existence = [
        obstruction(m - 1, cx.r.times(m + 1) - BiDegree(m, 0)),
        obstruction(m - 1, cx.r.times(m + 2) - BiDegree(m, 0)),
    ]
    uniqueness = [obstruction(m, cx.r.times(m + 2) - BiDegree(m + 1, 0))]
    verdict = square_zero and all(w["dim"] == 0 for w in existence + uniqueness)
    return VerificationReport(
        "k_invariant",
        {"n": n, "m": m},
        verdict,
        [{"square_zero": square_zero}, {"existence": existence}, {"uniqueness": uniqueness}],
    )


# ---------------------------------------------------------------------------
# the wBP complex


def _xi_monomials(max_stem: int) -> Iterator[DualMonomial]:
    """The xi monomials of stem <= max_stem: the bases of the bidegrees
    (2w, w), where Chow degree 0 leaves no tau."""
    for w in range(max_stem // 2 + 1):
        yield from bidegree_basis(BiDegree(2 * w, w))


def _indices(m: DualMonomial) -> list[int]:
    """The j with xi_j dividing m."""
    return [j for j, e in enumerate(m.r, start=1) if e]


def _divide(m: DualMonomial, j: int) -> DualMonomial:
    """m / xi_j, for xi_j dividing m."""
    r = list(m.r)
    r[j - 1] -= 1
    return DualMonomial((), _trim(r))


def _label(m: DualMonomial) -> str:
    """The name e(R) of the layer generator m = xi^(0, R)."""
    return "e(" + ",".join(str(e) for e in m.r[1:]) + ")"


def vi_basis(i: int, max_stem: int) -> tuple[DualMonomial, ...]:
    """Generators of V_i: the xi monomials of length i with no xi_1 factor
    and stem <= max_stem, in basis order."""
    if i < 0:
        raise ValueError("need i >= 0")
    return tuple(
        sorted(m for m in _xi_monomials(max_stem) if m.r[:1] in ((), (0,)) and sum(m.r) == i)
    )


class WbpComplex:
    """Terms (A mod A.P_1) (x) V_i with d([x] (x) e_R) = sum [x.P_j] (x) e_{R-D_j}.

    Well defined on the quotient because right P_1 multiples stay right
    P_1 multiples under right multiplication by P_j (the P_t commute);
    the complex carries the left action on the quotient factor.
    """

    def __init__(self, algebra: MilnorAlgebra, i_max: int):
        self.algebra = algebra
        self.i_max = i_max
        self.quotient = QuotientModule(algebra, (1,))
        self.layers = [vi_basis(i, algebra.max_stem) for i in range(i_max + 1)]
        self._pt_cache: dict[tuple[int, BiDegree], BitMatrix] = {}

    def layer_layout(self, i: int, d: BiDegree) -> list[tuple[DualMonomial, int, int]]:
        if not 0 <= i <= self.i_max:
            return []
        out = []
        offset = 0
        for gen in self.layers[i]:
            x = d - gen.degree
            if x.stem < 0 or x.weight < 0:
                continue
            n = self.quotient.dim(x)
            if n:
                out.append((gen, n, offset))
                offset += n
        return out

    def dim(self, i: int, d: BiDegree) -> int:
        return sum(n for _, n, _ in self.layer_layout(i, d))

    def _qpt(self, j: int, x: BiDegree) -> BitMatrix:
        key = (j, x)
        mat = self._pt_cache.get(key)
        if mat is None:
            mat = self.quotient.right_pt_matrix(j, x)
            self._pt_cache[key] = mat
        return mat

    def differential_matrix(self, i: int, d: BiDegree) -> BitMatrix:
        """The map C_{i+1} -> C_i at bidegree d."""
        source = self.layer_layout(i + 1, d)
        target = self.layer_layout(i, d)
        offsets = {gen: off for gen, _, off in target}
        ncols = sum(n for _, n, _ in target)
        rows: list[int] = []
        for gen, n, _ in source:
            x = d - gen.degree
            block_rows = [0] * n
            for j in _indices(gen):
                off = offsets.get(_divide(gen, j))
                if off is None:
                    continue
                mat = self._qpt(j, x)
                for k in range(n):
                    block_rows[k] ^= mat.rows[k] << off
            rows.extend(block_rows)
        return BitMatrix(ncols, rows)

    def generator_vector(self, gen: DualMonomial) -> tuple[BiDegree, BitVector]:
        """[1] (x) e_R as a coordinate vector of C_{l(R)} at |e_R|."""
        d = gen.degree
        length = sum(gen.r)
        for g, n, off in self.layer_layout(length, d):
            if g == gen:
                # the coefficient block is the quotient at (0,0), which is
                # one dimensional with representative [1]
                return d, BitVector(self.dim(length, d), 1 << off)
        raise ValueError(f"generator {_label(gen)} outside the window")


def wbp_complex_check(algebra: MilnorAlgebra, i_max: int) -> VerificationReport:
    """d.d = 0 on every generator, position-0 homology equal to the full
    quotient, positions 1..i_max-1 exact, and the layer connectivity bound.

    Truncating the layers to the window loses nothing at bidegrees inside
    it: a basis element [x] (x) e_R at bidegree d has |e_R| <= d, so every
    sequence that could contribute is present.
    """
    cx = WbpComplex(algebra, i_max)
    window = algebra.max_stem
    report = VerificationReport("wbp_complex", {"i_max": i_max, "window": window})

    for i in range(2, i_max + 1):
        for gen in cx.layers[i]:
            d, v = cx.generator_vector(gen)
            once = cx.differential_matrix(i - 1, d).vec_mul(v)
            twice = cx.differential_matrix(i - 2, d).vec_mul(once)
            if not twice.is_zero():
                report.fail({"dd_nonzero_at": _label(gen)})

    for i in range(1, i_max + 1):
        if cx.layers[i]:
            low = min(gen.degree.stem for gen in cx.layers[i]) - (i - 1)
            if low < 5 * i + 1:
                report.fail({"layer": i, "connectivity": low, "bound": 5 * i + 1})

    full = QuotientModule(algebra, range(1, window + 1))
    for d in algebra.bidegrees(window):
        mats = {}

        def mat(p: int) -> BitMatrix:
            if p not in mats:
                mats[p] = cx.differential_matrix(p, d)
            return mats[p]

        h0 = cx.dim(0, d) - rank(mat(0))
        if h0 != full.dim(d):
            report.fail(
                {
                    "position": 0,
                    "stem": d.stem,
                    "weight": d.weight,
                    "dim": h0,
                    "expected": full.dim(d),
                },
            )
        for p in range(1, i_max):
            n = cx.dim(p, d)
            if n == 0 and cx.dim(p + 1, d) == 0:
                continue
            h = n - rank(mat(p - 1)) - rank(mat(p))
            if h:
                report.fail({"position": p, "stem": d.stem, "weight": d.weight, "dim": h})
    return report


def wbp_differential_check(algebra: MilnorAlgebra, i_max: int) -> VerificationReport:
    """Conjugation identities behind the factored wBP differential.

    Verifies, inside the quotient by right P_1 multiples:
      (a) [P_1 . P_j] = 0 for every j >= 2 in the window (well-definedness);
      (b) [P_j] = [P_1 . c(P^{2 Delta_{j-1}})] for every j >= 2 in the window;
      (c) [P_1 . c(P^{2R})] = sum_k [c(P^{2(R - Delta_k)}) . P_1 . c(P^{2 Delta_k})]
          for sequences R over indices >= 1 of length <= 2 in the window;
      (d) the two forms of the differential agree on every layer generator
          through layer i_max.

    Only the doubled exponents typecheck: P_1 . c(P^{Delta_{j-1}}) sits in
    bidegree (2^j, 2^{j-1}), not |P_j|, so the undoubled reading fails on
    bidegree grounds before any arithmetic; that finding is recorded in the
    report.
    """
    window = algebra.max_stem
    quotient = QuotientModule(algebra, (1,))
    report = VerificationReport(
        "wbp_differential",
        {"i_max": i_max, "window": window},
    )
    p1 = algebra.pst(0, 1)

    def project(a: SteenrodElement) -> tuple[BiDegree, int]:
        mat = quotient.projection_matrix(a.degree)
        return a.degree, mat.vec_mul(a.coeffs()).bits

    def conj_doubled(exps: tuple[int, ...]) -> SteenrodElement:
        return algebra.conjugate(algebra.pR(tuple(2 * e for e in exps)))

    # (b) per index j; (d) reads these verdicts, since each component of the
    # differential on a layer generator is the identity at its index
    identity_holds: dict[int, bool] = {}
    j = 2
    while xi_degree(j).stem <= window:
        pj = algebra.pst(0, j)
        if xi_degree(j).stem + p1.degree.stem <= window:
            # well-definedness witness: the differential respects the quotient
            if not quotient.projection_matrix(pj.degree + p1.degree).vec_mul(
                algebra.product(p1, pj).coeffs()
            ).is_zero():
                report.fail({"identity": "P1.Pj nonzero in quotient", "j": j})
        factored = algebra.product(p1, conj_doubled(xi_monomial(j - 1).r))
        identity_holds[j] = project(pj) == project(factored)
        if not identity_holds[j]:
            report.fail({"identity": "P_j = P_1.c(P^{2D_{j-1}})", "j": j})
        j += 1
    report.params["covered_j"] = list(identity_holds)

    checked_sequences = 0
    for seq in _short_sequences(2, window):
        lhs_el = algebra.product(p1, conj_doubled(seq.r))
        acc_bits = 0
        for k in _indices(seq):
            term = algebra.product(
                conj_doubled(_divide(seq, k).r),
                algebra.product(p1, conj_doubled(xi_monomial(k).r)),
            )
            acc_bits ^= project(term)[1]
        if project(lhs_el)[1] != acc_bits:
            report.fail({"identity": "summed conjugation relation", "R": seq.r})
        checked_sequences += 1
    report.params["sequences_checked"] = checked_sequences

    for i in range(1, i_max + 1):
        for gen in vi_basis(i, window):
            for j in _indices(gen):
                if not identity_holds[j]:
                    report.fail({"generator": _label(gen), "component": j})
    report.params["convention"] = (
        "doubled exponents c(P^{2 Delta_{j-1}}) hold; undoubled variants are "
        "rejected by bidegree mismatch"
    )
    return report


def _short_sequences(max_len: int, window: int) -> list[DualMonomial]:
    """The xi monomials xi^R of length 1..max_len whose doubled P-element
    keeps P_1 . c(P^{2R}) inside the window."""
    return sorted(m for m in _xi_monomials((window - 2) // 2) if 1 <= sum(m.r) <= max_len)


def smash_chow_check(algebra: MilnorAlgebra, n: int | None, power: int) -> VerificationReport:
    """Tensor powers of the kw_n quotient (or the full quotient for n None)
    have dimension one at (0,0) and nothing in negative Chow degree."""
    if power < 1:
        raise ValueError("need power >= 1")
    window = algebra.max_stem
    ts = range(1, window + 1) if n is None else (n + 1,)
    module = tensor_power(QuotientModule(algebra, ts), power)
    report = VerificationReport(
        "smash_chow",
        {"n": n, "power": power, "window": window, "module": module.name},
    )
    if module.dim(BiDegree(0, 0)) != 1:
        report.fail({"dim_at_origin": module.dim(BiDegree(0, 0))})
    for s in range(window + 1):
        for w in range(s // 2 + 1, s + 1):
            d = BiDegree(s, w)
            if module.dim(d):
                report.fail({"stem": s, "weight": w, "chow": d.chow, "dim": module.dim(d)})
    return report

