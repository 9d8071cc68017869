"""Minimal free resolutions over the motivic Steenrod algebra.

The resolver walks internal degrees in increasing order and, inside one
degree, filtrations bottom up.  At each cell (s, d) it takes the kernel of
d_s and assembles one matrix, that of d_{s+1} at d, from cached
right-multiplication blocks.  The echelon basis of its image is then
extended by the kernel basis one vector at a time (``Subspace.extend``):
each vector that is not yet reached, reduced modulo the image and the
vectors kept before it, becomes the image of one new free generator.  The
cells of filtration 0 do the same with the unit vectors of the module,
against the image of the augmentation.  Generators are therefore exactly
the Ext classes (no invertible entries ever appear, which the suite
re-checks).

No matrix is assembled twice.  The generators born at (s + 1, d) are the
last blocks of F_{s+1} at d, and each block is one row equal to the
generator's image, so the cell appends those rows to the d_{s+1} it just
built and hands the result up to cell (s + 1, d) as its d_s; the cover
step does the same for d_0.  Only a cell with no cell below it at d
assembles its d_s.  The carried matrices are kept per internal degree and
dropped when it is done.

Cells are processed while chart stem = internal stem - filtration stays
at most max_stem + 1.  A kernel vector never has a unit coefficient on a
generator of the same internal degree, and generator images only involve
target generators of chart stem at most their own, so this triangle is
closed under all dependencies and the reported chart is exact for stems
up to max_stem at every filtration up to max_filt.  Algebra coefficients
then stay within max_stem + 2, which the backing algebra window must
cover.

Cells run one at a time, in a fixed order, so the resolution is
deterministic.  Each generator's image is split into its target blocks once,
on first use: the target's layout at the generator's bidegree is final by
then, because the target generators there come from the cell one filtration
lower at the same internal degree, which runs first.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, NamedTuple

from .charts import ExtChart
from .gf2 import BitMatrix, BitVector, Subspace, kernel as gf2_kernel, rank
from .milnor import ZERO_DEGREE, BiDegree, MilnorAlgebra, SteenrodElement, bidegree_dim
from .modules import GradedModule, InvariantViolation


class PartialResultError(RuntimeError):
    """A resource bound was hit; carries the chart completed so far."""

    def __init__(self, message: str, chart: ExtChart, completed_stem: int):
        super().__init__(message)
        self.chart = chart
        self.completed_stem = completed_stem


class Generator(NamedTuple):
    index: int
    degree: BiDegree
    filtration: int


@dataclass
class FreeModule:
    """Free module with one block of algebra coefficients per generator."""

    filtration: int
    generators: list[Generator] = field(default_factory=list)

    def add_generator(self, degree: BiDegree) -> Generator:
        g = Generator(len(self.generators), BiDegree(*degree), self.filtration)
        self.generators.append(g)
        return g

    def layout(self, d: BiDegree) -> list[tuple[Generator, int, int]]:
        """(generator, coefficient dim, bit offset) blocks at bidegree d.

        A generator whose offset d - |g| has negative weight or negative
        Chow degree has no coefficients at d; it is skipped before the
        basis lookup.
        """
        t, w = d
        out = []
        offset = 0
        for g in self.generators:
            gt, gw = g.degree
            dw = w - gw
            if dw < 0 or t - gt < 2 * dw:
                continue
            n = bidegree_dim(BiDegree(t - gt, dw))
            if n:
                out.append((g, n, offset))
                offset += n
        return out

    def dim(self, d: BiDegree) -> int:
        d = BiDegree(*d)
        return sum(bidegree_dim(d - g.degree) for g in self.generators)


@dataclass
class ModuleMap:
    """Bidegree-preserving map from a free module, one image per generator.

    Images are coordinate bit masks in the target (free module layout or
    module basis) at the generator's own bidegree.
    """

    algebra: MilnorAlgebra
    source: FreeModule
    target: "FreeModule | GradedModule"
    images: list[int] = field(default_factory=list)
    _split: dict[int, list[tuple[int, SteenrodElement]]] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def set_image(self, g: Generator, bits: int) -> None:
        while len(self.images) < g.index:
            self.images.append(0)
        if len(self.images) == g.index:
            self.images.append(bits)
        else:
            self.images[g.index] = bits
        self._split.pop(g.index, None)

    def _components(self, g: Generator) -> list[tuple[int, SteenrodElement]]:
        """The nonzero (target generator index, coefficient) blocks of image(g)."""
        comps = self._split.get(g.index)
        if comps is None:
            bits = self.images[g.index]
            comps = []
            for h, n, offset in self.target.layout(g.degree):
                comp = (bits >> offset) & ((1 << n) - 1)
                if comp:
                    comps.append((h.index, SteenrodElement(g.degree - h.degree, comp)))
            self._split[g.index] = comps
        return comps

    def _free_block(
        self, g: Generator, d: BiDegree, out_offsets: dict[int, int]
    ) -> list[int]:
        """Rows x -> x . image(g) over the coefficient basis at d - |g|."""
        src_deg = d - g.degree
        rows = [0] * bidegree_dim(src_deg)
        for h_index, el in self._components(g):
            out_offset = out_offsets.get(h_index)
            if out_offset is None:
                continue
            block = self.algebra.right_mult_matrix(src_deg, el)
            for i, r in enumerate(block.rows):
                rows[i] ^= r << out_offset
        return rows

    def matrix(self, d: BiDegree, exclude_units: bool = False) -> BitMatrix:
        """The full matrix of the map at bidegree d.

        With exclude_units, blocks of generators sitting at d itself are
        dropped, leaving the part of the map defined over the augmentation
        ideal.
        """
        d = BiDegree(*d)
        free_target = isinstance(self.target, FreeModule)
        if free_target:
            out_layout = self.target.layout(d)
            out_offsets = {h.index: off for h, _, off in out_layout}
            ncols = out_layout[-1][2] + out_layout[-1][1] if out_layout else 0
        else:
            ncols = self.target.dim(d)
        rows: list[int] = []
        for g, n, _ in self.source.layout(d):
            if exclude_units and g.degree == d:
                continue
            if free_target:
                rows.extend(self._free_block(g, d, out_offsets))
            else:
                block = self.target.generator_action_matrix(
                    d - g.degree, g.degree, self.images[g.index]
                )
                rows.extend(block.rows)
        return BitMatrix(ncols, rows)


@dataclass
class Resolution:
    """A minimal free resolution of a module, with its Ext chart."""

    algebra: MilnorAlgebra
    module: GradedModule
    max_stem: int
    max_filt: int
    frees: list[FreeModule] = field(default_factory=list)
    maps: list[ModuleMap] = field(default_factory=list)

    def chart(self) -> ExtChart:
        chart = ExtChart(self.module.name, self.max_stem)
        for free in self.frees:
            for g in free.generators:
                stem = g.degree.stem - g.filtration
                if stem <= self.max_stem:
                    chart.add(g.filtration, stem, g.degree.weight)
        return chart

    # -- invariant checks -------------------------------------------------

    def verify_dd_zero(self) -> None:
        """d(d(g)) = 0 for every generator of every level."""
        for s in range(1, len(self.maps)):
            upper = self.maps[s]
            lower = self.maps[s - 1]
            for g in upper.source.generators:
                v = BitVector(upper.target.dim(g.degree), upper.images[g.index])
                w = lower.matrix(g.degree).vec_mul(v)
                if not w.is_zero():
                    raise InvariantViolation(
                        f"d.d != 0 at filtration {s}, generator {g}"
                    )

    def verify_minimal(self) -> None:
        """No differential entry pairs nonzero against the unit."""
        for s in range(1, len(self.maps)):
            m = self.maps[s]
            for g in m.source.generators:
                for h_index, el in m._components(g):
                    if el.degree == ZERO_DEGREE:
                        h = m.target.generators[h_index]
                        raise InvariantViolation(
                            f"unit coefficient in d at filtration {s}: {g} -> {h}"
                        )

    def verify_exact(self) -> None:
        """Homology of the resolution is concentrated in the chart.

        At every cell, rank(d_s) + rank(d_{s+1} over the augmentation
        ideal) accounts for dim F_s minus the multiplicity of classes born
        at filtration s + 1 there; the remaining kernel is exactly spanned
        by the unit blocks of the newborn generators.  The augmentation is
        also checked surjective, so the complex is exact onto the module.
        """
        for t in range(self.max_stem + 1):
            for w in range(t // 2 + 1):
                d = BiDegree(t, w)
                if self.module.dim(d) and rank(self.maps[0].matrix(d)) != self.module.dim(d):
                    raise InvariantViolation(f"augmentation not surjective at {d}")
        for s in range(len(self.maps) - 1):
            for t in range(s, self.max_stem + s + 1):
                for w in _candidate_weights(self.frees[s], self.module, t, False):
                    d = BiDegree(t, w)
                    n = self.frees[s].dim(d)
                    if n == 0:
                        continue
                    r_out = rank(self.maps[s].matrix(d))
                    r_in = rank(self.maps[s + 1].matrix(d, exclude_units=True))
                    born = sum(
                        1 for g in self.frees[s + 1].generators if g.degree == d
                    )
                    if r_out + r_in + born != n:
                        raise InvariantViolation(
                            f"homology off chart at s={s}, {d}: "
                            f"{r_out}+{r_in}+{born} != {n}"
                        )


def _candidate_weights(free: FreeModule, module: GradedModule, t: int, use_module: bool) -> list[int]:
    """The weights w at internal stem t where free, or with use_module also
    the module, can be nonzero: the cells worth visiting at that stem."""
    ws: set[int] = set()
    for g in free.generators:
        span = t - g.degree.stem
        if span < 0:
            continue
        for w in range(g.degree.weight, g.degree.weight + span // 2 + 1):
            ws.add(w)
    if use_module:
        for w in range(t // 2 + 1):
            if module.dim(BiDegree(t, w)):
                ws.add(w)
    return sorted(ws)


def _unreached(image: BitMatrix, vectors: Iterable[int]) -> list[int]:
    """The vectors outside the row space of ``image``, each reduced modulo
    that space and the vectors kept before it: one new generator each."""
    return Subspace.from_matrix_rows(image).extend(vectors)[1]


def _with_rows(m: BitMatrix, images: list[int]) -> BitMatrix:
    """The matrix of a map at d after generators born at d were added with
    these images: their unit blocks are the last rows, and the row of a
    unit block is the image itself."""
    return BitMatrix(m.ncols, m.rows + tuple(images)) if images else m


def minimal_resolution(
    module: GradedModule,
    max_stem: int,
    max_filt: int,
    max_gens_per_bidegree: int | None = None,
) -> tuple[Resolution, ExtChart]:
    """Resolve a bounded-below module; returns the resolution and its chart.

    The chart is complete for every (filtration <= max_filt, stem <=
    max_stem).  Raises PartialResultError carrying the completed sub-window
    if a cell needs more than max_gens_per_bidegree new generators.
    """
    if max_stem < 0 or max_filt < 0:
        raise ValueError(f"negative window: max_stem {max_stem}, max_filt {max_filt}")
    algebra = module.algebra
    if algebra.max_stem < max_stem + 2:
        raise ValueError(
            f"algebra window {algebra.max_stem} too small: resolving to stem "
            f"{max_stem} needs coefficients through stem {max_stem + 2}"
        )
    res = Resolution(algebra, module, max_stem, max_filt)
    res.frees = [FreeModule(s) for s in range(max_filt + 1)]
    res.maps = [ModuleMap(algebra, res.frees[0], module)]
    for s in range(1, max_filt + 1):
        res.maps.append(ModuleMap(algebra, res.frees[s], res.frees[s - 1]))

    def add_generators(s: int, d: BiDegree, new: list[int], t: int) -> None:
        if max_gens_per_bidegree is not None and len(new) > max_gens_per_bidegree:
            # internal degrees below t are done, which closes chart stems
            # through t - 1 - max_filt at every filtration; the chart and
            # the reported bound are clamped alike
            completed = max(t - 1 - max_filt, -1)
            raise PartialResultError(
                f"more than {max_gens_per_bidegree} generators at filtration {s}, {d}",
                res.chart().restricted(completed),
                completed,
            )
        for bits in new:
            g = res.frees[s].add_generator(d)
            res.maps[s].set_image(g, bits)

    for t in range(0, max_stem + max_filt + 1):
        # (s, w) -> the full matrix of d_s at (t, w), left by the cell below
        carried: dict[tuple[int, int], BitMatrix] = {}
        # new generators of F_0 where the module is not yet covered
        if t <= max_stem:
            for w in _candidate_weights(res.frees[0], module, t, True):
                d = BiDegree(t, w)
                d0 = res.maps[0].matrix(d)
                units = (1 << c for c in range(module.dim(d)))
                new = _unreached(d0, units)
                add_generators(0, d, new, t)
                carried[0, w] = _with_rows(d0, new)
        # kernels feeding new generators of F_{s+1}
        s_lo = max(0, t - (max_stem + 1))
        s_hi = min(max_filt - 1, t - 1)
        for s in range(s_lo, s_hi + 1):
            for w in _candidate_weights(res.frees[s], module, t, False):
                d = BiDegree(t, w)
                d_s = carried.pop((s, w), None)
                if d_s is None:
                    d_s = res.maps[s].matrix(d)
                # rows are the source basis, so the kernel of d_s is the
                # left kernel of its matrix
                ker = gf2_kernel(d_s.transpose())
                d_next = res.maps[s + 1].matrix(d)
                new = _unreached(d_next, ker.basis.rows)
                add_generators(s + 1, d, new, t)
                carried[s + 1, w] = _with_rows(d_next, new)

    return res, res.chart()
