"""Minimal free resolutions over the motivic Steenrod algebra.

The resolver walks internal degrees in increasing order and, inside one
degree, filtrations bottom up.  At each cell (s, d) it has the kernel of
d_s and assembles one matrix, that of d_{s+1} at d: each generator's rows
are the cached unit blocks x -> x . m of its image's monomials, shifted to
their target block and XORed in place.  One elimination of that matrix
beside an identity block (``gf2.extend_image``) does the rest of the cell
on plain int rows.  It reduces the kernel of d_s one vector at a time
modulo the image and the vectors kept before it; each vector not yet
reached becomes the image of one new free generator.  The same elimination
gives the left kernel of d_{s+1}.  The cells of filtration 0 do the same
with the unit vectors of the module, against the image of the
augmentation.  Generators are therefore exactly the Ext classes (no
invertible entries ever appear, which the suite re-checks).

Kernels and layouts, not matrices, are carried up.  The left kernel of
d_{s+1} found at (s, d) is the kernel of d_{s+1} that cell (s + 1, d)
needs: the generators born at (s + 1, d) are the last rows of the full
matrix, and their images are independent modulo the rest, so they add no
relation.  Cell (s + 1, d) also needs the layout of F_s(d) as its target:
that is cell (s, d)'s source layout plus one unit block per generator born
there, appended last.  The cover step carries both the same way.  A cell
with no visited cell below it at d takes both afresh.  Above a cell that
is skipped (see below), F_{s-1}(d) = 0, so the kernel is all of F_s(d)
and its unit vectors are used as they are.  Only at the lower edge of the
stem triangle, where F_{s-1}(d) may be nonzero, does a cell assemble d_s
and take the kernel of its transpose (``gf2.kernel``).  So no matrix is
assembled twice, and each cell runs one elimination of its own matrix.
What is carried is kept per internal degree and dropped when it is done.

Only cells (s, d) with F_s(d) != 0 are visited, and they are a minority
of the triangle below (about a third for the sphere at stem 32).  That is
exact: where F_s(d) = 0, d_s has no kernel at d, so no generator is born at
(s + 1, d).  The cover step visits the bidegrees where F_0 or the module is
nonzero.

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

from collections import Counter
from time import perf_counter
from typing import Callable, NamedTuple

from .charts import ExtChart
from .gf2 import BitMatrix, BitVector, extend_image, kernel as gf2_kernel, rank
from .milnor import ZERO_DEGREE, BiDegree, MilnorAlgebra, SteenrodElement, bidegree_dim
from .modules import GradedModule, InvariantViolation


class PartialResultError(RuntimeError):
    """A resource bound was hit; carries the chart completed so far, whose
    max_stem is the last stem it completed."""

    def __init__(self, message: str, chart: ExtChart):
        super().__init__(message)
        self.chart = chart


class Generator(NamedTuple):
    index: int
    degree: BiDegree
    filtration: int


# (generator, coefficient dim, bit offset) blocks of a free module at a bidegree
Layout = list[tuple[Generator, int, int]]


class FreeModule:
    """Free module with one block of algebra coefficients per generator."""

    __slots__ = ("filtration", "generators")

    def __init__(self, filtration: int):
        self.filtration = filtration
        self.generators: list[Generator] = []

    def add_generator(self, degree: BiDegree) -> Generator:
        g = Generator(len(self.generators), degree, self.filtration)
        self.generators.append(g)
        return g

    def layout(self, d: BiDegree) -> Layout:
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
        return sum(n for _, n, _ in self.layout(d))


class ModuleMap:
    """Bidegree-preserving map from a free module, one image per generator.

    Images are coordinate bit masks in the target (free module layout or
    module basis) at the generator's own bidegree.
    """

    __slots__ = ("algebra", "source", "target", "images", "_split")

    def __init__(
        self, algebra: MilnorAlgebra, source: FreeModule, target: "FreeModule | GradedModule"
    ):
        self.algebra = algebra
        self.source = source
        self.target = target
        self.images: list[int] = []
        # generator index -> the nonzero (target generator, coefficient) blocks
        self._split: dict[int, list[tuple[int, SteenrodElement]]] = {}

    def set_image(self, g: Generator, bits: int) -> None:
        """Give the source's newest generator g its image."""
        assert g.index == len(self.images), "images are set in generator order"
        self.images.append(bits)

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
        self, g: Generator, src_deg: BiDegree, n: int, out_offsets: dict[int, int]
    ) -> list[int]:
        """Rows x -> x . image(g) over the n coefficients at src_deg = d - |g|:
        the rows of each unit block x -> x . m, shifted to their target
        block's offset and added in place."""
        rows = [0] * n
        unit_blocks = self.algebra.right_unit_blocks
        for h_index, el in self._components(g):
            shift = out_offsets.get(h_index)
            if shift is None:
                continue
            for unit in unit_blocks(src_deg, el):
                for i, r in enumerate(unit.rows):
                    rows[i] ^= r << shift
        return rows

    def matrix(
        self,
        d: BiDegree,
        *,
        source_layout: Layout | None = None,
        target_layout: Layout | None = None,
    ) -> BitMatrix:
        """The matrix of the map at bidegree d, one block of rows per
        generator of the source layout.

        A caller that holds the layout of the source or of a free target at
        d passes it, and it is not assembled again.  A source layout that
        leaves generators out drops their rows.
        """
        free_target = isinstance(self.target, FreeModule)
        if free_target:
            out_layout = self.target.layout(d) if target_layout is None else target_layout
            out_offsets = {h.index: off for h, _, off in out_layout}
            ncols = out_layout[-1][2] + out_layout[-1][1] if out_layout else 0
        else:
            ncols = self.target.dim(d)
        if source_layout is None:
            source_layout = self.source.layout(d)
        rows: list[int] = []
        for g, n, _ in source_layout:
            if free_target:
                rows.extend(self._free_block(g, d - g.degree, n, out_offsets))
            else:
                block = self.target.generator_action_matrix(
                    d - g.degree, g.degree, self.images[g.index]
                )
                rows.extend(block.rows)
        return BitMatrix(ncols, rows)


class Resolution:
    """A minimal free resolution of a module, with its Ext chart."""

    __slots__ = ("algebra", "module", "max_stem", "max_filt", "frees", "maps")

    def __init__(self, algebra: MilnorAlgebra, module: GradedModule, max_stem: int, max_filt: int):
        self.algebra = algebra
        self.module = module
        self.max_stem = max_stem
        self.max_filt = max_filt
        # F_0..F_max_filt, and d_0: F_0 -> module, d_s: F_s -> F_{s-1}
        self.frees = [FreeModule(s) for s in range(max_filt + 1)]
        self.maps = [ModuleMap(algebra, self.frees[0], module)] + [
            ModuleMap(algebra, self.frees[s], self.frees[s - 1]) for s in range(1, max_filt + 1)
        ]

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
            born_at = Counter(g.degree for g in self.frees[s + 1].generators)
            for t in range(s, self.max_stem + s + 1):
                for w in _candidate_weights(self.frees[s], self.module, t, False):
                    d = BiDegree(t, w)
                    # F_s(d) is the source of d_s and the target of d_{s+1}
                    layout = self.frees[s].layout(d)
                    n = sum(k for _, k, _ in layout)
                    if n == 0:
                        continue
                    r_out = rank(self.maps[s].matrix(d, source_layout=layout))
                    # d_{s+1} over the augmentation ideal: no generator at d
                    ideal = [e for e in self.frees[s + 1].layout(d) if e[0].degree != d]
                    r_in = rank(
                        self.maps[s + 1].matrix(d, source_layout=ideal, target_layout=layout)
                    )
                    born = born_at[d]
                    if r_out + r_in + born != n:
                        raise InvariantViolation(
                            f"homology off chart at s={s}, {d}: "
                            f"{r_out}+{r_in}+{born} != {n}"
                        )


def _candidate_weights(free: FreeModule, module: GradedModule, t: int, use_module: bool) -> list[int]:
    """The weights w at internal stem t where free, or with use_module also
    the module, is nonzero: the cells worth visiting at that stem.

    free is nonzero at (t, w) exactly when some generator g has a nonempty
    coefficient basis at (t, w) - |g|.
    """
    weights = module.algebra.weights
    ws: set[int] = set()
    for g in free.generators:
        span = t - g.degree.stem
        if span >= 0:
            gw = g.degree.weight
            ws.update(gw + w for w in weights(span))
    if use_module:
        ws.update(w for w in range(t // 2 + 1) if module.dim(BiDegree(t, w)))
    return sorted(ws)


def minimal_resolution(
    module: GradedModule,
    max_stem: int,
    max_filt: int,
    max_gens_per_bidegree: int | None = None,
    *,
    progress: Callable[[dict], None] | None = None,
) -> tuple[Resolution, ExtChart]:
    """Resolve a bounded-below module; returns the resolution and its chart.

    The chart is complete for every (filtration <= max_filt, stem <=
    max_stem).  Raises PartialResultError carrying the completed sub-window
    if a cell needs more than max_gens_per_bidegree new generators.

    ``progress``, when given, is called once per finished internal degree
    with a plain dict: ``t``; ``cells``, the cells visited; ``rows`` and
    ``cols``, summed over the matrix each cell eliminates (d_{s+1}, or d_0
    at a cover step); ``kernel``, the total dimension of the vectors each
    cell extends the image by (the kernel of d_s, or the module's unit
    vectors at a cover step); ``generators``, those born at t, at most
    ``kernel``; and ``assembly_s`` and ``elimination_s``, the seconds spent
    assembling those matrices and eliminating (a boundary cell's fresh
    kernel of d_s included).  Without it no clock is read.
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
    clock = perf_counter if progress is not None else (lambda: 0.0)

    def cover(s: int, d: BiDegree, below: tuple[list[int], Layout] | None) -> None:
        """Give F_s one generator per vector the image of d_s at d does not
        reach, and carry the kernel of d_s and the layout of F_s(d) up.
        below is what the cell (s - 1, d) carried: the kernel of d_{s-1} and
        the layout of F_{s-1}(d) (None: not carried, take both afresh)."""
        start = clock()
        vectors, target_layout = (None, None) if below is None else below
        source_layout = res.frees[s].layout(d)
        m = res.maps[s].matrix(d, source_layout=source_layout, target_layout=target_layout)
        assembled = clock()
        if s == 0:
            vectors = [1 << c for c in range(module.dim(d))]
        elif vectors is None:
            if s < 2 or res.frees[s - 2].dim(d):
                # rows are the source basis, so the kernel of d_{s-1} is
                # the left kernel of its matrix
                vectors = gf2_kernel(res.maps[s - 1].matrix(d).transpose()).basis.rows
            else:
                # d_{s-1} maps into zero, so its kernel is all of F_{s-1}
                vectors = [1 << i for i in range(res.frees[s - 1].dim(d))]
        new, ker = extend_image(m, vectors)
        tally["assembly_s"] += assembled - start
        tally["elimination_s"] += clock() - assembled
        tally["cells"] += 1
        tally["rows"] += m.nrows
        tally["cols"] += m.ncols
        tally["kernel"] += len(vectors)
        tally["generators"] += len(new)
        if max_gens_per_bidegree is not None and len(new) > max_gens_per_bidegree:
            # internal degrees below d's are done, which closes chart stems
            # through d.stem - 1 - max_filt at every filtration (-1: none)
            raise PartialResultError(
                f"more than {max_gens_per_bidegree} generators at filtration {s}, {d}",
                res.chart().restricted(max(d.stem - 1 - max_filt, -1)),
            )
        # the newborn generators close F_s(d): one unit block each, last
        offset = m.nrows
        for bits in new:
            g = res.frees[s].add_generator(d)
            res.maps[s].set_image(g, bits)
            source_layout.append((g, 1, offset))
            offset += 1
        carried[s, d.weight] = ker, source_layout

    for t in range(0, max_stem + max_filt + 1):
        # (s, w) -> the kernel basis of d_s at (t, w) and the layout of
        # F_s(t, w), left by the cell below
        carried: dict[tuple[int, int], tuple[list[int], Layout]] = {}
        tally = dict(
            t=t, cells=0, rows=0, cols=0, kernel=0, generators=0, assembly_s=0.0, elimination_s=0.0
        )
        # new generators of F_0 where the module is not yet covered
        if t <= max_stem:
            for w in _candidate_weights(res.frees[0], module, t, True):
                cover(0, BiDegree(t, w), None)
        # kernels feeding new generators of F_{s+1}; a cell where F_s is
        # zero has no kernel, so it is not visited
        s_lo = max(0, t - (max_stem + 1))
        s_hi = min(max_filt - 1, t - 1)
        for s in range(s_lo, s_hi + 1):
            for w in _candidate_weights(res.frees[s], module, t, False):
                cover(s + 1, BiDegree(t, w), carried.pop((s, w), None))
        if progress is not None:
            progress(tally)

    return res, res.chart()
