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

Layouts are swept, kernels carried, and no matrix is assembled twice.  At
each internal stem t, one pass over the generators of F_{s+1}
(``FreeModule.layouts``) lays F_{s+1}(t, w) out at every weight w at
once, from the algebra's table of nonempty (weight, dim) pairs per stem:
those are the source layouts of every cell (s, (t, w)).  The pass of the
level below gave F_s(t, w), the cells' targets and, by where it is
nonzero, the weights to visit; the cells of filtration s - 1 have since
appended their newborn generators to it, one unit block each, last.  The
left kernel of d_{s+1} found at (s, d) is the kernel of d_{s+1} that cell
(s + 1, d) needs: the generators born at (s + 1, d) are the last rows of
the full matrix, and their images are independent modulo the rest, so
they add no relation.  Each level's kernels are kept in one dict by
weight, which only two places fill besides the cells: the cover step of
filtration 0, with the module's unit vectors, and the lower edge of the
stem triangle, where no cell of filtration s - 1 ran at t.  There the
lowest level is swept afresh and, before its cells run, d_s is assembled
at each weight and the kernel of its transpose taken (``gf2.kernel``).  A
weight missing from the dict has F_{s-1}(d) = 0, as no cell ran there (see
below), so the kernel is all of F_s(d) and its unit vectors are used as
they are.  Each cell runs one elimination of its own matrix.  What is swept
or carried is kept per internal degree and dropped when it is done.
``Resolution.verify_exact`` reads its layouts and weights from the same
sweep.

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
on first use, down to the table key of each unit block it needs: the
target's layout at the generator's bidegree is final by then, because the
target generators there come from the cell one filtration lower at the
same internal degree, which runs first.
"""

from __future__ import annotations

from time import perf_counter
from typing import Callable, NamedTuple

from .charts import ExtChart
from .gf2 import BitMatrix, BitVector, extend_image, kernel as gf2_kernel, rank
from .milnor import ZERO_DEGREE, BiDegree, MilnorAlgebra, bidegree_dim
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

# the nonzero blocks of a generator's image in a free module: (target
# generator index, coefficient bidegree, the single bit of each monomial of
# the coefficient, ascending), the last two the keys of its unit blocks
_Components = list[tuple[int, BiDegree, tuple[int, ...]]]


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

    def layouts(
        self, t: int, weight_dims: Callable[[int], tuple[tuple[int, int], ...]]
    ) -> dict[int, Layout]:
        """The layout at (t, w) of every weight w where the module is
        nonzero, by w, from one pass over the generators: a generator g
        has a block at each (t, w) whose offset (t, w) - |g| has a nonempty
        basis, which weight_dims(stem) lists as (weight, dim) pairs
        (MilnorAlgebra.weight_dims).  Each layout is layout((t, w))."""
        layouts: dict[int, Layout] = {}
        for g in self.generators:
            gt, gw = g.degree
            if gt > t:
                continue
            for dw, n in weight_dims(t - gt):
                w = gw + dw
                layout = layouts.get(w)
                if layout is None:
                    layouts[w] = [(g, n, 0)]
                else:
                    _, m, offset = layout[-1]
                    layout.append((g, n, offset + m))
        return layouts


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
        # generator index -> the _Components of its image
        self._split: dict[int, _Components] = {}

    def set_image(self, g: Generator, bits: int) -> None:
        """Give the source's newest generator g its image."""
        assert g.index == len(self.images), "images are set in generator order"
        self.images.append(bits)

    def _components(self, g: Generator) -> _Components:
        """The nonzero blocks of image(g), split on first use."""
        comps = self._split.get(g.index)
        if comps is None:
            bits = self.images[g.index]
            comps = []
            for h, n, offset in self.target.layout(g.degree):
                comp = (bits >> offset) & ((1 << n) - 1)
                if comp:
                    units = []
                    while comp:
                        low = comp & -comp
                        units.append(low)
                        comp ^= low
                    comps.append((h.index, g.degree - h.degree, tuple(units)))
            self._split[g.index] = comps
        return comps

    def _free_block(
        self, g: Generator, src_deg: BiDegree, n: int, out_offsets: dict[int, int]
    ) -> list[int]:
        """Rows x -> x . image(g) over the n coefficients at src_deg = d - |g|:
        the rows of each unit block x -> x . m, shifted to their target
        block's offset and added in place.  Blocks are read from the
        algebra's table by key; a missing one is built by unit_block."""
        rows = [0] * n
        algebra = self.algebra
        blocks = algebra._rmul
        for h_index, deg, units in self._components(g):
            shift = out_offsets.get(h_index)
            if shift is None:
                continue
            for low in units:
                unit = blocks.get((src_deg, deg, low))
                if unit is None:
                    unit = algebra.unit_block(src_deg, deg, low)
                for i, r in enumerate(unit.rows):
                    rows[i] ^= r << shift
        return rows

    def matrix(
        self, d: BiDegree, *, source_layout: Layout, target_layout: Layout | None
    ) -> BitMatrix:
        """The matrix of the map at bidegree d, one block of rows per
        generator of source_layout, a layout of the source at d.

        target_layout is the layout of a free target at d, None for a
        module target.  A source layout that leaves generators out drops
        their rows.
        """
        rows: list[int] = []
        if isinstance(self.target, FreeModule):
            out_offsets = {h.index: off for h, _, off in target_layout}
            for g, n, _ in source_layout:
                rows.extend(self._free_block(g, d - g.degree, n, out_offsets))
            return BitMatrix(_dim(target_layout), rows)
        act = self.target.generator_action_matrix
        for g, _, _ in source_layout:
            rows.extend(act(d - g.degree, g.degree, self.images[g.index]).rows)
        return BitMatrix(self.target.dim(d), rows)


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
                d = g.degree
                target = self.frees[s - 2].layout(d) if s > 1 else None
                m = lower.matrix(d, source_layout=lower.source.layout(d), target_layout=target)
                if not m.vec_mul(BitVector(m.nrows, upper.images[g.index])).is_zero():
                    raise InvariantViolation(
                        f"d.d != 0 at filtration {s}, generator {g}"
                    )

    def verify_minimal(self) -> None:
        """No differential entry pairs nonzero against the unit."""
        for s in range(1, len(self.maps)):
            m = self.maps[s]
            for g in m.source.generators:
                for h_index, deg, _ in m._components(g):
                    if deg == ZERO_DEGREE:
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
        Internal stems run outermost, and at each one every free module is
        laid out at all weights in one pass (``FreeModule.layouts``).
        """
        for d in self.module.support(self.max_stem):
            m = self.maps[0].matrix(d, source_layout=self.frees[0].layout(d), target_layout=None)
            if rank(m) != self.module.dim(d):
                raise InvariantViolation(f"augmentation not surjective at {d}")
        weight_dims = self.algebra.weight_dims
        top = len(self.maps) - 1
        for t in range(self.max_stem + top):
            # the filtrations s with s <= t <= max_stem + s
            s_lo = max(0, t - self.max_stem)
            below = self.frees[s_lo - 1].layouts(t, weight_dims) if s_lo else None
            layouts = self.frees[s_lo].layouts(t, weight_dims)
            for s in range(s_lo, min(t, top - 1) + 1):
                above = self.frees[s + 1].layouts(t, weight_dims)
                for w in sorted(layouts):
                    d = BiDegree(t, w)
                    # F_s(d) is the source of d_s and the target of d_{s+1}
                    layout = layouts[w]
                    target = None if below is None else below.get(w, [])
                    r_out = rank(self.maps[s].matrix(d, source_layout=layout, target_layout=target))
                    # d_{s+1} over the augmentation ideal: no generator at d
                    upper = above.get(w, [])
                    ideal = [e for e in upper if e[0].degree != d]
                    r_in = rank(
                        self.maps[s + 1].matrix(d, source_layout=ideal, target_layout=layout)
                    )
                    born = len(upper) - len(ideal)
                    if r_out + r_in + born != _dim(layout):
                        raise InvariantViolation(
                            f"homology off chart at s={s}, {d}: "
                            f"{r_out}+{r_in}+{born} != {_dim(layout)}"
                        )
                below, layouts = layouts, above


def _dim(layout: Layout) -> int:
    """The dimension a layout covers."""
    if not layout:
        return 0
    _, n, offset = layout[-1]
    return offset + n


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
    ``kernel``; ``unit_blocks``, the unit blocks the algebra built during
    t (the growth of its table, so on a fresh algebra the lines sum to the
    table's size); and ``assembly_s`` and ``elimination_s``, the seconds
    spent assembling those matrices and eliminating (the lower edge's
    fresh kernels of d_s included).  Without it no clock is read.
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
    weight_dims = algebra.weight_dims

    def cover(
        s: int, d: BiDegree, vectors: list[int], source_layout: Layout,
        target_layout: Layout | None,
    ) -> list[int]:
        """Give F_s one generator per vector the image of d_s at d does not
        reach; returns the kernel of d_s at d for the cell above.

        vectors span the kernel of d_{s-1} at d (at s = 0, the module's
        unit vectors); source_layout is the layout of F_s(d), which the
        newborn generators close, and target_layout that of F_{s-1}(d)
        (None at s = 0)."""
        start = clock()
        m = res.maps[s].matrix(d, source_layout=source_layout, target_layout=target_layout)
        assembled = clock()
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
        return ker

    blocks = algebra._rmul
    for t in range(0, max_stem + max_filt + 1):
        tally = dict(
            t=t, cells=0, rows=0, cols=0, kernel=0, generators=0, unit_blocks=0,
            assembly_s=0.0, elimination_s=0.0,
        )
        built = len(blocks)
        s_lo = max(0, t - (max_stem + 1))
        s_hi = min(max_filt - 1, t - 1)
        # weight -> the layout of F_s(t, w), and the kernel of d_s at (t, w)
        layouts = res.frees[s_lo].layouts(t, weight_dims)
        kernels: dict[int, list[int]] = {}
        if t <= max_stem:
            # new generators of F_0 where the module is not yet covered
            weights = set(layouts)
            weights.update(w for w in range(t // 2 + 1) if module.dim(BiDegree(t, w)))
            for w in sorted(weights):
                d = BiDegree(t, w)
                units = [1 << c for c in range(module.dim(d))]
                kernels[w] = cover(0, d, units, layouts.setdefault(w, []), None)
        elif s_lo <= s_hi:
            # the lower edge: no cell of filtration s_lo - 1 ran at t, so
            # the kernels of d_{s_lo} are taken afresh; rows are the source
            # basis, so each is the left kernel of the matrix
            below = res.frees[s_lo - 1].layouts(t, weight_dims) if s_lo else {}
            start = clock()
            for w, layout in layouts.items():
                target = below.get(w, []) if s_lo else None
                d = BiDegree(t, w)
                m = res.maps[s_lo].matrix(d, source_layout=layout, target_layout=target)
                kernels[w] = gf2_kernel(m.transpose()).basis.rows
            tally["elimination_s"] += clock() - start
        # kernels feeding new generators of F_{s+1}; a cell where F_s is
        # zero has no kernel, so it is not visited
        for s in range(s_lo, s_hi + 1):
            above = res.frees[s + 1].layouts(t, weight_dims)
            found = {}
            for w in sorted(w for w, layout in layouts.items() if layout):
                layout = layouts[w]
                # no kernel: no cell of filtration s - 1 ran at (t, w), so
                # F_{s-1}(t, w) = 0 and the kernel of d_s is all of F_s(t, w)
                vectors = kernels[w] if w in kernels else [1 << i for i in range(_dim(layout))]
                found[w] = cover(s + 1, BiDegree(t, w), vectors, above.setdefault(w, []), layout)
            layouts, kernels = above, found
        if progress is not None:
            tally["unit_blocks"] = len(blocks) - built
            progress(tally)

    return res, res.chart()
