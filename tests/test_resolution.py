import hashlib
import json
import sys
from pathlib import Path

import pytest

from wsteenrod import resolution
from wsteenrod.charts import chart_file_dumps, compare_charts, koszul_chart
from wsteenrod.gf2 import Subspace, kernel
from wsteenrod.milnor import BiDegree, MilnorAlgebra
from wsteenrod.modules import (
    AlgebraModule,
    InvariantViolation,
    QuotientModule,
    TrivialModule,
)
from wsteenrod.resolution import (
    FreeModule,
    ModuleMap,
    PartialResultError,
    minimal_resolution,
)

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
from workloads import REFERENCE_SHA256  # noqa: E402

from test_gf2 import extend  # noqa: E402


def test_sphere_ext0(alg16):
    _, chart = minimal_resolution(TrivialModule(alg16), 10, 6)
    assert chart.mult(0, 0, 0) == 1
    assert sum(m for (s, _, _), m in chart.classes.items() if s == 0) == 1


def test_sphere_ext1_primitives(alg16):
    # filtration one is dual to the primitives: internal degrees
    # (1,0), (2,1), (4,2), (8,4) and nothing else with internal stem <= 8
    _, chart = minimal_resolution(TrivialModule(alg16), 10, 6)
    ext1 = sorted(
        (s + stem, weight)
        for (s, stem, weight), m in chart.classes.items()
        if s == 1 and s + stem <= 8
        for _ in range(m)
    )
    assert ext1 == [(1, 0), (2, 1), (4, 2), (8, 4)]


def test_free_module_resolves_instantly(alg16):
    res, chart = minimal_resolution(AlgebraModule(alg16), 8, 5)
    assert chart.mult(0, 0, 0) == 1
    assert chart.total() == 1
    res.verify_dd_zero()
    res.verify_minimal()
    res.verify_exact()


def test_sphere_invariants(alg24):
    # stem 16 reaches generators whose images span several target blocks
    res, chart = minimal_resolution(TrivialModule(alg24), 16, 10)
    assert any(
        len(m._components(g)) > 1 for m in res.maps[1:] for g in m.source.generators
    )
    res.verify_dd_zero()
    res.verify_minimal()
    res.verify_exact()


def test_exactness_check_sees_an_extra_generator(alg16):
    res, _ = minimal_resolution(TrivialModule(alg16), 10, 6)
    res.verify_exact()
    # a second h_0 with zero image: one more class born at (1, 0) than the
    # ranks leave room for
    g = res.frees[1].add_generator(BiDegree(1, 0))
    res.maps[1].set_image(g, 0)
    with pytest.raises(InvariantViolation, match="homology off chart at s=0"):
        res.verify_exact()


def test_quotient_invariants(alg16):
    q = QuotientModule(alg16, (1,))
    res, chart = minimal_resolution(q, 12, 13)
    res.verify_dd_zero()
    res.verify_minimal()
    res.verify_exact()
    assert compare_charts(chart, koszul_chart((1,), 12), 12, 13) == []


def test_deterministic(alg16):
    # twice on warm tables, once on a fresh algebra that builds them anew
    charts = []
    for alg in (alg16, alg16, MilnorAlgebra(16)):
        q = QuotientModule(alg, (1,))
        _, chart = minimal_resolution(q, 10, 11)
        charts.append(chart.to_json_dict())
    assert charts[0] == charts[1] == charts[2]


def test_window_validation(alg16):
    with pytest.raises(ValueError, match="window"):
        minimal_resolution(TrivialModule(alg16), 16, 4)


@pytest.mark.parametrize("max_stem, max_filt", [(-1, 4), (8, -1)])
def test_negative_window_rejected(alg16, max_stem, max_filt):
    with pytest.raises(ValueError, match="negative window"):
        minimal_resolution(TrivialModule(alg16), max_stem, max_filt)


def test_partial_result(alg16):
    with pytest.raises(PartialResultError) as exc:
        minimal_resolution(TrivialModule(alg16), 12, 8, max_gens_per_bidegree=0)
    assert exc.value.chart is not None
    assert exc.value.chart.max_stem < 12


def test_wbp_truncated_small(alg24):
    # A//E(P_1, P_2) resolves to the polynomial chart on w_0, w_1
    from wsteenrod.charts import polynomial_chart, w_class_degree

    q = QuotientModule(alg24, (1, 2))
    _, chart = minimal_resolution(q, 10, 12)
    oracle = polynomial_chart([w_class_degree(0), w_class_degree(1)], 10)
    assert compare_charts(chart, oracle, 10, 12) == []
    assert chart.mult(2, 6, 4) == 1  # w_0 w_1


# -- the carried kernels against a resolver that assembles every matrix afresh --


def _span_weights(free, module, t, use_module):
    """Every weight in each generator's span at stem t, and with use_module
    every weight where the module is nonzero: empty cells included."""
    ws = set()
    for g in free.generators:
        span = t - g.degree.stem
        if span >= 0:
            ws.update(range(g.degree.weight, g.degree.weight + span // 2 + 1))
    if use_module:
        ws.update(w for w in range(t // 2 + 1) if module.dim(BiDegree(t, w)))
    return sorted(ws)


def reference_resolution(module, max_stem, max_filt):
    """The resolver loop with no carry: every cell builds d_s and d_{s+1}
    from the generators and takes the kernel of d_s afresh, and every weight
    in a generator's span is a cell, whether or not anything is there.

    Also returns, in cell order, the (ambient dim, vectors, empty) each cell
    extended the image by: the module's unit vectors at a cover step, the
    kernel basis of d_s at a cell (s, d); empty marks a cell where F_s (at
    a cover step F_0 and the module) is zero.
    """
    extended = []
    alg = module.algebra
    frees = [FreeModule(s) for s in range(max_filt + 1)]
    maps = [ModuleMap(alg, frees[0], module)]
    maps += [ModuleMap(alg, frees[s], frees[s - 1]) for s in range(1, max_filt + 1)]

    def add(s, d, image, vectors, empty):
        extended.append((image.ncols, tuple(vectors), empty))
        for bits in extend(Subspace.from_matrix_rows(image), vectors)[1]:
            maps[s].set_image(frees[s].add_generator(d), bits)

    for t in range(max_stem + max_filt + 1):
        if t <= max_stem:
            for w in _span_weights(frees[0], module, t, True):
                d = BiDegree(t, w)
                units = [1 << c for c in range(module.dim(d))]
                empty = frees[0].dim(d) == 0 and not units
                image = maps[0].matrix(d, source_layout=frees[0].layout(d), target_layout=None)
                add(0, d, image, units, empty)
        for s in range(max(0, t - max_stem - 1), min(max_filt - 1, t - 1) + 1):
            for w in _span_weights(frees[s], module, t, False):
                d = BiDegree(t, w)
                target = frees[s - 1].layout(d) if s else None
                boundary = maps[s].matrix(d, source_layout=frees[s].layout(d), target_layout=target)
                ker = kernel(boundary.transpose())
                image = maps[s + 1].matrix(
                    d, source_layout=frees[s + 1].layout(d), target_layout=frees[s].layout(d)
                )
                add(s + 1, d, image, ker.basis.rows, frees[s].dim(d) == 0)
    return frees, maps, extended


def _carry_cases(alg):
        return {
        "sphere": (TrivialModule(alg), 20, 12),
        "wbp": (QuotientModule(alg, range(1, 21)), 20, 20),
        "kw:1": (QuotientModule(alg, (2,)), 16, 12),
        "algebra": (AlgebraModule(alg), 12, 8),
    }


@pytest.mark.parametrize("case", ["sphere", "wbp", "kw:1", "algebra"])
def test_carried_matrices_match_fresh_assembly(alg24, monkeypatch, case):
    module, max_stem, max_filt = _carry_cases(alg24)[case]
    extended = []
    original = resolution.extend_image

    def recording_extend(m, vectors):
        vectors = tuple(vectors)
        extended.append((m.ncols, vectors))
        return original(m, vectors)

    monkeypatch.setattr(resolution, "extend_image", recording_extend)
    res, _ = minimal_resolution(module, max_stem, max_filt)
    monkeypatch.undo()
    frees, maps, fresh = reference_resolution(module, max_stem, max_filt)
    assert frees[0].generators
    # the cells the resolver skips are exactly the reference's empty ones,
    # and those extend nothing by nothing
    assert {(a, v) for a, v, empty in fresh if empty} == {(0, ())}
    # every cell extended by the canonical kernel basis of the full d_s,
    # newborn rows included, whether carried up or taken afresh
    assert extended == [(a, v) for a, v, empty in fresh if not empty]
    for s in range(max_filt + 1):
        assert res.frees[s].generators == frees[s].generators, s
        assert res.maps[s].images == maps[s].images, s


@pytest.mark.parametrize("case", ["sphere", "wbp"])
def test_only_nonzero_cells_are_visited(alg24, monkeypatch, case):
    module, max_stem, max_filt = _carry_cases(alg24)[case]
    cells = []
    source = {}
    matrix, eliminate = ModuleMap.matrix, resolution.extend_image

    def recording_matrix(self, d, **layouts):
        m = matrix(self, d, **layouts)
        source[id(m)] = (self.source.filtration, BiDegree(*d))
        return m

    def recording_eliminate(m, vectors):
        cells.append(source[id(m)])
        return eliminate(m, vectors)

    monkeypatch.setattr(ModuleMap, "matrix", recording_matrix)
    monkeypatch.setattr(resolution, "extend_image", recording_eliminate)
    res, _ = minimal_resolution(module, max_stem, max_filt)
    monkeypatch.undo()
    # a cell eliminating d_k at d works for F_{k-1} (for the module when k = 0)
    for k, d in cells:
        if k:
            assert res.frees[k - 1].layout(d), (k, d)
        else:
            assert res.frees[0].layout(d) or module.dim(d), d
    nonzero = 0
    for t in range(max_stem + max_filt + 1):
        for w in range(t // 2 + 1):
            d = BiDegree(t, w)
            if t <= max_stem:
                nonzero += bool(res.frees[0].dim(d) or module.dim(d))
            for s in range(max(0, t - max_stem - 1), min(max_filt - 1, t - 1) + 1):
                nonzero += res.frees[s].dim(d) > 0
    assert len(cells) == len(set(cells)) == nonzero


def test_each_matrix_assembled_once(alg24, monkeypatch):
    seen = []
    carried = []
    original = ModuleMap.matrix

    def recording(self, d, *, source_layout, target_layout):
        seen.append((self.source.filtration, tuple(d)))
        # a layout handed in is the one the free module gives at d
        if source_layout is not None:
            assert source_layout == self.source.layout(d)
        if target_layout is not None:
            assert target_layout == self.target.layout(d)
            carried.append(d)
        return original(self, d, source_layout=source_layout, target_layout=target_layout)

    monkeypatch.setattr(ModuleMap, "matrix", recording)
    minimal_resolution(TrivialModule(alg24), 20, 12)
    assert seen
    assert len(set(seen)) == len(seen)
    assert carried


def _count_kernels(monkeypatch):
    """The matrices passed to resolution.gf2_kernel from now on."""
    calls = []
    original = resolution.gf2_kernel

    def counting(m):
        calls.append(m)
        return original(m)

    monkeypatch.setattr(resolution, "gf2_kernel", counting)
    return calls


def test_lower_edge_takes_one_kernel_per_cell(alg24, monkeypatch):
    # past max_stem the lowest filtration s_lo = t - max_stem - 1 has no
    # cell below it at t, so each of its cells takes the kernel of d_{s_lo}
    # afresh, also where F_{s_lo - 1} is zero there
    calls = _count_kernels(monkeypatch)
    res, _ = minimal_resolution(TrivialModule(alg24), 20, 12)
    edge = sum(
        len(res.frees[t - 21].layouts(t, alg24.weight_dims)) for t in range(21, 20 + 12 + 1)
    )
    assert len(calls) == edge == 59


def test_layouts_are_every_layout_of_an_internal_stem(alg24):
    res, _ = minimal_resolution(TrivialModule(alg24), 16, 10)
    # a generator past the stem asked for lays out nothing there
    res.frees[3].add_generator(BiDegree(40, 3))
    for free in res.frees:
        for t in range(16 + 10 + 1):
            layouts = free.layouts(t, alg24.weight_dims)
            assert all(layouts.values())
            assert set(layouts) <= set(range(t // 2 + 1))
            for w in range(t // 2 + 1):
                assert layouts.get(w, []) == free.layout(BiDegree(t, w)), (free.filtration, t, w)


def _resolution_digest(res):
    """SHA-256 over every generator (index, stem, weight, filtration) and
    every generator image, filtration by filtration."""
    data = [
        [[[g.index, g.degree.stem, g.degree.weight, g.filtration] for g in f.generators], m.images]
        for f, m in zip(res.frees, res.maps)
    ]
    return hashlib.sha256(json.dumps(data).encode("utf-8")).hexdigest()


# _resolution_digest of the benchmark windows' resolutions, recorded before
# the resolver's cell loop was rewritten: the resolution itself, not only its
# chart, stays the same one
RESOLUTION_SHA256 = {
    "sphere-32": "c5907aeaf61183535d36abfc9a0c5bd67d5bd1f9d1bd1ac1a609754c3c5c72cd",
    "wbp-36": "bc98b0149f5ec5f84fa769e8634ab36e11b2a50a7e085a23a5781346b2c9e271",
}


def test_sphere_invariants_larger_window():
    res, chart = minimal_resolution(TrivialModule(MilnorAlgebra(34)), 32, 20)
    res.verify_dd_zero()
    res.verify_minimal()
    res.verify_exact()
    # the same window as the benchmark's sphere-32 workload, byte for byte
    chart.module = "sphere"
    digest = hashlib.sha256(chart_file_dumps(chart).encode("utf-8")).hexdigest()
    assert digest == REFERENCE_SHA256["sphere-32"]
    assert _resolution_digest(res) == RESOLUTION_SHA256["sphere-32"]


def test_wbp_chart_bytes_larger_window():
    # the benchmark's wbp-36 workload, byte for byte: the quotient path
    alg = MilnorAlgebra(38)
    res, chart = minimal_resolution(QuotientModule(alg, range(1, 37)), 36, 36)
    chart.module = "wbp"
    digest = hashlib.sha256(chart_file_dumps(chart).encode("utf-8")).hexdigest()
    assert digest == REFERENCE_SHA256["wbp-36"]
    assert _resolution_digest(res) == RESOLUTION_SHA256["wbp-36"]


# the summed resolve --progress counts of the benchmark windows, and the
# resolution.gf2_kernel calls (one per lower-edge cell): the work each cell
# loop does, which no host drift moves
LOWER_EDGE_KERNELS = {"sphere-32": 135, "wbp-36": 73}
PROGRESS_SUMS = {
    "sphere-32": dict(
        cells=2818, rows=31218, cols=35756, kernel=16961, generators=452, unit_blocks=2043
    ),
    "wbp-36": dict(
        cells=1354, rows=18507, cols=21496, kernel=10081, generators=255, unit_blocks=495
    ),
}


@pytest.mark.parametrize("workload", sorted(PROGRESS_SUMS))
def test_progress_sums_of_the_benchmark_windows(workload, monkeypatch):
    module, max_stem, max_filt = {
        "sphere-32": (TrivialModule, 32, 20),
        "wbp-36": (lambda alg: QuotientModule(alg, range(1, 37)), 36, 36),
    }[workload]
    alg = MilnorAlgebra(max_stem + 2)
    lines = []
    kernels = _count_kernels(monkeypatch)
    minimal_resolution(module(alg), max_stem, max_filt, progress=lines.append)
    sums = {key: sum(line[key] for line in lines) for key in PROGRESS_SUMS[workload]}
    assert sums == PROGRESS_SUMS[workload]
    assert len(kernels) == LOWER_EDGE_KERNELS[workload]
    # the algebra was fresh, so the lines account for every unit block it holds
    assert sums["unit_blocks"] == len(alg._rmul)
