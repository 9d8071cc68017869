import pytest

from wsteenrod.charts import compare_charts, koszul_chart
from wsteenrod.gf2 import kernel
from wsteenrod.milnor import BiDegree, MilnorAlgebra
from wsteenrod.modules import (
    AlgebraModule,
    ExteriorProfile,
    TrivialModule,
    quotient_by_exterior,
)
from wsteenrod import resolution
from wsteenrod.resolution import (
    FreeModule,
    ModuleMap,
    PartialResultError,
    _candidate_weights,
    _unreached,
    minimal_resolution,
)


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


def test_quotient_invariants(alg16):
    q = quotient_by_exterior(ExteriorProfile.of(1), alg16)
    res, chart = minimal_resolution(q, 12, 13)
    res.verify_dd_zero()
    res.verify_minimal()
    res.verify_exact()
    diff = compare_charts(chart, koszul_chart((1,), 12), 12, 13)
    assert diff.is_empty()


def test_deterministic(alg16):
    # twice on warm tables, once on a fresh algebra that builds them anew
    charts = []
    for alg in (alg16, alg16, MilnorAlgebra(16)):
        q = quotient_by_exterior(ExteriorProfile.of(1), alg)
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
    assert exc.value.completed_stem < 12
    assert exc.value.completed_stem == exc.value.chart.max_stem


def test_wbp_truncated_small(alg24):
    # A//E(P_1, P_2) resolves to the polynomial chart on w_0, w_1
    from wsteenrod.charts import polynomial_chart, w_class_degree

    q = quotient_by_exterior(ExteriorProfile.of(1, 2), alg24)
    _, chart = minimal_resolution(q, 10, 12)
    oracle = polynomial_chart([w_class_degree(0), w_class_degree(1)], 10)
    assert compare_charts(chart, oracle, 10, 12).is_empty()
    assert chart.mult(2, 6, 4) == 1  # w_0 w_1


# -- the carried d_s against a resolver that assembles every matrix afresh --


def reference_resolution(module, max_stem, max_filt):
    """The resolver loop with no carry: every cell builds d_s and d_{s+1}
    from the generators, so nothing depends on rows appended by hand.

    Also returns the matrix each cell took the kernel of, in cell order.
    """
    eliminated = []
    alg = module.algebra
    frees = [FreeModule(s) for s in range(max_filt + 1)]
    maps = [ModuleMap(alg, frees[0], module)]
    maps += [ModuleMap(alg, frees[s], frees[s - 1]) for s in range(1, max_filt + 1)]

    def add(s, d, images):
        for bits in images:
            maps[s].set_image(frees[s].add_generator(d), bits)

    for t in range(max_stem + max_filt + 1):
        if t <= max_stem:
            for w in _candidate_weights(frees[0], module, t, True):
                d = BiDegree(t, w)
                units = (1 << c for c in range(module.dim(d)))
                add(0, d, _unreached(maps[0].matrix(d), units))
        for s in range(max(0, t - max_stem - 1), min(max_filt - 1, t - 1) + 1):
            for w in _candidate_weights(frees[s], module, t, False):
                d = BiDegree(t, w)
                eliminated.append(maps[s].matrix(d).transpose())
                ker = kernel(eliminated[-1])
                add(s + 1, d, _unreached(maps[s + 1].matrix(d), ker.basis.rows))
    return frees, maps, eliminated


def _carry_cases(alg):
    wbp = ExteriorProfile.of(*ExteriorProfile.cofinite().resolve(20))
    return {
        "sphere": (TrivialModule(alg), 20, 12),
        "wbp": (quotient_by_exterior(wbp, alg), 20, 20),
        "kw:1": (quotient_by_exterior(ExteriorProfile.of(2), alg), 16, 12),
        "algebra": (AlgebraModule(alg), 12, 8),
    }


@pytest.mark.parametrize("case", ["sphere", "wbp", "kw:1", "algebra"])
def test_carried_matrices_match_fresh_assembly(alg24, monkeypatch, case):
    module, max_stem, max_filt = _carry_cases(alg24)[case]
    eliminated = []

    def recording_kernel(m):
        eliminated.append(m)
        return kernel(m)

    monkeypatch.setattr(resolution, "gf2_kernel", recording_kernel)
    res, _ = minimal_resolution(module, max_stem, max_filt)
    monkeypatch.undo()
    frees, maps, fresh = reference_resolution(module, max_stem, max_filt)
    assert frees[0].generators
    # every cell took the kernel of the full d_s, newborn rows included,
    # though those rows never meet the kernel (minimality)
    assert eliminated == fresh
    for s in range(max_filt + 1):
        assert res.frees[s].generators == frees[s].generators, s
        assert res.maps[s].images == maps[s].images, s


def test_each_matrix_assembled_once(alg24, monkeypatch):
    seen = []
    original = ModuleMap.matrix

    def recording(self, d, exclude_units=False):
        seen.append((self.source.filtration, tuple(d), exclude_units))
        return original(self, d, exclude_units)

    monkeypatch.setattr(ModuleMap, "matrix", recording)
    minimal_resolution(TrivialModule(alg24), 20, 12)
    assert seen
    assert len(set(seen)) == len(seen)


def test_sphere_invariants_larger_window():
    res, _ = minimal_resolution(TrivialModule(MilnorAlgebra(34)), 32, 20)
    res.verify_dd_zero()
    res.verify_minimal()
    res.verify_exact()
