import pytest

from wsteenrod.charts import compare_charts, koszul_chart
from wsteenrod.milnor import BiDegree, MilnorAlgebra
from wsteenrod.modules import (
    AlgebraModule,
    ExteriorProfile,
    TrivialModule,
    quotient_by_exterior,
)
from wsteenrod.resolution import PartialResultError, minimal_resolution


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
