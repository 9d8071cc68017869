"""Independent second routes for the resolution engine.

The cobar complex of the dual algebra computes Ext of the trivial module
straight from the coproduct, with none of the duality-product or
minimal-resolution machinery; its homology must match the chart of the
minimal resolution.  A cross-window run checks that enlarging the window
never changes the chart on the smaller region.
"""

from wsteenrod.gf2 import BitMatrix, rank
from wsteenrod.charts import compare_charts, koszul_chart
from wsteenrod.milnor import (
    BiDegree,
    coproduct_terms,
    enumerate_window_monomials,
)
from wsteenrod.modules import QuotientModule, TrivialModule
from wsteenrod.resolution import minimal_resolution


def _cobar_ext_dims(max_internal_stem: int, max_s: int) -> dict[tuple[int, int, int], int]:
    """Ext^{s,(t,w)} of the trivial module via the reduced cobar complex.

    C^s is spanned by s-tuples of positive-degree monomials; the
    differential inserts every reduced-coproduct splitting of every slot.
    """
    positives = [
        m for m in enumerate_window_monomials(max_internal_stem) if not m.is_unit
    ]
    positives.sort()

    tuples_by_level: dict[int, list[tuple]] = {0: [()]}
    for s in range(1, max_s + 2):
        level = []
        for prefix in tuples_by_level[s - 1]:
            used = sum(m.degree.stem for m in prefix)
            for m in positives:
                if used + m.degree.stem <= max_internal_stem:
                    level.append(prefix + (m,))
        tuples_by_level[s] = level

    def tuple_degree(tup) -> BiDegree:
        d = BiDegree(0, 0)
        for m in tup:
            d = d + m.degree
        return d

    index_by_level = {
        s: {t: i for i, t in enumerate(tuples_by_level[s])} for s in tuples_by_level
    }

    def differential(s: int) -> dict[tuple, int]:
        """Images of the level-s basis, as bit masks over level s + 1."""
        images = {}
        idx = index_by_level[s + 1]
        for tup in tuples_by_level[s]:
            bits = 0
            for i, m in enumerate(tup):
                for left, right in coproduct_terms(m):
                    if left.is_unit or right.is_unit:
                        continue
                    inserted = tup[:i] + (left, right) + tup[i + 1 :]
                    pos = idx.get(inserted)
                    if pos is not None:
                        bits ^= 1 << pos
            images[tup] = bits
        return images

    diffs = {s: differential(s) for s in range(max_s + 1)}
    out: dict[tuple[int, int, int], int] = {}
    for s in range(1, max_s + 1):
        by_degree: dict[BiDegree, list[tuple]] = {}
        for tup in tuples_by_level[s]:
            by_degree.setdefault(tuple_degree(tup), []).append(tup)
        for d, tups in by_degree.items():
            ncols_out = len(tuples_by_level[s + 1])
            mat_out = BitMatrix(ncols_out, [diffs[s][t] for t in tups])
            ker = len(tups) - rank(mat_out)
            prev = [t for t in tuples_by_level[s - 1] if tuple_degree(t) == d]
            mat_in = BitMatrix(len(tuples_by_level[s]), [diffs[s - 1][t] for t in prev])
            h = ker - rank(mat_in)
            if h:
                out[(s, d.stem - s, d.weight)] = h
    # Ext^0 of the trivial module is one class at the origin
    out[(0, 0, 0)] = 1
    return out


def test_sphere_chart_matches_cobar(alg16):
    res, chart = minimal_resolution(TrivialModule(alg16), 10, 5)
    cobar = _cobar_ext_dims(max_internal_stem=11, max_s=4)
    for key, mult in chart.classes.items():
        s, stem, _ = key
        if s <= 4 and s + stem <= 11:
            assert cobar.get(key, 0) == mult, key
    for key, mult in cobar.items():
        s, stem, _ = key
        if s <= 4 and stem <= 10:
            assert chart.classes.get(key, 0) == mult, key


def test_chart_stable_under_window_growth():
    from wsteenrod import algebra

    small = minimal_resolution(TrivialModule(algebra(10)), 8, 5)[1]
    large = minimal_resolution(TrivialModule(algebra(14)), 12, 5)[1]
    assert compare_charts(small, large, 8, 5) == []

    qs = minimal_resolution(QuotientModule(algebra(10), (1,)), 8, 9)[1]
    ql = minimal_resolution(QuotientModule(algebra(16), (1,)), 14, 9)[1]
    assert compare_charts(qs, ql, 8, 9) == []
    assert compare_charts(ql, koszul_chart((1,), 14), 14, 9) == []


def test_wbp_generator_thresholds():
    # resolving the quotient by P_1..P_4 to stem 29 shows the polynomial
    # generators entering exactly at stems 1, 5, 13, 29
    from wsteenrod import algebra
    from wsteenrod.charts import polynomial_chart, w_class_degree

    alg = algebra(31)
    module = QuotientModule(alg, (1, 2, 3, 4))
    _, chart = minimal_resolution(module, 29, 31)
    oracle = polynomial_chart([w_class_degree(n) for n in range(4)], 29)
    assert compare_charts(chart, oracle, 29, 31) == []
    assert chart.mult(1, 29, 15) == 1
    three = polynomial_chart([w_class_degree(n) for n in range(3)], 29)
    assert compare_charts(chart, three, 28, 31) == []
    assert compare_charts(chart, three, 29, 31) != []


def test_wbp_chart_has_true_multiplicity_two(alg24):
    # w_1^3 and w_0^2 w_2 share (3, 15, 9); the resolution must see both
    from wsteenrod.charts import polynomial_chart, w_class_degree

    oracle = polynomial_chart([w_class_degree(n) for n in (0, 1, 2)], 16)
    assert oracle.mult(3, 15, 9) == 2
    module = QuotientModule(alg24, range(1, 25))
    assert module.ts == (1, 2, 3)
    _, chart = minimal_resolution(module, 16, 17)
    assert chart.mult(3, 15, 9) == 2
    assert compare_charts(chart, oracle, 16, 17) == []
