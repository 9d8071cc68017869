import pytest

from wsteenrod.charts import (
    ChartFormatError,
    ExtChart,
    chart_file_dumps,
    chart_file_loads,
    compare_charts,
    koszul_chart,
    polynomial_chart,
    w_class_degree,
)
from wsteenrod.milnor import BiDegree


def test_w_class_degrees():
    assert w_class_degree(0) == (1, 1)
    assert w_class_degree(1) == (5, 3)
    assert w_class_degree(2) == (13, 7)
    assert w_class_degree(3) == (29, 15)


def test_koszul_single_t1():
    chart = koszul_chart((1,), 8)
    assert chart.classes == {(s, s, s): 1 for s in range(9)}


def test_koszul_single_t2():
    chart = koszul_chart((2,), 20)
    assert chart.classes == {(s, 5 * s, 3 * s): 1 for s in range(5)}


def test_koszul_pair_filtration_two():
    chart = koszul_chart((1, 2), 12)
    filtration2 = [k for k in chart.classes if k[0] == 2]
    # w_0^2, w_0 w_1, w_1^2
    assert sorted(filtration2) == [(2, 2, 2), (2, 6, 4), (2, 10, 6)]


def test_polynomial_chart_examples():
    chart = polynomial_chart([BiDegree(1, 1)], 3)
    assert sorted(chart.classes) == [(0, 0, 0), (1, 1, 1), (2, 2, 2), (3, 3, 3)]
    chart = polynomial_chart([BiDegree(1, 1), BiDegree(5, 3)], 6)
    assert chart.mult(2, 6, 4) == 1
    # the first class involving w_2 appears at stem 13: below it the chart
    # agrees with the one on w_0, w_1 alone
    big = polynomial_chart([BiDegree(1, 1), BiDegree(5, 3), BiDegree(13, 7)], 14)
    small = polynomial_chart([BiDegree(1, 1), BiDegree(5, 3)], 14)
    assert compare_charts(big, small, 12) == []
    assert compare_charts(big, small, 13) == [((1, 13, 7), 1, 0)]
    assert big.mult(1, 13, 7) == 1
    with pytest.raises(ValueError):
        polynomial_chart([BiDegree(0, 0)], 4)


def test_compare_identity_and_mismatch():
    a = koszul_chart((1,), 6)
    assert compare_charts(a, a, 6) == []
    b = koszul_chart((2,), 6)
    assert compare_charts(a, b, 6)[0] == ((1, 1, 1), 1, 0)


def _signed_chart(max_stem: int) -> ExtChart:
    """Classes at k times (1, 5, 3) for |5k| <= max_stem: negative s, stem
    and weight, which chart files may hold."""
    chart = ExtChart("signed", max_stem)
    for k in range(-(max_stem // 5), max_stem // 5 + 1):
        chart.add(k, 5 * k, 3 * k)
    return chart


def test_chart_json_roundtrip():
    for chart in (koszul_chart((1, 2), 10), _signed_chart(6)):
        text = chart_file_dumps(chart)
        again, partial = chart_file_loads(text)
        assert (again, partial) == (chart, False)
        assert chart_file_dumps(again) == text


def test_chart_sorted_output():
    chart = ExtChart("x", 5)
    chart.add(2, 3, 1)
    chart.add(0, 1, 0)
    chart.add(1, 3, 2)
    assert [c[:3] for c in chart.sorted_classes()] == [
        (0, 1, 0),
        (1, 3, 2),
        (2, 3, 1),
    ]
    tsv = chart.to_tsv()
    assert tsv.splitlines()[0] == "stem\ts\tweight\tmult"
    assert len(tsv.splitlines()) == 4


def test_chart_format_errors():
    with pytest.raises(ChartFormatError, match="format_version"):
        chart_file_loads('{"module": "x", "max_stem": 3, "classes": []}')
    with pytest.raises(ChartFormatError, match="'mult'"):
        chart_file_loads(
            '{"format_version": 1, "module": "x", "max_stem": 3, '
            '"classes": [{"s": 0, "stem": 0, "weight": 0}]}'
        )
    with pytest.raises(ChartFormatError, match="JSON"):
        chart_file_loads("{nope")


def test_restricted():
    chart = koszul_chart((1,), 10)
    small = chart.restricted(4)
    assert small.max_stem == 4
    assert sorted(small.classes) == [(s, s, s) for s in range(5)]


def test_svg_handles_negative_stems_and_multiplicity():
    from wsteenrod.svg import render_chart_svg

    chart = _signed_chart(10)
    assert chart.mult(-2, -10, -6) == 1
    chart.add(2, 10, 6)  # force a multiplicity-2 spot next to (2,10,6)
    svg = render_chart_svg(chart, False)
    assert svg.startswith("<?xml")
    assert "(x2)" in svg
    assert render_chart_svg(chart, False) == svg
