"""Ext charts: trigraded class multiplicities with canonical serialization.

A chart records classes at (filtration s, stem, weight), where stem is the
Adams convention internal-stem-minus-filtration.  Charts from minimal
resolutions are compared against closed-form monomial charts; the JSON and
TSV forms are emitted bit-identically across runs.
"""

from __future__ import annotations

import json
from typing import Iterable

from ._record import Record
from .milnor import BiDegree, xi_degree


FORMAT_VERSION = 1


def _sort_key(key: tuple[int, int, int]):
    s, stem, weight = key
    return (stem, s, weight)


class ExtChart(Record):
    """Multiset of (s, stem, weight) classes with provenance.

    Charts compare by value and, being mutable, are unhashable.
    """

    __slots__ = ("module", "max_stem", "classes")

    def __init__(
        self, module: str, max_stem: int, classes: dict[tuple[int, int, int], int] | None = None
    ):
        self.module = module
        self.max_stem = max_stem
        self.classes = {} if classes is None else classes

    __hash__ = None

    def add(self, s: int, stem: int, weight: int, mult: int = 1) -> None:
        key = (s, stem, weight)
        self.classes[key] = self.classes.get(key, 0) + mult
        if self.classes[key] == 0:
            del self.classes[key]

    def mult(self, s: int, stem: int, weight: int) -> int:
        return self.classes.get((s, stem, weight), 0)

    def sorted_classes(self) -> list[tuple[int, int, int, int]]:
        return [
            (k[0], k[1], k[2], self.classes[k])
            for k in sorted(self.classes, key=_sort_key)
        ]

    def total(self) -> int:
        return sum(self.classes.values())

    def restricted(self, max_stem: int) -> "ExtChart":
        out = ExtChart(self.module, min(self.max_stem, max_stem))
        for (s, stem, weight), mult in self.classes.items():
            if stem <= max_stem:
                out.add(s, stem, weight, mult)
        return out

    def to_json_dict(self) -> dict:
        return {
            "module": self.module,
            "max_stem": self.max_stem,
            "classes": [
                {"s": s, "stem": stem, "weight": weight, "mult": mult}
                for s, stem, weight, mult in self.sorted_classes()
            ],
        }

    def to_tsv(self) -> str:
        lines = ["stem\ts\tweight\tmult"]
        for s, stem, weight, mult in self.sorted_classes():
            lines.append(f"{stem}\t{s}\t{weight}\t{mult}")
        return "\n".join(lines) + "\n"


def chart_file_dumps(chart: ExtChart, partial: bool = False) -> str:
    """Serialize a chart file with its format version, deterministically.
    A partial file's header says so and gives the chart's max_stem as the
    stem it completed."""
    data = {"format_version": FORMAT_VERSION}
    data.update(chart.to_json_dict())
    if partial:
        data["partial"] = True
        data["completed_stem"] = chart.max_stem
    return json.dumps(data, indent=2, sort_keys=False) + "\n"


class ChartFormatError(ValueError):
    """A chart file violated the schema; the message names the field."""


def _integer(fields: dict, key: str) -> int:
    """fields[key] when it is a JSON integer; a float, string or boolean
    raises ChartFormatError."""
    value = fields[key]
    if type(value) is not int:
        raise ChartFormatError(f"non-integer field {key!r}: {value!r}")
    return value


def chart_file_loads(text: str) -> tuple[ExtChart, bool]:
    """The chart of a chart file, and whether its header marks it partial.
    Every number must be a JSON integer, every multiplicity at least 1,
    every stem at most max_stem and every class listed once; s, stem and
    weight may be negative.  A partial header has both "partial": true and
    a completed_stem equal to max_stem, as chart_file_dumps writes it."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ChartFormatError(f"not valid JSON: {exc}") from None
    if not isinstance(data, dict):
        raise ChartFormatError("top level must be a JSON object")
    for fieldname in ("format_version", "module", "max_stem", "classes"):
        if fieldname not in data:
            raise ChartFormatError(f"missing field {fieldname!r}")
    version = data["format_version"]
    if type(version) is not int or version != FORMAT_VERSION:
        raise ChartFormatError(f"unsupported format_version {version!r}")
    if not isinstance(data["module"], str):
        raise ChartFormatError(f"field 'module' must be a string, got {data['module']!r}")
    if not isinstance(data["classes"], list):
        raise ChartFormatError("field 'classes' must be a list")
    chart = ExtChart(data["module"], _integer(data, "max_stem"))
    partial = "partial" in data or "completed_stem" in data
    if partial:
        flag, completed = data.get("partial"), data.get("completed_stem")
        if flag is not True or type(completed) is not int or completed != chart.max_stem:
            raise ChartFormatError(
                f"a partial header needs 'partial' true and 'completed_stem' equal to "
                f"max_stem {chart.max_stem}, got {flag!r} and {completed!r}"
            )
    for entry in data["classes"]:
        for key in ("s", "stem", "weight", "mult"):
            if not isinstance(entry, dict) or key not in entry:
                raise ChartFormatError(f"class entry missing field {key!r}")
        s, stem, weight, mult = (_integer(entry, key) for key in ("s", "stem", "weight", "mult"))
        if mult < 1:
            raise ChartFormatError(f"field 'mult' must be >= 1, got {mult}")
        if stem > chart.max_stem:
            raise ChartFormatError(f"class stem {stem} exceeds max_stem {chart.max_stem}")
        if (s, stem, weight) in chart.classes:
            raise ChartFormatError(f"class (s, stem, weight) = {(s, stem, weight)} listed twice")
        chart.add(s, stem, weight, mult)
    return chart, partial


def _monomial_chart(name: str, gens: list[BiDegree], max_stem: int) -> ExtChart:
    """Chart of a polynomial algebra on generators of filtration 1.

    Each generator contributes (1, stem, weight); monomials add degrees,
    enumerated up to the stem bound.
    """
    chart = ExtChart(name, max_stem)

    def rec(i: int, s: int, stem: int, weight: int):
        if i == len(gens):
            chart.add(s, stem, weight)
            return
        deg = gens[i]
        e = 0
        while stem + e * deg.stem <= max_stem:
            rec(i + 1, s + e, stem + e * deg.stem, weight + e * deg.weight)
            e += 1

    rec(0, 0, 0, 0)
    return chart


def w_class_degree(n: int) -> BiDegree:
    """Chart degree of the periodicity class w_n: filtration 1, stem
    2^{n+2}-3, weight 2^{n+1}-1 (the degree of P_{n+1} minus one stem for
    the filtration shift)."""
    r = xi_degree(n + 1)
    return BiDegree(r.stem - 1, r.weight)


def koszul_chart(ts: Iterable[int], max_stem: int) -> ExtChart:
    """Ext of F2 over the exterior algebra E(P_t : t in ts).

    One polynomial class w_{t-1} per index, of filtration 1 and internal
    degree |P_t|; the chart is the monomial basis.
    """
    ts = tuple(sorted(set(ts)))
    if any(t < 1 for t in ts):
        raise ValueError("exterior indices must be >= 1")
    gens = [w_class_degree(t - 1) for t in ts]
    name = "koszul(" + ",".join(str(t) for t in ts) + ")"
    return _monomial_chart(name, gens, max_stem)


def polynomial_chart(gens: Iterable[BiDegree], max_stem: int) -> ExtChart:
    """Additive chart of a polynomial ring on classes of filtration 1, one
    generator per BiDegree of gens, each of stem >= 1."""
    degs = list(gens)
    if any(g.stem < 1 for g in degs):
        raise ValueError("polynomial chart generators need stem >= 1")
    return _monomial_chart("polynomial", degs, max_stem)


def compare_charts(
    a: ExtChart, b: ExtChart, max_stem: int, max_filt: int | None = None
) -> list[tuple[tuple[int, int, int], int, int]]:
    """The (key, mult in a, mult in b) where the charts differ over stem <=
    max_stem (and filtration <= max_filt if given), in chart order."""
    mismatches = []
    keys = set(a.classes) | set(b.classes)
    for key in sorted(keys, key=_sort_key):
        s, stem, weight = key
        if stem > max_stem:
            continue
        if max_filt is not None and s > max_filt:
            continue
        ma = a.classes.get(key, 0)
        mb = b.classes.get(key, 0)
        if ma != mb:
            mismatches.append((key, ma, mb))
    return mismatches
