"""Deterministic SVG rendering of Ext charts.

Layout is a fixed affine map with integer pixels: a class (s, stem, weight)
is drawn at x = MARGIN + (stem - stem_min) * CELL + CELL/2 and
y = height - MARGIN - (s - s_min) * CELL - CELL/2, x axis = stem,
y axis = filtration, weight printed beside the dot.  Output bytes depend
only on the chart contents.
"""

from __future__ import annotations

from .charts import ExtChart

CELL = 28
MARGIN = 44
RADIUS = 3


def render_chart_svg(chart: ExtChart, partial: bool) -> str:
    """The chart as SVG; a partial chart's title says the stem it is
    complete through."""
    classes = chart.sorted_classes()
    if classes:
        stem_lo = min(min(c[1] for c in classes), 0)
        stem_hi = max(max(c[1] for c in classes), 0)
        s_lo = min(min(c[0] for c in classes), 0)
        s_hi = max(max(c[0] for c in classes), 0)
    else:
        stem_lo = s_lo = 0
        stem_hi = s_hi = 1
    width = 2 * MARGIN + (stem_hi - stem_lo + 1) * CELL
    height = 2 * MARGIN + (s_hi - s_lo + 1) * CELL

    def px(stem: int) -> int:
        return MARGIN + (stem - stem_lo) * CELL + CELL // 2

    def py(s: int) -> int:
        return height - MARGIN - (s - s_lo) * CELL - CELL // 2

    note = f"partial, complete through stem {chart.max_stem}; " if partial else ""
    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect x="0" y="0" width="{width}" height="{height}" fill="white"/>',
        f'<text x="{MARGIN}" y="{MARGIN // 2}" font-size="12" '
        f'font-family="monospace">{_esc(chart.module)} ({note}stem vs filtration, '
        f"label = weight)</text>",
    ]
    # grid
    for stem in range(stem_lo, stem_hi + 1):
        x = px(stem)
        lines.append(
            f'<line x1="{x}" y1="{MARGIN}" x2="{x}" y2="{height - MARGIN}" '
            f'stroke="#dddddd" stroke-width="1"/>'
        )
        lines.append(
            f'<text x="{x}" y="{height - MARGIN // 2}" font-size="10" '
            f'font-family="monospace" text-anchor="middle">{stem}</text>'
        )
    for s in range(s_lo, s_hi + 1):
        y = py(s)
        lines.append(
            f'<line x1="{MARGIN}" y1="{y}" x2="{width - MARGIN}" y2="{y}" '
            f'stroke="#dddddd" stroke-width="1"/>'
        )
        lines.append(
            f'<text x="{MARGIN // 2}" y="{y + 4}" font-size="10" '
            f'font-family="monospace" text-anchor="middle">{s}</text>'
        )
    # classes
    for s, stem, weight, mult in classes:
        x = px(stem)
        y = py(s)
        lines.append(f'<circle cx="{x}" cy="{y}" r="{RADIUS}" fill="black"/>')
        label = f"{weight}" if mult == 1 else f"{weight} (x{mult})"
        lines.append(
            f'<text x="{x + RADIUS + 2}" y="{y - RADIUS}" font-size="9" '
            f'font-family="monospace" fill="#555555">{label}</text>'
        )
    lines.append("</svg>")
    return "\n".join(lines) + "\n"


def _esc(text: str) -> str:
    return (
        text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
    )
