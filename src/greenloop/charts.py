"""Grouped-bar SVG charts rendered without any graphics dependency.

The output is a plain-text SVG document built from fixed-precision
coordinates, so identical inputs always produce identical bytes. Each
metric becomes one group holding a baseline bar and a framework bar,
with the value printed above every bar.
"""

from __future__ import annotations

import math
from typing import Sequence

from .errors import MissingMetric
from .pipeline import ImprovementReport
from .report import format_number

_SERIES_COLORS = ("#9aa0a6", "#2e8b57")


def escape(text: str) -> str:
    """text with &, < and > escaped for SVG character data.

    The same output as xml.sax.saxutils.escape, whose import would pull
    urllib, http and email into every start of the command line.
    """
    return text.replace("&", "&amp;").replace(">", "&gt;").replace("<", "&lt;")


_BAR_W = 44.0
_BAR_GAP = 6.0
_GROUP_GAP = 36.0
_PLOT_H = 260.0
_MARGIN_L = 70.0
_MARGIN_R = 30.0
_MARGIN_T = 56.0


def _axis_top(vmax: float) -> tuple[float, float]:
    """Axis ceiling and tick step: four ticks covering vmax."""
    if vmax <= 0:
        return 1.0, 0.25
    raw = vmax / 4.0
    mag = 10.0 ** math.floor(math.log10(raw))
    step = 10.0 * mag
    for m in (1.0, 2.0, 2.5, 5.0, 10.0):
        if m * mag * 4.0 >= vmax:
            step = m * mag
            break
    return step * 4.0, step


def render_grouped_bars(
    title: str,
    ylabel: str,
    groups: Sequence[str],
    series: Sequence[tuple[str, Sequence[float]]],
) -> str:
    if not groups:
        raise MissingMetric("chart has no metric groups to draw")
    for name, values in series:
        if len(values) != len(groups):
            raise MissingMetric(f"series {name!r} does not cover every group")

    rotate = max(len(g) for g in groups) > 12
    margin_b = 110.0 if rotate else 46.0
    slot = len(series) * _BAR_W + (len(series) - 1) * _BAR_GAP
    pitch = slot + _GROUP_GAP
    width = _MARGIN_L + len(groups) * pitch - _GROUP_GAP + _MARGIN_R
    height = _MARGIN_T + _PLOT_H + margin_b
    base_y = _MARGIN_T + _PLOT_H

    top, step = _axis_top(max(v for _, values in series for v in values))

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width:.0f}" '
        f'height="{height:.0f}" viewBox="0 0 {width:.0f} {height:.0f}">',
        '<g font-family="sans-serif" fill="#202124">',
        f'<rect x="0" y="0" width="{width:.0f}" height="{height:.0f}" fill="#ffffff"/>',
        f'<text x="{width / 2:.1f}" y="24" font-size="16" '
        f'text-anchor="middle">{escape(title)}</text>',
        f'<text x="16" y="{_MARGIN_T + _PLOT_H / 2:.1f}" font-size="12" '
        f'text-anchor="middle" transform="rotate(-90 16 '
        f'{_MARGIN_T + _PLOT_H / 2:.1f})">{escape(ylabel)}</text>',
    ]

    for i in range(5):
        v = step * i
        y = base_y - v / top * _PLOT_H
        parts.append(
            f'<line x1="{_MARGIN_L:.1f}" y1="{y:.1f}" '
            f'x2="{width - _MARGIN_R:.1f}" y2="{y:.1f}" '
            f'stroke="#dadce0" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{_MARGIN_L - 8:.1f}" y="{y + 4:.1f}" font-size="11" '
            f'text-anchor="end">{format_number(v)}</text>'
        )

    for gi, group in enumerate(groups):
        x0 = _MARGIN_L + gi * pitch
        for si, (_, values) in enumerate(series):
            v = values[gi]
            h = 0.0 if top <= 0 else max(v, 0.0) / top * _PLOT_H
            x = x0 + si * (_BAR_W + _BAR_GAP)
            y = base_y - h
            parts.append(
                f'<rect x="{x:.1f}" y="{y:.1f}" width="{_BAR_W:.1f}" '
                f'height="{h:.1f}" fill="{_SERIES_COLORS[si % 2]}"/>'
            )
            parts.append(
                f'<text x="{x + _BAR_W / 2:.1f}" y="{y - 5:.1f}" font-size="10" '
                f'text-anchor="middle">{format_number(v)}</text>'
            )
        cx = x0 + slot / 2
        if rotate:
            parts.append(
                f'<text x="{cx:.1f}" y="{base_y + 16:.1f}" font-size="11" '
                f'text-anchor="end" transform="rotate(-30 {cx:.1f} '
                f'{base_y + 16:.1f})">{escape(group)}</text>'
            )
        else:
            parts.append(
                f'<text x="{cx:.1f}" y="{base_y + 18:.1f}" font-size="11" '
                f'text-anchor="middle">{escape(group)}</text>'
            )

    legend_x = width - _MARGIN_R - 150.0
    for si, (name, _) in enumerate(series):
        y = 14.0 + si * 16.0
        parts.append(
            f'<rect x="{legend_x:.1f}" y="{y:.1f}" width="12" height="12" '
            f'fill="{_SERIES_COLORS[si % 2]}"/>'
        )
        parts.append(
            f'<text x="{legend_x + 18:.1f}" y="{y + 10:.1f}" '
            f'font-size="11">{escape(name)}</text>'
        )

    parts.append(f'<line x1="{_MARGIN_L:.1f}" y1="{base_y:.1f}" '
                 f'x2="{width - _MARGIN_R:.1f}" y2="{base_y:.1f}" '
                 f'stroke="#202124" stroke-width="1"/>')
    parts.append("</g>")
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


CHART_KINDS = ("recovery", "comparison")


def chart_from_report(report: ImprovementReport, kind: str) -> str:
    """SVG for one chart kind built from a comparison report."""
    if kind == "recovery":
        rows = [d for d in report.deltas if d.metric.endswith("_recovery")]
        if not rows:
            raise MissingMetric("comparison carries no recovery metrics")
        groups = [d.label.split(" Recovery")[0] for d in rows]
        title = "Recovery Rate by Element"
        ylabel = "recovery rate (%)"
    elif kind == "comparison":
        rows = list(report.deltas)
        if not rows:
            raise MissingMetric("comparison carries no metrics")
        groups = [d.label for d in rows]
        title = "Baseline vs Framework"
        ylabel = "value"
    else:
        raise ValueError(f"unknown chart kind {kind!r}")
    series = [
        ("Baseline", [d.baseline for d in rows]),
        ("Framework", [d.framework for d in rows]),
    ]
    return render_grouped_bars(title, ylabel, groups, series)
