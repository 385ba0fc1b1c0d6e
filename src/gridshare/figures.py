"""Static SVG charts built directly from sweep tables.

Pure string generation: the same table always yields byte-identical
files. One line chart per headline metric against the supply ratio, and
a grouped bar chart for the delay distribution at one ratio. Each file
is written through `metrics.write_atomic`, like the CSVs.
"""

from __future__ import annotations

import math
import os
import sys
from typing import Sequence

from .metrics import MetricsReport, write_atomic

WIDTH, HEIGHT = 640, 420
MARGIN_L, MARGIN_R, MARGIN_T, MARGIN_B = 64, 150, 40, 56

# One colour per policy name parse_policy accepts.
_PALETTE = {
    "fcfs": "#1f77b4",
    "fdfs": "#2ca02c",
    "rr": "#ff7f0e",
    "minmax-er": "#d62728",
    "minmax-dt": "#9467bd",
    "fcfs-simple": "#8c564b",
    "rr-simple": "#e377c2",
    "fdfs-slack": "#17becf",
}


def _fmt(x: float) -> str:
    return f"{x:.2f}"


def _nice_ceiling(value: float) -> float:
    if value <= 0:
        return 1.0
    for candidate in (0.01, 0.02, 0.05, 0.1, 0.2, 0.5, 1.0):
        if value <= candidate:
            return candidate
    step = 1.0
    while value > 10 * step:
        step *= 10
    return math.ceil(value / step) * step


class _Canvas:
    def __init__(self, title: str, x_label: str, y_label: str):
        self.parts = [
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
            f'viewBox="0 0 {WIDTH} {HEIGHT}" font-family="sans-serif" font-size="12">',
            f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
            f'<text x="{WIDTH / 2:.0f}" y="20" text-anchor="middle" font-size="14">{title}</text>',
            f'<text x="{(MARGIN_L + WIDTH - MARGIN_R) / 2:.0f}" y="{HEIGHT - 12}" '
            f'text-anchor="middle">{x_label}</text>',
            f'<text x="16" y="{(MARGIN_T + HEIGHT - MARGIN_B) / 2:.0f}" text-anchor="middle" '
            f'transform="rotate(-90 16 {(MARGIN_T + HEIGHT - MARGIN_B) / 2:.0f})">{y_label}</text>',
        ]

    def add(self, fragment: str) -> None:
        self.parts.append(fragment)

    def finish(self) -> str:
        self.parts.append("</svg>")
        return "\n".join(self.parts) + "\n"

    def save(self, path) -> None:
        """Finish the chart and write it to path, or leave path as it was."""
        def write(tmp):
            with open(tmp, "w", encoding="utf-8") as fh:
                fh.write(self.finish())

        write_atomic(path, write)


def _line_chart(
    title: str,
    y_label: str,
    series: dict,
    bands: dict,
    x_values: Sequence[float],
    path,
) -> None:
    """series: policy -> {x: y}; bands: policy -> {x: (lo, hi)}."""
    canvas = _Canvas(title, "supply-to-demand ratio", y_label)
    x_lo, x_hi = min(x_values), max(x_values)
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    y_max = _nice_ceiling(max(
        (y for points in series.values() for y in points.values() if y is not None),
        default=1.0,
    ) * 1.05)

    def sx(x):
        return MARGIN_L + (x - x_lo) / (x_hi - x_lo) * (WIDTH - MARGIN_L - MARGIN_R)

    def sy(y):
        return HEIGHT - MARGIN_B - y / y_max * (HEIGHT - MARGIN_T - MARGIN_B)

    # axes and ticks
    canvas.add(
        f'<line x1="{sx(x_lo):.1f}" y1="{sy(0):.1f}" x2="{sx(x_hi):.1f}" y2="{sy(0):.1f}" stroke="black"/>'
    )
    canvas.add(
        f'<line x1="{sx(x_lo):.1f}" y1="{sy(0):.1f}" x2="{sx(x_lo):.1f}" y2="{sy(y_max):.1f}" stroke="black"/>'
    )
    for x in x_values:
        canvas.add(
            f'<line x1="{sx(x):.1f}" y1="{sy(0):.1f}" x2="{sx(x):.1f}" y2="{sy(0) + 4:.1f}" stroke="black"/>'
            f'<text x="{sx(x):.1f}" y="{sy(0) + 18:.1f}" text-anchor="middle" font-size="10">{_fmt(x)}</text>'
        )
    for i in range(5):
        y = y_max * i / 4
        canvas.add(
            f'<line x1="{sx(x_lo) - 4:.1f}" y1="{sy(y):.1f}" x2="{sx(x_lo):.1f}" y2="{sy(y):.1f}" stroke="black"/>'
            f'<text x="{sx(x_lo) - 8:.1f}" y="{sy(y) + 4:.1f}" text-anchor="end" font-size="10">{y:.3g}</text>'
        )

    for idx, (policy, points) in enumerate(series.items()):
        color = _PALETTE[policy]
        band = bands.get(policy, {})
        band_xs = [x for x in x_values if x in band]
        if band_xs:
            upper = " ".join(f"{sx(x):.1f},{sy(band[x][1]):.1f}" for x in band_xs)
            lower = " ".join(f"{sx(x):.1f},{sy(band[x][0]):.1f}" for x in reversed(band_xs))
            canvas.add(f'<polygon points="{upper} {lower}" fill="{color}" fill-opacity="0.15" stroke="none"/>')
        segment = []
        for x in x_values:
            y = points.get(x)
            if y is None:
                if len(segment) > 1:
                    canvas.add(_polyline(segment, color))
                segment = []
                continue
            segment.append((sx(x), sy(y)))
        if len(segment) > 1:
            canvas.add(_polyline(segment, color))
        for x in x_values:
            y = points.get(x)
            if y is not None:
                canvas.add(f'<circle cx="{sx(x):.1f}" cy="{sy(y):.1f}" r="2.5" fill="{color}"/>')
        ly = MARGIN_T + 16 * idx
        lx = WIDTH - MARGIN_R + 12
        canvas.add(
            f'<line x1="{lx}" y1="{ly}" x2="{lx + 18}" y2="{ly}" stroke="{color}" stroke-width="2"/>'
            f'<text x="{lx + 24}" y="{ly + 4}" font-size="11">{policy}</text>'
        )

    canvas.save(path)


def _polyline(points, color: str) -> str:
    coords = " ".join(f"{x:.1f},{y:.1f}" for x, y in points)
    return f'<polyline points="{coords}" fill="none" stroke="{color}" stroke-width="1.8"/>'


def _series_from_reports(reports, value):
    averaged = [r for r in reports if r.seed is None]
    per_seed = [r for r in reports if r.seed is not None]
    policies = []
    for r in averaged:
        if r.policy not in policies:
            policies.append(r.policy)
    x_values = sorted({r.sdr for r in averaged})
    series = {p: {} for p in policies}
    bands = {p: {} for p in policies}
    missing = []
    for p in policies:
        for x in x_values:
            rows = [r for r in averaged if r.policy == p and r.sdr == x]
            if not rows:
                missing.append((p, x))
                continue
            v = value(rows[0])
            if v is None:
                continue
            series[p][x] = v
            seed_values = [value(r) for r in per_seed if r.policy == p and r.sdr == x]
            seed_values = [s for s in seed_values if s is not None]
            if seed_values:
                bands[p][x] = (min(seed_values), max(seed_values))
    if missing:
        print(f"warning: missing sweep cells for figures: {missing}", file=sys.stderr)
    return series, bands, x_values


def fod_figure(reports: Sequence[MetricsReport], path) -> None:
    series, bands, xs = _series_from_reports(reports, lambda r: r.fod)
    _line_chart("Fraction of vehicles delayed", "fraction delayed", series, bands, xs, path)


def adfd_figure(reports: Sequence[MetricsReport], path) -> None:
    series, bands, xs = _series_from_reports(reports, lambda r: r.adfd_minutes)
    _line_chart("Average delay of delayed vehicles", "minutes", series, bands, xs, path)


def delay_distribution_figure(reports: Sequence[MetricsReport], path, sdr: float) -> None:
    """Grouped bars: fraction of delayed vehicles per delay bin, one group per bin."""
    rows = [r for r in reports if r.seed is None and abs(r.sdr - sdr) < 1e-9 and r.delay_histogram]
    canvas = _Canvas(f"Delay distribution at supply ratio {_fmt(sdr)}", "delay (minutes)", "fraction of delayed")
    if not rows:
        print(f"warning: no delay distributions at sdr={sdr}", file=sys.stderr)
        canvas.save(path)
        return
    n_bins = max(len(r.delay_histogram) for r in rows)
    width = rows[0].delay_histogram[0][1]
    y_max = _nice_ceiling(max(f for r in rows for _, _, f in r.delay_histogram) * 1.1)
    plot_w = WIDTH - MARGIN_L - MARGIN_R
    plot_h = HEIGHT - MARGIN_T - MARGIN_B
    group_w = plot_w / n_bins
    bar_w = group_w * 0.8 / len(rows)

    def sy(y):
        return HEIGHT - MARGIN_B - y / y_max * plot_h

    canvas.add(
        f'<line x1="{MARGIN_L}" y1="{sy(0):.1f}" x2="{WIDTH - MARGIN_R}" y2="{sy(0):.1f}" stroke="black"/>'
        f'<line x1="{MARGIN_L}" y1="{sy(0):.1f}" x2="{MARGIN_L}" y2="{sy(y_max):.1f}" stroke="black"/>'
    )
    for i in range(5):
        y = y_max * i / 4
        canvas.add(
            f'<text x="{MARGIN_L - 8}" y="{sy(y) + 4:.1f}" text-anchor="end" font-size="10">{y:.3g}</text>'
        )
    for b in range(n_bins):
        x0 = MARGIN_L + b * group_w
        canvas.add(
            f'<text x="{x0 + group_w / 2:.1f}" y="{sy(0) + 16:.1f}" text-anchor="middle" '
            f'font-size="9">{_fmt(b * width)}-{_fmt((b + 1) * width)}</text>'
        )
        for idx, r in enumerate(rows):
            frac = r.delay_histogram[b][2] if b < len(r.delay_histogram) else 0.0
            if frac <= 0.0:
                continue
            x = x0 + group_w * 0.1 + idx * bar_w
            canvas.add(
                f'<rect x="{x:.1f}" y="{sy(frac):.1f}" width="{bar_w:.1f}" '
                f'height="{sy(0) - sy(frac):.1f}" fill="{_PALETTE[r.policy]}"/>'
            )
    for idx, r in enumerate(rows):
        ly = MARGIN_T + 16 * idx
        lx = WIDTH - MARGIN_R + 12
        canvas.add(
            f'<rect x="{lx}" y="{ly - 8}" width="12" height="12" fill="{_PALETTE[r.policy]}"/>'
            f'<text x="{lx + 18}" y="{ly + 2}" font-size="11">{r.policy}</text>'
        )
    canvas.save(path)


# The three standard charts' file names, in emit_figures's order.
FIGURE_FILES = ("fig1-fraction-delayed.svg", "fig2-average-delay.svg", "fig3-delay-distribution.svg")


def emit_figures(reports: Sequence[MetricsReport], out_dir) -> list:
    """Write the three standard charts (FIGURE_FILES); returns the created paths.

    The delay distribution is drawn at supply ratio 1.2 if the table
    has it, else at its lowest ratio.
    """
    ratios = {r.sdr for r in reports}
    dist_sdr = 1.2 if any(abs(s - 1.2) < 1e-9 for s in ratios) else min(ratios)
    paths = [os.path.join(out_dir, name) for name in FIGURE_FILES]
    fod_figure(reports, paths[0])
    adfd_figure(reports, paths[1])
    delay_distribution_figure(reports, paths[2], sdr=dist_sdr)
    return paths
