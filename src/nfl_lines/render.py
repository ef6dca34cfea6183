"""Minimal standalone SVG bar chart for histograms.

Static output only; byte-deterministic for a given histogram and options.
"""

from __future__ import annotations

from .metrics import Histogram
from .stats import check_bins


def histogram_svg(
    hist: Histogram,
    title: str = "",
    width: int = 720,
    height: int = 400,
) -> str:
    margin_left, margin_right, margin_top, margin_bottom = 52, 16, 34, 40
    plot_w = width - margin_left - margin_right
    plot_h = height - margin_top - margin_bottom

    items = hist.sorted_items()
    if items:
        lo = items[0][0]
        hi = items[-1][0]
        check_bins(hist.bin_width, hi - lo + 1)  # one bar per bin from lo to hi
        counts = dict(items)
        indices = list(range(lo, hi + 1))
        max_count = max(counts.values())
    else:
        indices = []
        counts = {}
        max_count = 1

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
    ]
    if title:
        parts.append(
            f'<text x="{width / 2:.1f}" y="20" text-anchor="middle" '
            f'font-family="sans-serif" font-size="14">{_escape(title)}</text>'
        )
    # axes
    x0, y0 = margin_left, margin_top + plot_h
    parts.append(
        f'<line x1="{x0}" y1="{y0}" x2="{x0 + plot_w}" y2="{y0}" stroke="black"/>'
    )
    parts.append(f'<line x1="{x0}" y1="{margin_top}" x2="{x0}" y2="{y0}" stroke="black"/>')
    parts.append(
        f'<text x="14" y="{margin_top + 10}" font-family="sans-serif" font-size="11">{max_count}</text>'
    )

    n = len(indices)
    if n:
        bar_w = plot_w / n
        label_every = max(1, n // 12)
        for pos, idx in enumerate(indices):
            count = counts.get(idx, 0)
            bar_h = plot_h * count / max_count
            x = x0 + pos * bar_w
            y = y0 - bar_h
            parts.append(
                f'<rect x="{x:.2f}" y="{y:.2f}" width="{max(bar_w - 1, 1):.2f}" '
                f'height="{bar_h:.2f}" fill="steelblue"/>'
            )
            if pos % label_every == 0:
                parts.append(
                    f'<text x="{x + bar_w / 2:.2f}" y="{y0 + 14}" text-anchor="middle" '
                    f'font-family="sans-serif" font-size="10">{hist.bin_center(idx):g}</text>'
                )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def _escape(text: str) -> str:
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
