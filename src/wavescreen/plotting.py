"""Static SVG pyramid plots of per-locus Bayes factors.

One point per (scale, location), laid out as the classic dyadic pyramid;
point radius and darkness grow monotonically with the Bayes factor, and the
genomic sub-interval of any coefficient with BF > 1 is highlighted. Output
is byte-deterministic for identical input.
"""

from __future__ import annotations

import math

import numpy as np

WIDTH = 900
MARGIN = 60
ROW_HEIGHT = 36
R_MIN = 1.5
R_MAX = 9.0


def _score(bf: float) -> float:
    """Monotone map of BF to [0, 1); flat at 0 for BF <= 1."""
    lb = max(math.log(bf), 0.0)
    return lb / (lb + 1.0)


def _grey(score: float) -> str:
    level = int(round(210.0 * (1.0 - score)))
    return f"rgb({level},{level},{level})"


def render_pyramid_svg(
    bf_by_scale: list[np.ndarray],
    locations_by_scale: list[np.ndarray],
    start_bp: int,
    end_bp: int,
    title: str = "",
) -> str:
    """Render the pyramid as an SVG string; ``title`` is text, escaped."""
    # imported here: xml.sax.saxutils pulls in urllib.request, 20-35 ms that
    # every other command would pay at start-up
    from xml.sax.saxutils import escape

    depth = len(bf_by_scale) - 1
    if depth < 0 or not any(np.asarray(b).size for b in bf_by_scale):
        raise ValueError("empty Bayes-factor map")
    plot_w = WIDTH - 2 * MARGIN
    height = 2 * MARGIN + (depth + 1) * ROW_HEIGHT
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{height}" '
        f'viewBox="0 0 {WIDTH} {height}">',
        f'<rect width="{WIDTH}" height="{height}" fill="white"/>',
    ]
    if title:
        parts.append(
            f'<text x="{WIDTH / 2:.1f}" y="{MARGIN / 2:.1f}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="14">{escape(title)}</text>'
        )

    # highlight sub-intervals with BF > 1 first so points draw on top
    for s, (bfs, locs) in enumerate(zip(bf_by_scale, locations_by_scale)):
        y = MARGIN + s * ROW_HEIGHT
        for bf, l in zip(np.asarray(bfs, dtype=float), np.asarray(locs, dtype=int)):
            if bf > 1.0:
                x0 = MARGIN + plot_w * l / (1 << s)
                w = plot_w / (1 << s)
                parts.append(
                    f'<rect x="{x0:.2f}" y="{y - ROW_HEIGHT / 2:.2f}" '
                    f'width="{w:.2f}" height="{ROW_HEIGHT:.2f}" '
                    f'fill="#fde68a" fill-opacity="0.6"/>'
                )
    for s, (bfs, locs) in enumerate(zip(bf_by_scale, locations_by_scale)):
        y = MARGIN + s * ROW_HEIGHT
        for bf, l in zip(np.asarray(bfs, dtype=float), np.asarray(locs, dtype=int)):
            score = _score(float(bf))
            cx = MARGIN + plot_w * (l + 0.5) / (1 << s)
            r = R_MIN + (R_MAX - R_MIN) * score
            parts.append(
                f'<circle cx="{cx:.2f}" cy="{y:.2f}" r="{r:.2f}" fill="{_grey(score)}"/>'
            )
        parts.append(
            f'<text x="{MARGIN - 10:.1f}" y="{y + 4:.1f}" text-anchor="end" '
            f'font-family="sans-serif" font-size="11">s={s}</text>'
        )

    axis_y = MARGIN + (depth + 1) * ROW_HEIGHT
    parts.append(
        f'<line x1="{MARGIN}" y1="{axis_y}" x2="{WIDTH - MARGIN}" y2="{axis_y}" '
        f'stroke="black" stroke-width="1"/>'
    )
    for frac, bp in ((0.0, start_bp), (0.5, (start_bp + end_bp) // 2), (1.0, end_bp)):
        x = MARGIN + plot_w * frac
        parts.append(
            f'<line x1="{x:.1f}" y1="{axis_y}" x2="{x:.1f}" y2="{axis_y + 5}" '
            f'stroke="black" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{x:.1f}" y="{axis_y + 18}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="11">{bp}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"

