"""Minimal hand-emitted SVG line plots.

The plot is a pure function of the numeric series passed in (the values the
runners just wrote to their CSVs, which ``%.17g`` round-trips), so rendering
twice from the same values, or from the CSVs read back, yields identical
bytes.  No plotting library is involved: the file
is a fixed-size viewport with axis lines, tick labels, one polyline per
series, and a legend.
"""

from __future__ import annotations

import math

__all__ = ["polyline_svg"]

WIDTH, HEIGHT = 640.0, 420.0
MARGIN_L, MARGIN_R, MARGIN_T, MARGIN_B = 70.0, 20.0, 34.0, 50.0
PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e",
           "#8c564b", "#17becf", "#7f7f7f")
N_TICKS = 5
FLOOR = 1e-300   # positive floor so log scaling never sees zero


def _fmt(value):
    return format(value, ".3g")


def _transform(lo, hi, log_scale):
    """Return (to_unit, ticks) mapping data to [0, 1] plus tick positions."""
    if log_scale:
        lo = max(lo, FLOOR)
        hi = max(hi, lo * 10.0)
        llo, lhi = math.log10(lo), math.log10(hi)
        span = lhi - llo or 1.0

        def to_unit(v):
            return (math.log10(max(v, FLOOR)) - llo) / span

        ticks = [10.0 ** (llo + span * i / (N_TICKS - 1))
                 for i in range(N_TICKS)]
        return to_unit, ticks
    if hi <= lo:
        hi = lo + 1.0
    span = hi - lo

    def to_unit(v):
        return (v - lo) / span

    ticks = [lo + span * i / (N_TICKS - 1) for i in range(N_TICKS)]
    return to_unit, ticks


def polyline_svg(series, title, x_label, y_label, log_y=False):
    """Render named (x, y) series to an SVG string.

    ``series`` is a list of ``(name, xs, ys)`` with equal-length sequences.
    Empty series are skipped; an all-empty plot still renders axes and title.
    """
    points = [(x, y) for _, xs, ys in series for x, y in zip(xs, ys)]
    if points:
        x_lo = min(p[0] for p in points)
        x_hi = max(p[0] for p in points)
        y_vals = [p[1] for p in points]
        if log_y:
            positive = [v for v in y_vals if v > 0]
            y_lo = min(positive) if positive else FLOOR
            y_hi = max(positive) if positive else 1.0
        else:
            y_lo, y_hi = min(y_vals), max(y_vals)
    else:
        x_lo, x_hi, y_lo, y_hi = 0.0, 1.0, 0.0, 1.0

    x_unit, x_ticks = _transform(x_lo, x_hi, False)
    y_unit, y_ticks = _transform(y_lo, y_hi, log_y)

    plot_w = WIDTH - MARGIN_L - MARGIN_R
    plot_h = HEIGHT - MARGIN_T - MARGIN_B

    def px(x):
        return MARGIN_L + plot_w * min(1.0, max(0.0, x_unit(x)))

    def py(y):
        return MARGIN_T + plot_h * (1.0 - min(1.0, max(0.0, y_unit(y))))

    out = []
    out.append(
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH:.0f}" '
        f'height="{HEIGHT:.0f}" viewBox="0 0 {WIDTH:.0f} {HEIGHT:.0f}">')
    out.append(f'<rect width="{WIDTH:.0f}" height="{HEIGHT:.0f}" '
               f'fill="white"/>')
    out.append(f'<text x="{WIDTH / 2:.2f}" y="20" font-size="15" '
               f'text-anchor="middle" font-family="sans-serif">'
               f'{_escape(title)}</text>')
    # axes
    x0, y0 = MARGIN_L, MARGIN_T + plot_h
    out.append(f'<line x1="{x0:.2f}" y1="{y0:.2f}" x2="{x0 + plot_w:.2f}" '
               f'y2="{y0:.2f}" stroke="black"/>')
    out.append(f'<line x1="{x0:.2f}" y1="{MARGIN_T:.2f}" x2="{x0:.2f}" '
               f'y2="{y0:.2f}" stroke="black"/>')
    for t in x_ticks:
        xp = px(t)
        out.append(f'<line x1="{xp:.2f}" y1="{y0:.2f}" x2="{xp:.2f}" '
                   f'y2="{y0 + 5:.2f}" stroke="black"/>')
        out.append(f'<text x="{xp:.2f}" y="{y0 + 18:.2f}" font-size="11" '
                   f'text-anchor="middle" font-family="sans-serif">'
                   f'{_fmt(t)}</text>')
    for t in y_ticks:
        yp = py(t)
        out.append(f'<line x1="{x0 - 5:.2f}" y1="{yp:.2f}" x2="{x0:.2f}" '
                   f'y2="{yp:.2f}" stroke="black"/>')
        out.append(f'<text x="{x0 - 8:.2f}" y="{yp + 4:.2f}" font-size="11" '
                   f'text-anchor="end" font-family="sans-serif">'
                   f'{_fmt(t)}</text>')
    out.append(f'<text x="{MARGIN_L + plot_w / 2:.2f}" '
               f'y="{HEIGHT - 12:.2f}" font-size="13" text-anchor="middle" '
               f'font-family="sans-serif">{_escape(x_label)}</text>')
    out.append(f'<text x="16" y="{MARGIN_T + plot_h / 2:.2f}" '
               f'font-size="13" text-anchor="middle" '
               f'font-family="sans-serif" '
               f'transform="rotate(-90 16 {MARGIN_T + plot_h / 2:.2f})">'
               f'{_escape(y_label)}</text>')

    legend_y = MARGIN_T + 6.0
    for idx, (name, xs, ys) in enumerate(series):
        color = PALETTE[idx % len(PALETTE)]
        pts = " ".join(f"{px(x):.2f},{py(y):.2f}"
                       for x, y in zip(xs, ys)
                       if not log_y or y > 0)
        if pts:
            out.append(f'<polyline points="{pts}" fill="none" '
                       f'stroke="{color}" stroke-width="1.5"/>')
        lx = MARGIN_L + plot_w - 150.0
        out.append(f'<line x1="{lx:.2f}" y1="{legend_y:.2f}" '
                   f'x2="{lx + 24:.2f}" y2="{legend_y:.2f}" '
                   f'stroke="{color}" stroke-width="1.5"/>')
        out.append(f'<text x="{lx + 30:.2f}" y="{legend_y + 4:.2f}" '
                   f'font-size="11" font-family="sans-serif">'
                   f'{_escape(name)}</text>')
        legend_y += 16.0

    out.append("</svg>")
    return "\n".join(out) + "\n"


def _escape(text):
    return (str(text).replace("&", "&amp;").replace("<", "&lt;")
            .replace(">", "&gt;"))
