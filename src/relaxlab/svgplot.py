"""Minimal deterministic SVG line plots: axes, ticks, polylines, legend.

No plotting dependency; byte-identical output for identical input.
"""

from __future__ import annotations

import math
import os

__all__ = ["render_curves", "render_csv", "plot_emit"]

_W, _H = 640, 440
_ML, _MR, _MT, _MB = 70, 20, 20, 50
_COLORS = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#8c564b", "#e377c2")


def _fmt(v: float) -> str:
    return f"{v:.6g}"


def _ticks(lo: float, hi: float, log: bool):
    if log:
        lo_e = math.floor(math.log10(lo))
        hi_e = math.ceil(math.log10(hi))
        return [10.0**e for e in range(lo_e, hi_e + 1) if lo <= 10.0**e <= hi] or [lo, hi]
    span = hi - lo or 1.0
    step = 10.0 ** math.floor(math.log10(span / 4))
    for mult in (1, 2, 5, 10):
        if span / (step * mult) <= 6:
            step *= mult
            break
    first = math.ceil(lo / step) * step
    out = []
    v = first
    while v <= hi + 1e-12 * span:
        out.append(v)
        v += step
    return out or [lo, hi]


def render_curves(curves: dict, loglog: bool = False) -> str:
    """Render {x_key: [...], y1: [...], y2: [...]} to an SVG document.

    The first key is the abscissa; every other key becomes one polyline.
    Nonpositive values are dropped in log mode.
    """
    keys = list(curves.keys())
    if len(keys) < 2:
        raise ValueError("need one x column and at least one y column")
    xk, yks = keys[0], keys[1:]
    xs = [float(v) for v in curves[xk]]
    series = {k: [float(v) for v in curves[k]] for k in yks}

    pts_all = []
    for k in yks:
        for x, y in zip(xs, series[k]):
            if not loglog or (x > 0 and y > 0):
                pts_all.append((x, y))
    if not pts_all:
        raise ValueError("no plottable points")
    xlo = min(p[0] for p in pts_all)
    xhi = max(p[0] for p in pts_all)
    ylo = min(p[1] for p in pts_all)
    yhi = max(p[1] for p in pts_all)
    if xlo == xhi:
        xlo, xhi = xlo * 0.9 or -1.0, xhi * 1.1 or 1.0
    if ylo == yhi:
        ylo, yhi = ylo * 0.9 or -1.0, yhi * 1.1 or 1.0

    def frac(v, lo, hi):
        if loglog:
            return (math.log10(v) - math.log10(lo)) / (math.log10(hi) - math.log10(lo))
        return (v - lo) / (hi - lo)

    def tx(x):
        return _ML + frac(x, xlo, xhi) * (_W - _ML - _MR)

    def ty(y):
        return _H - _MB - frac(y, ylo, yhi) * (_H - _MT - _MB)

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
        f'viewBox="0 0 {_W} {_H}">',
        f'<rect width="{_W}" height="{_H}" fill="white"/>',
        f'<line x1="{_ML}" y1="{_H-_MB}" x2="{_W-_MR}" y2="{_H-_MB}" stroke="black"/>',
        f'<line x1="{_ML}" y1="{_MT}" x2="{_ML}" y2="{_H-_MB}" stroke="black"/>',
    ]
    for tick in _ticks(xlo, xhi, loglog):
        px = tx(tick)
        out.append(f'<line x1="{px:.2f}" y1="{_H-_MB}" x2="{px:.2f}" y2="{_H-_MB+5}" stroke="black"/>')
        out.append(
            f'<text x="{px:.2f}" y="{_H-_MB+18}" font-size="11" text-anchor="middle" '
            f'font-family="monospace">{_fmt(tick)}</text>'
        )
    for tick in _ticks(ylo, yhi, loglog):
        py = ty(tick)
        out.append(f'<line x1="{_ML-5}" y1="{py:.2f}" x2="{_ML}" y2="{py:.2f}" stroke="black"/>')
        out.append(
            f'<text x="{_ML-8}" y="{py+4:.2f}" font-size="11" text-anchor="end" '
            f'font-family="monospace">{_fmt(tick)}</text>'
        )
    for i, k in enumerate(yks):
        color = _COLORS[i % len(_COLORS)]
        pts = [
            f"{tx(x):.2f},{ty(y):.2f}"
            for x, y in zip(xs, series[k])
            if not loglog or (x > 0 and y > 0)
        ]
        if not pts:
            continue
        out.append(f'<polyline points="{" ".join(pts)}" fill="none" stroke="{color}" stroke-width="1.5"/>')
        out.append(
            f'<text x="{_W-_MR-8}" y="{_MT+16+16*i}" font-size="12" text-anchor="end" '
            f'fill="{color}" font-family="monospace">{k}</text>'
        )
    out.append("</svg>")
    return "\n".join(out) + "\n"


def render_csv(csv_path: str, kind: str = "loglog") -> str:
    """Render a simple header+columns CSV file (as written by the harness)."""
    try:
        fh = open(csv_path)
    except OSError as e:
        raise ValueError(f"{csv_path}: cannot read the CSV file ({e.strerror})") from e
    with fh:
        lines = [ln.strip() for ln in fh if ln.strip()]
    if len(lines) < 2:
        raise ValueError(f"{csv_path}: empty or header-only CSV")
    header = lines[0].split(",")
    cols = {h: [] for h in header}
    for ln in lines[1:]:
        parts = ln.split(",")
        if len(parts) != len(header):
            raise ValueError(f"{csv_path}: malformed row {ln!r}")
        for h, v in zip(header, parts):
            cols[h].append(v)
    numeric = {}
    for h, vals in cols.items():
        try:
            numeric[h] = [float(v) for v in vals]
        except ValueError:
            continue  # non-numeric annotation column (e.g. regime labels)
    if len(numeric) < 2:
        raise ValueError(f"{csv_path}: need at least two numeric columns")
    return render_curves(numeric, loglog=(kind == "loglog"))


def plot_emit(csv_path: str, kind: str = "loglog", out_path: str | None = None) -> str:
    """Render a harness CSV to a standalone SVG; returns the SVG path."""
    svg = render_csv(csv_path, kind)
    out_path = out_path or os.path.splitext(csv_path)[0] + ".svg"
    with open(out_path, "w") as fh:
        fh.write(svg)
    return out_path
