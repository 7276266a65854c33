"""Tiny dependency-free SVG line-plot writer with byte-stable output."""

from __future__ import annotations

import math
from pathlib import Path

__all__ = ["write_line_plot"]

_PALETTE = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b"]

_W, _H = 640, 480
_ML, _MR, _MT, _MB = 70, 20, 40, 55


def _fmt(x: float) -> str:
    return f"{x:.6g}"


def _ticks(lo: float, hi: float) -> list[float]:
    """Round-valued ticks over [lo, hi], about five of them."""
    if not (math.isfinite(lo) and math.isfinite(hi)) or hi <= lo:
        return [lo]
    raw = (hi - lo) / 5
    mag = 10.0 ** math.floor(math.log10(raw))
    for mult in (1.0, 2.0, 2.5, 5.0, 10.0):
        if raw <= mult * mag:
            step = mult * mag
            break
    start = math.ceil(lo / step) * step
    out = []
    t = start
    while t <= hi + 1e-9 * step:
        out.append(0.0 if abs(t) < 1e-12 * step else t)
        t += step
    return out


def write_line_plot(path: str | Path, title: str, xlabel: str, ylabel: str,
                    series: list[tuple[str, list[float], list[float]]]) -> Path:
    """Write one SVG line chart; series is a list of (label, xs, ys).

    Non-finite y values break the polyline (the point is skipped).  All
    numbers use a fixed %.6g format so repeated runs are byte-identical.
    """
    xs_all = [x for _, xs, ys in series for x, y in zip(xs, ys) if math.isfinite(y)]
    ys_all = [y for _, xs, ys in series for x, y in zip(xs, ys) if math.isfinite(y)]
    if not xs_all:
        xs_all, ys_all = [0.0, 1.0], [0.0, 1.0]
    x_lo, x_hi = min(xs_all), max(xs_all)
    y_lo, y_hi = min(ys_all), max(ys_all)
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    if y_hi == y_lo:
        y_hi = y_lo + 1.0
    pad = 0.05 * (y_hi - y_lo)
    y_lo, y_hi = y_lo - pad, y_hi + pad

    def px(x):
        return _ML + (x - x_lo) / (x_hi - x_lo) * (_W - _ML - _MR)

    def py(y):
        return _H - _MB - (y - y_lo) / (y_hi - y_lo) * (_H - _MT - _MB)

    out = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
           f'viewBox="0 0 {_W} {_H}">',
           f'<rect width="{_W}" height="{_H}" fill="white"/>',
           f'<text x="{_W/2:.1f}" y="24" text-anchor="middle" '
           f'font-family="sans-serif" font-size="16">{title}</text>']
    # axes
    out.append(f'<line x1="{_ML}" y1="{_MT}" x2="{_ML}" y2="{_H-_MB}" '
               f'stroke="black" stroke-width="1"/>')
    out.append(f'<line x1="{_ML}" y1="{_H-_MB}" x2="{_W-_MR}" y2="{_H-_MB}" '
               f'stroke="black" stroke-width="1"/>')
    for t in _ticks(x_lo, x_hi):
        x = px(t)
        out.append(f'<line x1="{x:.2f}" y1="{_H-_MB}" x2="{x:.2f}" y2="{_H-_MB+5}" '
                   f'stroke="black" stroke-width="1"/>')
        out.append(f'<text x="{x:.2f}" y="{_H-_MB+20}" text-anchor="middle" '
                   f'font-family="sans-serif" font-size="12">{_fmt(t)}</text>')
    for t in _ticks(y_lo, y_hi):
        y = py(t)
        out.append(f'<line x1="{_ML-5}" y1="{y:.2f}" x2="{_ML}" y2="{y:.2f}" '
                   f'stroke="black" stroke-width="1"/>')
        out.append(f'<text x="{_ML-8}" y="{y+4:.2f}" text-anchor="end" '
                   f'font-family="sans-serif" font-size="12">{_fmt(t)}</text>')
    out.append(f'<text x="{(_ML + _W - _MR)/2:.1f}" y="{_H-12}" text-anchor="middle" '
               f'font-family="sans-serif" font-size="13">{xlabel}</text>')
    out.append(f'<text x="18" y="{(_MT + _H - _MB)/2:.1f}" text-anchor="middle" '
               f'font-family="sans-serif" font-size="13" '
               f'transform="rotate(-90 18 {(_MT + _H - _MB)/2:.1f})">{ylabel}</text>')

    for idx, (label, xs, ys) in enumerate(series):
        color = _PALETTE[idx % len(_PALETTE)]
        pts = []
        segments = []
        for x, y in zip(xs, ys):
            if math.isfinite(y):
                pts.append(f"{px(x):.2f},{py(y):.2f}")
            elif pts:
                segments.append(pts)
                pts = []
        if pts:
            segments.append(pts)
        for seg in segments:
            if len(seg) == 1:
                cx, cy = seg[0].split(",")
                out.append(f'<circle cx="{cx}" cy="{cy}" r="3" fill="{color}"/>')
            else:
                out.append(f'<polyline points="{" ".join(seg)}" fill="none" '
                           f'stroke="{color}" stroke-width="2"/>')
        ly = _MT + 16 + 16 * idx
        out.append(f'<line x1="{_W-_MR-130}" y1="{ly-4}" x2="{_W-_MR-105}" y2="{ly-4}" '
                   f'stroke="{color}" stroke-width="2"/>')
        out.append(f'<text x="{_W-_MR-100}" y="{ly}" font-family="sans-serif" '
                   f'font-size="12">{label}</text>')
    out.append("</svg>")
    path = Path(path)
    path.write_text("\n".join(out) + "\n")
    return path
