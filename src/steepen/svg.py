"""Minimal deterministic SVG line plots (no plotting dependency)."""

from __future__ import annotations

import numpy as np

_PALETTE = (
    "#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e",
    "#8c564b", "#17becf", "#7f7f7f", "#bcbd22", "#e377c2",
)

_W, _H = 720, 480
_ML, _MR, _MT, _MB = 70, 20, 40, 50  # margins


def _ticks(lo: float, hi: float, count: int = 5):
    if hi <= lo:
        hi = lo + 1.0
    return np.linspace(lo, hi, count)


def line_plot(path, series, title: str = "", xlabel: str = "", ylabel: str = "") -> None:
    """Write an SVG with one polyline per series entry.

    ``series`` is a list of (label, x-array, y-array) triples.  Output is
    byte-stable for identical inputs.
    """
    xs = [np.asarray(x, dtype=float) for _, x, _ in series]
    ys = [np.asarray(y, dtype=float) for _, _, y in series]
    finite_x = np.concatenate([x[np.isfinite(x)] for x in xs]) if xs else np.array([0.0])
    finite_y = np.concatenate([y[np.isfinite(y)] for y in ys]) if ys else np.array([0.0])
    x_lo, x_hi = (float(finite_x.min()), float(finite_x.max())) if finite_x.size else (0.0, 1.0)
    y_lo, y_hi = (float(finite_y.min()), float(finite_y.max())) if finite_y.size else (0.0, 1.0)
    if x_hi <= x_lo:
        x_hi = x_lo + 1.0
    if y_hi <= y_lo:
        y_hi = y_lo + 1.0
    pad = 0.05 * (y_hi - y_lo)
    y_lo -= pad
    y_hi += pad

    def px(v):
        return _ML + (v - x_lo) / (x_hi - x_lo) * (_W - _ML - _MR)

    def py(v):
        return _H - _MB - (v - y_lo) / (y_hi - y_lo) * (_H - _MT - _MB)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
        f'viewBox="0 0 {_W} {_H}">',
        f'<rect x="0" y="0" width="{_W}" height="{_H}" fill="white"/>',
        f'<rect x="{_ML}" y="{_MT}" width="{_W - _ML - _MR}" height="{_H - _MT - _MB}" '
        'fill="none" stroke="black" stroke-width="1"/>',
    ]
    if title:
        parts.append(
            f'<text x="{_W / 2:.1f}" y="24" text-anchor="middle" font-size="15">{title}</text>'
        )
    for tx in _ticks(x_lo, x_hi):
        parts.append(
            f'<line x1="{px(tx):.2f}" y1="{_H - _MB}" x2="{px(tx):.2f}" y2="{_H - _MB + 5}" stroke="black"/>'
        )
        parts.append(
            f'<text x="{px(tx):.2f}" y="{_H - _MB + 18}" text-anchor="middle" font-size="11">{tx:.4g}</text>'
        )
    for ty in _ticks(y_lo, y_hi):
        parts.append(
            f'<line x1="{_ML - 5}" y1="{py(ty):.2f}" x2="{_ML}" y2="{py(ty):.2f}" stroke="black"/>'
        )
        parts.append(
            f'<text x="{_ML - 8}" y="{py(ty) + 4:.2f}" text-anchor="end" font-size="11">{ty:.4g}</text>'
        )
    if xlabel:
        parts.append(
            f'<text x="{_W / 2:.1f}" y="{_H - 12}" text-anchor="middle" font-size="13">{xlabel}</text>'
        )
    if ylabel:
        parts.append(
            f'<text x="18" y="{_H / 2:.1f}" text-anchor="middle" font-size="13" '
            f'transform="rotate(-90 18 {_H / 2:.1f})">{ylabel}</text>'
        )

    for idx, ((label, _, _), x, y) in enumerate(zip(series, xs, ys)):
        color = _PALETTE[idx % len(_PALETTE)]
        ok = np.isfinite(x) & np.isfinite(y)
        # the pixel coordinates of all points in one array pass each, the
        # same float64 operations as px and py on a single value
        pts = " ".join(
            f"{a:.2f},{b:.2f}" for a, b in zip(px(x[ok]).tolist(), py(y[ok]).tolist())
        )
        parts.append(
            f'<polyline fill="none" stroke="{color}" stroke-width="1.2" points="{pts}"/>'
        )
        if label:
            ly = _MT + 16 + 14 * idx
            parts.append(
                f'<line x1="{_W - _MR - 120}" y1="{ly - 4}" x2="{_W - _MR - 96}" y2="{ly - 4}" '
                f'stroke="{color}" stroke-width="2"/>'
            )
            parts.append(
                f'<text x="{_W - _MR - 90}" y="{ly}" font-size="11">{label}</text>'
            )
    parts.append("</svg>")
    with open(path, "w") as fh:
        fh.write("\n".join(parts) + "\n")
