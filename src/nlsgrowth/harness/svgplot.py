"""Minimal SVG line plots (no external plotting dependency).

Every figure-producing path also emits a gnuplot-compatible ``.dat`` file so
plots stay derived artifacts, never primary data.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

__all__ = ["write_line_plot"]

_COLORS = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b"]
_W, _H = 640, 440
_ML, _MR, _MT, _MB = 70, 20, 36, 52  # margins


def _ticks_linear(lo: float, hi: float):
    if hi <= lo:
        hi = lo + 1.0
    raw = (hi - lo) / 5
    mag = 10.0 ** np.floor(np.log10(raw))
    step = min(s for s in (1.0, 2.0, 5.0, 10.0) if s * mag >= raw) * mag
    first = np.ceil(lo / step) * step
    return list(np.arange(first, hi + step / 2, step))


def _ticks_log(lo: float, hi: float):
    lo_d = int(np.floor(np.log10(lo)))
    hi_d = int(np.ceil(np.log10(hi)))
    return [10.0 ** d for d in range(lo_d, hi_d + 1)]


def _fmt(v: float) -> str:
    if v == 0:
        return "0"
    if abs(v) >= 1e4 or abs(v) < 1e-3:
        return f"{v:.0e}"
    return f"{v:g}"


def _write_dat(path: str | Path, x: np.ndarray, ys: dict[str, np.ndarray]) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    labels = list(ys)
    lines = ["# x " + " ".join(labels)]
    for i, xv in enumerate(x):
        lines.append(" ".join([f"{xv:.16e}"] + [f"{ys[l][i]:.16e}" for l in labels]))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def write_line_plot(
    path: str | Path,
    x: np.ndarray,
    ys: dict[str, np.ndarray],
    title: str = "",
    xlabel: str = "",
    ylabel: str = "",
    loglog: bool = False,
) -> Path:
    """Write an SVG with one polyline per labeled series (plus its .dat)."""
    path = Path(path)
    x = np.asarray(x, dtype=float)
    series = {label: np.asarray(v, dtype=float) for label, v in ys.items()}
    _write_dat(path.with_suffix(".dat"), x, series)

    if loglog:
        def good(a):
            return a > 0

        def frac(v, lo, hi):
            return (np.log10(v) - np.log10(lo)) / (np.log10(hi) - np.log10(lo))
    else:
        def good(a):
            return np.isfinite(a)

        def frac(v, lo, hi):
            return (v - lo) / (hi - lo)
    all_y = np.concatenate(list(series.values()))
    xs_ok, ys_ok = x[good(x)], all_y[good(all_y)]
    if len(xs_ok) == 0 or len(ys_ok) == 0:
        xs_ok, ys_ok = np.array([1.0, 2.0]), np.array([1.0, 2.0])
    x_lo, x_hi = float(np.min(xs_ok)), float(np.max(xs_ok))
    y_lo, y_hi = float(np.min(ys_ok)), float(np.max(ys_ok))
    if not loglog:
        pad = 0.05 * max(y_hi - y_lo, 1e-30)
        y_lo, y_hi = y_lo - pad, y_hi + pad
    if x_hi <= x_lo:
        x_hi = x_lo + 1.0
    if y_hi <= y_lo:
        y_hi = y_lo * 10.0 if loglog else y_lo + 1.0

    def tx(v):
        return _ML + frac(v, x_lo, x_hi) * (_W - _ML - _MR)

    def ty(v):
        return _H - _MB - frac(v, y_lo, y_hi) * (_H - _MT - _MB)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
        f'viewBox="0 0 {_W} {_H}" font-family="monospace" font-size="11">',
        f'<rect width="{_W}" height="{_H}" fill="white"/>',
        f'<rect x="{_ML}" y="{_MT}" width="{_W - _ML - _MR}" height="{_H - _MT - _MB}" '
        'fill="none" stroke="black"/>',
    ]
    if title:
        parts.append(
            f'<text x="{_W / 2:.0f}" y="{_MT - 14}" text-anchor="middle" font-size="13">{title}</text>'
        )
    x_ticks = _ticks_log(x_lo, x_hi) if loglog else _ticks_linear(x_lo, x_hi)
    y_ticks = _ticks_log(y_lo, y_hi) if loglog else _ticks_linear(y_lo, y_hi)
    for v in x_ticks:
        if v < x_lo or v > x_hi:
            continue
        px = tx(v)
        parts.append(f'<line x1="{px:.1f}" y1="{_H - _MB}" x2="{px:.1f}" y2="{_H - _MB + 5}" stroke="black"/>')
        parts.append(f'<text x="{px:.1f}" y="{_H - _MB + 18}" text-anchor="middle">{_fmt(v)}</text>')
    for v in y_ticks:
        if v < y_lo or v > y_hi:
            continue
        py = ty(v)
        parts.append(f'<line x1="{_ML - 5}" y1="{py:.1f}" x2="{_ML}" y2="{py:.1f}" stroke="black"/>')
        parts.append(f'<text x="{_ML - 8}" y="{py + 4:.1f}" text-anchor="end">{_fmt(v)}</text>')
    if xlabel:
        parts.append(f'<text x="{_W / 2:.0f}" y="{_H - 12}" text-anchor="middle">{xlabel}</text>')
    if ylabel:
        parts.append(
            f'<text x="16" y="{_H / 2:.0f}" text-anchor="middle" '
            f'transform="rotate(-90 16 {_H / 2:.0f})">{ylabel}</text>'
        )
    for idx, (label, vals) in enumerate(series.items()):
        color = _COLORS[idx % len(_COLORS)]
        pts = []
        for xv, yv in zip(x, vals):
            if good(xv) and good(yv):
                pts.append(f"{tx(xv):.1f},{ty(yv):.1f}")
        if pts:
            parts.append(
                f'<polyline points="{" ".join(pts)}" fill="none" stroke="{color}" stroke-width="1.3"/>'
            )
        ly = _MT + 14 + 14 * idx
        parts.append(f'<line x1="{_W - _MR - 110}" y1="{ly - 4}" x2="{_W - _MR - 90}" y2="{ly - 4}" stroke="{color}" stroke-width="2"/>')
        parts.append(f'<text x="{_W - _MR - 85}" y="{ly}">{label}</text>')
    parts.append("</svg>")
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("\n".join(parts) + "\n", encoding="utf-8")
    return path
