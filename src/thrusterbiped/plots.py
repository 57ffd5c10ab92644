"""Minimal SVG line plots for offline inspection of run logs.

Deliberately tiny: polylines, axes, tick labels, nothing interactive.  The
CSV files are the real output contract; these files exist so a run can be
eyeballed without extra tooling.
"""

from __future__ import annotations

import math

import numpy as np

from .config import _write_lines

WIDTH, HEIGHT = 720, 480
MARGIN = 60.0
COLORS = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b"]


def _ticks(lo: float, hi: float, n: int = 5) -> list[float]:
    if not math.isfinite(lo) or not math.isfinite(hi) or hi <= lo:
        return [lo]
    span = hi - lo
    step = 10.0 ** math.floor(math.log10(span / n))
    for mult in (1.0, 2.0, 5.0, 10.0):
        if span / (step * mult) <= n:
            step *= mult
            break
    first = math.ceil(lo / step) * step
    out = []
    v = first
    while v <= hi + 1e-12 * span:
        out.append(round(v, 12))
        v += step
    return out


def write_line_plot(
    path: str,
    series: list[tuple[np.ndarray, np.ndarray, str]],
    title: str,
    xlabel: str,
    ylabel: str,
) -> None:
    """Write one SVG with the given (x, y, label) polylines."""
    finite = []
    for xs, ys, _ in series:
        xs = np.asarray(xs, dtype=float)
        ys = np.asarray(ys, dtype=float)
        ok = np.isfinite(xs) & np.isfinite(ys)
        finite.append((xs[ok], ys[ok]))
    xs_all = np.concatenate([p[0] for p in finite]) if finite else np.zeros(1)
    ys_all = np.concatenate([p[1] for p in finite]) if finite else np.zeros(1)
    if xs_all.size == 0:
        xs_all = np.zeros(1)
        ys_all = np.zeros(1)
    x_lo, x_hi = float(xs_all.min()), float(xs_all.max())
    y_lo, y_hi = float(ys_all.min()), float(ys_all.max())
    if x_hi <= x_lo:
        x_hi = x_lo + 1.0
    if y_hi <= y_lo:
        y_hi = y_lo + 1.0
    pad = 0.05 * (y_hi - y_lo)
    y_lo -= pad
    y_hi += pad

    def px(x: float) -> float:
        return MARGIN + (x - x_lo) / (x_hi - x_lo) * (WIDTH - 2 * MARGIN)

    def py(y: float) -> float:
        return HEIGHT - MARGIN - (y - y_lo) / (y_hi - y_lo) * (HEIGHT - 2 * MARGIN)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" '
        f'height="{HEIGHT}" viewBox="0 0 {WIDTH} {HEIGHT}">',
        f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
        f'<text x="{WIDTH / 2}" y="24" text-anchor="middle" '
        f'font-size="16">{title}</text>',
    ]
    axis = (f'M {MARGIN} {MARGIN} L {MARGIN} {HEIGHT - MARGIN} '
            f'L {WIDTH - MARGIN} {HEIGHT - MARGIN}')
    parts.append(f'<path d="{axis}" stroke="black" fill="none"/>')
    for tx in _ticks(x_lo, x_hi):
        parts.append(
            f'<line x1="{px(tx):.1f}" y1="{HEIGHT - MARGIN}" x2="{px(tx):.1f}" '
            f'y2="{HEIGHT - MARGIN + 5}" stroke="black"/>')
        parts.append(
            f'<text x="{px(tx):.1f}" y="{HEIGHT - MARGIN + 18}" '
            f'text-anchor="middle" font-size="10">{tx:g}</text>')
    for ty in _ticks(y_lo, y_hi):
        parts.append(
            f'<line x1="{MARGIN - 5}" y1="{py(ty):.1f}" x2="{MARGIN}" '
            f'y2="{py(ty):.1f}" stroke="black"/>')
        parts.append(
            f'<text x="{MARGIN - 8}" y="{py(ty):.1f}" text-anchor="end" '
            f'font-size="10" dominant-baseline="middle">{ty:g}</text>')
    parts.append(
        f'<text x="{WIDTH / 2}" y="{HEIGHT - 12}" text-anchor="middle" '
        f'font-size="12">{xlabel}</text>')
    parts.append(
        f'<text x="16" y="{HEIGHT / 2}" text-anchor="middle" font-size="12" '
        f'transform="rotate(-90 16 {HEIGHT / 2})">{ylabel}</text>')

    for i, ((xs, ys), (_, _, label)) in enumerate(zip(finite, series)):
        if xs.size == 0:
            continue
        color = COLORS[i % len(COLORS)]
        pts = " ".join(f"{px(float(a)):.2f},{py(float(b)):.2f}"
                       for a, b in zip(xs, ys))
        parts.append(
            f'<polyline points="{pts}" fill="none" stroke="{color}" '
            f'stroke-width="1.2"/>')
        ly = 40 + 16 * i
        parts.append(
            f'<line x1="{WIDTH - 150}" y1="{ly}" x2="{WIDTH - 125}" y2="{ly}" '
            f'stroke="{color}" stroke-width="2"/>')
        parts.append(
            f'<text x="{WIDTH - 120}" y="{ly + 4}" font-size="11">{label}</text>')
    parts.append("</svg>")
    _write_lines(path, (part + "\n" for part in parts))


def emit_run_plots(log, out_dir: str) -> list[str]:
    """Phase portrait, contact-ratio traces, and thrust profile for one run."""
    import os

    files = []
    q1 = log.column("q1", "SS")
    dq1 = log.column("dq1", "SS")
    path = os.path.join(out_dir, "phase_portrait.svg")
    write_line_plot(path, [(q1, dq1, "SS flow")],
                    "Stance-angle phase portrait", "q1 [rad]", "dq1 [rad/s]")
    files.append(path)

    t = log.column("t")
    ratios = []
    for foot, (tcol, ncol) in enumerate((("lamT1", "lamN1"), ("lamT2", "lamN2"))):
        lt = log.column(tcol)
        ln = log.column(ncol)
        with np.errstate(invalid="ignore", divide="ignore"):
            r = np.abs(lt) / ln
        ratios.append((t, r, f"foot {foot + 1}"))
    path = os.path.join(out_dir, "contact_ratio.svg")
    write_line_plot(path, ratios, "Tangential-to-normal force ratio",
                    "t [s]", "|lam_T| / lam_N")
    files.append(path)

    path = os.path.join(out_dir, "thrust.svg")
    write_line_plot(path, [(t, log.column("F_th"), "thrust")],
                    "Thruster force", "t [s]", "F_th [N]")
    files.append(path)
    return files
