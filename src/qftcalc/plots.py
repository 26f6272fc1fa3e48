"""Dependency-free standalone SVG plots of recovered series.

Quantum outputs are drawn as point markers, the analytical reference as a
polyline, and in semilog mode the shot resolution as a dashed horizontal rule.
Calibration metadata (axis ranges, rule value) is attached as ``data-*``
attributes so golden-file tests can verify coordinate mapping without a
renderer.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

from .pipelines import RecoveredSeries

__all__ = ["emit_plot"]

WIDTH, HEIGHT = 860, 540
MARGIN = {"left": 78, "right": 24, "top": 30, "bottom": 54}


def emit_plot(
    series: RecoveredSeries,
    reference: np.ndarray,
    path: str | Path,
    staged: dict,
    scale: str = "linear",
) -> None:
    """Stage the series/reference comparison as a standalone SVG file.

    It is written with the other result files of the caller's
    :func:`qftcalc.experiments.staged_writes` block.
    """
    if scale not in ("linear", "semilog"):
        raise ValueError(f"unknown scale {scale!r}")
    reference = np.asarray(reference, dtype=float)
    if series.n_points == 0:
        raise ValueError("empty series")
    if reference.shape != series.x.shape:
        raise ValueError("reference length does not match the series")

    xs = series.x
    shown = series.retained.copy()
    if scale == "semilog":
        shown &= series.value_sq > 0.0
    point_y = series.value_sq[shown]
    curve_y = reference

    y_candidates = [point_y]  # semilog's shown mask already dropped y <= 0
    y_candidates.append(curve_y[curve_y > 0] if scale == "semilog" else curve_y)
    if scale == "semilog" and series.resolution_epsilon > 0.0:
        y_candidates.append(np.array([series.resolution_epsilon]))
    pool = np.concatenate([c for c in y_candidates if c.size])
    if pool.size == 0:
        pool = np.array([1.0])
    if scale == "semilog":
        y_lo, y_hi = float(np.min(pool)), float(np.max(pool))
        y_lo, y_hi = math.log10(y_lo) - 0.3, math.log10(y_hi) + 0.3
    else:
        y_lo = min(0.0, float(np.min(pool)))
        y_hi = float(np.max(pool)) * 1.05 or 1.0
    if y_hi <= y_lo:
        y_hi = y_lo + 1.0
    x_lo, x_hi = float(xs[0]), float(xs[-1])
    if x_hi <= x_lo:
        x_hi = x_lo + 1.0

    inner_w = WIDTH - MARGIN["left"] - MARGIN["right"]
    inner_h = HEIGHT - MARGIN["top"] - MARGIN["bottom"]

    def px(x: float) -> float:
        return MARGIN["left"] + (x - x_lo) / (x_hi - x_lo) * inner_w

    def py(y: float) -> float:
        v = math.log10(y) if scale == "semilog" else y
        return MARGIN["top"] + (y_hi - v) / (y_hi - y_lo) * inner_h

    parts: list[str] = []
    parts.append(
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}" data-scale="{scale}" '
        f'data-ymin="{y_lo:.9g}" data-ymax="{y_hi:.9g}" '
        f'data-xmin="{x_lo:.9g}" data-xmax="{x_hi:.9g}">'
    )
    parts.append(f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>')
    title = f"{series.mode} output, " + (
        "exact mode" if series.shots_used is None else f"{series.shots_used:.0e} shots"
    )
    parts.append(
        f'<text x="{WIDTH / 2:.1f}" y="20" text-anchor="middle" '
        f'font-family="sans-serif" font-size="15">{title}</text>'
    )

    frame = (
        f'M {MARGIN["left"]} {MARGIN["top"]} V {HEIGHT - MARGIN["bottom"]} '
        f'H {WIDTH - MARGIN["right"]}'
    )
    parts.append(f'<path d="{frame}" fill="none" stroke="black" stroke-width="1"/>')
    parts.extend(_x_ticks(x_lo, x_hi, px))
    parts.extend(_y_ticks(y_lo, y_hi, py, scale))

    curve = _curve_path(xs, curve_y, px, py, scale)
    if curve:
        parts.append(
            f'<path id="analytical-curve" d="{curve}" fill="none" '
            f'stroke="#c0392b" stroke-width="1.6"/>'
        )
    for x, y in zip(xs[shown], point_y):
        parts.append(
            f'<circle cx="{px(x):.2f}" cy="{py(y):.2f}" r="2.4" '
            f'fill="#2c5f8a" fill-opacity="0.8"/>'
        )
    if scale == "semilog" and series.resolution_epsilon > 0.0:
        ry = py(series.resolution_epsilon)
        parts.append(
            f'<line id="resolution-rule" x1="{MARGIN["left"]}" x2="{WIDTH - MARGIN["right"]}" '
            f'y1="{ry:.2f}" y2="{ry:.2f}" stroke="#444" stroke-width="1" '
            f'stroke-dasharray="7 4" data-value="{series.resolution_epsilon:.9g}"/>'
        )
    parts.extend(_legend(series))
    parts.append("</svg>")
    staged[Path(path)] = "\n".join(parts) + "\n"


def _curve_path(xs, ys, px, py, scale) -> str:
    """Polyline through the reference, broken where semilog cannot plot."""
    segments: list[str] = []
    pen_down = False
    for x, y in zip(xs, ys):
        if scale == "semilog" and y <= 0.0:
            pen_down = False
            continue
        cmd = "L" if pen_down else "M"
        segments.append(f"{cmd} {px(x):.2f} {py(y):.2f}")
        pen_down = True
    return " ".join(segments)


def _nice_ticks(lo: float, hi: float, target: int = 6) -> list[float]:
    span = hi - lo
    if span <= 0.0:
        return [lo]
    raw = span / target
    power = math.floor(math.log10(raw))
    for mult in (1.0, 2.0, 5.0, 10.0):
        step = mult * 10.0**power
        if span / step <= target:
            break
    first = math.ceil(lo / step) * step
    ticks = []
    value = first
    while value <= hi + 1e-9 * span:
        ticks.append(round(value, 12))
        value += step
    return ticks


def _x_ticks(x_lo, x_hi, px) -> list[str]:
    out = []
    y0 = HEIGHT - MARGIN["bottom"]
    for t in _nice_ticks(x_lo, x_hi):
        x = px(t)
        out.append(f'<line x1="{x:.2f}" x2="{x:.2f}" y1="{y0}" y2="{y0 + 5}" stroke="black"/>')
        out.append(
            f'<text x="{x:.2f}" y="{y0 + 20}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="11">{t:g}</text>'
        )
    out.append(
        f'<text x="{WIDTH / 2:.1f}" y="{HEIGHT - 14}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="13">x</text>'
    )
    return out


def _y_ticks(y_lo, y_hi, py, scale) -> list[str]:
    out = []
    x0 = MARGIN["left"]
    if scale == "semilog":
        ticks = range(math.ceil(y_lo), math.floor(y_hi) + 1)
        labels = [(10.0**d, f"1e{d}") for d in ticks]
    else:
        labels = [(t, f"{t:g}") for t in _nice_ticks(y_lo, y_hi)]
    for value, label in labels:
        y = py(value)
        out.append(f'<line x1="{x0 - 5}" x2="{x0}" y1="{y:.2f}" y2="{y:.2f}" stroke="black"/>')
        out.append(
            f'<text x="{x0 - 9}" y="{y + 4:.2f}" text-anchor="end" '
            f'font-family="sans-serif" font-size="11">{label}</text>'
        )
    out.append(
        f'<text x="18" y="{HEIGHT / 2:.1f}" text-anchor="middle" font-family="sans-serif" '
        f'font-size="13" transform="rotate(-90 18 {HEIGHT / 2:.1f})">squared value</text>'
    )
    return out


def _legend(series: RecoveredSeries) -> list[str]:
    x = WIDTH - MARGIN["right"] - 190
    y = MARGIN["top"] + 14
    kept = int(np.count_nonzero(series.retained))
    return [
        f'<circle cx="{x}" cy="{y - 4}" r="2.4" fill="#2c5f8a"/>',
        f'<text x="{x + 10}" y="{y}" font-family="sans-serif" font-size="12">'
        f"quantum ({kept}/{series.n_points} kept)</text>",
        f'<line x1="{x - 6}" x2="{x + 6}" y1="{y + 14}" y2="{y + 14}" stroke="#c0392b" stroke-width="1.6"/>',
        f'<text x="{x + 10}" y="{y + 18}" font-family="sans-serif" font-size="12">analytical</text>',
    ]
