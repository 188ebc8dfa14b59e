"""Minimal deterministic SVG line/scatter plotter.

Emits self-contained SVG text with axes, 1-2-5 tick placement (decade
ticks on log scales), optional per-point markers, and a legend. Identical
inputs produce byte-identical output: there are no timestamps, random ids,
or locale-dependent number formats anywhere in the file.

A series is placed a whole axis at a time: its values become pixel
coordinates in one chain of NumPy operations, ``(v - lo) / (hi - lo)``
scaled by the plot's size and offset by its margin. Each of those is one
correctly rounded IEEE operation, so every pixel has the bits a per-point
scalar evaluation in the same order gives. A log axis takes ``math.log10``
of each value first: ``np.log10`` differs from it in the last bit on a
few percent of doubles. A series' points and markers are then formatted
by one map each.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from html import escape

import numpy as np

from .errors import DomainError

__all__ = ["Series", "line_plot"]

PALETTE = ("#1f6feb", "#d1242f", "#1a7f37", "#9a6700", "#8250df", "#bf3989")

_WIDTH, _HEIGHT = 640, 420
_MARGIN_L, _MARGIN_R, _MARGIN_T, _MARGIN_B = 64, 16, 34, 44


@dataclass(frozen=True)
class Series:
    name: str
    xs: tuple[float, ...]
    ys: tuple[float, ...]
    marker: bool = False

    def __post_init__(self):
        if len(self.xs) != len(self.ys):
            raise DomainError(f"series {self.name!r}: {len(self.xs)} xs vs {len(self.ys)} ys")
        if not self.xs:
            raise DomainError(f"series {self.name!r} is empty")


def _label(v: float) -> str:
    return f"{v:g}"


def _linear_ticks(lo: float, hi: float) -> list[float]:
    span = hi - lo
    raw = span / 5  # about five ticks: the step is the smallest 1-2-5 multiple of a power of ten >= raw
    # a subnormal span can underflow raw or mag to 0 and leave no usable step
    mag = 10.0 ** math.floor(math.log10(raw)) if raw > 0 else 0.0
    step = next((s * mag for s in (1.0, 2.0, 5.0, 10.0) if s * mag >= raw), 0.0)
    if step == 0:
        return [lo, hi]
    first = math.ceil(lo / step) * step
    ticks = []
    t = first
    while t <= hi + 1e-9 * span:
        ticks.append(0.0 if abs(t) < 1e-12 * span else t)
        if t + step == t:  # an axis a few ulps wide: t cannot move, so mark its ends
            return [lo, hi]
        t += step
    return ticks


def _log_ticks(lo: float, hi: float) -> list[float]:
    lo_d = math.floor(math.log10(lo))
    hi_d = math.ceil(math.log10(hi))
    return [10.0**d for d in range(lo_d, hi_d + 1) if lo <= 10.0**d <= hi]


def _axis_range(values: np.ndarray, log: bool, axis: str):
    lo, hi = float(values.min()), float(values.max())
    if log:
        if lo <= 0:
            raise DomainError(f"log-scale {axis} axis requires positive values, got min {lo}")
        if math.log10(lo) == math.log10(hi):  # lo == hi, or a span too narrow for log10 to tell apart
            lo, hi = lo / 2.0, hi * 2.0
        return lo, hi
    if lo == hi:
        pad = abs(lo) * 0.1 or 1.0
        return lo - pad, hi + pad
    pad = (hi - lo) * 0.05
    return lo - pad, hi + pad


def _fractions(values: np.ndarray, lo: float, hi: float, log: bool) -> np.ndarray:
    """Where each value sits on the axis from ``lo`` (0) to ``hi`` (1)."""
    if log:
        # per value: np.log10 differs from math.log10 in the last bit on a few percent of doubles
        values = np.array(list(map(math.log10, values.tolist())), dtype=np.float64)
        lo, hi = math.log10(lo), math.log10(hi)
    return (values - lo) / (hi - lo)


def line_plot(
    series: list[Series],
    title: str = "",
    xlabel: str = "",
    ylabel: str = "",
    xlog: bool = False,
    ylog: bool = False,
) -> str:
    if not series:
        raise DomainError("need at least one series")
    columns = [(np.asarray(s.xs, dtype=np.float64), np.asarray(s.ys, dtype=np.float64)) for s in series]
    xs_all = np.concatenate([xs for xs, _ in columns])
    ys_all = np.concatenate([ys for _, ys in columns])
    if not (np.isfinite(xs_all).all() and np.isfinite(ys_all).all()):
        raise DomainError("series values must be finite")
    x_lo, x_hi = _axis_range(xs_all, xlog, "x")
    y_lo, y_hi = _axis_range(ys_all, ylog, "y")
    plot_w = _WIDTH - _MARGIN_L - _MARGIN_R
    plot_h = _HEIGHT - _MARGIN_T - _MARGIN_B

    def sx(values: np.ndarray) -> list[float]:
        return (_fractions(values, x_lo, x_hi, xlog) * plot_w + _MARGIN_L).tolist()

    def sy(values: np.ndarray) -> list[float]:
        return ((1.0 - _fractions(values, y_lo, y_hi, ylog)) * plot_h + _MARGIN_T).tolist()

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" height="{_HEIGHT}" '
        f'viewBox="0 0 {_WIDTH} {_HEIGHT}" font-family="sans-serif" font-size="11">',
        f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="#ffffff"/>',
    ]
    if title:
        out.append(
            f'<text x="{_WIDTH / 2:.0f}" y="18" text-anchor="middle" font-size="13">{escape(title, quote=False)}</text>'
        )
    x_ticks = _log_ticks(x_lo, x_hi) if xlog else _linear_ticks(x_lo, x_hi)
    y_ticks = _log_ticks(y_lo, y_hi) if ylog else _linear_ticks(y_lo, y_hi)
    for t, px in zip(x_ticks, sx(np.array(x_ticks, dtype=np.float64))):
        out.append(
            f'<line x1="{px:.2f}" y1="{_MARGIN_T}" x2="{px:.2f}" y2="{_MARGIN_T + plot_h}" '
            f'stroke="#dddddd" stroke-width="1"/>'
        )
        out.append(
            f'<text x="{px:.2f}" y="{_MARGIN_T + plot_h + 16}" text-anchor="middle">'
            f"{escape(_label(t), quote=False)}</text>"
        )
    for t, py in zip(y_ticks, sy(np.array(y_ticks, dtype=np.float64))):
        out.append(
            f'<line x1="{_MARGIN_L}" y1="{py:.2f}" x2="{_MARGIN_L + plot_w}" y2="{py:.2f}" '
            f'stroke="#dddddd" stroke-width="1"/>'
        )
        out.append(
            f'<text x="{_MARGIN_L - 6}" y="{py + 4:.2f}" text-anchor="end">{escape(_label(t), quote=False)}</text>'
        )
    out.append(
        f'<rect x="{_MARGIN_L}" y="{_MARGIN_T}" width="{plot_w}" height="{plot_h}" '
        f'fill="none" stroke="#333333" stroke-width="1"/>'
    )
    if xlabel:
        out.append(
            f'<text x="{_MARGIN_L + plot_w / 2:.0f}" y="{_HEIGHT - 8}" text-anchor="middle">'
            f"{escape(xlabel, quote=False)}</text>"
        )
    if ylabel:
        cy = _MARGIN_T + plot_h / 2
        out.append(
            f'<text x="14" y="{cy:.0f}" text-anchor="middle" transform="rotate(-90 14 {cy:.0f})">'
            f"{escape(ylabel, quote=False)}</text>"
        )
    for i, (s, (xs, ys)) in enumerate(zip(series, columns)):
        color = PALETTE[i % len(PALETTE)]
        pxs, pys = sx(xs), sy(ys)
        if len(pxs) > 1:
            # x, y interleaved and formatted by one %, which is quicker than a format call per point
            flat = [0.0] * (2 * len(pxs))
            flat[::2], flat[1::2] = pxs, pys
            pts = " ".join(["%.2f,%.2f"] * len(pxs)) % tuple(flat)
            out.append(f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="1.5"/>')
        if s.marker or len(pxs) == 1:
            circle = '<circle cx="{:.2f}" cy="{:.2f}" r="2.5" fill="' + color + '"/>'
            out.extend(map(circle.format, pxs, pys))
    if len(series) > 1 or series[0].name:
        ly = _MARGIN_T + 10
        for i, s in enumerate(series):
            color = PALETTE[i % len(PALETTE)]
            y = ly + i * 15
            x0 = _MARGIN_L + plot_w - 130
            out.append(
                f'<line x1="{x0}" y1="{y}" x2="{x0 + 18}" y2="{y}" stroke="{color}" stroke-width="2"/>'
            )
            out.append(f'<text x="{x0 + 23}" y="{y + 4}">{escape(s.name, quote=False)}</text>')
    out.append("</svg>")
    return "\n".join(out) + "\n"
