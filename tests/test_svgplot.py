"""SVG emitter: determinism, validation, structural content, and the
whole-axis coordinates against the per-point plotter they replaced."""

import math
import re
from html import escape

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from collapse_lab.errors import DomainError
from collapse_lab.svgplot import (
    _MARGIN_B,
    _MARGIN_L,
    _MARGIN_R,
    _MARGIN_T,
    Series,
    _label,
    _linear_ticks,
    _log_ticks,
    line_plot,
)


def demo_series():
    return [
        Series("alpha", (0.0, 1.0, 2.0), (1.0, 4.0, 2.0)),
        Series("beta", (0.0, 1.0, 2.0), (2.0, 1.0, 3.0), marker=True),
    ]


class TestSeries:
    def test_length_mismatch(self):
        with pytest.raises(DomainError):
            Series("s", (1.0, 2.0), (1.0,))

    def test_empty(self):
        with pytest.raises(DomainError):
            Series("s", (), ())


class TestLinePlot:
    def test_byte_identical(self):
        a = line_plot(demo_series(), title="t", xlabel="x", ylabel="y")
        b = line_plot(demo_series(), title="t", xlabel="x", ylabel="y")
        assert a == b

    def test_structure(self):
        svg = line_plot(demo_series(), title="drift", xlabel="step", ylabel="value")
        assert svg.startswith("<svg ")
        assert svg.endswith("</svg>\n")
        assert 'width="640"' in svg and 'height="420"' in svg
        assert "drift" in svg and "step" in svg and "value" in svg
        assert svg.count("<polyline") == 2
        assert "<circle" in svg  # marker series gets point markers

    def test_names_are_escaped(self):
        svg = line_plot([Series("a<b>&c", (0.0, 1.0), (0.0, 1.0))])
        assert "a&lt;b&gt;&amp;c" in svg
        assert "a<b>" not in svg

    def test_single_point_gets_marker(self):
        svg = line_plot([Series("p", (1.0,), (2.0,))])
        assert "<circle" in svg
        assert "<polyline" not in svg

    def test_log_axis_rejects_nonpositive(self):
        with pytest.raises(DomainError):
            line_plot([Series("s", (1.0, 2.0), (0.0, 1.0))], ylog=True)
        with pytest.raises(DomainError):
            line_plot([Series("s", (-1.0, 2.0), (1.0, 2.0))], xlog=True)
        # positive data is fine on both log axes
        svg = line_plot([Series("s", (0.1, 10.0), (0.5, 50.0))], xlog=True, ylog=True)
        assert "<polyline" in svg

    def test_rejects_non_finite(self):
        with pytest.raises(DomainError):
            line_plot([Series("s", (0.0, 1.0), (0.0, float("nan")))])
        with pytest.raises(DomainError):
            line_plot([Series("s", (0.0, float("inf")), (0.0, 1.0))])

    def test_needs_a_series(self):
        with pytest.raises(DomainError):
            line_plot([])

    def test_constant_series_pads_range(self):
        svg = line_plot([Series("flat", (0.0, 1.0), (2.0, 2.0))])
        assert "<polyline" in svg

    def test_no_timestamps_or_ids(self):
        svg = line_plot(demo_series())
        assert "id=" not in svg
        assert "date" not in svg.lower()


class TestLinearTicks:
    def test_ordinary_axes_keep_their_ticks(self):
        assert _linear_ticks(-0.05, 1.05) == [0.0, 0.5, 1.0]
        assert _linear_ticks(0.1, 0.35) == [0.1, 0.15000000000000002, 0.2, 0.25, 0.3, 0.35]

    # the subnormal spans underflow span / 5, or its power of ten, to 0
    @pytest.mark.parametrize(
        "lo, hi", [(1.0, 1.0000000000000002), (1.0, 1.0000000000000004), (0.0, 1e-323), (0.0, 1.5e-323)]
    )
    def test_axis_a_few_ulps_wide_marks_its_ends(self, lo, hi):
        assert _linear_ticks(lo, hi) == [lo, hi]

    def test_plot_of_an_ulp_wide_series(self):
        svg = line_plot([Series("s", (0.0, 1.0), (1.0, 1.0000000000000002))])
        assert "<polyline" in svg


# The plotter as it was before it placed whole axes with NumPy: the scalar
# sx/sy closures, called once per point and per tick, kept as the reference.


PALETTE_PER_POINT = ("#1f6feb", "#d1242f", "#1a7f37", "#9a6700", "#8250df", "#bf3989")


def _fmt_per_point(v: float) -> str:
    return f"{v:.2f}"


def _axis_range_per_point(values, log: bool, axis: str):
    lo, hi = min(values), max(values)
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



def _line_plot_per_point(
    series,
    title: str = "",
    xlabel: str = "",
    ylabel: str = "",
    width: int = 640,
    height: int = 420,
    xlog: bool = False,
    ylog: bool = False,
) -> str:
    if not series:
        raise DomainError("need at least one series")
    xs_all = [x for s in series for x in s.xs]
    ys_all = [y for s in series for y in s.ys]
    if not all(math.isfinite(v) for v in xs_all + ys_all):
        raise DomainError("series values must be finite")
    x_lo, x_hi = _axis_range_per_point(xs_all, xlog, "x")
    y_lo, y_hi = _axis_range_per_point(ys_all, ylog, "y")
    plot_w = width - _MARGIN_L - _MARGIN_R
    plot_h = height - _MARGIN_T - _MARGIN_B

    def sx(v: float) -> float:
        if xlog:
            f = (math.log10(v) - math.log10(x_lo)) / (math.log10(x_hi) - math.log10(x_lo))
        else:
            f = (v - x_lo) / (x_hi - x_lo)
        return _MARGIN_L + f * plot_w

    def sy(v: float) -> float:
        if ylog:
            f = (math.log10(v) - math.log10(y_lo)) / (math.log10(y_hi) - math.log10(y_lo))
        else:
            f = (v - y_lo) / (y_hi - y_lo)
        return _MARGIN_T + (1.0 - f) * plot_h

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}" font-family="sans-serif" font-size="11">',
        f'<rect width="{width}" height="{height}" fill="#ffffff"/>',
    ]
    if title:
        out.append(
            f'<text x="{width / 2:.0f}" y="18" text-anchor="middle" font-size="13">{escape(title, quote=False)}</text>'
        )
    x_ticks = _log_ticks(x_lo, x_hi) if xlog else _linear_ticks(x_lo, x_hi)
    y_ticks = _log_ticks(y_lo, y_hi) if ylog else _linear_ticks(y_lo, y_hi)
    for t in x_ticks:
        px = sx(t)
        out.append(
            f'<line x1="{_fmt_per_point(px)}" y1="{_MARGIN_T}" x2="{_fmt_per_point(px)}" y2="{_MARGIN_T + plot_h}" '
            f'stroke="#dddddd" stroke-width="1"/>'
        )
        out.append(
            f'<text x="{_fmt_per_point(px)}" y="{_MARGIN_T + plot_h + 16}" text-anchor="middle">'
            f"{escape(_label(t), quote=False)}</text>"
        )
    for t in y_ticks:
        py = sy(t)
        out.append(
            f'<line x1="{_MARGIN_L}" y1="{_fmt_per_point(py)}" x2="{_MARGIN_L + plot_w}" y2="{_fmt_per_point(py)}" '
            f'stroke="#dddddd" stroke-width="1"/>'
        )
        out.append(
            f'<text x="{_MARGIN_L - 6}" y="{_fmt_per_point(py + 4)}" text-anchor="end">'
            f"{escape(_label(t), quote=False)}</text>"
        )
    out.append(
        f'<rect x="{_MARGIN_L}" y="{_MARGIN_T}" width="{plot_w}" height="{plot_h}" '
        f'fill="none" stroke="#333333" stroke-width="1"/>'
    )
    if xlabel:
        out.append(
            f'<text x="{_MARGIN_L + plot_w / 2:.0f}" y="{height - 8}" text-anchor="middle">'
            f"{escape(xlabel, quote=False)}</text>"
        )
    if ylabel:
        cy = _MARGIN_T + plot_h / 2
        out.append(
            f'<text x="14" y="{cy:.0f}" text-anchor="middle" transform="rotate(-90 14 {cy:.0f})">'
            f"{escape(ylabel, quote=False)}</text>"
        )
    for i, s in enumerate(series):
        color = PALETTE_PER_POINT[i % len(PALETTE_PER_POINT)]
        pts = " ".join(f"{_fmt_per_point(sx(x))},{_fmt_per_point(sy(y))}" for x, y in zip(s.xs, s.ys))
        if len(s.xs) > 1:
            out.append(f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="1.5"/>')
        if s.marker or len(s.xs) == 1:
            for x, y in zip(s.xs, s.ys):
                out.append(
                    f'<circle cx="{_fmt_per_point(sx(x))}" cy="{_fmt_per_point(sy(y))}" r="2.5" fill="{color}"/>'
                )
    if len(series) > 1 or series[0].name:
        ly = _MARGIN_T + 10
        for i, s in enumerate(series):
            color = PALETTE_PER_POINT[i % len(PALETTE_PER_POINT)]
            y = ly + i * 15
            x0 = _MARGIN_L + plot_w - 130
            out.append(
                f'<line x1="{x0}" y1="{y}" x2="{x0 + 18}" y2="{y}" stroke="{color}" stroke-width="2"/>'
            )
            out.append(f'<text x="{x0 + 23}" y="{y + 4}">{escape(s.name, quote=False)}</text>')
    out.append("</svg>")
    return "\n".join(out) + "\n"


LINEAR = st.floats(-1e6, 1e6, allow_subnormal=True)
POSITIVE = st.floats(1e-300, 1e300)


def _series(values):
    """A series of 1 to 25 points, with or without markers."""
    points = st.lists(st.tuples(values, values), min_size=1, max_size=25)
    return st.builds(lambda pts, marker: Series("s", *map(tuple, zip(*pts)), marker=marker), points, st.booleans())


def _plots_agree(series, **kw):
    assert line_plot(series, **kw) == _line_plot_per_point(series, **kw)


class TestWholeAxisCoordinates:
    @settings(deadline=None)
    @given(st.lists(_series(LINEAR), min_size=1, max_size=3))
    @example([Series("one", (0.25,), (-3.0,))])
    @example([Series("steps", (0, 3, 6, 9), (-1.5, -1.25, -1.0, -0.5), marker=True)])  # int steps, as decay's
    def test_linear_axes(self, series):
        _plots_agree(series, title="t", xlabel="x", ylabel="y")

    @settings(deadline=None)
    @given(st.lists(_series(POSITIVE), min_size=1, max_size=3), st.booleans(), st.booleans())
    @example([Series("one", (3.0,), (7.0,))], True, True)
    @example([Series("s", (1.0000000000000002e-300, 1e-300), (1.0, 1.0))], True, False)  # one log10 for both ends
    def test_log_axes(self, series, xlog, ylog):
        _plots_agree(series, xlog=xlog, ylog=ylog)

    # the few-ulp and subnormal spans of TestLinearTicks, on either axis
    @pytest.mark.parametrize(
        "lo, hi", [(1.0, 1.0000000000000002), (1.0, 1.0000000000000004), (0.0, 1e-323), (0.0, 1.5e-323)]
    )
    def test_spans_a_few_ulps_wide(self, lo, hi):
        _plots_agree([Series("y", (0.0, 0.5, 1.0), (lo, hi, lo), marker=True)])
        _plots_agree([Series("x", (lo, hi), (2.0, 3.0))])

    def test_markers_reuse_the_points(self):
        svg = line_plot([Series("m", (0.0, 1.0, 2.0), (1.0, 4.0, 2.0), marker=True)])
        points = re.search(r'points="([^"]*)"', svg).group(1).split()
        circles = [f"{cx},{cy}" for cx, cy in re.findall(r'<circle cx="([^"]*)" cy="([^"]*)"', svg)]
        assert circles == points
