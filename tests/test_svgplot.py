"""SVG emitter: determinism, validation, structural content."""

import pytest

from collapse_lab.errors import DomainError
from collapse_lab.svgplot import Series, _linear_ticks, line_plot


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

    def test_custom_size(self):
        svg = line_plot(demo_series(), width=300, height=200)
        assert 'viewBox="0 0 300 200"' in svg


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
