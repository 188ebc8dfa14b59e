"""Collapse detection, FLOPS accounting, and the fixed-bin L1 histogram."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from collapse_lab.errors import DomainError
from collapse_lab.sparsity import (
    COLLAPSE_THRESHOLD,
    collapsed_mask,
    filter_l1_histogram,
    histogram_csv_rows,
    report_from_chain,
    report_to_json,
)


def collapsed_channels(scales, threshold=COLLAPSE_THRESHOLD) -> list[int]:
    return np.flatnonzero(collapsed_mask(scales, threshold)).tolist()


def scales_for(sizes, collapsed: dict) -> dict:
    """Unit scales for the chain: 0 at the collapsed indices of each boundary, 1 elsewhere."""
    scales = {k: np.ones(out) for k, (_, out) in enumerate(sizes[:-1])}
    for k, idx in collapsed.items():
        scales[k][idx] = 0.0
    return scales


class TestCollapsedChannels:
    def test_threshold_cut(self):
        assert collapsed_channels(np.array([1.0, 0.5, 2e-4])) == [2]
        assert collapsed_channels(np.array([1.0, 1.0])) == []

    def test_magnitude_not_sign(self):
        assert collapsed_channels(np.array([-2e-4, -1.0, 5e-4])) == [0, 2]

    def test_boundary_is_strict(self):
        assert collapsed_channels(np.array([1e-3]), threshold=1e-3) == []
        assert collapsed_channels(np.array([0.999e-3]), threshold=1e-3) == [0]

    def test_threshold_validation(self):
        with pytest.raises(DomainError):
            collapsed_channels(np.ones(3), threshold=0.0)
        with pytest.raises(DomainError):
            collapsed_channels(np.ones(3), threshold=-1.0)

    @given(st.lists(st.floats(min_value=-10, max_value=10), min_size=1, max_size=30))
    def test_nested_in_threshold(self, scales):
        """Raising the threshold can only add channels: the collapsed sets
        are nested, so the count is nondecreasing in the threshold."""
        arr = np.array(scales)
        small = set(collapsed_channels(arr, threshold=1e-3))
        mid = set(collapsed_channels(arr, threshold=1e-1))
        big = set(collapsed_channels(arr, threshold=10.0))
        assert small <= mid <= big


class TestFlopsReduction:
    def test_explicit_three_layer_chain(self):
        """10 units collapsed at each hidden boundary of a 32-100-100-10
        chain, checked against a by-hand enumeration of the surviving
        multiply-adds."""
        sizes = [(32, 100), (100, 100), (100, 10)]
        report = report_from_chain(sizes, scales_for(sizes, {0: list(range(10)), 1: list(range(10))}))
        want_total = 2 * (32 * 100 + 100 * 100 + 100 * 10)
        want_after = 2 * (32 * 90 + 90 * 90 + 90 * 10)
        assert report.flops_total == want_total
        assert report.flops_after_prune == want_after
        assert report.flops_reduction == 1.0 - want_after / want_total
        assert report.per_layer == ((0, 100, 10), (1, 100, 10))
        assert report.sparsity_ratio == 20 / 200

    def test_no_collapse_is_identity(self):
        sizes = [(8, 16), (16, 4)]
        report = report_from_chain(sizes, scales_for(sizes, {}))
        assert report.flops_after_prune == report.flops_total
        assert report.flops_reduction == 0.0
        assert report.sparsity_ratio == 0.0

    def test_all_hidden_units_collapsed(self):
        sizes = [(8, 4), (4, 3)]
        report = report_from_chain(sizes, scales_for(sizes, {0: [0, 1, 2, 3]}))
        assert report.flops_after_prune == 0
        assert report.flops_reduction == 1.0
        assert report.sparsity_ratio == 1.0

    def test_both_sides_of_a_unit_are_saved(self):
        sizes = [(8, 4), (4, 3)]
        base = report_from_chain(sizes, scales_for(sizes, {}))
        one = report_from_chain(sizes, scales_for(sizes, {0: [1]}))
        assert base.flops_after_prune - one.flops_after_prune == 2 * 8 + 2 * 3

    def test_chain_mismatch(self):
        with pytest.raises(DomainError):
            report_from_chain([(8, 4), (5, 3)], {0: np.ones(4)})

    def test_empty_chain(self):
        with pytest.raises(DomainError):
            report_from_chain([], {})

    def test_single_layer_has_no_boundaries(self):
        report = report_from_chain([(8, 4)], {})
        assert report.per_layer == ()
        assert report.sparsity_ratio == 0.0
        assert report.flops_reduction == 0.0


class TestReportFromChain:
    def test_matches_manual_scan(self):
        sizes = [(6, 4), (4, 4), (4, 2)]
        scales = {0: np.array([1.0, 2e-4, 0.5, 0.9]), 1: np.array([5e-4, 1.0, 1.0, 8e-4])}
        report = report_from_chain(sizes, scales)
        assert report.per_layer == ((0, 4, 1), (1, 4, 2))
        assert report.sparsity_ratio == 3 / 8
        assert report.flops_total == 2 * (6 * 4 + 4 * 4 + 4 * 2)
        assert report.flops_after_prune == 2 * (6 * 3 + 3 * 2 + 2 * 2)

    def test_ratio_nondecreasing_in_threshold(self):
        sizes = [(6, 4), (4, 2)]
        scales = {0: np.array([1.0, 0.05, 2e-4, 0.3])}
        ratios = [
            report_from_chain(sizes, scales, threshold=t).sparsity_ratio
            for t in (1e-4, 1e-3, 1e-1, 1.0)
        ]
        assert ratios == sorted(ratios)
        assert ratios[0] == 0.0 and ratios[-1] == 0.75

    def test_threshold_recorded(self):
        report = report_from_chain([(4, 2), (2, 2)], {0: np.ones(2)}, threshold=0.05)
        assert report.threshold == 0.05


class TestHistogram:
    def test_all_zero_rows_land_in_underflow(self):
        hist = filter_l1_histogram(np.zeros((7, 3)))
        assert hist.counts[0] == 7
        assert sum(hist.counts) == 7
        assert hist.bin_lo[0] == 0.0 and hist.bin_hi[0] == 1e-9

    def test_total_count_is_row_count(self):
        w = np.random.default_rng(0).standard_normal((40, 5))
        assert sum(filter_l1_histogram(w).counts) == 40

    def test_doubling_shifts_one_bin(self):
        w = np.random.default_rng(1).uniform(0.1, 2.0, size=(30, 4))
        a = np.array(filter_l1_histogram(w).counts)
        b = np.array(filter_l1_histogram(2.0 * w).counts)
        # nothing near the overflow end, so the shift is a clean roll
        assert a[-2] == 0 and a[-1] == 0 and b[0] == 0
        assert np.array_equal(b[1:-1], a[:-2])

    def test_edges_are_powers_of_two(self):
        hist = filter_l1_histogram(np.ones((1, 1)))
        assert hist.bin_lo[1] == 1e-9
        assert hist.bin_hi[1] == 2e-9
        assert hist.bin_hi[-1] == float("inf")
        assert len(hist.counts) == 66
        for lo, hi in zip(hist.bin_lo[2:-1], hist.bin_hi[2:-1]):
            assert hi == 2 * lo

    def test_requires_2d(self):
        with pytest.raises(DomainError):
            filter_l1_histogram(np.ones(5))
        with pytest.raises(DomainError):
            filter_l1_histogram(np.ones((2, 2, 2)))

    def test_known_norm_lands_in_right_bin(self):
        # L1 = 1.5e-9 lies in [1e-9, 2e-9), the first power-of-two bin
        hist = filter_l1_histogram(np.array([[1.5e-9]]))
        assert hist.counts[1] == 1


class TestSerialization:
    REPORT = report_from_chain([(6, 4), (4, 2)], {0: np.array([1.0, 1.0, 1.0, 0.0])})

    def test_json_shape(self):
        data = report_to_json(self.REPORT)
        assert data["per_layer"] == [
            {"layer_id": 0, "total_channels": 4, "collapsed_channels": 1}
        ]
        assert data["sparsity_ratio"] == 0.25
        assert data["threshold"] == COLLAPSE_THRESHOLD
        assert set(data) == {
            "per_layer", "sparsity_ratio", "flops_total",
            "flops_after_prune", "flops_reduction", "threshold",
        }

    def test_histogram_csv(self):
        table = histogram_csv_rows(filter_l1_histogram(np.zeros((2, 2))))
        assert list(table) == ["bin_lo", "bin_hi", "count"]
        assert list(map(len, table.values())) == [66, 66, 66]
        assert [column[0] for column in table.values()] == [0.0, 1e-9, 2]
