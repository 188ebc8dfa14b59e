"""Collapse detection and sparsity/FLOPS accounting.

A channel counts as collapsed when its scale magnitude falls below a
threshold (default 1e-3): its activation is then effectively constant and
the unit can be removed. ``collapsed_mask`` is that rule's one copy: the
report, ``net.model.pruned_copy`` and the ``collapsed`` column of
``mc.decay_trajectory`` all call it.

Cost accounting works on a chain of dense layers, from the collapsed
count at each boundary: removing hidden unit j deletes the j-th output
column of the layer that produces it AND the j-th input row of the layer
that consumes it, so one collapsed unit saves FLOPS on both sides. Dense-layer cost is the usual
2 * in * out multiply-add count.

The L1 histogram uses fixed power-of-two bin edges anchored at 1e-9
(plus an underflow bin below 1e-9 and an overflow bin at the top), so the
binning is data-independent and scaling all weights by 2 shifts every
count up exactly one bin.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError

__all__ = [
    "COLLAPSE_THRESHOLD",
    "SparsityReport",
    "Histogram",
    "collapsed_mask",
    "report_from_chain",
    "filter_l1_histogram",
    "report_to_json",
    "histogram_csv_rows",
]

COLLAPSE_THRESHOLD = 1e-3

_HIST_BASE = 1e-9
_HIST_BINS = 64


@dataclass(frozen=True)
class SparsityReport:
    """Per-boundary collapse counts plus chain-level FLOPS accounting."""

    per_layer: tuple[tuple[int, int, int], ...]  # (layer_id, total_channels, collapsed_channels)
    sparsity_ratio: float
    flops_total: int
    flops_after_prune: int
    flops_reduction: float
    threshold: float


@dataclass(frozen=True)
class Histogram:
    bin_lo: tuple[float, ...]
    bin_hi: tuple[float, ...]
    counts: tuple[int, ...]


def collapsed_mask(scales, threshold: float = COLLAPSE_THRESHOLD) -> np.ndarray:
    """The collapse rule, its one copy: True where |scale| < threshold."""
    if not threshold > 0:
        raise DomainError(f"threshold must be > 0, got {threshold}")
    return np.abs(np.asarray(scales, dtype=np.float64)) < threshold


def report_from_chain(layer_sizes, unit_scales, threshold: float = COLLAPSE_THRESHOLD) -> SparsityReport:
    """Count the collapsed units at each boundary, then account the chain's FLOPS.

    ``layer_sizes`` is the chain [(in, out), ...]; boundary k is the hidden
    representation between layer k and layer k+1, and ``unit_scales[k]``
    holds its per-unit scales (BN gamma, or an analog for unnormalized
    stacks). A removed unit drops the output column of layer k and the
    input row of layer k+1.
    """
    sizes = [(int(i), int(o)) for i, o in layer_sizes]
    if not sizes:
        raise DomainError("layer_sizes must be nonempty")
    for k in range(len(sizes) - 1):
        if sizes[k][1] != sizes[k + 1][0]:
            raise DomainError(
                f"chain mismatch at boundary {k}: layer {k} emits {sizes[k][1]} "
                f"channels but layer {k + 1} expects {sizes[k + 1][0]}"
            )
    counts = [int(np.count_nonzero(collapsed_mask(unit_scales[k], threshold))) for k in range(len(sizes) - 1)]
    per_layer = tuple((k, sizes[k][1], c) for k, c in enumerate(counts))
    total_ch = sum(t for _, t, _ in per_layer)
    removed = [0, *counts, 0]  # removed[k]: units gone from the input of layer k; removed[k + 1]: from its output
    flops_total = sum(2 * i * o for i, o in sizes)
    flops_after = sum(2 * (i - removed[k]) * (o - removed[k + 1]) for k, (i, o) in enumerate(sizes))
    return SparsityReport(
        per_layer=per_layer,
        sparsity_ratio=(sum(counts) / total_ch) if total_ch else 0.0,
        flops_total=flops_total,
        flops_after_prune=flops_after,
        flops_reduction=1.0 - (flops_after / flops_total if flops_total else 0.0),
        threshold=threshold,
    )


def filter_l1_histogram(weights_per_unit) -> Histogram:
    """Histogram of per-unit L1 norms on the fixed power-of-two bins.

    ``weights_per_unit`` is a 2-D array whose rows are the weight vectors
    of individual units.
    """
    w = np.asarray(weights_per_unit, dtype=np.float64)
    if w.ndim != 2:
        raise DomainError(f"expected a 2-D (units, fan_in) array, got shape {w.shape}")
    norms = np.sum(np.abs(w), axis=1)
    edges = _HIST_BASE * np.power(2.0, np.arange(_HIST_BINS + 1))
    # bin 0: [0, base); bins 1..64: [base*2^(k-1), base*2^k); bin 65: overflow
    pos = np.searchsorted(edges, norms, side="right")
    counts = np.bincount(pos, minlength=_HIST_BINS + 2)
    lo = [0.0] + list(edges)
    hi = list(edges) + [float("inf")]
    return Histogram(bin_lo=tuple(lo), bin_hi=tuple(hi), counts=tuple(int(c) for c in counts))


def report_to_json(report: SparsityReport) -> dict:
    return {
        "per_layer": [
            {"layer_id": k, "total_channels": t, "collapsed_channels": c}
            for k, t, c in report.per_layer
        ],
        "sparsity_ratio": report.sparsity_ratio,
        "flops_total": report.flops_total,
        "flops_after_prune": report.flops_after_prune,
        "flops_reduction": report.flops_reduction,
        "threshold": report.threshold,
    }


def histogram_csv_rows(hist: Histogram) -> dict[str, tuple]:
    """The histogram as a table: {column name: column}."""
    return {"bin_lo": hist.bin_lo, "bin_hi": hist.bin_hi, "count": hist.counts}
