"""Collapse detection and sparsity/FLOPS accounting.

A channel counts as collapsed when its scale magnitude falls below a
threshold (default 1e-3): its activation is then effectively constant and
the unit can be removed. Cost accounting works on a chain of dense layers:
removing hidden unit j deletes the j-th output column of the layer that
produces it AND the j-th input row of the layer that consumes it, so one
collapsed unit saves FLOPS on both sides. Dense-layer cost is the usual
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
    "collapsed_channels",
    "flops_reduction",
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


def collapsed_channels(scales, threshold: float = COLLAPSE_THRESHOLD) -> list[int]:
    """Indices of channels whose |scale| is below the threshold."""
    if not threshold > 0:
        raise DomainError(f"threshold must be > 0, got {threshold}")
    scales = np.asarray(scales, dtype=np.float64)
    return [int(i) for i in np.nonzero(np.abs(scales) < threshold)[0]]


def flops_reduction(
    layer_sizes,
    collapsed,
    threshold: float = COLLAPSE_THRESHOLD,
) -> SparsityReport:
    """Chain accounting for a dense stack with some hidden units removed.

    ``layer_sizes`` is the chain [(in, out), ...]; boundary k is the hidden
    representation between layer k and layer k+1. ``collapsed`` maps a
    boundary index to the unit indices removed there. A removed unit drops
    the output column of layer k and the input row of layer k+1.
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
    n_boundaries = len(sizes) - 1
    clean: dict[int, list[int]] = {}
    for k, idx in collapsed.items():
        if not 0 <= int(k) < n_boundaries:
            raise DomainError(f"collapsed map names boundary {k}, chain has {n_boundaries}")
        width = sizes[int(k)][1]
        uniq = sorted(set(int(i) for i in idx))
        if uniq and (uniq[0] < 0 or uniq[-1] >= width):
            raise DomainError(f"collapsed indices at boundary {k} out of range [0, {width})")
        clean[int(k)] = uniq
    per_layer = tuple(
        (k, sizes[k][1], len(clean.get(k, []))) for k in range(n_boundaries)
    )
    total_ch = sum(t for _, t, _ in per_layer)
    total_col = sum(c for _, _, c in per_layer)
    flops_total = sum(2 * i * o for i, o in sizes)
    flops_after = 0
    for k, (i, o) in enumerate(sizes):
        i_eff = i - len(clean.get(k - 1, []))
        o_eff = o - len(clean.get(k, [])) if k < n_boundaries else o
        flops_after += 2 * i_eff * o_eff
    return SparsityReport(
        per_layer=per_layer,
        sparsity_ratio=(total_col / total_ch) if total_ch else 0.0,
        flops_total=flops_total,
        flops_after_prune=flops_after,
        flops_reduction=1.0 - (flops_after / flops_total if flops_total else 0.0),
        threshold=threshold,
    )


def report_from_chain(layer_sizes, unit_scales, threshold: float = COLLAPSE_THRESHOLD) -> SparsityReport:
    """Detect collapsed units from per-boundary scales, then account FLOPS.

    ``unit_scales`` maps boundary index to the array of per-unit scale
    magnitudes there (BN |gamma|, or an analog for unnormalized stacks).
    """
    collapsed = {k: collapsed_channels(v, threshold) for k, v in unit_scales.items()}
    return flops_reduction(layer_sizes, collapsed, threshold)


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
