"""Composite Gauss-Legendre quadrature on finite intervals.

A fixed-order panel rule keeps every integral deterministic: no adaptive
recursion, no tolerance-driven early exit. With the default 256 panels and
an order-4 rule per panel, any smooth integrand used in this package is
resolved far below 1e-12; doubling the panel count moves results by less
than 1e-9 (asserted in the test suite).
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError

__all__ = ["PANELS", "panel_nodes"]

PANELS = 256

_PANEL_ORDER = 4
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(_PANEL_ORDER)


def panel_nodes(lo: float, hi: float, panels: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the composite rule on [lo, hi]."""
    if not lo < hi:
        raise ConfigError(f"empty integration interval [{lo}, {hi}]")
    if panels < 1:
        raise ConfigError(f"panels must be positive, got {panels}")
    edges = np.linspace(lo, hi, panels + 1)
    half = 0.5 * (edges[1:] - edges[:-1])
    mid = 0.5 * (edges[1:] + edges[:-1])
    # shape (panels, order) flattened in panel-major order
    nodes = (mid[:, None] + half[:, None] * _GL_NODES[None, :]).ravel()
    weights = (half[:, None] * _GL_WEIGHTS[None, :]).ravel()
    return nodes, weights
