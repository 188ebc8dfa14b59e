"""Shared test utilities: finite-difference oracles, the reference
quadrature and densities, the partial moments of the drift derivation, and
runners for fresh interpreters and the CLI."""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

from collapse_lab.analytic import _ndtr
from collapse_lab.dists import Uniform
from collapse_lab.errors import DomainError
from collapse_lab.quadrature import PANELS, panel_nodes

FD_STEP = 1e-3

# integrands over the whole real line are truncated to [-8, 8]: phi(x)^2 is below 1e-14 beyond |x| = 8
TRUNCATION_RADIUS = 8.0

SRC_DIR = Path(__file__).resolve().parents[1] / "src"


def fd_grad(loss_fn, arr: np.ndarray, step: float = FD_STEP) -> np.ndarray:
    """Central-difference gradient of loss_fn() w.r.t. arr, entry by entry.

    loss_fn takes no arguments and must read arr by reference; the array is
    perturbed in place and restored exactly after each probe.
    """
    out = np.zeros_like(arr)
    flat, grad = arr.ravel(), out.ravel()
    for i in range(flat.size):
        keep = flat[i]
        flat[i] = keep + step
        hi = loss_fn()
        flat[i] = keep - step
        lo = loss_fn()
        flat[i] = keep
        grad[i] = (hi - lo) / (2.0 * step)
    return out


def rel_err(analytic: np.ndarray, numeric: np.ndarray) -> float:
    """Largest deviation, normalized by the larger of the two sup-norms.

    The tensor-level norm keeps the measure meaningful where individual
    entries cancel to near zero; a pair of all-zero tensors scores 0.
    """
    scale = max(np.abs(analytic).max(), np.abs(numeric).max(), 1e-12)
    return float(np.abs(analytic - numeric).max() / scale)


def integrate(fn, lo: float, hi: float, panels: int = PANELS) -> float:
    """The tests' reference quadrature: a vectorized function over [lo, hi] with the package's panel rule."""
    nodes, weights = panel_nodes(lo, hi, panels)
    return float(np.dot(fn(nodes), weights))


def phi(x):
    """phi(x) = exp(-x^2/2) / sqrt(2 pi), elementwise."""
    return np.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi)


def density(dist, z):
    """The pdf of a uniform or normal law at the points z."""
    z = np.asarray(z, dtype=np.float64)
    if isinstance(dist, Uniform):
        return np.where((z >= dist.lo) & (z <= dist.hi), 1.0 / (dist.hi - dist.lo), 0.0)
    return phi((z - dist.loc) / dist.scale) / dist.scale


def g_closed(y):
    """int_{-inf}^{y} x phi(x) dx, which collapses to -phi(y)."""
    return -phi(y)


def h_tail_closed(y):
    """int_{-y}^{inf} x^2 phi(x) dx = -y phi(y) + Phi(y)."""
    return -y * phi(y) + _ndtr(y)


def partial_moment_numeric(power: int, y: float) -> float:
    """Quadrature of x^power phi(x) over [-TRUNCATION_RADIUS, y].

    The independent numerical route against which the closed forms above
    are checked; it never calls g_closed or h_tail_closed.
    """
    if power not in (1, 2):
        raise DomainError(f"power must be 1 or 2, got {power}")
    if not math.isfinite(y):
        raise DomainError("y must be finite")
    if y <= -TRUNCATION_RADIUS:
        return 0.0
    return integrate(lambda x: x**power * phi(x), -TRUNCATION_RADIUS, y)


def run_python(args, cwd, env=None):
    """Run a fresh interpreter with ``args`` as a subprocess, so exit codes and files are real.

    The child gets the absolute src/ directory first on its PYTHONPATH
    (existing entries are kept after it), so a relative entry that only
    resolves from the repo root cannot hide the package once cwd moves.
    An inherited COLLAPSE_LAB_THREADS is dropped: the thread cap comes
    only from ``env``, so "no cap" runs are uncapped whatever the shell
    exports.
    """
    full_env = dict(os.environ)
    full_env.pop("COLLAPSE_LAB_THREADS", None)
    full_env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC_DIR), full_env.get("PYTHONPATH")])
    )
    if env:
        full_env.update(env)
    return subprocess.run(
        [sys.executable, *args],
        cwd=cwd,
        env=full_env,
        capture_output=True,
        text=True,
        timeout=600,
    )


def run_cli(args, cwd, env=None):
    """Invoke the CLI in a fresh interpreter (see ``run_python``)."""
    return run_python(["-m", "collapse_lab.cli", *map(str, args)], cwd, env)


def tree_bytes(root):
    """Map of file name -> raw bytes for every file directly under root."""
    out = {}
    for name in sorted(os.listdir(root)):
        with open(os.path.join(root, name), "rb") as fh:
            out[name] = fh.read()
    return out
