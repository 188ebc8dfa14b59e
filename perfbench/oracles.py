"""Independent recomputations that the benchmark checks the program against.

Nothing here imports collapse_lab. The drift kernel is built from
``math.erfc`` (not the program's ``ndtr``), expectations over the bias and
scale distributions come from ``scipy.integrate.quad`` (not the program's
Gauss-Legendre panels), decay traces are replayed as scalar recurrences,
and trained models are read from the checkpoint JSON and run through a
forward pass written here in plain NumPy.
"""

from __future__ import annotations

import json
import math

import numpy as np
from scipy import integrate

_SQRT2 = math.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)

# Constants of the trainer that checkpoints do not store: BatchNorm's
# variance epsilon and the leaky activation's negative slope.
BN_EPS = 1e-5
LEAKY_SLOPE = 0.01


def k_oracle(x: float) -> float:
    """K(x) = (x^4 - 2) phi(x)^2 + (x - x^3) phi(x) Phi(x), Phi via erfc."""
    p = math.exp(-0.5 * x * x) * _INV_SQRT_2PI
    cdf = 0.5 * math.erfc(-x / _SQRT2)
    return (x**4 - 2.0) * p * p + (x - x**3) * p * cdf


def parse_dist(text: str) -> tuple:
    """``kind:a:b`` -> (kind, a, b) for uniform/normal, (point, v) for a point mass."""
    kind, *params = text.split(":")
    values = tuple(float(p) for p in params)
    if (kind, len(values)) not in (("uniform", 2), ("normal", 2), ("point", 1)):
        raise ValueError(f"not a distribution: {text!r}")
    return (kind, *values)


def _density_and_range(dist: tuple):
    kind, a, b = dist
    if kind == "uniform":
        return (lambda z: 1.0 / (b - a)), a, b
    # 12 sd truncation: the omitted normal mass is below 1e-32
    return (lambda z: math.exp(-0.5 * ((z - a) / b) ** 2) / (b * math.sqrt(2.0 * math.pi))), a - 12 * b, a + 12 * b


def _quad(fn, lo: float, hi: float) -> float:
    value, _err = integrate.quad(fn, lo, hi, epsabs=1e-15, epsrel=1e-12, limit=400)
    return value


def j_oracle(gamma: float, beta: tuple) -> float:
    """J(gamma) = E_beta[K(beta / gamma)]."""
    if beta[0] == "point":
        return k_oracle(beta[1] / gamma)
    dens, lo, hi = _density_and_range(beta)
    return _quad(lambda b: k_oracle(b / gamma) * dens(b), lo, hi)


def drift_factor_oracle(gamma: tuple, beta: tuple) -> float:
    """E_gamma[gamma^-2 J(gamma)]; the one-step drift is 0.5 eta^2 c^2 times this."""
    if gamma[0] == "point":
        return j_oracle(gamma[1], beta) / gamma[1] ** 2
    if gamma[0] != "uniform":
        raise ValueError("the drift needs a gamma distribution with bounded positive support")
    dens, lo, hi = _density_and_range(gamma)
    return _quad(lambda g: dens(g) * j_oracle(g, beta) / (g * g), lo, hi)


def decay_reactivation(beta0: float, alpha: float, lr: float, wd: float, steps: int):
    """First step at which beta * (1 - lr*wd)^t + alpha >= 0, or None within ``steps``.

    The sign of the margin (beta + alpha) / |gamma| is the sign of
    beta + alpha, so gamma drops out of the reactivation step.
    """
    shrink = 1.0 - lr * wd
    beta = beta0
    for t in range(1, steps + 1):
        beta *= shrink
        if beta + alpha >= 0:
            return t
    return None


def margin_recurrence_error(rows, alpha: float, lr: float, wd: float) -> float:
    """Largest |C[t+1] - C[t] - (eta*lambda/(1-eta*lambda)) alpha/|gamma[t]||.

    ``rows`` are (step, gamma, c_margin) triples of consecutive steps.
    """
    k = lr * wd / (1.0 - lr * wd)
    worst = 0.0
    for (t0, g0, c0), (t1, _g1, c1) in zip(rows, rows[1:]):
        if t1 != t0 + 1:
            return math.inf
        worst = max(worst, abs(c1 - c0 - k * alpha / abs(g0)))
    return worst


def load_checkpoint_arrays(path):
    """(arch, [(block_index, {name: array})]) from a checkpoint JSON, blocks in order."""
    with open(path) as fh:
        payload = json.load(fh)
    blocks: dict[int, dict] = {}
    for key, entry in payload["params"].items():
        block, name = key.split(".", 1)
        blocks.setdefault(int(block[1:]), {})[name] = np.asarray(entry["data"], dtype=np.float64).reshape(
            entry["shape"]
        )
    return payload["arch"], sorted(blocks.items()), payload.get("extra", {})


def unit_scales(arch: dict, blocks) -> list[np.ndarray]:
    """Per hidden boundary: BN |gamma|, or incoming-weight L1 for an unnormalized stack."""
    if arch["norm"] == "none":
        return [np.sum(np.abs(p["w"]), axis=0) for _, p in blocks if "w" in p][:-1]
    return [np.abs(p["gamma"]) for _, p in blocks if "gamma" in p]


def collapse_accounting(arch: dict, blocks, threshold: float) -> dict:
    """Collapsed units per boundary and the dense-chain FLOPs (2 in out) before and after pruning."""
    collapsed = [int(np.count_nonzero(s < threshold)) for s in unit_scales(arch, blocks)]
    sizes = [p["w"].shape for _, p in blocks if "w" in p]
    total = sum(2 * i * o for i, o in sizes)
    after = 0
    for k, (i, o) in enumerate(sizes):
        i_eff = i - (collapsed[k - 1] if k > 0 else 0)
        o_eff = o - (collapsed[k] if k < len(collapsed) else 0)
        after += 2 * i_eff * o_eff
    widths = [o for _, o in sizes[:-1]]
    return {"collapsed": collapsed, "widths": widths, "flops_total": total, "flops_after_prune": after}


def eval_logits(arch: dict, blocks, x: np.ndarray, threshold: float | None = None) -> np.ndarray:
    """Eval-mode forward pass: dense -> [BN with running stats + alpha] -> activation, then dense.

    With ``threshold``, the units whose scale is below it are pruned: their
    BN scale and bias and their outgoing weights are zeroed.
    """
    alpha = float(arch.get("alpha", 0.0))
    dead = [s < threshold for s in unit_scales(arch, blocks)] if threshold is not None else None
    n_dense = sum(1 for _, p in blocks if "w" in p)
    dense_seen = 0
    for i, (_, p) in enumerate(blocks):
        if "w" in p:
            w = p["w"]
            if dead is not None and dense_seen > 0:
                w = w.copy()
                w[dead[dense_seen - 1], :] = 0.0
            x = x @ w + p["b"]
            dense_seen += 1
            if dense_seen == n_dense or (i + 1 < len(blocks) and "gamma" in blocks[i + 1][1]):
                continue  # the classifier, or a BN layer comes before the activation
        else:
            gamma, beta = p["gamma"], p["beta"]
            if dead is not None:
                gamma = np.where(dead[dense_seen - 1], 0.0, gamma)
                beta = np.where(dead[dense_seen - 1], 0.0, beta)
            inv_std = 1.0 / np.sqrt(p["running_var"] + BN_EPS)
            x = gamma * ((x - p["running_mean"]) * inv_std) + beta + alpha
        x = np.where(x > 0, x, 0.0) if arch["activation"] == "relu" else np.where(x > 0, x, LEAKY_SLOPE * x)
    return x


def accuracy(logits: np.ndarray, labels: np.ndarray) -> float:
    return float(np.mean(np.argmax(logits, axis=1) == labels))
