"""Layers with hand-written backward passes.

Tensors are plain float64 numpy arrays, row-major, batch on axis 0.
Every backward here is checked against central finite differences in the
test suite; none of the gradients are derived by any autodiff machinery.

The normalization layer carries an optional constant output shift alpha.
Plain BN is alpha = 0; the post-shifted variant adds alpha after the
affine stage. Because alpha is a constant rather than a parameter, the two
variants have identical gradients for identical inputs and parameters; the
shift changes only where the following ReLU starts to cut.

Activation derivative at exactly zero input uses the inactive branch
(mask is x > 0, strictly), matching the step-function convention of the
simulation code. ReLU is max(x, 0), so a NaN input stays NaN (and ends
in a divergence) rather than reading as inactive. Parameter and gradient
arrays may be views into a model's flat store: they are written in place.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..errors import ConfigError, DomainError, UsageError

__all__ = [
    "BnLayerState",
    "bn_forward",
    "bn_backward",
    "Dense",
    "BatchNorm",
    "ReLU",
    "LeakyReLU",
    "softmax_cross_entropy",
    "accuracy",
]


@dataclass
class BnLayerState:
    """Per-channel normalization state: affine parameters and running stats."""

    gamma: np.ndarray
    beta: np.ndarray
    running_mean: np.ndarray
    running_var: np.ndarray
    eps: float = 1e-5
    momentum: float = 0.1
    alpha: float = 0.0

    def __post_init__(self):
        n = self.gamma.shape[0]
        for name in ("beta", "running_mean", "running_var"):
            if getattr(self, name).shape != (n,):
                raise ConfigError(f"{name} must have shape ({n},)")
        if np.any(self.running_var < 0):
            raise ConfigError("running_var must be nonnegative")
        if self.alpha < 0:
            raise ConfigError(f"alpha must be >= 0, got {self.alpha}")


def bn_forward(x: np.ndarray, state: BnLayerState, mode: str, cache: dict | None = None) -> np.ndarray:
    """Normalize, apply the affine stage, add the constant shift.

    Train mode normalizes with batch statistics (biased variance, the
    convention used consistently for running stats too) and updates the
    running estimates in place with the state's momentum. Eval mode uses
    the running estimates and touches nothing. Pass a dict as ``cache`` in
    train mode to capture what bn_backward needs.
    """
    if mode not in ("train", "eval"):
        raise ConfigError(f"mode must be 'train' or 'eval', got {mode!r}")
    if x.ndim != 2 or x.shape[1] != state.gamma.shape[0]:
        raise DomainError(f"expected (batch, {state.gamma.shape[0]}) input, got {x.shape}")
    if mode == "train":
        n = x.shape[0]
        if n < 2:
            raise DomainError(f"train-mode batch must be >= 2, got {n}")
        # the arithmetic of x.mean(axis=0) and x.var(axis=0), one pass each
        mean = x.sum(axis=0) / n
        x_hat = x - mean
        var = (x_hat * x_hat).sum(axis=0) / n
        inv_std = 1.0 / np.sqrt(var + state.eps)
        x_hat *= inv_std
        m = state.momentum
        state.running_mean *= 1.0 - m
        state.running_mean += m * mean
        state.running_var *= 1.0 - m
        state.running_var += m * var
        if cache is not None:
            cache["x_hat"] = x_hat
            cache["inv_std"] = inv_std
            cache["gamma"] = state.gamma
    else:
        x_hat = x - state.running_mean
        x_hat *= 1.0 / np.sqrt(state.running_var + state.eps)
    return state.gamma * x_hat + state.beta + state.alpha


def bn_backward(grad_out: np.ndarray, cache: dict, grad_gamma=None, grad_beta=None):
    """Gradients through the train-mode forward.

    Returns (grad_in, grad_gamma, grad_beta), writing the last two into
    the given arrays if any. The constant shift alpha has no gradient by
    construction. The input gradient accounts for the batch-statistic
    dependence of the normalization.
    """
    if not cache or "x_hat" not in cache:
        raise UsageError("bn_backward needs the cache filled by a train-mode bn_forward")
    x_hat = cache["x_hat"]
    inv_std = cache["inv_std"]
    gamma = cache["gamma"]
    n = x_hat.shape[0]
    tmp = grad_out * x_hat
    grad_gamma = np.sum(tmp, axis=0, out=grad_gamma)
    grad_beta = np.sum(grad_out, axis=0, out=grad_beta)
    # grad_in = (inv_std/n) * (n*g - sum(g) - x_hat*sum(g*x_hat)), in place
    g = grad_out * gamma
    sum_g = g.sum(axis=0)
    sum_gx = np.multiply(g, x_hat, out=tmp).sum(axis=0)
    grad_in = g
    grad_in *= n
    grad_in -= sum_g
    grad_in -= np.multiply(x_hat, sum_gx, out=tmp)
    grad_in *= inv_std / n
    return grad_in, grad_gamma, grad_beta


class Dense:
    """Affine map with fan-in scaled Gaussian weight init and zero bias."""

    def __init__(self, in_dim: int, out_dim: int, rng: np.random.Generator):
        self.w = rng.standard_normal((in_dim, out_dim)) / np.sqrt(in_dim)
        self.b = np.zeros(out_dim)
        self.gw = np.zeros_like(self.w)
        self.gb = np.zeros_like(self.b)
        self._x = None

    def forward(self, x: np.ndarray, mode: str) -> np.ndarray:
        if mode == "train":
            self._x = x
        out = x @ self.w
        out += self.b
        return out

    def backward(self, grad_out: np.ndarray, input_grad: bool = True) -> np.ndarray | None:
        if self._x is None:
            raise UsageError("backward before train-mode forward")
        np.matmul(self._x.T, grad_out, out=self.gw)
        np.sum(grad_out, axis=0, out=self.gb)
        return grad_out @ self.w.T if input_grad else None


class BatchNorm:
    """Stateful wrapper around bn_forward/bn_backward with per-channel params."""

    def __init__(self, channels: int, gamma_init: float = 1.0, alpha: float = 0.0):
        self.state = BnLayerState(
            gamma=np.full(channels, float(gamma_init)),
            beta=np.zeros(channels),
            running_mean=np.zeros(channels),
            running_var=np.ones(channels),
            alpha=float(alpha),
        )
        self.ggamma = np.zeros(channels)
        self.gbeta = np.zeros(channels)
        self._cache: dict | None = None

    def forward(self, x: np.ndarray, mode: str) -> np.ndarray:
        if mode == "train":
            self._cache = {}
            return bn_forward(x, self.state, mode, self._cache)
        return bn_forward(x, self.state, mode)

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if not self._cache:
            raise UsageError("backward before train-mode forward")
        return bn_backward(grad_out, self._cache, self.ggamma, self.gbeta)[0]


@dataclass
class ReLU:
    _mask: np.ndarray | None = field(default=None, repr=False)

    def forward(self, x: np.ndarray, mode: str) -> np.ndarray:
        if mode == "train":
            self._mask = x > 0
        return np.maximum(x, 0.0)

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._mask is None:
            raise UsageError("backward before train-mode forward")
        return grad_out * self._mask


@dataclass
class LeakyReLU:
    slope: float = 0.01
    _mask: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self):
        if not 0 <= self.slope <= 1:  # forward is max(x, slope*x)
            raise ConfigError(f"slope must lie in [0, 1], got {self.slope}")

    def forward(self, x: np.ndarray, mode: str) -> np.ndarray:
        if mode == "train":
            self._mask = x > 0
        return np.maximum(x, self.slope * x)

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._mask is None:
            raise UsageError("backward before train-mode forward")
        return np.where(self._mask, grad_out, self.slope * grad_out)


def softmax_cross_entropy(logits: np.ndarray, labels: np.ndarray):
    """Mean cross-entropy and its logit gradient, computed stably.

    Returns (loss, grad_logits, probs). Labels are integer class indices.
    """
    if logits.ndim != 2 or labels.shape != (logits.shape[0],):
        raise DomainError(f"shape mismatch: logits {logits.shape}, labels {labels.shape}")
    shifted = logits - logits.max(axis=1, keepdims=True)
    probs = np.exp(shifted)
    total = probs.sum(axis=1, keepdims=True)
    probs /= total
    n = logits.shape[0]
    idx = np.arange(n)
    loss = float(-np.mean(shifted[idx, labels] - np.log(total[:, 0])))
    grad = probs.copy()
    grad[idx, labels] -= 1.0
    grad /= n
    return loss, grad, probs


def accuracy(logits: np.ndarray, labels: np.ndarray) -> float:
    return float(np.mean(np.argmax(logits, axis=1) == labels))
