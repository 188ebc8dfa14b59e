"""Layers with hand-written backward passes.

Tensors are plain float64 numpy arrays, row-major, batch on axis 0.
Every backward here is checked against central finite differences in the
test suite; none of the gradients are derived by any autodiff machinery.

The normalization layer carries an optional constant output shift alpha.
Plain BN is alpha = 0; the post-shifted variant adds alpha after the
affine stage. Because alpha is a constant rather than a parameter, the two
variants have identical gradients for identical inputs and parameters; the
shift changes only where the following ReLU starts to cut.

BatchNorm's backward takes the closed form (Ioffe & Szegedy, 2015)

    grad_in = gamma * inv_std * (g - sum(g)/n - x_hat * sum(g * x_hat)/n),

whose two column sums are the beta and gamma gradients it computes
anyway. Every sum is an ``np.add.reduce`` or an ``einsum`` sum of
products, never a BLAS call (no ``ones @ x``), so no result depends on
the BLAS thread count. A layer never writes into an array its caller
passed in, neither the forward input nor the backward ``grad_out``: the
caller may use either again.

Activation derivative at exactly zero input uses the inactive branch
(mask is x > 0, strictly), matching the step-function convention of the
simulation code. ReLU is max(x, 0), so a NaN input stays NaN (and ends
in a divergence) rather than reading as inactive.

Each layer is one object that owns its arrays: parameters, gradients,
BN's running statistics, and what backward needs from the last
train-mode forward. Its class names them: ``params`` the trained ones,
each with the gradient ``"g" + name``, and ``arrays`` all a checkpoint
saves (activations name none). There is no functional API beside the
layers. Parameter and gradient arrays may be views into a model's flat
store: they are written in place.
"""

from __future__ import annotations

import numpy as np

from ..errors import ConfigError, DomainError, UsageError

__all__ = [
    "Dense",
    "BatchNorm",
    "ReLU",
    "LeakyReLU",
    "softmax_cross_entropy",
    "accuracy",
]


class Dense:
    """Affine map with fan-in scaled Gaussian weight init and zero bias."""

    params = arrays = ("w", "b")

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
        np.add.reduce(grad_out, axis=0, out=self.gb)
        return grad_out @ self.w.T if input_grad else None


class BatchNorm:
    """Per-channel normalization with scale gamma, shift beta, running
    statistics, and the constant output shift alpha (0 for plain BN)."""

    params = ("gamma", "beta")
    arrays = params + ("running_mean", "running_var")
    eps = 1e-5
    momentum = 0.1

    def __init__(self, channels: int, gamma_init: float = 1.0, alpha: float = 0.0):
        if alpha < 0:
            raise ConfigError(f"alpha must be >= 0, got {alpha}")
        self.gamma = np.full(channels, float(gamma_init))
        self.beta = np.zeros(channels)
        self.running_mean = np.zeros(channels)
        self.running_var = np.ones(channels)
        self.alpha = float(alpha)
        self.ggamma = np.zeros(channels)
        self.gbeta = np.zeros(channels)
        self.x_hat = self.inv_std = None  # kept by a train-mode forward for backward

    def forward(self, x: np.ndarray, mode: str) -> np.ndarray:
        """Normalize, apply the affine stage, add the constant shift.

        Train mode normalizes with batch statistics (biased variance, the
        convention used consistently for running stats too), updates the
        running estimates in place with the layer's momentum, and keeps
        what backward needs. Eval mode uses the running estimates and
        touches nothing.
        """
        if mode not in ("train", "eval"):
            raise ConfigError(f"mode must be 'train' or 'eval', got {mode!r}")
        if x.ndim != 2 or x.shape[1] != self.gamma.shape[0]:
            raise DomainError(f"expected (batch, {self.gamma.shape[0]}) input, got {x.shape}")
        if mode == "train":
            n = x.shape[0]
            if n < 2:
                raise DomainError(f"train-mode batch must be >= 2, got {n}")
            mean = np.add.reduce(x, axis=0) / n
            x_hat = x - mean
            var = np.einsum("ij,ij->j", x_hat, x_hat) / n  # biased, in one pass without a squared copy
            inv_std = 1.0 / np.sqrt(var + self.eps)
            x_hat *= inv_std
            m = self.momentum
            self.running_mean *= 1.0 - m
            self.running_mean += m * mean
            self.running_var *= 1.0 - m
            self.running_var += m * var
            self.x_hat, self.inv_std = x_hat, inv_std
            out = x_hat * self.gamma
        else:
            out = x - self.running_mean
            out *= 1.0 / np.sqrt(self.running_var + self.eps)
            out *= self.gamma
        out += self.beta
        if self.alpha:
            out += self.alpha
        return out

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        """Gradients through the last train-mode forward.

        Writes the gamma and beta gradients into ggamma and gbeta and
        returns the input gradient, which accounts for the batch-statistic
        dependence of the normalization. The constant shift alpha has no
        gradient by construction.
        """
        if self.x_hat is None:
            raise UsageError("backward before train-mode forward")
        x_hat = self.x_hat
        n = x_hat.shape[0]
        np.einsum("ij,ij->j", grad_out, x_hat, out=self.ggamma)
        np.add.reduce(grad_out, axis=0, out=self.gbeta)
        # grad_in = gamma*inv_std * (g - gbeta/n - x_hat*ggamma/n), in one array of its own
        grad_in = x_hat * (self.ggamma / n)
        np.subtract(grad_out, grad_in, out=grad_in)
        grad_in -= self.gbeta / n
        grad_in *= self.gamma * self.inv_std
        return grad_in


class ReLU:
    params = arrays = ()

    def __init__(self):
        self._mask = None

    def forward(self, x: np.ndarray, mode: str) -> np.ndarray:
        if mode == "train":
            self._mask = x > 0
        return np.maximum(x, 0.0)

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._mask is None:
            raise UsageError("backward before train-mode forward")
        return grad_out * self._mask


class LeakyReLU:
    params = arrays = ()
    slope = 0.01  # forward is max(x, slope*x)

    def __init__(self):
        self._mask = None

    def forward(self, x: np.ndarray, mode: str) -> np.ndarray:
        if mode == "train":
            self._mask = x > 0
        return np.maximum(x, self.slope * x)

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._mask is None:
            raise UsageError("backward before train-mode forward")
        # max(mask, slope) is exactly 1.0 where x > 0 and slope elsewhere, as slope lies in [0, 1]
        factor = np.maximum(self._mask, self.slope)
        factor *= grad_out
        return factor


def softmax_cross_entropy(logits: np.ndarray, labels: np.ndarray):
    """Mean cross-entropy and its logit gradient, computed stably.

    Returns (loss, grad_logits). Labels are integer class indices.
    """
    if logits.ndim != 2 or labels.shape != (logits.shape[0],):
        raise DomainError(f"shape mismatch: logits {logits.shape}, labels {labels.shape}")
    # the ufunc reductions themselves: max, sum and mean would each add a Python wrapper
    shifted = logits - np.maximum.reduce(logits, axis=1, keepdims=True)
    n = logits.shape[0]
    idx = np.arange(n)
    picked = shifted[idx, labels]
    grad = np.exp(shifted, out=shifted)  # the softmax probabilities, turned into the gradient in place
    total = np.add.reduce(grad, axis=1, keepdims=True)
    grad /= total
    loss = -float(np.add.reduce(picked - np.log(total[:, 0]))) / n
    grad[idx, labels] -= 1.0
    grad /= n
    return loss, grad


def accuracy(logits: np.ndarray, labels: np.ndarray) -> float:
    return float(np.mean(np.argmax(logits, axis=1) == labels))
