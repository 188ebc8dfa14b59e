"""MLP assembly, parameter plumbing, and versioned JSON checkpoints.

The model is a chain of hidden blocks (dense -> optional normalization ->
activation) feeding a final dense classifier. Normalization choices:
'bn' (plain), 'psbn' (constant positive output shift alpha), 'none'.
"Boundary" k names the hidden representation produced by block k; collapse
detection and FLOPS accounting key off boundaries.

Each layer owns its arrays; ``MLP`` moves the trainable ones into one
store: every dense w/b and BN gamma/beta is a view into the vector
``MLP.params`` (its gradient into ``MLP.grads``), so the optimizer
updates the model in whole-vector operations.

Checkpoints serialize layer shapes, flat parameter arrays, running stats,
and the training RNG state, one entry per layer array (format version 1,
unchanged by the store); reloading at a round boundary resumes training
bit-exactly (momentum buffers start empty each round by design, so they
are not part of the state).
"""

from __future__ import annotations

import copy
import json
import math

import numpy as np

from ..errors import ConfigError, DivergenceError
from ..sparsity import COLLAPSE_THRESHOLD
from ..tables import atomic_write
from .layers import BatchNorm, Dense, LeakyReLU, ReLU, accuracy, softmax_cross_entropy

__all__ = ["ACTIVATIONS", "NORMS", "MLP", "save_checkpoint", "load_checkpoint", "pruned_copy"]

NORMS = ("bn", "psbn", "none")
ACTIVATIONS = ("relu", "leaky")

CHECKPOINT_VERSION = 1


class MLP:
    def __init__(self, arch: dict, blocks: list):
        """Move the blocks' parameters and gradients into one flat store."""
        self.arch = arch
        self.blocks = blocks
        slots = []  # (layer, parameter name); its gradient is the layer's "g" + name
        for block in blocks:
            if isinstance(block, Dense):
                slots += [(block, "w"), (block, "b")]
            elif isinstance(block, BatchNorm):
                slots += [(block, "gamma"), (block, "beta")]
        size = sum(getattr(layer, name).size for layer, name in slots)
        self.params, self.grads = np.empty(size), np.empty(size)
        at = 0
        for layer, name in slots:
            n = getattr(layer, name).size
            for store, attr in ((self.params, name), (self.grads, "g" + name)):
                view = store[at : at + n].reshape(getattr(layer, attr).shape)
                view[...] = getattr(layer, attr)
                setattr(layer, attr, view)
            at += n

    def __reduce__(self):  # pickle and deepcopy copy the blocks; __init__ binds them to a new store
        return MLP, (self.arch, self.blocks)

    @classmethod
    def build(
        cls,
        in_dim: int,
        classes: int,
        hidden_width: int = 128,
        hidden_layers: int = 3,
        norm: str = "bn",
        activation: str = "relu",
        alpha: float = 0.0,
        gamma_init: float = 1.0,
        rng: np.random.Generator | None = None,
    ) -> "MLP":
        if norm not in NORMS:
            raise ConfigError(f"norm must be one of {NORMS}, got {norm!r}")
        if activation not in ACTIVATIONS:
            raise ConfigError(f"activation must be one of {ACTIVATIONS}, got {activation!r}")
        if norm == "psbn" and not alpha > 0:
            raise ConfigError("norm 'psbn' requires alpha > 0")
        if norm != "psbn" and alpha != 0:
            raise ConfigError(f"alpha is only meaningful with norm 'psbn', got alpha={alpha}")
        if hidden_layers < 1 or hidden_width < 1:
            raise ConfigError("hidden_layers and hidden_width must be >= 1")
        rng = rng or np.random.default_rng(0)
        blocks: list = []
        prev = in_dim
        for _ in range(hidden_layers):
            blocks.append(Dense(prev, hidden_width, rng))
            if norm != "none":
                blocks.append(BatchNorm(hidden_width, gamma_init, alpha if norm == "psbn" else 0.0))
            blocks.append(ReLU() if activation == "relu" else LeakyReLU())
            prev = hidden_width
        blocks.append(Dense(prev, classes, rng))
        arch = {
            "in_dim": int(in_dim),
            "classes": int(classes),
            "hidden_width": int(hidden_width),
            "hidden_layers": int(hidden_layers),
            "norm": norm,
            "activation": activation,
            "alpha": float(alpha),
            "gamma_init": float(gamma_init),
        }
        return cls(arch, blocks)

    def forward(self, x: np.ndarray, mode: str = "eval") -> np.ndarray:
        for block in self.blocks:
            x = block.forward(x, mode)
        return x

    def loss_and_grad(self, x: np.ndarray, labels: np.ndarray):
        """Train-mode forward, cross-entropy, full backward. Returns (loss, logits)."""
        logits = self.forward(x, "train")
        loss, grad, _ = softmax_cross_entropy(logits, labels)
        if not math.isfinite(loss):
            raise DivergenceError(f"non-finite loss {loss}")
        for block in reversed(self.blocks[1:]):
            grad = block.backward(grad)
        self.blocks[0].backward(grad, input_grad=False)  # nothing consumes the input gradient
        return loss, logits

    def evaluate(self, x: np.ndarray, labels: np.ndarray):
        """Eval-mode (loss, accuracy) without touching any state."""
        logits = self.forward(x, "eval")
        loss, _, _ = softmax_cross_entropy(logits, labels)
        return loss, accuracy(logits, labels)

    # structure accessors for sparsity accounting

    def dense_blocks(self) -> list[Dense]:
        return [b for b in self.blocks if isinstance(b, Dense)]

    def chain_sizes(self) -> list[tuple[int, int]]:
        return [(d.w.shape[0], d.w.shape[1]) for d in self.dense_blocks()]

    def norm_blocks(self) -> list[tuple[int, BatchNorm]]:
        """(boundary_index, layer) for each normalization layer."""
        out = []
        boundary = 0
        for block in self.blocks:
            if isinstance(block, BatchNorm):
                out.append((boundary, block))
            if isinstance(block, (ReLU, LeakyReLU)):
                boundary += 1
        return out

    def unit_scales(self) -> dict[int, np.ndarray]:
        """Per-boundary collapse scales: BN |gamma|, or incoming-weight L1
        for unnormalized stacks (the only shrinking quantity there)."""
        if self.arch["norm"] != "none":
            return {k: np.abs(layer.gamma) for k, layer in self.norm_blocks()}
        dense = self.dense_blocks()
        return {k: np.sum(np.abs(d.w), axis=0) for k, d in enumerate(dense[:-1])}

    def filter_matrix(self, boundary: int) -> np.ndarray:
        """Incoming weight vectors of boundary units, one unit per row."""
        return self.dense_blocks()[boundary].w.T

    def state_arrays(self) -> dict[str, np.ndarray]:
        out = {}
        for i, block in enumerate(self.blocks):
            if isinstance(block, Dense):
                out[f"b{i}.w"] = block.w
                out[f"b{i}.b"] = block.b
            elif isinstance(block, BatchNorm):
                out[f"b{i}.gamma"] = block.gamma
                out[f"b{i}.beta"] = block.beta
                out[f"b{i}.running_mean"] = block.running_mean
                out[f"b{i}.running_var"] = block.running_var
        return out


def pruned_copy(model: MLP, threshold: float = COLLAPSE_THRESHOLD) -> tuple[MLP, int]:
    """Copy with collapsed units removed from the computation.

    A collapsed unit still emits a constant: act(beta + alpha) behind a
    normalization layer, act(b) of its dense layer without one. That
    constant times the unit's rows of the next dense layer is folded into
    that layer's bias; then the unit's gamma, beta and outgoing rows are
    zeroed, which is the dense-chain equivalent of deleting the unit.
    Returns (pruned model, units pruned).
    """
    pruned = copy.deepcopy(model)
    n_pruned = 0
    dense = pruned.dense_blocks()
    acts = [b for b in pruned.blocks if isinstance(b, (ReLU, LeakyReLU))]
    norms = dict(pruned.norm_blocks())
    for boundary, scales in pruned.unit_scales().items():
        idx = np.nonzero(scales < threshold)[0]
        if idx.size == 0:
            continue
        n_pruned += int(idx.size)
        layer = norms.get(boundary)
        if layer is None:
            level = dense[boundary].b[idx]
        else:
            level = layer.beta[idx] + layer.alpha
            layer.gamma[idx] = 0.0
            layer.beta[idx] = 0.0
        following = dense[boundary + 1]
        following.b += acts[boundary].forward(level, "eval") @ following.w[idx, :]
        following.w[idx, :] = 0.0
    return pruned, n_pruned


def save_checkpoint(path, model: MLP, rng: np.random.Generator, extra: dict | None = None) -> None:
    payload = {
        "version": CHECKPOINT_VERSION,
        "arch": model.arch,
        "params": {
            key: {"shape": list(arr.shape), "data": arr.ravel().tolist()}
            for key, arr in model.state_arrays().items()
        },
        "rng_state": rng.bit_generator.state,
        "extra": extra or {},
    }
    with atomic_write(path) as fh:
        json.dump(payload, fh, sort_keys=True, indent=1)
        fh.write("\n")


def load_checkpoint(path) -> tuple[MLP, np.random.Generator, dict]:
    with open(path) as fh:
        payload = json.load(fh)
    if payload.get("version") != CHECKPOINT_VERSION:
        raise ConfigError(f"unsupported checkpoint version {payload.get('version')!r}")
    model = MLP.build(**payload["arch"], rng=np.random.default_rng(0))
    arrays = model.state_arrays()
    if set(arrays) != set(payload["params"]):
        raise ConfigError("checkpoint parameter keys do not match the declared architecture")
    for key, arr in arrays.items():
        entry = payload["params"][key]
        data = np.asarray(entry["data"], dtype=np.float64).reshape(entry["shape"])
        if data.shape != arr.shape:
            raise ConfigError(f"checkpoint shape mismatch for {key}: {data.shape} vs {arr.shape}")
        np.copyto(arr, data)
    rng = np.random.Generator(np.random.PCG64())
    rng.bit_generator.state = payload["rng_state"]
    return model, rng, payload.get("extra", {})
