"""MLP assembly, parameter plumbing, and versioned JSON checkpoints.

The model is a chain of hidden blocks (dense -> optional normalization ->
activation) feeding a final dense classifier. Normalization choices:
'bn' (plain), 'psbn' (constant positive output shift alpha), 'none'.
"Boundary" k names the hidden representation produced by block k; collapse
detection and FLOPS accounting key off boundaries. ``Arch`` holds the
eight architecture fields and is their only check; ``TrainConfig``,
which holds the only defaults, derives one. ``Arch.blocks()`` is the one
block layout: ``MLP.build`` builds it, ``load_checkpoint`` checks by it.

``MLP`` sorts its blocks once into ``dense``, ``norms`` (one per
boundary, or none) and ``acts``, and moves the arrays each layer names
in ``params`` into one store: every dense w/b and BN gamma/beta is a
view into the vector ``MLP.params`` (its gradient into ``MLP.grads``),
so the optimizer updates the model in whole-vector operations.

Checkpoints serialize layer shapes, flat parameter arrays, running stats,
and the training RNG state, one entry per layer array (format version 1,
unchanged by the store); reloading at a round boundary resumes training
bit-exactly (momentum buffers start empty each round by design, so they
are not part of the state). A malformed checkpoint is a ConfigError.
"""

from __future__ import annotations

import copy
import json
import math
import numbers
from dataclasses import asdict, dataclass

import numpy as np

from ..errors import ConfigError, DivergenceError
from ..sparsity import collapsed_mask
from ..tables import atomic_write
from .layers import BatchNorm, Dense, LeakyReLU, ReLU, accuracy, softmax_cross_entropy

__all__ = ["ACTIVATIONS", "NORMS", "Arch", "MLP", "save_checkpoint", "load_checkpoint", "pruned_copy"]

NORMS = ("bn", "psbn", "none")
ACTIVATIONS = ("relu", "leaky")

CHECKPOINT_VERSION = 1


@dataclass(frozen=True)
class Arch:
    """A model's architecture; constructing one is the only check of its fields.

    Sizes are stored as ints, ``alpha`` and ``gamma_init`` as floats."""

    in_dim: int
    classes: int
    hidden_width: int
    hidden_layers: int
    norm: str
    activation: str
    alpha: float
    gamma_init: float

    def __post_init__(self):
        for name in ("in_dim", "classes", "hidden_width", "hidden_layers"):
            value = getattr(self, name)
            if not isinstance(value, numbers.Integral) or isinstance(value, bool) or value < 1:
                raise ConfigError(f"{name} must be an integer >= 1, got {value!r}")
            object.__setattr__(self, name, int(value))
        for name in ("alpha", "gamma_init"):
            value = getattr(self, name)
            if not isinstance(value, numbers.Real) or isinstance(value, bool):
                raise ConfigError(f"{name} must be a number, got {value!r}")
            object.__setattr__(self, name, float(value))
        if self.norm not in NORMS:
            raise ConfigError(f"norm must be one of {NORMS}, got {self.norm!r}")
        if self.activation not in ACTIVATIONS:
            raise ConfigError(f"activation must be one of {ACTIVATIONS}, got {self.activation!r}")
        if self.norm == "psbn" and not 0 < self.alpha < math.inf:
            raise ConfigError(f"norm 'psbn' requires a finite alpha > 0, got {self.alpha}")
        if self.norm != "psbn" and self.alpha != 0:
            raise ConfigError(f"alpha is only meaningful with norm 'psbn', got alpha={self.alpha}")
        if not 0 < self.gamma_init < math.inf:
            raise ConfigError(f"gamma_init must be finite and > 0, got {self.gamma_init}")

    def blocks(self) -> list[tuple[type, dict[str, tuple[int, ...]]]]:
        """Each block in order, as its layer type and the {name: shape} of the arrays a checkpoint saves of it."""
        width = self.hidden_width
        hidden = [(BatchNorm, dict.fromkeys(BatchNorm.arrays, (width,)))] if self.norm != "none" else []
        hidden.append((ReLU if self.activation == "relu" else LeakyReLU, {}))
        out = []
        for n_in in [self.in_dim] + [width] * (self.hidden_layers - 1):
            out += [(Dense, {"w": (n_in, width), "b": (width,)}), *hidden]
        return out + [(Dense, {"w": (width, self.classes), "b": (self.classes,)})]


class MLP:
    def __init__(self, arch: Arch, blocks: list):
        """Sort the blocks by kind, and move their parameters and gradients into one flat store."""
        self.arch = arch
        self.blocks = blocks
        self.dense = [b for b in blocks if isinstance(b, Dense)]
        self.norms = [b for b in blocks if isinstance(b, BatchNorm)]  # norms[k] normalizes boundary k
        self.acts = [b for b in blocks if isinstance(b, (ReLU, LeakyReLU))]
        slots = [(block, name) for block in blocks for name in block.params]  # its gradient is "g" + name
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
    def build(cls, arch: Arch, rng: np.random.Generator) -> "MLP":
        """A freshly initialized model of ``arch``; each Dense draws its weights from ``rng`` in block order."""
        blocks = []
        for layer, shapes in arch.blocks():
            if layer is Dense:
                blocks.append(Dense(*shapes["w"], rng))
            elif layer is BatchNorm:
                blocks.append(BatchNorm(*shapes["gamma"], arch.gamma_init, arch.alpha))  # alpha is 0 unless psbn
            else:
                blocks.append(layer())
        return cls(arch, blocks)

    def forward(self, x: np.ndarray, mode: str = "eval") -> np.ndarray:
        for block in self.blocks:
            x = block.forward(x, mode)
        return x

    def loss_and_grad(self, x: np.ndarray, labels: np.ndarray):
        """Train-mode forward, cross-entropy, full backward. Returns (loss, logits)."""
        logits = self.forward(x, "train")
        loss, grad = softmax_cross_entropy(logits, labels)
        if not math.isfinite(loss):
            raise DivergenceError(f"non-finite loss {loss}")
        for block in reversed(self.blocks[1:]):
            grad = block.backward(grad)
        self.blocks[0].backward(grad, input_grad=False)  # nothing consumes the input gradient
        return loss, logits

    def evaluate(self, x: np.ndarray, labels: np.ndarray):
        """Eval-mode (loss, accuracy) without touching any state."""
        logits = self.forward(x, "eval")
        loss, _ = softmax_cross_entropy(logits, labels)
        return loss, accuracy(logits, labels)

    # structure accessors for sparsity accounting

    def chain_sizes(self) -> list[tuple[int, int]]:
        return [d.w.shape for d in self.dense]

    def unit_scales(self) -> dict[int, np.ndarray]:
        """Per-boundary collapse scales: BN |gamma|, or incoming-weight L1
        for unnormalized stacks (the only shrinking quantity there)."""
        if self.norms:
            return {k: np.abs(layer.gamma) for k, layer in enumerate(self.norms)}
        return {k: np.sum(np.abs(d.w), axis=0) for k, d in enumerate(self.dense[:-1])}

    def state_arrays(self) -> dict[str, np.ndarray]:
        return _keyed({name: getattr(block, name) for name in block.arrays} for block in self.blocks)


def _keyed(blocks) -> dict:
    """{checkpoint key: value} from each block's {array name: value}, in block order: block i's w is "bi.w"."""
    return {f"b{i}.{name}": value for i, named in enumerate(blocks) for name, value in named.items()}


def pruned_copy(model: MLP) -> tuple[MLP, int]:
    """Copy with the units ``collapsed_mask`` marks removed from the computation.

    A collapsed unit still emits a constant: act(beta + alpha) behind a
    normalization layer, act(b) of its dense layer without one. That
    constant times the unit's rows of the next dense layer is folded into
    that layer's bias; then the unit's gamma, beta and outgoing rows are
    zeroed, which is the dense-chain equivalent of deleting the unit.
    Returns (pruned model, units pruned).
    """
    pruned = copy.deepcopy(model)
    n_pruned = 0
    for boundary, scales in pruned.unit_scales().items():
        idx = np.flatnonzero(collapsed_mask(scales))
        if idx.size == 0:
            continue
        n_pruned += int(idx.size)
        if pruned.norms:
            layer = pruned.norms[boundary]
            level = layer.beta[idx] + layer.alpha
            layer.gamma[idx] = 0.0
            layer.beta[idx] = 0.0
        else:
            level = pruned.dense[boundary].b[idx]
        following = pruned.dense[boundary + 1]
        following.b += pruned.acts[boundary].forward(level, "eval") @ following.w[idx, :]
        following.w[idx, :] = 0.0
    return pruned, n_pruned


def save_checkpoint(path, model: MLP, rng: np.random.Generator, extra: dict | None = None) -> None:
    payload = {
        "version": CHECKPOINT_VERSION,
        "arch": asdict(model.arch),
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


def _saved_array(key: str, entry) -> np.ndarray:
    """One ``params`` entry of a checkpoint as an array: a flat list of finite numbers that fills its shape."""
    if not (isinstance(entry, dict) and "data" in entry and "shape" in entry):
        raise ConfigError(f"checkpoint {key} needs 'data' and 'shape'")
    shape = entry["shape"]
    if not (isinstance(shape, list) and all(type(n) is int and n >= 0 for n in shape)):
        raise ConfigError(f"checkpoint {key} shape must be a list of sizes, got {shape!r}")
    not_numbers = ConfigError(f"checkpoint {key} data must be a flat list of numbers")
    try:
        data = np.array(entry["data"])
    except ValueError:  # a ragged nesting of lists
        raise not_numbers from None
    # JSON null, text, true/false or an integer beyond int64 make an array of another kind
    if data.ndim != 1 or data.dtype.kind not in "if":
        raise not_numbers
    data = data.astype(np.float64)
    if not np.isfinite(data).all():
        raise ConfigError(f"checkpoint {key} holds a non-finite value")
    if data.size != math.prod(shape):
        raise ConfigError(f"checkpoint {key} holds {data.size} values for shape {shape}")
    return data.reshape(shape)


def load_checkpoint(path) -> tuple[MLP, np.random.Generator, dict]:
    """(model, training RNG, extra); a malformed checkpoint is a ConfigError.

    It is malformed when it is not a JSON object of this version, when it
    lacks ``arch``, ``params`` or ``rng_state``, when ``params`` is not an
    object, when ``arch`` is not an ``Arch`` (a missing or unknown key, or
    a value ``Arch`` rejects), when an array entry lacks ``data`` or
    ``shape``, holds anything but finite numbers or does not fill its
    declared shape, when ``rng_state`` is not a PCG64 state, or when the
    arrays' keys or shapes are not those ``arch.blocks()`` lists; each of
    these is raised before a model is built.
    """
    with open(path) as fh:
        payload = json.load(fh)
    if not isinstance(payload, dict):
        raise ConfigError("a checkpoint is a JSON object")
    if payload.get("version") != CHECKPOINT_VERSION:
        raise ConfigError(f"unsupported checkpoint version {payload.get('version')!r}")
    missing = [key for key in ("arch", "params", "rng_state") if key not in payload]
    if missing:
        raise ConfigError(f"checkpoint lacks {', '.join(missing)}")
    if not isinstance(payload["params"], dict):
        raise ConfigError("checkpoint params must map each array's name to its entry")
    params = {key: _saved_array(key, entry) for key, entry in payload["params"].items()}
    rng = np.random.Generator(np.random.PCG64())
    try:
        rng.bit_generator.state = payload["rng_state"]
    except (TypeError, ValueError, KeyError) as exc:  # not a dict, another generator's state, or a key missing
        raise ConfigError(f"checkpoint rng_state is not a PCG64 state: {exc!r}") from None
    try:
        arch = Arch(**payload["arch"])
    except (TypeError, ConfigError) as exc:  # Arch has no defaults, so a missing or unknown key fails its call
        raise ConfigError(f"checkpoint arch is not an Arch: {exc}") from None
    shapes = _keyed(named for _, named in arch.blocks())
    if set(shapes) != set(params):
        raise ConfigError("checkpoint parameter keys do not match the declared architecture")
    for key, shape in shapes.items():
        if params[key].shape != shape:
            raise ConfigError(f"checkpoint shape mismatch for {key}: {params[key].shape} vs {shape}")
    model = MLP.build(arch, np.random.default_rng(0))
    for key, arr in model.state_arrays().items():
        np.copyto(arr, params[key])
    return model, rng, payload.get("extra", {})
