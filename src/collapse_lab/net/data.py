"""Synthetic Gaussian-cluster classification data.

Class means sit on a scaled, centered simplex frame (unit directions from
the simplex centroid, times ``SCALE`` = 3.0), with unit-covariance Gaussian
noise around each mean. At that radius the clusters overlap enough that
gradients stay noisy but a linear rule is still strong, which is the
regime the drift analysis cares about.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from ..errors import ConfigError

__all__ = ["Dataset", "make_synthetic_dataset", "shuffle_labels", "class_means"]

SCALE = 3.0


@dataclass(frozen=True)
class Dataset:
    x_train: np.ndarray
    y_train: np.ndarray
    x_val: np.ndarray
    y_val: np.ndarray


def class_means(classes: int, dim: int) -> np.ndarray:
    """(classes, dim) mean matrix: centered simplex directions at radius SCALE."""
    if classes < 2:
        raise ConfigError(f"classes must be >= 2, got {classes}")
    if dim < classes:
        raise ConfigError(f"dim must be >= classes for the simplex frame, got dim={dim}")
    means = np.zeros((classes, dim))
    means[:, :classes] = np.eye(classes) - 1.0 / classes
    means /= np.linalg.norm(means, axis=1, keepdims=True)
    return SCALE * means


def make_synthetic_dataset(classes: int, dim: int, n_per_class: int, seed: int) -> Dataset:
    """Deterministic dataset with an exact 80/20 per-class train/val split."""
    if n_per_class < 5:
        raise ConfigError(f"n_per_class must be >= 5 for a nonempty split, got {n_per_class}")
    means = class_means(classes, dim)
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed])))
    n_train = (4 * n_per_class) // 5
    xs_tr, ys_tr, xs_va, ys_va = [], [], [], []
    for k in range(classes):
        pts = means[k] + rng.standard_normal((n_per_class, dim))
        xs_tr.append(pts[:n_train])
        ys_tr.append(np.full(n_train, k, dtype=np.int64))
        xs_va.append(pts[n_train:])
        ys_va.append(np.full(n_per_class - n_train, k, dtype=np.int64))
    x_train = np.concatenate(xs_tr)
    y_train = np.concatenate(ys_tr)
    x_val = np.concatenate(xs_va)
    y_val = np.concatenate(ys_va)
    order = rng.permutation(len(y_train))
    x_train, y_train = x_train[order], y_train[order]
    order = rng.permutation(len(y_val))
    x_val, y_val = x_val[order], y_val[order]
    return Dataset(x_train, y_train, x_val, y_val)


def shuffle_labels(dataset: Dataset, seed: int) -> Dataset:
    """Permute the training labels once; the new pairing is then fixed.

    Validation labels stay untouched, so validation accuracy measures
    generalization against the real classes (chance level under pure
    memorization).
    """
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed])))
    perm = rng.permutation(len(dataset.y_train))
    return replace(dataset, y_train=dataset.y_train[perm])
