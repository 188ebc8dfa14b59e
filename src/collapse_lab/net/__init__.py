"""From-scratch feed-forward trainer: layers, model, data, training loop."""

from .data import Dataset, make_synthetic_dataset, shuffle_labels
from .layers import (
    BatchNorm,
    Dense,
    LeakyReLU,
    ReLU,
    softmax_cross_entropy,
)
from .model import MLP, load_checkpoint, pruned_copy, save_checkpoint
from .train import (
    ExperimentResult,
    RoundReport,
    TrainConfig,
    cosine_lr,
    multi_round_experiment,
    preset_arms,
    run_training,
    train_round,
)

__all__ = [
    "Dataset",
    "make_synthetic_dataset",
    "shuffle_labels",
    "BatchNorm",
    "Dense",
    "LeakyReLU",
    "ReLU",
    "softmax_cross_entropy",
    "MLP",
    "load_checkpoint",
    "save_checkpoint",
    "pruned_copy",
    "ExperimentResult",
    "RoundReport",
    "TrainConfig",
    "cosine_lr",
    "multi_round_experiment",
    "preset_arms",
    "run_training",
    "train_round",
]
