"""Numerical laboratory for normalization-scale collapse under noisy SGD.

Three views of the same phenomenon, kept independent so they can check
each other:

* ``analytic``: closed-form one-step drift of the dead-unit probability,
  built from a kernel K and its expectation J over the bias distribution.
* ``mc``: direct simulation of the scale/bias update rule on large neuron
  ensembles, with antithetic noise pairing so second-order drift is
  measurable at realistic learning rates.
* ``net``: a small from-scratch MLP whose normalization layers actually
  collapse under weight decay, plus the post-shift variant that recovers.

``sparsity`` counts the damage (dead channels, prunable FLOPs), and
``cli`` ties everything to files on disk.
"""

from .analytic import (
    DriftPrediction,
    drift_prediction,
    g_closed,
    h_tail_closed,
    j_fn,
    k_fn,
    k_sign_change,
    partial_moment_numeric,
    std_normal_cdf,
    std_normal_pdf,
)
from .dists import Normal, PointMass, ScalarDist, Uniform, parse_dist
from .errors import (
    CollapseLabError,
    ConfigError,
    DivergenceError,
    DomainError,
    SingularityError,
    UsageError,
)
from .mc import (
    DecayResult,
    DriftEstimate,
    EnsembleSpec,
    TheoremRow,
    TrajectoryRecord,
    UpdateConfig,
    VerifyCell,
    decay_trajectory,
    one_step_drift,
    sgd_trajectory,
    standard_grid,
    update_step,
    verify_theorem,
)
from .net import (
    Dataset,
    MLP,
    RoundReport,
    TrainConfig,
    load_checkpoint,
    make_synthetic_dataset,
    multi_round_experiment,
    run_training,
    save_checkpoint,
    shuffle_labels,
    train_round,
)
from .quadrature import QuadratureSpec
from .sparsity import (
    COLLAPSE_THRESHOLD,
    SparsityReport,
    collapsed_channels,
    filter_l1_histogram,
    flops_reduction,
    report_from_chain,
)

__version__ = "0.1.0"

__all__ = [
    "COLLAPSE_THRESHOLD",
    "CollapseLabError",
    "ConfigError",
    "Dataset",
    "DecayResult",
    "DivergenceError",
    "DomainError",
    "DriftEstimate",
    "DriftPrediction",
    "EnsembleSpec",
    "MLP",
    "Normal",
    "PointMass",
    "QuadratureSpec",
    "RoundReport",
    "ScalarDist",
    "SingularityError",
    "SparsityReport",
    "TheoremRow",
    "TrainConfig",
    "TrajectoryRecord",
    "Uniform",
    "UpdateConfig",
    "UsageError",
    "VerifyCell",
    "collapsed_channels",
    "decay_trajectory",
    "drift_prediction",
    "filter_l1_histogram",
    "flops_reduction",
    "g_closed",
    "h_tail_closed",
    "j_fn",
    "k_fn",
    "k_sign_change",
    "load_checkpoint",
    "make_synthetic_dataset",
    "multi_round_experiment",
    "one_step_drift",
    "parse_dist",
    "partial_moment_numeric",
    "report_from_chain",
    "run_training",
    "save_checkpoint",
    "sgd_trajectory",
    "shuffle_labels",
    "standard_grid",
    "std_normal_cdf",
    "std_normal_pdf",
    "train_round",
    "update_step",
    "verify_theorem",
    "__version__",
]
