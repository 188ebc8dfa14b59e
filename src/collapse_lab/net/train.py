"""Training loop: SGD + momentum + coupled decay, cosine warm restarts.

A "round" is one cosine cycle: the learning rate starts at eta_max, decays
to eta_min over the round's steps, and snaps back to eta_max at the next
round. Momentum buffers reset at each round start so the restart effect is
purely the learning-rate jump. Weight decay is the coupled multiplicative
shrink by (1 - eta_t * lambda) after each gradient step and applies to
every parameter, the BN scale and bias included; that coupling is what
lets inactive units decay all the way to the collapse threshold.

Defaults for the toy experiments use a larger weight decay (0.05) than the
conventional 5e-4. The collapse endgame needs the cumulative shrink
sum(eta_t * lambda) to reach roughly ln(gamma_init / threshold) ~ 7 within
the epoch budget; a desk-scale run has orders of magnitude fewer steps
than a full image run, so lambda carries the difference. TrainConfig keeps
5e-4 as its field default; the presets override it.

``multi_round_experiment`` runs its (arm, seed) cells in spawned worker
processes with one BLAS thread each, one per core up to COLLAPSE_LAB_THREADS.
Results come back in cell order, so no output depends on the worker count.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field, replace

import numpy as np

from ..errors import CollapseLabError, ConfigError, DivergenceError
from ..sparsity import COLLAPSE_THRESHOLD, SparsityReport, report_from_chain
from .data import Dataset, make_synthetic_dataset, shuffle_labels
from .model import ACTIVATIONS, MLP, NORMS

__all__ = [
    "EXPERIMENT_CSV_HEADER",
    "TrainConfig",
    "RoundReport",
    "ExperimentResult",
    "cosine_lr",
    "dataset_for",
    "train_round",
    "run_training",
    "multi_round_experiment",
    "preset_arms",
    "PRESETS",
    "TOY_BASE",
]

LABEL_MODES = ("true", "random")

EXPERIMENT_CSV_HEADER = [
    "arm",
    "seed",
    "round",
    "train_loss",
    "train_acc",
    "val_acc",
    "sparsity_ratio",
    "flops_reduction",
]


@dataclass(frozen=True)
class TrainConfig:
    rounds: int = 5
    epochs_per_round: int = 60
    batch_size: int = 128
    eta_max: float = 0.1
    eta_min: float = 1e-3
    momentum_sgd: float = 0.9
    weight_decay: float = 5e-4
    activation: str = "relu"
    gamma_init: float = 1.0
    label_mode: str = "true"
    seed: int = 0
    norm: str = "bn"
    alpha: float = 0.0
    hidden_width: int = 128
    hidden_layers: int = 3
    classes: int = 10
    dim: int = 32
    n_per_class: int = 200
    data_seed: int = 2024
    collapse_threshold: float = COLLAPSE_THRESHOLD

    def __post_init__(self):
        if self.rounds < 1 or self.epochs_per_round < 1:
            raise ConfigError("rounds and epochs_per_round must be >= 1")
        if self.batch_size < 2:
            raise ConfigError(f"batch_size must be >= 2 for batch statistics, got {self.batch_size}")
        if not 0 <= self.eta_min <= self.eta_max:
            raise ConfigError(f"need 0 <= eta_min <= eta_max, got {self.eta_min}, {self.eta_max}")
        if not 0 <= self.momentum_sgd < 1:
            raise ConfigError(f"momentum_sgd must lie in [0, 1), got {self.momentum_sgd}")
        if self.weight_decay < 0:
            raise ConfigError(f"weight_decay must be >= 0, got {self.weight_decay}")
        if self.activation not in ACTIVATIONS:
            raise ConfigError(f"activation must be one of {ACTIVATIONS}, got {self.activation!r}")
        if self.norm not in NORMS:
            raise ConfigError(f"norm must be one of {NORMS}, got {self.norm!r}")
        if self.label_mode not in LABEL_MODES:
            raise ConfigError(f"label_mode must be one of {LABEL_MODES}, got {self.label_mode!r}")
        if self.norm == "psbn" and not self.alpha > 0:
            raise ConfigError("norm 'psbn' requires alpha > 0")
        if self.norm != "psbn" and self.alpha != 0:
            raise ConfigError("alpha is only meaningful with norm 'psbn'")
        if not self.gamma_init > 0:
            raise ConfigError(f"gamma_init must be > 0, got {self.gamma_init}")


@dataclass(frozen=True)
class RoundReport:
    round_index: int
    train_loss: float
    train_acc: float
    val_acc: float
    sparsity: SparsityReport


@dataclass(frozen=True)
class ExperimentResult:
    rows: list[dict] = field(default_factory=list)
    failures: list[tuple[str, int, str]] = field(default_factory=list)
    finals: dict = field(default_factory=dict)  # (arm, seed) -> trained MLP
    reports: dict = field(default_factory=dict)  # (arm, seed) -> [RoundReport]
    rngs: dict = field(default_factory=dict)  # (arm, seed) -> post-run Generator


def cosine_lr(t: int, total: int, eta_max: float, eta_min: float) -> float:
    """eta_min + (eta_max - eta_min)/2 * (1 + cos(pi t / total))."""
    if total < 1:
        raise ConfigError(f"total must be >= 1, got {total}")
    return eta_min + 0.5 * (eta_max - eta_min) * (1.0 + math.cos(math.pi * t / total))


def _batches(n: int, batch_size: int, perm: np.ndarray):
    for start in range(0, n, batch_size):
        idx = perm[start : start + batch_size]
        if idx.size >= 2:  # batch statistics need at least two rows
            yield idx


def _steps_per_epoch(n: int, batch_size: int) -> int:
    full, rem = divmod(n, batch_size)
    return full + (1 if rem >= 2 else 0)


def train_round(
    model: MLP,
    dataset: Dataset,
    cfg: TrainConfig,
    round_index: int,
    rng: np.random.Generator,
) -> RoundReport:
    """One cosine cycle of SGD over the training split.

    The learning rate follows cosine_lr over the round's total step count,
    momentum buffers start empty, and the decay shrink uses the current
    step's learning rate. Raises DivergenceError naming the failing step
    when the loss leaves the finite range.
    """
    n = len(dataset.y_train)
    total_steps = cfg.epochs_per_round * _steps_per_epoch(n, cfg.batch_size)
    velocity = np.zeros_like(model.params)
    t = 0
    for epoch in range(cfg.epochs_per_round):
        perm = rng.permutation(n)
        for idx in _batches(n, cfg.batch_size, perm):
            eta = cosine_lr(t, total_steps, cfg.eta_max, cfg.eta_min)
            try:
                loss, _ = model.loss_and_grad(dataset.x_train[idx], dataset.y_train[idx])
            except DivergenceError as exc:
                raise DivergenceError(
                    f"round {round_index} diverged at epoch {epoch}, step {t}: {exc}",
                    partial={"round_index": round_index, "epoch": epoch, "step": t},
                ) from exc
            velocity *= cfg.momentum_sgd
            velocity += model.grads
            model.params -= eta * velocity
            model.params *= 1.0 - eta * cfg.weight_decay
            t += 1
    train_loss, train_acc = model.evaluate(dataset.x_train, dataset.y_train)
    _, val_acc = model.evaluate(dataset.x_val, dataset.y_val)
    sparsity = report_from_chain(model.chain_sizes(), model.unit_scales(), cfg.collapse_threshold)
    return RoundReport(
        round_index=round_index,
        train_loss=train_loss,
        train_acc=train_acc,
        val_acc=val_acc,
        sparsity=sparsity,
    )


def dataset_for(cfg: TrainConfig) -> Dataset:
    dataset = make_synthetic_dataset(cfg.classes, cfg.dim, cfg.n_per_class, cfg.data_seed)
    if cfg.label_mode == "random":
        dataset = shuffle_labels(dataset, cfg.data_seed + 1)
    return dataset


def run_training(cfg: TrainConfig, dataset: Dataset | None = None):
    """Full multi-round run. Returns (model, [RoundReport], rng)."""
    dataset = dataset if dataset is not None else dataset_for(cfg)
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([cfg.seed])))
    model = MLP.build(
        in_dim=dataset.dim,
        classes=dataset.classes,
        hidden_width=cfg.hidden_width,
        hidden_layers=cfg.hidden_layers,
        norm=cfg.norm,
        activation=cfg.activation,
        alpha=cfg.alpha,
        gamma_init=cfg.gamma_init,
        rng=rng,
    )
    reports = [train_round(model, dataset, cfg, r, rng) for r in range(cfg.rounds)]
    return model, reports, rng


def _run_cell(cfg: TrainConfig):
    """One (arm, seed) cell: run_training's (model, reports, rng), or the exception it raised."""
    try:
        return run_training(cfg)
    except Exception as exc:  # returned, so that a worker's error reaches the caller with its type
        return exc


def _serve(conn) -> None:
    """Worker process: run each (cell function, config) it receives, until stopped."""
    while True:
        fn, cfg = conn.recv()
        conn.send(fn(cfg))


def _map_cells(cells: list[tuple[str, TrainConfig]], workers: int) -> list:
    """_run_cell over the (arm, config) cells, in order: here at one worker, else in spawned workers."""
    if workers <= 1:
        return [_run_cell(cfg) for _, cfg in cells]
    import multiprocessing.connection
    ctx = multiprocessing.get_context("spawn")
    procs = {}  # parent end of a worker's pipe -> the worker
    try:
        # one BLAS thread per worker: a child reads these once, when NumPy loads
        caps = dict.fromkeys(("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"), "1")
        saved = {name: os.environ[name] for name in caps if name in os.environ}
        os.environ.update(caps)
        try:
            for _ in range(workers):
                conn, child_end = ctx.Pipe()
                proc = ctx.Process(target=_serve, args=(child_end,), daemon=True)
                proc.start()
                procs[conn] = proc
                child_end.close()
        finally:  # back to the caller's values
            for name in caps:
                del os.environ[name]
            os.environ.update(saved)
        results = [None] * len(cells)  # a cell's output, once its worker has sent it
        todo = iter(range(len(cells)))
        running = {}  # parent end of a busy worker's pipe -> the index of its cell
        idle = list(procs)
        while True:
            for conn, i in zip(idle, todo):
                conn.send((_run_cell, cells[i][1]))
                running[conn] = i
            if not running:
                return results
            idle = multiprocessing.connection.wait(list(running))
            for conn in idle:
                i = running.pop(conn)
                try:
                    results[i] = conn.recv()
                except (EOFError, ConnectionResetError):  # the worker is gone
                    procs[conn].join()
                    arm, cfg = cells[i]
                    died = f"arm {arm} seed {cfg.seed}: its worker process died (exit code {procs[conn].exitcode})"
                    raise CollapseLabError(died) from None
    finally:
        for conn, proc in procs.items():  # each worker is idle, or its result is no longer wanted
            proc.terminate()
            proc.join()
            conn.close()


def multi_round_experiment(arms: list[tuple[str, TrainConfig]], seeds: list[int]) -> ExperimentResult:
    """Run every (arm, seed) cell; a diverged cell is recorded, not fatal.

    Any other error a cell raises is raised here once every cell has run,
    the first in (arm, seed) order, so the worker count does not change it.

    Rows follow EXPERIMENT_CSV_HEADER. All arms sharing a data_seed see the
    identical dataset, so arm differences are architectural/hyperparameter
    effects, not data resampling. The cells run in min(resolve_threads(),
    cells) one-BLAS-thread worker processes (in this one at 1); results keep
    (arm, seed) order, so they do not depend on the worker count.
    """
    from ..mc import resolve_threads  # not at the top: mc loads SciPy, which a worker does not need
    cells = [(arm_name, replace(arm_cfg, seed=seed)) for arm_name, arm_cfg in arms for seed in seeds]
    result = ExperimentResult()
    for (arm_name, cfg), out in zip(cells, _map_cells(cells, min(resolve_threads(), len(cells)))):
        if isinstance(out, DivergenceError):
            result.failures.append((arm_name, cfg.seed, str(out)))
            continue
        if isinstance(out, Exception):
            raise out
        model, reports, rng = out
        result.finals[(arm_name, cfg.seed)] = model
        result.reports[(arm_name, cfg.seed)] = reports
        result.rngs[(arm_name, cfg.seed)] = rng
        for rep in reports:
            result.rows.append(
                {
                    "arm": arm_name,
                    "seed": cfg.seed,
                    "round": rep.round_index,
                    "train_loss": rep.train_loss,
                    "train_acc": rep.train_acc,
                    "val_acc": rep.val_acc,
                    "sparsity_ratio": rep.sparsity.sparsity_ratio,
                    "flops_reduction": rep.sparsity.flops_reduction,
                }
            )
    return result


# Desk-scale arm sets for the three stock comparisons. The shared base,
# which is also ``train``'s arm without a preset, uses the calibrated toy
# decay (see module docstring).
TOY_BASE = TrainConfig(weight_decay=0.05, hidden_width=64, n_per_class=200)

PRESETS = {
    "norm-variants": [
        ("bn-relu", TOY_BASE),
        ("bn-leaky", replace(TOY_BASE, activation="leaky")),
        ("psbn-relu", replace(TOY_BASE, norm="psbn", alpha=0.1)),
        ("no-norm", replace(TOY_BASE, norm="none")),
    ],
    "lr-sweep": [
        ("eta-0.1", TOY_BASE),
        ("eta-0.25", replace(TOY_BASE, eta_max=0.25)),
        ("eta-0.5", replace(TOY_BASE, eta_max=0.5)),
    ],
    "gamma-init-sweep": [
        ("gamma-1.0", TOY_BASE),
        ("gamma-0.5", replace(TOY_BASE, gamma_init=0.5)),
        ("gamma-0.2", replace(TOY_BASE, gamma_init=0.2)),
    ],
}


def preset_arms(name: str) -> list[tuple[str, TrainConfig]]:
    if name not in PRESETS:
        raise ConfigError(f"unknown preset {name!r}; choose from {sorted(PRESETS)}")
    return list(PRESETS[name])
