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

``TrainConfig`` holds the architecture defaults as flat fields, which
presets and flags replace by name, and derives the ``net.model.Arch``
they make; building it checks them. Each epoch permutes the training
split once, gathers it in that order and slices its batches from it, as
``_steps_per_epoch`` plans them.

``multi_round_experiment`` runs its (arm, seed) cells in spawned worker
processes with one BLAS thread each, one per core up to COLLAPSE_LAB_THREADS.
Results come back in cell order, so no output depends on the worker count.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from ..errors import CollapseLabError, ConfigError, DivergenceError, require_seed
from ..sparsity import COLLAPSE_THRESHOLD, SparsityReport, report_from_chain
from .data import Dataset, make_synthetic_dataset, shuffle_labels
from .model import Arch, MLP

__all__ = [
    "ExperimentRow",
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
        for name in ("eta_max", "eta_min", "weight_decay"):
            if not math.isfinite(getattr(self, name)):
                raise ConfigError(f"{name} must be finite, got {getattr(self, name)}")
        if not 0 < self.collapse_threshold < math.inf:
            raise ConfigError(f"collapse_threshold must be finite and > 0, got {self.collapse_threshold}")
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
        self.arch  # constructing the Arch checks the architecture fields
        if self.label_mode not in LABEL_MODES:
            raise ConfigError(f"label_mode must be one of {LABEL_MODES}, got {self.label_mode!r}")
        require_seed("seed", self.seed)
        require_seed("data_seed", self.data_seed)

    @property
    def arch(self) -> Arch:
        """The model's architecture, on the dataset's dimensions."""
        return Arch(
            in_dim=self.dim, classes=self.classes, hidden_width=self.hidden_width, hidden_layers=self.hidden_layers,
            norm=self.norm, activation=self.activation, alpha=self.alpha, gamma_init=self.gamma_init,
        )


@dataclass(frozen=True)
class RoundReport:
    round_index: int
    train_loss: float
    train_acc: float
    val_acc: float
    sparsity: SparsityReport


class ExperimentRow(NamedTuple):
    """One row of experiment.csv: an (arm, seed, round) cell's fit and collapse accounting."""

    arm: str
    seed: int
    round: int
    train_loss: float
    train_acc: float
    val_acc: float
    sparsity_ratio: float
    flops_reduction: float


@dataclass(frozen=True)
class ExperimentResult:
    rows: list[ExperimentRow]
    failures: list[tuple[str, int, str]]
    runs: dict  # (arm, seed) -> run_training's (model, [RoundReport], rng)


def cosine_lr(t: int, total: int, eta_max: float, eta_min: float) -> float:
    """eta_min + (eta_max - eta_min)/2 * (1 + cos(pi t / total))."""
    if total < 1:
        raise ConfigError(f"total must be >= 1, got {total}")
    return eta_min + 0.5 * (eta_max - eta_min) * (1.0 + math.cos(math.pi * t / total))


def _steps_per_epoch(n: int, batch_size: int) -> int:
    """The batch plan: full batches, then the trailing rows if there are two (batch statistics need two)."""
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
    n, size = len(dataset.y_train), cfg.batch_size
    steps = _steps_per_epoch(n, size)
    total_steps = cfg.epochs_per_round * steps
    velocity = np.zeros_like(model.params)
    t = 0
    for epoch in range(cfg.epochs_per_round):
        perm = rng.permutation(n)
        x, y = dataset.x_train[perm], dataset.y_train[perm]
        for start in range(0, steps * size, size):
            eta = cosine_lr(t, total_steps, cfg.eta_max, cfg.eta_min)
            try:
                model.loss_and_grad(x[start : start + size], y[start : start + size])
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


def run_training(cfg: TrainConfig):
    """Full multi-round run. Returns (model, [RoundReport], rng)."""
    dataset = dataset_for(cfg)
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([cfg.seed])))
    model = MLP.build(cfg.arch, rng)
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

    Rows are ``ExperimentRow``s, one per (arm, seed, round): the rows of
    experiment.csv. All arms sharing a data_seed see the identical
    dataset, so arm differences are architectural/hyperparameter effects,
    not data resampling. The cells run in resolve_threads(cells)
    one-BLAS-thread worker processes (in this one at 1); results keep
    (arm, seed) order, so they do not depend on the worker count.
    """
    # not at the top: a spawned worker imports this module, and needs none of mc, analytic or quadrature
    from ..mc import resolve_threads
    cells = [(arm_name, replace(arm_cfg, seed=seed)) for arm_name, arm_cfg in arms for seed in seeds]
    rows, failures, runs = [], [], {}
    for (arm_name, cfg), out in zip(cells, _map_cells(cells, resolve_threads(len(cells)))):
        if isinstance(out, DivergenceError):
            failures.append((arm_name, cfg.seed, str(out)))
            continue
        if isinstance(out, Exception):
            raise out
        runs[(arm_name, cfg.seed)] = out
        rows += [
            ExperimentRow(arm_name, cfg.seed, rep.round_index, rep.train_loss, rep.train_acc, rep.val_acc,
                          rep.sparsity.sparsity_ratio, rep.sparsity.flops_reduction)
            for rep in out[1]  # the cell's RoundReports
        ]
    return ExperimentResult(rows=rows, failures=failures, runs=runs)


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
