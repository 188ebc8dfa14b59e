"""Workload inputs: everything a run feeds the program, made from ``--seed`` alone.

Each workload is a list of ``collapse-lab`` invocations (argv lists for
``collapse_lab.cli.main``) plus the operations they stand for. Work per
round does not depend on the seed: the seed moves distribution parameters,
MC and training seeds, never grid sizes, node counts or step counts.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace

from collapse_lab.net.train import PRESETS

# verify-grid: the paper's headline run, `collapse-lab mc --verify` at 10M neurons per cell
VERIFY_NEURONS = 10_000_000
VERIFY_ETAS = (0.002, 0.005, 0.01)
VERIFY_NOISES = ("normal", "uniform")
VERIFY_GAMMA = "uniform:0.5:1.5"
VERIFY_BETA = "uniform:-1:1"

# toy-study: the norm-variants preset, two seeds per arm
TOY_PRESET = "norm-variants"
TOY_ARMS = ("bn-relu", "bn-leaky", "psbn-relu", "no-norm")
TOY_SEEDS_PER_ARM = 2

# theory-sweep
K_GRID = "-8:8:0.001"
J_GAMMA_GRID = "0.1:5:0.1"
DECAY_REACTIVATION_STEP = 2500
DECAY_MAX_STEPS = 20_000


@dataclass(frozen=True)
class Invocation:
    """One ``collapse-lab`` call, the operations it carries, and its output directory."""

    argv: tuple[str, ...]
    ops: tuple[str, ...]
    out: str  # relative to the round's output directory
    params: dict = field(default_factory=dict, compare=False)


@dataclass(frozen=True)
class Inputs:
    workload: str
    seed: int
    invocations: tuple[Invocation, ...]
    work: float  # work units per round: neurons, SGD steps or invocations
    params: dict = field(default_factory=dict, compare=False)

    @property
    def ops(self) -> list[str]:
        return [op for inv in self.invocations for op in inv.ops]


def verify_grid(seed: int, neurons: int = VERIFY_NEURONS) -> Inputs:
    cells = [f"eta{eta:g}-c1-{noise}" for noise in VERIFY_NOISES for eta in VERIFY_ETAS]
    inv = Invocation(
        argv=("mc", "--verify", "--grid", "standard", "--n", str(neurons), "--seed", str(seed)),
        ops=tuple(cells),
        out="mc",
    )
    return Inputs("verify-grid", seed, (inv,), work=float(len(cells) * neurons), params={"neurons": neurons})


# TrainConfig fields a caller may override in toy_study, and their CLI flags
TOY_FLAGS = {
    "rounds": "--rounds",
    "epochs_per_round": "--epochs",
    "batch_size": "--batch-size",
    "hidden_width": "--width",
    "hidden_layers": "--layers",
    "classes": "--classes",
    "dim": "--dim",
    "n_per_class": "--n-per-class",
}


def toy_arms(overrides: dict | None = None) -> list:
    """(arm, TrainConfig) of the preset, as ``train`` runs them with ``overrides`` applied."""
    return [(arm, replace(cfg, **(overrides or {}))) for arm, cfg in PRESETS[TOY_PRESET]]


def steps_per_run(cfg) -> int:
    """SGD steps of one training run: rounds x epochs x batches of at least two rows."""
    n_train = cfg.classes * ((4 * cfg.n_per_class) // 5)
    full, rem = divmod(n_train, cfg.batch_size)
    return cfg.rounds * cfg.epochs_per_round * (full + (1 if rem >= 2 else 0))


def toy_study(seed: int, overrides: dict | None = None) -> Inputs:
    """``train --preset norm-variants`` with two seeds per arm, then ``report`` of its directory.

    ``overrides`` maps TrainConfig fields (keys of TOY_FLAGS) to values
    passed as flags; the benchmark itself runs the preset unchanged.
    """
    overrides = dict(overrides or {})
    seeds = [seed + i for i in range(TOY_SEEDS_PER_ARM)]
    flags = [part for key, value in overrides.items() for part in (TOY_FLAGS[key], str(value))]
    train = Invocation(
        argv=("train", "--preset", TOY_PRESET, "--seeds", str(TOY_SEEDS_PER_ARM), "--seed", str(seed), *flags),
        ops=tuple(f"{arm}/s{s}" for arm in TOY_ARMS for s in seeds),
        out="train",
    )
    report = Invocation(argv=("report", "--source", "{train}"), ops=("report",), out="train/replot")
    steps = sum(steps_per_run(cfg) for _, cfg in toy_arms(overrides)) * len(seeds)
    return Inputs("toy-study", seed, (train, report), work=float(steps), params={"seeds": seeds, "overrides": overrides})


def _uniform_sym(rng: random.Random) -> str:
    w = round(rng.uniform(0.5, 2.0), 2)
    return f"uniform:{-w:g}:{w:g}"


def _normal_sym(rng: random.Random) -> str:
    return f"normal:0:{round(rng.uniform(0.3, 1.5), 2):g}"


def theory_sweep(seed: int) -> Inputs:
    """Analytic tables over seeded distributions, and decay traces each followed by ``report``.

    Per round: one K grid; J over a fixed gamma grid for four symmetric
    bias distributions (two uniform, two normal); the drift for each bias
    distribution against a seeded uniform scale distribution and a point
    mass, each at eta and 2 eta; four decay traces of a fixed length.
    """
    rng = random.Random(seed)
    betas = [_uniform_sym(rng), _uniform_sym(rng), _normal_sym(rng), _normal_sym(rng)]
    lo = round(rng.uniform(0.3, 0.8), 2)
    gammas = [f"uniform:{lo:g}:{round(lo + rng.uniform(0.5, 1.5), 2):g}", f"point:{round(rng.uniform(0.5, 2.0), 2):g}"]
    invs = [Invocation(("analytic", "--k-grid=" + K_GRID), ("k-grid",), "k")]
    for i, beta in enumerate(betas):
        invs.append(
            Invocation(("analytic", "--j", "--beta", beta, "--gamma-grid", J_GAMMA_GRID), (f"j{i} {beta}",), f"j{i}",
                       {"beta": beta})
        )
    for i, beta in enumerate(betas):
        for j, gamma in enumerate(gammas):
            eta = round(rng.uniform(0.001, 0.02), 4)
            c = round(rng.uniform(0.5, 2.0), 2)
            for k, (e, fmt) in enumerate(((eta, "csv"), (2 * eta, "json"))):
                invs.append(
                    Invocation(
                        ("analytic", "--drift", "--gamma", gamma, "--beta", beta, "--eta", repr(e), "--c", repr(c),
                         "--format", fmt),
                        (f"d{i}{j}{k} {gamma} {beta} eta={e:g}",),
                        f"d{i}{j}{k}",
                        {"gamma": gamma, "beta": beta, "eta": e, "c": c, "format": fmt, "pair": f"d{i}{j}"},
                    )
                )
    for i in range(4):
        alpha = round(rng.uniform(0.05, 0.3), 3)
        beta0 = round(rng.uniform(-2.0, -0.4), 3)
        gamma0 = round(rng.uniform(0.5, 2.0), 3)
        lr = round(rng.uniform(0.05, 0.2), 3)
        # decay chosen so the margin crosses zero half a step before
        # DECAY_REACTIVATION_STEP: the seed moves the trace, not its length
        shrink = (alpha / -beta0) ** (1.0 / (DECAY_REACTIVATION_STEP - 0.5))
        wd = (1.0 - shrink) / lr
        params = {"gamma": gamma0, "beta": beta0, "alpha": alpha, "lr": lr, "wd": wd}
        argv = ["decay", "--steps", str(DECAY_MAX_STEPS)]
        for key, value in params.items():
            argv += [f"--{key}", repr(value)]
        invs.append(Invocation(tuple(argv), (f"decay{i}",), f"decay{i}", params))
        invs.append(Invocation(("report", "--source", f"{{decay{i}}}"), (f"report{i}",), f"decay{i}/replot", params))
    return Inputs("theory-sweep", seed, tuple(invs), work=float(len(invs)))


WORKLOADS = {"verify-grid": verify_grid, "toy-study": toy_study, "theory-sweep": theory_sweep}
