"""Headline guarantees, one test per claim, each with a wall-clock budget.

Run with `pytest -v tests/test_acceptance.py` to get a ten-line scorecard.
The two expensive inputs (the 10M-sample drift grid and the twelve-run toy
study) are module fixtures; their cost is charged against the budget of
every test that consumes them.
"""

import math
import time
from dataclasses import replace

import numpy as np
import pytest
from helpers import FD_STEP, fd_grad, g_closed, h_tail_closed, partial_moment_numeric, rel_err, run_cli, tree_bytes

from collapse_lab import analytic, mc
from collapse_lab.dists import Normal, PointMass, Uniform
from collapse_lab.net.layers import (
    BatchNorm,
    Dense,
    LeakyReLU,
    ReLU,
    softmax_cross_entropy,
)
from collapse_lab.net.model import pruned_copy
from collapse_lab.net.train import PRESETS, dataset_for, multi_round_experiment
from collapse_lab.sparsity import COLLAPSE_THRESHOLD

_SQRT2 = math.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)


def check_budget(t0: float, limit: float) -> None:
    took = time.perf_counter() - t0
    assert took < limit, f"took {took:.2f}s, budget {limit:g}s"


def k_oracle(x: float) -> float:
    """Kernel recomputed from libm pieces only (erfc route, no ndtr)."""
    p = math.exp(-0.5 * x * x) * _INV_SQRT_2PI
    cdf = 0.5 * math.erfc(-x / _SQRT2)
    return (x**4 - 2.0) * p * p + (x - x**3) * p * cdf


@pytest.fixture(scope="module")
def theorem_grid():
    """Six-cell drift verification at 10M samples per cell, timed once."""
    t0 = time.perf_counter()
    spec = mc.EnsembleSpec(Uniform(0.5, 1.5), Uniform(-1.0, 1.0), count=10_000_000)
    rows = mc.one_step_drift(spec, mc.standard_grid(0))
    return rows, time.perf_counter() - t0


@pytest.fixture(scope="module")
def toy_study():
    """Four preset arms x three seeds of the toy collapse experiment, timed once."""
    preset = {name: cfg for arms in PRESETS.values() for name, cfg in arms}
    arms = [(name, preset[name]) for name in ("bn-relu", "psbn-relu", "gamma-0.2", "eta-0.5")]
    base = preset["bn-relu"]
    t0 = time.perf_counter()
    result = multi_round_experiment(arms, seeds=(0, 1, 2))
    return result, base, time.perf_counter() - t0


def test_01_kernel_closed_form():
    t0 = time.perf_counter()
    assert abs(float(analytic.k_fn(0.0)) + 1.0 / math.pi) < 1e-12
    xs = np.arange(-800, 801, dtype=np.int64) * 0.01
    got = analytic.k_fn(xs)
    want = np.array([k_oracle(float(x)) for x in xs])
    assert np.abs(got - want).max() < 1e-10
    check_budget(t0, 1.0)


def test_02_partial_moment_identities():
    t0 = time.perf_counter()
    worst_g = worst_h = 0.0
    for y in np.linspace(-4.0, 4.0, 81):
        y = float(y)
        worst_g = max(worst_g, abs(float(g_closed(y)) - partial_moment_numeric(1, y)))
        worst_h = max(worst_h, abs(float(h_tail_closed(y)) - (1.0 - partial_moment_numeric(2, -y))))
    assert worst_g < 1e-8, f"first-moment mismatch {worst_g:.3e}"
    assert worst_h < 1e-8, f"second-moment mismatch {worst_h:.3e}"
    check_budget(t0, 1.0)


def test_03_drift_integrand_sign():
    t0 = time.perf_counter()
    gammas = np.linspace(0.1, 5.0, 50)
    beta_dists = [
        Uniform(-0.5, 0.5),
        Uniform(-1.0, 1.0),
        Uniform(-2.0, 2.0),
        Normal(0.0, 0.1),
        Normal(0.0, 0.5),
        Normal(0.0, 1.0),
    ]
    for dist in beta_dists:
        for g in gammas:
            j = analytic.j_fn(float(g), dist)
            assert j < 0.0, f"J({g:.2f}) = {j:.3e} under {dist}"
    point = PointMass(0.0)
    for g in gammas:
        assert abs(analytic.j_fn(float(g), point) + 1.0 / math.pi) < 1e-10
    check_budget(t0, 10.0)


def test_04_one_step_drift_normal_noise(theorem_grid):
    rows, elapsed = theorem_grid
    normal = [r for r in rows if r.noise == "normal"]
    assert {r.eta for r in normal} == {0.002, 0.005, 0.01}
    for r in normal:
        assert r.n == 10_000_000
        assert r.empirical_mean < 0.0, r
        assert r.agree, (
            f"eta={r.eta}: |{r.empirical_mean:.4e} - {r.predicted:.4e}|"
            f" > 3 x {r.std_error:.2e}"
        )
    (doubling,) = [r for r in normal if r.eta == 0.01]
    assert doubling.ratio_to_half_eta is not None
    assert abs(doubling.ratio_to_half_eta - 4.0) <= 0.6, doubling.ratio_to_half_eta
    assert elapsed < 180.0, f"grid took {elapsed:.1f}s, budget 180s"


def test_05_one_step_drift_uniform_noise(theorem_grid):
    rows, elapsed = theorem_grid
    uniform = [r for r in rows if r.noise == "uniform"]
    assert {r.eta for r in uniform} == {0.002, 0.005, 0.01}
    for r in uniform:
        assert r.empirical_mean < 0.0, r
        assert r.agree, (
            f"eta={r.eta}: |{r.empirical_mean:.4e} - {r.predicted:.4e}|"
            f" > 3 x {r.std_error:.2e}"
        )
    (doubling,) = [r for r in uniform if r.eta == 0.01]
    assert doubling.ratio_to_half_eta is not None
    assert abs(doubling.ratio_to_half_eta - 4.0) <= 0.6, doubling.ratio_to_half_eta
    assert elapsed < 180.0, f"grid took {elapsed:.1f}s, budget 180s"


def test_06_coupled_decay_dynamics():
    t0 = time.perf_counter()

    # dead unit, alpha 0: decay rescales gamma and beta together, so the
    # ratio beta/gamma must hold to machine-level relative error, while
    # decay alone takes gamma below the collapse threshold
    cfg = mc.UpdateConfig(eta=0.1, c=1.0, weight_decay=0.01)
    steps, gammas, betas = mc.sgd_trajectory(1.0, -10.0, steps=100_000, cfg=cfg, stride=1000)
    assert steps[-1] == 100_000 and gammas.shape == (101, 1)
    for step, ratio in zip(steps, betas[:, 0] / gammas[:, 0]):
        assert abs(ratio - (-10.0)) <= 1e-12 * 10.0, (step, ratio)
    assert abs(gammas[-1, 0]) < COLLAPSE_THRESHOLD

    # post-shifted dead unit: per-step margin increments match the
    # closed-form recurrence term built from the previous gamma
    shifted = mc.UpdateConfig(eta=0.1, c=0.0, weight_decay=0.01, alpha=0.1)
    result = mc.decay_trajectory((1.0, -1.1), shifted, steps=5000, stride=1)
    margins = [(r.beta + 0.1) / abs(r.gamma) for r in result.records]
    gammas = [r.gamma for r in result.records]
    rate = 0.1 * 0.01
    for i in range(1, len(margins)):
        want = (rate / (1.0 - rate)) * 0.1 / abs(gammas[i - 1])
        assert abs((margins[i] - margins[i - 1]) - want) < 1e-12

    # reactivation step agrees exactly with an additive scalar recurrence
    c, gamma, step = -1.0, 1.0, 0
    shrink = 1.0 - rate
    while c < 0.0:
        c += (rate / shrink) * 0.1 / abs(gamma)
        gamma *= shrink
        step += 1
    assert result.reactivation_step == step == 2397
    assert margins[-1] >= 0.0
    check_budget(t0, 5.0)


def test_07_layer_gradients_match_fd():
    t0 = time.perf_counter()
    worst = 0.0
    for seed in range(5):
        rng = np.random.default_rng(seed)

        x = rng.standard_normal((12, 6))
        dense = Dense(6, 5, rng)
        c = rng.standard_normal((12, 5))
        dense.forward(x, "train")
        grad_in = dense.backward(c)
        gw, gb = dense.gw.copy(), dense.gb.copy()
        loss = lambda: float(np.sum(c * dense.forward(x, "eval")))
        worst = max(worst, rel_err(gw, fd_grad(loss, dense.w, FD_STEP)))
        worst = max(worst, rel_err(gb, fd_grad(loss, dense.b, FD_STEP)))
        worst = max(worst, rel_err(grad_in, fd_grad(loss, x, FD_STEP)))

        for alpha in (0.0, 0.1):
            xb = rng.standard_normal((16, 6))
            bn = BatchNorm(6, gamma_init=1.3, alpha=alpha)
            cb = rng.standard_normal((16, 6))
            bn.forward(xb, "train")
            grad_in = bn.backward(cb)
            ggamma, gbeta = bn.ggamma.copy(), bn.gbeta.copy()
            loss = lambda: float(np.sum(cb * bn.forward(xb, "train")))
            worst = max(worst, rel_err(ggamma, fd_grad(loss, bn.gamma, FD_STEP)))
            worst = max(worst, rel_err(gbeta, fd_grad(loss, bn.beta, FD_STEP)))
            worst = max(worst, rel_err(grad_in, fd_grad(loss, xb, FD_STEP)))

        for act in (ReLU(), LeakyReLU()):
            xa = rng.standard_normal((12, 6))
            xa += np.where(xa >= 0, 0.1, -0.1)  # keep FD probes off the kink
            ca = rng.standard_normal((12, 6))
            act.forward(xa, "train")
            grad_in = act.backward(ca)
            loss = lambda: float(np.sum(ca * act.forward(xa, "eval")))
            worst = max(worst, rel_err(grad_in, fd_grad(loss, xa, FD_STEP)))

        logits = rng.standard_normal((12, 4))
        labels = rng.integers(0, 4, size=12)
        _, grad = softmax_cross_entropy(logits, labels)
        loss = lambda: softmax_cross_entropy(logits, labels)[0]
        worst = max(worst, rel_err(grad, fd_grad(loss, logits, FD_STEP)))

    assert worst < 1e-4, f"worst relative gradient error {worst:.3e}"
    check_budget(t0, 10.0)


def test_08_toy_collapse_trends(toy_study):
    result, base, elapsed = toy_study
    assert result.failures == []
    spars = {(r.arm, r.seed, r.round): r.sparsity_ratio for r in result.rows}
    last = base.rounds - 1
    seeds = (0, 1, 2)

    grew = sum(spars[("bn-relu", s, last)] > spars[("bn-relu", s, 0)] for s in seeds)
    assert grew >= 2, f"sparsity grew in only {grew}/3 seeds"

    for s in seeds:
        assert spars[("psbn-relu", s, last)] <= spars[("bn-relu", s, last)], (
            f"seed {s}: post-shift {spars[('psbn-relu', s, last)]:.4f}"
            f" > plain {spars[('bn-relu', s, last)]:.4f}"
        )

    def mean_final(arm):
        return sum(spars[(arm, s, last)] for s in seeds) / len(seeds)

    assert mean_final("gamma-0.2") >= mean_final("bn-relu")
    assert mean_final("eta-0.5") >= mean_final("bn-relu")
    assert elapsed < 600.0, f"study took {elapsed:.1f}s, budget 600s"


def test_09_pruning_collapsed_units_is_neutral(toy_study):
    result, base, _ = toy_study
    t0 = time.perf_counter()
    # psbn too: its collapsed units still emit a constant, which pruning
    # must carry into the next layer's bias
    for arm in ("bn-relu", "psbn-relu"):
        for seed in (0, 1, 2):
            model, _, _ = result.runs[(arm, seed)]
            ds = dataset_for(replace(base, seed=seed))
            _, acc = model.evaluate(ds.x_val, ds.y_val)
            pruned, n_pruned = pruned_copy(model)
            _, acc_pruned = pruned.evaluate(ds.x_val, ds.y_val)
            assert n_pruned > 0, f"{arm} seed {seed}: expected some collapsed units to prune"
            assert abs(acc - acc_pruned) <= 0.002, (
                f"{arm} seed {seed}: pruning {n_pruned} units moved val acc"
                f" {acc:.4f} -> {acc_pruned:.4f}"
            )
    check_budget(t0, 60.0)


def test_10_cli_is_deterministic_under_thread_caps(tmp_path):
    cases = {
        "analytic": [
            "analytic", "--k-grid=-2:2:0.25", "--j", "--gamma-grid", "0.5:1.5:0.25",
            "--beta", "uniform:-1:1", "--drift", "--gamma", "uniform:0.5:1.5",
            "--eta", "0.01", "--c", "1.0",
        ],
        "mc": ["mc", "--eta", "0.01", "--n", "50000", "--seed", "3"],
        "decay": ["decay", "--steps", "3000", "--stride", "50"],
        "train": [
            "train", "--rounds", "2", "--epochs", "2", "--batch-size", "8",
            "--width", "8", "--layers", "2", "--classes", "3", "--dim", "6",
            "--n-per-class", "10",
        ],
    }
    variants = (
        ("a", None),
        ("b", None),
        ("c", {"COLLAPSE_LAB_THREADS": "1"}),
        ("d", {"COLLAPSE_LAB_THREADS": "4"}),
    )
    for name, args in cases.items():
        for sub, env in variants:
            out = f"{name}-{sub}"
            res = run_cli(args + ["--out", out], cwd=tmp_path, env=env)
            assert res.returncode == 0, f"{name}/{sub}: {res.stderr}"

    # report replays saved tables, so point every variant at one source
    for sub, env in variants:
        res = run_cli(
            ["report", "--source", "decay-a", "--out", f"report-{sub}"],
            cwd=tmp_path,
            env=env,
        )
        assert res.returncode == 0, f"report/{sub}: {res.stderr}"

    for name in (*cases, "report"):
        base = tree_bytes(tmp_path / f"{name}-a")
        assert base, f"{name}: no files written"
        for sub in ("b", "c", "d"):
            assert tree_bytes(tmp_path / f"{name}-{sub}") == base, f"{name}-{sub} differs"
