"""Training loop: schedule, determinism, resume, divergence handling, presets."""

import copy
import math
import multiprocessing
import os
import signal
from dataclasses import replace

import numpy as np
import pytest

from collapse_lab import cli
from collapse_lab.errors import CollapseLabError, ConfigError, DivergenceError
from collapse_lab.mc import usable_cores
from collapse_lab.net import train as net_train
from collapse_lab.net.model import MLP, load_checkpoint, save_checkpoint
from collapse_lab.net.train import (
    PRESETS,
    ExperimentRow,
    TrainConfig,
    cosine_lr,
    dataset_for,
    multi_round_experiment,
    preset_arms,
    run_training,
    sgd_step,
    train_round,
)

TINY = TrainConfig(
    rounds=2,
    epochs_per_round=3,
    batch_size=16,
    hidden_width=8,
    hidden_layers=2,
    classes=3,
    dim=6,
    n_per_class=25,
    weight_decay=0.01,
)

# a cap of 2 starts worker processes only where there are two usable cores (resolve_threads caps by them)
needs_two_cores = pytest.mark.skipif(usable_cores() < 2, reason="needs two worker processes")


class TestCosineLr:
    def test_endpoints(self):
        assert math.isclose(cosine_lr(0, 100, 0.1, 1e-3), 0.1, rel_tol=1e-15)
        assert cosine_lr(100, 100, 0.1, 1e-3) == 1e-3

    def test_midpoint(self):
        assert math.isclose(cosine_lr(50, 100, 0.1, 0.0), 0.05, rel_tol=1e-12)

    def test_monotone_within_round(self):
        vals = [cosine_lr(t, 200, 0.1, 1e-3) for t in range(201)]
        assert all(a >= b for a, b in zip(vals, vals[1:]))

    def test_validation(self):
        with pytest.raises(ConfigError):
            cosine_lr(0, 0, 0.1, 0.01)


class TestTrainConfigValidation:
    @pytest.mark.parametrize(
        "kw",
        [
            dict(rounds=0),
            dict(epochs_per_round=0),
            dict(batch_size=1),
            dict(eta_min=0.2, eta_max=0.1),
            dict(eta_min=-1e-3),
            dict(momentum_sgd=1.0),
            dict(momentum_sgd=-0.1),
            dict(weight_decay=-1e-4),
            dict(weight_decay=10.0),
            dict(activation="gelu"),
            dict(norm="groupnorm"),
            dict(norm="psbn", alpha=0.0),
            dict(norm="bn", alpha=0.1),
            dict(gamma_init=0.0),
            dict(hidden_width=8.5),
            dict(dim=0),
            dict(seed=-1),
            dict(seed=2**64),
            dict(data_seed=-5),
            dict(data_seed=1.5),
            dict(eta_max=math.inf),
            dict(eta_max=math.nan),
            dict(eta_min=math.nan),
            dict(weight_decay=math.nan),
            dict(weight_decay=math.inf),
            dict(gamma_init=math.inf),
            dict(gamma_init=math.nan),
            dict(norm="psbn", alpha=math.inf),
            dict(collapse_threshold=-1.0),
            dict(collapse_threshold=0.0),
            dict(collapse_threshold=math.inf),
            dict(collapse_threshold=math.nan),
            dict(hidden_width=0),
            dict(hidden_layers=0),
        ],
    )
    def test_rejects(self, kw):
        with pytest.raises(ConfigError):
            TrainConfig(**kw)

    def test_zero_rates_allowed(self):
        cfg = TrainConfig(eta_max=0.0, eta_min=0.0)
        assert cfg.eta_max == 0.0

    def test_huge_finite_rates_allowed(self):
        assert TrainConfig(eta_max=1e150, eta_min=1e150, weight_decay=0.0).eta_max == 1e150


class TestSgdStep:
    def test_momentum_accumulates_from_zero_velocity(self):
        params, velocity = np.array([1.0, -2.0]), np.zeros(2)
        grads = np.array([0.5, 0.25])
        sgd_step(params, velocity, grads, 0.5, 0.5, 0.0)
        assert velocity.tolist() == [0.5, 0.25] and params.tolist() == [0.75, -2.125]
        sgd_step(params, velocity, grads, 0.5, 0.5, 0.0)
        # velocity = 0.5 * velocity + grads
        assert velocity.tolist() == [0.75, 0.375] and params.tolist() == [0.375, -2.3125]

    def test_decay_at_the_steps_eta(self):
        params, velocity = np.array([1.0, 4.0]), np.zeros(2)
        sgd_step(params, velocity, np.array([2.0, 0.0]), 0.25, 0.0, 0.5)
        # the step, then the shrink by 1 - 0.25 * 0.5
        assert params.tolist() == [0.5 * 0.875, 4.0 * 0.875]

    def test_zero_eta_and_decay_leave_params(self):
        params = np.array([1.5, -0.0, 3.0])
        velocity = np.array([1.0, 2.0, 3.0])
        sgd_step(params, velocity, np.array([7.0, 8.0, 9.0]), 0.0, 0.9, 0.0)
        assert params.tobytes() == np.array([1.5, -0.0, 3.0]).tobytes()
        assert velocity.tolist() == [7.9, 9.8, 11.7]


class TestTrainRound:
    def test_one_sgd_step_per_batch(self, monkeypatch):
        calls = []

        def counted(*args):
            calls.append(args[3])
            return sgd_step(*args)

        monkeypatch.setattr(net_train, "sgd_step", counted)
        cfg = replace(TINY, rounds=1, epochs_per_round=2)
        dataset = dataset_for(cfg)
        rng = np.random.default_rng(0)
        train_round(MLP.build(cfg.arch, rng), dataset, cfg, 0, rng)
        steps = cfg.epochs_per_round * net_train._steps_per_epoch(len(dataset.y_train), cfg.batch_size)
        assert calls == [cosine_lr(t, steps, cfg.eta_max, cfg.eta_min) for t in range(steps)]

    def test_zero_lr_zero_decay_freezes_trainable_params(self):
        """eta = 0 and lambda = 0: the round is a no-op on every trainable
        parameter, bit for bit. Running statistics still move (they are
        state, not parameters)."""
        cfg = TrainConfig(
            rounds=1, epochs_per_round=2, batch_size=16, eta_max=0.0, eta_min=0.0,
            weight_decay=0.0, hidden_width=8, hidden_layers=2, classes=3, dim=6,
            n_per_class=25,
        )
        dataset = dataset_for(cfg)
        rng = np.random.default_rng(cfg.seed)
        model = MLP.build(cfg.arch, rng)
        before = {k: v.copy() for k, v in model.state_arrays().items()}
        train_round(model, dataset, cfg, 0, rng)
        after = model.state_arrays()
        for key in before:
            if "running" in key:
                continue
            assert np.array_equal(after[key], before[key]), key
        assert not np.array_equal(after["b1.running_mean"], before["b1.running_mean"])

    def test_loss_decreases_over_first_round(self):
        cfg = TINY
        dataset = dataset_for(cfg)
        rng = np.random.default_rng(cfg.seed)
        model = MLP.build(cfg.arch, rng)
        loss0, _ = model.evaluate(dataset.x_train, dataset.y_train)
        report = train_round(model, dataset, cfg, 0, rng)
        assert report.train_loss < loss0

    def test_divergence_names_round_and_epoch(self):
        # a step this size overflows the second matmul; softmax saturation
        # keeps merely-large rates finite, so the rate must be extreme
        cfg = replace(
            TINY, rounds=1, epochs_per_round=50, eta_max=1e150, eta_min=1e150,
            weight_decay=0.0, norm="none", activation="leaky",
        )
        dataset = dataset_for(cfg)
        rng = np.random.default_rng(0)
        model = MLP.build(cfg.arch, rng)
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(DivergenceError) as err:
            train_round(model, dataset, cfg, 0, rng)
        assert "round 0 diverged" in str(err.value)
        assert err.value.partial["round_index"] == 0
        assert "epoch" in str(err.value)

    @pytest.mark.parametrize("activation", ["relu", "leaky"])
    def test_nan_pre_activation_diverges(self, activation):
        # a NaN bias fills one BN channel with NaN; a ReLU that read NaN as
        # inactive would zero it and report a finite loss
        cfg = replace(TINY, rounds=1, activation=activation)
        dataset = dataset_for(cfg)
        rng = np.random.default_rng(0)
        model = MLP.build(cfg.arch, rng)
        model.dense[0].b[0] = np.nan
        with pytest.raises(DivergenceError) as err:
            train_round(model, dataset, cfg, 0, rng)
        assert err.value.partial == {"round_index": 0, "epoch": 0, "step": 0}


class TestBatchPlan:
    @pytest.mark.parametrize("n, sizes", [(48, [16, 16, 16]), (49, [16, 16, 16]), (50, [16, 16, 16, 2])])
    def test_each_epoch_takes_the_permuted_rows_in_order(self, n, sizes):
        """Every row once per epoch, in rng.permutation order; a trailing
        batch of one row is dropped (batch statistics need two), one of two
        rows is kept."""
        cfg = replace(TINY, rounds=1, epochs_per_round=3)
        full = dataset_for(cfg)
        dataset = replace(full, x_train=full.x_train[:n], y_train=full.y_train[:n])
        rng = np.random.default_rng(3)
        model = MLP.build(cfg.arch, rng)
        twin = copy.deepcopy(rng)  # draws the permutations train_round will draw
        batches = []
        step = model.loss_and_grad

        def recording_step(x, labels):
            batches.append((x.copy(), labels.copy()))
            return step(x, labels)

        model.loss_and_grad = recording_step
        train_round(model, dataset, cfg, 0, rng)
        assert len(batches) == cfg.epochs_per_round * net_train._steps_per_epoch(n, cfg.batch_size)
        assert [len(labels) for _, labels in batches] == sizes * cfg.epochs_per_round
        for epoch in range(cfg.epochs_per_round):
            rows = twin.permutation(n)[: sum(sizes)]
            taken = batches[epoch * len(sizes) : (epoch + 1) * len(sizes)]
            assert np.array_equal(np.concatenate([x for x, _ in taken]), dataset.x_train[rows])
            assert np.array_equal(np.concatenate([labels for _, labels in taken]), dataset.y_train[rows])


class TestRunTraining:
    def test_deterministic(self):
        m1, r1, _ = run_training(TINY)
        m2, r2, _ = run_training(TINY)
        for key, arr in m1.state_arrays().items():
            assert np.array_equal(m2.state_arrays()[key], arr), key
        assert [(r.train_loss, r.train_acc, r.val_acc) for r in r1] == [
            (r.train_loss, r.train_acc, r.val_acc) for r in r2
        ]

    def test_seed_matters(self):
        m1, _, _ = run_training(TINY)
        m2, _, _ = run_training(replace(TINY, seed=1))
        assert not np.array_equal(m1.state_arrays()["b0.w"], m2.state_arrays()["b0.w"])

    def test_report_rounds_indexed_in_order(self):
        _, reports, _ = run_training(TINY)
        assert [r.round_index for r in reports] == [0, 1]

    def test_resume_from_checkpoint_is_bit_exact(self, tmp_path):
        """Stopping at a round boundary and resuming reproduces the
        uninterrupted run exactly."""
        cfg3 = replace(TINY, rounds=3)
        full, _, _ = run_training(cfg3)

        cfg2 = replace(TINY, rounds=2)
        model, _, rng = run_training(cfg2)
        path = tmp_path / "boundary.json"
        save_checkpoint(path, model, rng, extra={"next_round": 2})
        resumed, rng2, extra = load_checkpoint(path)
        train_round(resumed, dataset_for(cfg3), cfg3, extra["next_round"], rng2)

        for key, arr in full.state_arrays().items():
            assert np.array_equal(resumed.state_arrays()[key], arr), key


class TestMemorization:
    def test_true_labels_generalize(self):
        _, reports, _ = run_training(TINY)
        assert reports[-1].val_acc >= 0.8


class TestExperiment:
    def test_failed_arm_recorded_good_arm_complete(self):
        bad = replace(
            TINY, eta_max=1e150, eta_min=1e150, norm="none",
            activation="leaky", weight_decay=0.0,
        )
        with np.errstate(over="ignore", invalid="ignore"):
            result = multi_round_experiment([("good", TINY), ("bad", bad)], seeds=[0])
        assert [f[:2] for f in result.failures] == [("bad", 0)]
        assert "diverged" in result.failures[0][2]
        assert set(result.runs) == {("good", 0)}
        assert len(result.rows) == TINY.rounds
        assert all(type(row) is ExperimentRow and row.arm == "good" for row in result.rows)
        assert [row.round for row in result.rows] == list(range(TINY.rounds))
        assert isinstance(result.runs[("good", 0)][2], np.random.Generator)

    def test_rows_cover_arm_seed_round_grid(self):
        result = multi_round_experiment([("a", TINY)], seeds=[0, 1])
        got = {(r.arm, r.seed, r.round) for r in result.rows}
        assert got == {("a", s, r) for s in (0, 1) for r in range(TINY.rounds)}

    @needs_two_cores
    def test_worker_count_never_changes_results(self, monkeypatch):
        bad = replace(
            TINY, eta_max=1e150, eta_min=1e150, norm="none",
            activation="leaky", weight_decay=0.0,
        )
        arms = [("bn", TINY), ("psbn", replace(TINY, norm="psbn", alpha=0.1)), ("bad", bad)]
        results = []
        for cap in ("1", "2"):
            monkeypatch.setenv("COLLAPSE_LAB_THREADS", cap)
            env = dict(os.environ)
            with np.errstate(over="ignore", invalid="ignore"):
                results.append(multi_round_experiment(arms, seeds=[0, 1]))
            assert multiprocessing.active_children() == []
            assert dict(os.environ) == env
        one, two = results
        assert one.rows == two.rows
        assert one.failures == two.failures
        assert [f[:2] for f in one.failures] == [("bad", 0), ("bad", 1)]
        assert set(one.runs) == set(two.runs) == {(a, s) for a in ("bn", "psbn") for s in (0, 1)}
        for cell, (model, _, rng) in one.runs.items():
            other, _, other_rng = two.runs[cell]
            assert other.params.tobytes() == model.params.tobytes(), cell
            for key, arr in model.state_arrays().items():
                assert other.state_arrays()[key].tobytes() == arr.tobytes(), (cell, key)
            assert other_rng.bit_generator.state == rng.bit_generator.state, cell

    @pytest.mark.parametrize("cap", ["1", "2"])
    def test_cell_error_keeps_its_type_under_any_cap(self, monkeypatch, cap):
        monkeypatch.setenv("COLLAPSE_LAB_THREADS", cap)
        with pytest.raises(ConfigError, match="n_per_class must be >= 5"):
            multi_round_experiment([("a", TINY), ("small", replace(TINY, n_per_class=3))], seeds=[0, 1])
        assert multiprocessing.active_children() == []


def _killed_on_seed_1(cfg):
    """Cell function for a worker process: the worker is killed on seed 1."""
    assert multiprocessing.parent_process() is not None, "ran in the test process, not in a worker"
    if cfg.seed == 1:
        os.kill(os.getpid(), signal.SIGKILL)
    return net_train._run_cell(cfg)


@needs_two_cores
class TestDeadWorker:
    def test_names_its_cell(self, monkeypatch):
        monkeypatch.setenv("COLLAPSE_LAB_THREADS", "2")
        monkeypatch.setattr(net_train, "_run_cell", _killed_on_seed_1)
        with pytest.raises(CollapseLabError, match=r"arm a seed 1: .*died \(exit code -9\)"):
            multi_round_experiment([("a", TINY)], seeds=[0, 1])
        assert multiprocessing.active_children() == []

    def test_train_exits_3(self, monkeypatch, capsys, tmp_path):
        monkeypatch.setenv("COLLAPSE_LAB_THREADS", "2")
        monkeypatch.setattr(net_train, "_run_cell", _killed_on_seed_1)
        argv = ["train", "--seeds", "2", "--rounds", "1", "--epochs", "1", "--width", "8", "--layers", "2",
                "--classes", "3", "--dim", "6", "--n-per-class", "10", "--out", str(tmp_path / "o")]
        assert cli.main(argv) == 3
        assert "arm custom seed 1" in capsys.readouterr().err
        assert multiprocessing.active_children() == []
        assert not (tmp_path / "o").exists()


class TestPresets:
    def test_known_presets(self):
        assert set(PRESETS) == {"norm-variants", "lr-sweep", "gamma-init-sweep"}
        variants = dict(preset_arms("norm-variants"))
        assert set(variants) == {"bn-relu", "bn-leaky", "psbn-relu", "no-norm"}
        assert variants["psbn-relu"].norm == "psbn" and variants["psbn-relu"].alpha == 0.1
        assert variants["bn-leaky"].activation == "leaky"
        assert variants["no-norm"].norm == "none"

    def test_sweep_presets_vary_one_knob(self):
        lr = dict(preset_arms("lr-sweep"))
        assert {c.eta_max for c in lr.values()} == {0.1, 0.25, 0.5}
        gi = dict(preset_arms("gamma-init-sweep"))
        assert {c.gamma_init for c in gi.values()} == {1.0, 0.5, 0.2}

    def test_unknown_preset(self):
        with pytest.raises(ConfigError):
            preset_arms("wide-resnet")

    def test_presets_share_the_toy_base(self):
        for arms in PRESETS.values():
            for _, cfg in arms:
                assert cfg.weight_decay == 0.05
                assert cfg.hidden_width == 64

