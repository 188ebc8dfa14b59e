"""End-to-end CLI runs in subprocesses: files, exit codes, determinism."""

import hashlib
import json
import math
import os

import pytest
from helpers import run_cli, tree_bytes

from collapse_lab import analytic
from collapse_lab.cli import _ARTIFACTS, main
from collapse_lab.dists import Uniform
from collapse_lab.mc import usable_cores
from collapse_lab.net.model import load_checkpoint
from collapse_lab.tables import read_csv

# the columns of the tables that no plot is registered for
DRIFT = {"eta": float, "c": float, "gamma_dist": str, "beta_dist": str, "value": float}
L1_HIST = {"bin_lo": float, "bin_hi": float, "count": int}


def read_rows(path, types=None):
    """The rows of a table as dicts, its columns read as ``types``, by default as ``report`` reads its file."""
    table = read_csv(path, types or _ARTIFACTS[os.path.basename(path).removesuffix(".csv")][0])
    return [dict(zip(table, row)) for row in zip(*table.values())]


class TestAnalytic:
    def test_k_grid_table_and_plot(self, tmp_path):
        res = run_cli(["analytic", "--k-grid=-4:4:0.01", "--out", "o"], cwd=tmp_path)
        assert res.returncode == 0, res.stderr
        rows = read_rows(tmp_path / "o" / "k_grid.csv")
        assert len(rows) == 801
        at_zero = next(r for r in rows if r["x"] == 0.0)
        assert at_zero["k"] == -0.3183098861837907  # repr of -1/pi round-trips
        svg = (tmp_path / "o" / "k_fn.svg").read_text()
        assert svg.startswith("<svg ")
        assert "sign change x0=-1.1533" in svg

    def test_k_plot_marks_sign_change_only_inside_grid(self, tmp_path):
        res = run_cli(["analytic", "--k-grid", "0:2:0.5", "--out", "o"], cwd=tmp_path)
        assert res.returncode == 0, res.stderr
        assert "sign change" not in (tmp_path / "o" / "k_fn.svg").read_text()

    def test_j_constant_for_point_mass(self, tmp_path):
        res = run_cli(
            ["analytic", "--j", "--beta", "point:0", "--gamma-grid", "0.5:2.5:0.5", "--out", "o"],
            cwd=tmp_path,
        )
        assert res.returncode == 0, res.stderr
        rows = read_rows(tmp_path / "o" / "j_grid.csv")
        assert len(rows) == 5
        for row in rows:
            assert abs(row["j"] + 1.0 / math.pi) < 1e-12
            assert row["beta_even"] is True
            assert row["beta_dist"] == "point:0"

    def test_drift_matches_library(self, tmp_path):
        res = run_cli(
            [
                "analytic", "--drift", "--gamma", "uniform:0.5:1.5",
                "--beta", "uniform:-1:1", "--eta", "0.01", "--c", "1.0", "--out", "o",
            ],
            cwd=tmp_path,
        )
        assert res.returncode == 0, res.stderr
        (row,) = read_rows(tmp_path / "o" / "drift.csv", DRIFT)
        want = analytic.drift_prediction(0.01, 1.0, Uniform(0.5, 1.5), Uniform(-1, 1))
        assert row["value"] == want
        assert row["gamma_dist"] == "uniform:0.5:1.5"

    def test_json_format(self, tmp_path):
        res = run_cli(
            [
                "analytic", "--drift", "--gamma", "point:1", "--beta", "point:0",
                "--format", "json", "--out", "o",
            ],
            cwd=tmp_path,
        )
        assert res.returncode == 0, res.stderr
        payload = json.loads((tmp_path / "o" / "drift.json").read_text())
        assert isinstance(payload, list) and len(payload) == 1
        assert math.isclose(payload[0]["value"], 0.5 * 0.01**2 * (-1 / math.pi), rel_tol=1e-12)

    def test_k_grid_a_few_ulps_wide(self, tmp_path):
        # K moves by an ulp or two over this grid, so its axis is that narrow
        res = run_cli(["analytic", "--k-grid=0:2e-16:1e-16", "--out", "o"], cwd=tmp_path)
        assert res.returncode == 0, res.stderr
        assert (tmp_path / "o" / "k_fn.svg").exists()

    def test_k_grid_a_subnormal_span_wide(self, tmp_path):
        # the x axis is so narrow that span / 5 underflows to 0
        res = run_cli(["analytic", "--k-grid=0:1e-323:5e-324", "--out", "o"], cwd=tmp_path)
        assert res.returncode == 0, res.stderr
        assert (tmp_path / "o" / "k_grid.csv").exists()
        assert (tmp_path / "o" / "k_fn.svg").exists()

    def test_no_mode_is_a_usage_error(self, tmp_path):
        res = run_cli(["analytic", "--out", "o"], cwd=tmp_path)
        assert res.returncode == 2, res.stderr
        assert "nothing to do" in res.stderr

    def test_zero_in_gamma_grid_rejected(self, tmp_path):
        res = run_cli(
            ["analytic", "--j", "--beta", "point:0", "--gamma-grid", "0:2:0.5", "--out", "o"],
            cwd=tmp_path,
        )
        assert res.returncode == 2, res.stderr

    def test_zero_inside_gamma_grid_rejected(self, tmp_path):
        res = run_cli(
            ["analytic", "--j", "--beta", "uniform:-1:1", "--gamma-grid=-1:1:0.5", "--out", "o"],
            cwd=tmp_path,
        )
        assert res.returncode == 2, res.stderr
        assert "--gamma-grid must not contain 0" in res.stderr
        assert not (tmp_path / "o").exists()  # nothing written, not even the directory

    def test_flag_error_after_a_valid_table_writes_nothing(self, tmp_path):
        res = run_cli(["analytic", "--k-grid=-1:1:0.5", "--j", "--out", "o"], cwd=tmp_path)
        assert res.returncode == 2, res.stderr
        assert "--j requires --beta" in res.stderr
        assert not (tmp_path / "o").exists()  # nothing written, not even the directory

    @pytest.mark.parametrize("grid", ["0:1:0.3", "0:1:5"])
    def test_grid_step_must_divide_span(self, tmp_path, grid):
        # 0.3 does not divide the span 1, and 5 overshoots it
        res = run_cli(["analytic", "--k-grid", grid, "--out", "o"], cwd=tmp_path)
        assert res.returncode == 2, res.stderr
        assert "whole number of steps" in res.stderr
        assert not (tmp_path / "o").exists()  # nothing written, not even the directory

    def test_grid_span_overflow_is_named(self, tmp_path):
        # a 20-step grid whose span hi - lo exceeds the largest double
        res = run_cli(["analytic", "--k-grid=-1e308:1e308:1e307", "--out", "o"], cwd=tmp_path)
        assert res.returncode == 2, res.stderr
        assert "grid span hi - lo overflows" in res.stderr
        assert "too large" not in res.stderr
        assert not (tmp_path / "o").exists()

    def test_gamma_support_through_zero_is_config_error(self, tmp_path):
        res = run_cli(
            ["analytic", "--drift", "--gamma", "normal:1:0.1", "--beta", "uniform:-1:1", "--out", "o"],
            cwd=tmp_path,
        )
        assert res.returncode == 2, res.stderr
        assert "gamma support must lie in" in res.stderr
        assert not (tmp_path / "o").exists()  # nothing written, not even the directory

    @pytest.mark.parametrize(
        "flag, value", [("--eta", "-1"), ("--eta", "nan"), ("--c", "inf"), ("--eta", "1e200"), ("--c", "1e300")]
    )
    def test_drift_outside_its_domain_is_config_error(self, tmp_path, flag, value):
        args = ["analytic", "--k-grid", "0:1:0.5", "--drift", "--gamma", "point:1", "--beta", "point:0"]
        res = run_cli(args + [flag, value, "--out", "o"], cwd=tmp_path)
        assert res.returncode == 2, res.stderr
        assert "--eta and --c" in res.stderr
        assert "Traceback" not in res.stderr
        assert not (tmp_path / "o").exists()  # checked before the K grid is written


class TestMc:
    def test_zero_eta_cell_is_exact(self, tmp_path):
        res = run_cli(["mc", "--eta", "0", "--n", "20000", "--out", "o"], cwd=tmp_path)
        assert res.returncode == 0, res.stderr
        (row,) = read_rows(tmp_path / "o" / "mc_verify.csv")
        assert row["empirical_mean"] == 0.0
        assert row["predicted"] == 0.0
        assert row["agree"] is True
        assert row["ratio_to_half_eta"] is None

    def test_single_cell_agrees(self, tmp_path):
        res = run_cli(
            ["mc", "--eta", "0.005", "--n", "200000", "--seed", "0", "--out", "o"],
            cwd=tmp_path,
        )
        assert res.returncode == 0, res.stderr
        (row,) = read_rows(tmp_path / "o" / "mc_verify.csv")
        assert row["agree"] is True
        assert row["empirical_mean"] < 0
        assert (tmp_path / "o" / "drift_vs_eta.svg").exists()

    def test_bad_dist_flag(self, tmp_path):
        res = run_cli(["mc", "--gamma", "uniform:2:1", "--out", "o"], cwd=tmp_path)
        assert res.returncode == 2, res.stderr

    def test_verify_prints_agreement_table(self, tmp_path):
        res = run_cli(["mc", "--verify", "--n", "20000", "--out", "o"], cwd=tmp_path)
        assert res.returncode == 0, res.stderr
        rows = read_rows(tmp_path / "o" / "mc_verify.csv")
        lines = res.stdout.splitlines()
        assert lines[:2] == ["o/mc_verify.csv", "o/drift_vs_eta.svg"]
        assert lines[2].split() == ["cell", "empirical", "predicted", "se", "ratio", "agree"]
        assert [line.split()[0] for line in lines[4:10]] == [r["run_id"] for r in rows]
        assert [r["gamma_crossings"] for r in rows] == [0] * 6  # no gamma of the standard grid crosses 0
        bad = sum(not r["agree"] for r in rows)
        if bad:
            assert f"{bad} cell(s) disagree" in res.stderr
        else:
            assert lines[-1] == "all 6 cells within 3 standard errors"

    def test_count_below_floor_is_config_error(self, tmp_path):
        res = run_cli(["mc", "--n", "5000", "--out", "o"], cwd=tmp_path)
        assert res.returncode == 2, res.stderr
        assert "count must be >= 10^4" in res.stderr
        assert not (tmp_path / "o").exists()  # nothing written, not even the directory

    def test_unknown_noise_kind_at_zero_c(self, tmp_path):
        res = run_cli(["mc", "--noise", "bogus", "--c", "0", "--n", "20000", "--out", "o"], cwd=tmp_path)
        assert res.returncode == 2, res.stderr
        assert "unknown noise kind 'bogus'" in res.stderr
        assert not (tmp_path / "o" / "mc_verify.csv").exists()

    @pytest.mark.parametrize(
        "flags",
        [["--gamma", "uniform:1:2", "--eta", "0.3"], ["--c", "2"], ["--noise", "uniform"], ["--beta", "uniform:-2:2"]],
    )
    def test_verify_rejects_cell_flags(self, tmp_path, flags):
        res = run_cli(["mc", "--verify", *flags, "--n", "20000", "--out", "o"], cwd=tmp_path)
        assert res.returncode == 2, res.stderr
        for flag in flags[::2]:
            assert flag in res.stderr
        assert not (tmp_path / "o" / "mc_verify.csv").exists()

    def test_verify_rejects_cell_keys_in_config(self, tmp_path):
        (tmp_path / "lab.ini").write_text("[mc]\neta = 0.3\n")
        res = run_cli(["--config", "lab.ini", "mc", "--verify", "--n", "20000", "--out", "o"], cwd=tmp_path)
        assert res.returncode == 2, res.stderr
        assert "--eta" in res.stderr
        assert not (tmp_path / "o" / "mc_verify.csv").exists()

    def test_rejected_run_makes_no_out_directory(self, tmp_path):
        res = run_cli(["mc", "--verify", "--gamma", "uniform:1:2", "--out", "xo"], cwd=tmp_path)
        assert res.returncode == 2, res.stderr
        assert not (tmp_path / "xo").exists()

    @pytest.mark.parametrize(
        "args", [["mc", "--n", "inf"], ["decay", "--steps", "inf"], ["mc", "--n", "1e400"], ["mc", "--n", "1e30"]]
    )
    def test_infinite_count_is_config_error(self, tmp_path, args):
        res = run_cli(args + ["--out", "o"], cwd=tmp_path)
        assert res.returncode == 2, res.stderr
        if args[2] == "1e30":  # a count, but above the ensemble's bound: rejected before any chunk is planned
            assert "count must be <= 10^11" in res.stderr
        else:
            assert f"argument {args[1]}: count must be a positive integer" in res.stderr  # argparse names the reason
        assert "Traceback" not in res.stderr
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("flag, value", [("--eta", "1e200"), ("--c", "1e300")])
    def test_overflowing_prediction_is_config_error(self, tmp_path, flag, value):
        res = run_cli(["mc", flag, value, "--n", "10000", "--out", "o"], cwd=tmp_path)
        assert res.returncode == 2, res.stderr
        assert "the predicted drift overflows" in res.stderr
        assert "Traceback" not in res.stderr
        assert not (tmp_path / "o").exists()

    def test_unknown_grid(self, tmp_path):
        res = run_cli(["mc", "--verify", "--grid", "huge", "--out", "o"], cwd=tmp_path)
        assert res.returncode == 2, res.stderr

    def test_unknown_grid_without_verify(self, tmp_path):
        res = run_cli(["mc", "--grid", "bogus", "--n", "20000", "--out", "o"], cwd=tmp_path)
        assert res.returncode == 2, res.stderr
        assert "unknown grid 'bogus'" in res.stderr
        assert "Traceback" not in res.stderr
        assert not (tmp_path / "o").exists()

    def test_deterministic_across_runs_and_thread_caps(self, tmp_path):
        args = ["mc", "--eta", "0.01", "--n", "150000", "--seed", "3"]
        for out, env in (
            ("a", None),
            ("b", None),
            ("c", {"COLLAPSE_LAB_THREADS": "1"}),
            ("d", {"COLLAPSE_LAB_THREADS": "4"}),
        ):
            res = run_cli(args + ["--out", out], cwd=tmp_path, env=env)
            assert res.returncode == 0, res.stderr
        base = tree_bytes(tmp_path / "a")
        for other in ("b", "c", "d"):
            assert tree_bytes(tmp_path / other) == base

    def test_deterministic_across_blas_thread_counts(self, tmp_path):
        # one 200,000-neuron chunk: OpenBLAS splits a sum that long (over 10,000 elements) over its threads
        args = ["mc", "--eta", "0.3", "--gamma", "uniform:0.2:0.4", "--n", "200000", "--seed", "3"]
        for out, blas in (("a", "1"), ("b", "2")):
            res = run_cli(args + ["--out", out], cwd=tmp_path, env={"OPENBLAS_NUM_THREADS": blas})
            assert res.returncode == 0, res.stderr
        assert tree_bytes(tmp_path / "b") == tree_bytes(tmp_path / "a")
        # the third FROZEN cell of test_mc.py: steps this large carry gammas across 0, and the file says how many
        (row,) = read_rows(tmp_path / "a" / "mc_verify.csv")
        assert (row["gamma_crossings"], row["agree"]) == (21747, False)
        res = run_cli(["report", "--source", "a", "--out", "r"], cwd=tmp_path)
        assert res.returncode == 0, res.stderr
        assert (tmp_path / "r" / "drift_vs_eta.svg").read_bytes() == (tmp_path / "a" / "drift_vs_eta.svg").read_bytes()

    def test_invalid_thread_env(self, tmp_path):
        res = run_cli(
            ["mc", "--eta", "0.005", "--n", "20000", "--out", "o"],
            cwd=tmp_path,
            env={"COLLAPSE_LAB_THREADS": "many"},
        )
        assert res.returncode == 2, res.stderr


class TestDecay:
    def test_margin_increments_match_recurrence(self, tmp_path):
        res = run_cli(["decay", "--steps", "10", "--out", "o"], cwd=tmp_path)
        assert res.returncode == 0, res.stderr
        rows = read_rows(tmp_path / "o" / "decay.csv")
        assert [r["step"] for r in rows] == list(range(11))
        inc = rows[1]["c_margin"] - rows[0]["c_margin"]
        assert abs(inc - (0.001 / 0.999) * 0.1) < 1e-12
        meta = json.loads((tmp_path / "o" / "decay.json").read_text())
        assert meta["reactivation_step"] is None
        assert meta["steps_recorded"] == 11

    def test_reactivation_reported(self, tmp_path):
        res = run_cli(["decay", "--steps", "5000", "--stride", "100", "--out", "o"], cwd=tmp_path)
        assert res.returncode == 0, res.stderr
        meta = json.loads((tmp_path / "o" / "decay.json").read_text())
        assert meta["reactivation_step"] == 2397
        rows = read_rows(tmp_path / "o" / "decay.csv")
        assert rows[-1]["step"] == 2397
        assert rows[-1]["c_margin"] >= 0

    def test_activation_prob_is_shifted_margin_cdf(self, tmp_path):
        """At reactivation the margin is just above 0, so the unit fires
        with probability Phi(C) >= 0.5, alpha included."""
        res = run_cli(["decay", "--out", "o"], cwd=tmp_path)
        assert res.returncode == 0, res.stderr
        rows = read_rows(tmp_path / "o" / "decay.csv")
        assert rows[-1]["step"] == 2397
        for row in rows:
            assert row["activation_prob"] == analytic._ndtr(row["c_margin"])
        assert rows[-1]["activation_prob"] >= 0.5

    def test_alpha_zero_is_a_flag_error(self, tmp_path):
        res = run_cli(["decay", "--alpha", "0", "--out", "o"], cwd=tmp_path)
        assert res.returncode == 2, res.stderr
        assert "alpha" in res.stderr

    @pytest.mark.parametrize(
        "flag, value",
        [("--gamma", "nan"), ("--beta", "nan"), ("--gamma", "inf"), ("--beta", "inf"), ("--beta", "-inf")],
    )
    def test_non_finite_initial_state_is_a_flag_error(self, tmp_path, flag, value):
        res = run_cli(["decay", f"{flag}={value}", "--out", "o"], cwd=tmp_path)
        assert res.returncode == 2, res.stderr
        assert "initial gamma and beta must be finite" in res.stderr
        assert "Traceback" not in res.stderr
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "args, reason",
        [
            (["--gamma", "1e-320", "--beta=-1e300", "--steps", "100"], "gamma underflows to 0"),
            (["--gamma", "1e-300", "--beta=-1e10", "--steps", "2000"], "margin (beta + alpha) / |gamma| overflows"),
        ],
    )
    def test_non_finite_trace_is_a_flag_error(self, tmp_path, args, reason):
        res = run_cli(["decay", *args, "--lr", "0.5", "--wd", "1", "--out", "o"], cwd=tmp_path)
        assert res.returncode == 2, res.stderr
        assert reason in res.stderr
        assert "Traceback" not in res.stderr
        assert not (tmp_path / "o").exists()

    def test_underflowing_decay_rate_is_named(self, tmp_path):
        # lr and wd are both > 0, but their product underflows to 0
        res = run_cli(["decay", "--lr", "1e-300", "--wd", "1e-300", "--out", "o"], cwd=tmp_path)
        assert res.returncode == 2, res.stderr
        assert "eta * weight_decay > 0, got 0 for eta = 1e-300, weight_decay = 1e-300" in res.stderr
        assert not (tmp_path / "o").exists()


class TestConfigFile:
    def test_config_supplies_defaults_flags_override(self, tmp_path):
        (tmp_path / "lab.ini").write_text("[decay]\nlr = 0.2\nwd = 0.02\nsteps = 5\n")
        res = run_cli(
            ["--config", "lab.ini", "decay", "--wd", "0.01", "--out", "o"],
            cwd=tmp_path,
        )
        assert res.returncode == 0, res.stderr
        rows = read_rows(tmp_path / "o" / "decay.csv")
        # effective rates: lr from the file, wd from the flag
        eta_lambda = 0.2 * 0.01
        inc = rows[1]["c_margin"] - rows[0]["c_margin"]
        assert abs(inc - (eta_lambda / (1 - eta_lambda)) * 0.1) < 1e-12
        assert len(rows) == 6

    def test_unknown_key_rejected(self, tmp_path):
        (tmp_path / "lab.ini").write_text("[decay]\nlearning_rate = 0.2\n")
        res = run_cli(["--config", "lab.ini", "decay", "--out", "o"], cwd=tmp_path)
        assert res.returncode == 2, res.stderr
        assert "learning_rate" in res.stderr

    def test_bad_value_names_section_and_key(self, tmp_path):
        (tmp_path / "lab.ini").write_text("[decay]\nsteps = soon\n")
        res = run_cli(["--config", "lab.ini", "decay", "--out", "o"], cwd=tmp_path)
        assert res.returncode == 2, res.stderr
        assert "[decay] steps" in res.stderr

    def test_infinite_count_key_is_config_error(self, tmp_path):
        (tmp_path / "lab.ini").write_text("[mc]\nn = 1e400\n")
        res = run_cli(["--config", "lab.ini", "mc", "--out", "o"], cwd=tmp_path)
        assert res.returncode == 2, res.stderr
        assert "[mc] n: count must be a positive integer" in res.stderr
        assert "Traceback" not in res.stderr
        assert not (tmp_path / "o").exists()

    def test_missing_config_file(self, tmp_path):
        res = run_cli(["--config", "nope.ini", "decay", "--out", "o"], cwd=tmp_path)
        assert res.returncode == 2, res.stderr


class TestTrain:
    ARGS = [
        "train", "--rounds", "2", "--epochs", "2", "--batch-size", "8",
        "--width", "8", "--layers", "2", "--classes", "3", "--dim", "6",
        "--n-per-class", "10", "--out", "o",
    ]

    def test_smoke_writes_all_files(self, tmp_path):
        res = run_cli(self.ARGS, cwd=tmp_path)
        assert res.returncode == 0, res.stderr
        out = tmp_path / "o"
        rows = read_rows(out / "experiment.csv")
        assert [(r["arm"], r["round"]) for r in rows] == [("custom", 0), ("custom", 1)]
        assert all(0.0 <= r["sparsity_ratio"] <= 1.0 for r in rows)
        sparsity = json.loads((out / "sparsity_custom_s0.json").read_text())
        assert sparsity["threshold"] == 1e-3
        hist = read_rows(out / "l1_hist_custom_s0.csv", L1_HIST)
        assert sum(r["count"] for r in hist) == 8  # one row per first-layer unit
        # the bin edges are NumPy floats, written as the numbers they hold
        assert all(type(r["bin_lo"]) is float and type(r["bin_hi"]) is float for r in hist)
        model, _, extra = load_checkpoint(out / "checkpoint_custom_s0.json")
        assert extra == {"arm": "custom", "seed": 0}
        assert model.arch.hidden_width == 8
        assert (out / "sparsity_vs_round.svg").exists()
        assert (out / "accuracy_vs_round.svg").exists()

    def test_out_of_memory_is_a_runtime_error(self, tmp_path, monkeypatch, capsys):
        """An allocation that fails (here a stand-in for one at --width 100000000000) exits 3 with one line."""

        def fail(*args):
            raise MemoryError("Unable to allocate 23.3 TiB for an array with shape (100000000000, 32)")

        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr("collapse_lab.net.train.multi_round_experiment", fail)
        assert main(["train", "--width", "100000000000", "--rounds", "1", "--epochs", "1", "--out", "o"]) == 3
        err = capsys.readouterr().err
        assert err == "error: out of memory: Unable to allocate 23.3 TiB for an array with shape (100000000000, 32)\n"
        assert not (tmp_path / "o").exists()

    @pytest.mark.skipif(usable_cores() < 2, reason="a cap of 2 needs two cores to start worker processes")
    def test_deterministic_across_worker_caps(self, tmp_path):
        args = ["train", "--preset", "norm-variants", "--seeds", "2", "--rounds", "1", "--epochs", "2"]
        for out, cap in (("a", "1"), ("b", "2")):
            res = run_cli(args + ["--out", out], cwd=tmp_path, env={"COLLAPSE_LAB_THREADS": cap})
            assert res.returncode == 0, res.stderr
        base = tree_bytes(tmp_path / "a")
        assert len(base) == 1 + 3 * 8 + 2  # experiment.csv, 3 files per cell, 2 SVGs
        assert tree_bytes(tmp_path / "b") == base

    @pytest.mark.parametrize("cap", ["1", "2"])
    def test_dataset_error_is_config_error_under_any_cap(self, tmp_path, cap):
        args = ["train", "--seeds", "2", "--n-per-class", "3", "--out", "o"]
        res = run_cli(args, cwd=tmp_path, env={"COLLAPSE_LAB_THREADS": cap})
        assert res.returncode == 2, res.stderr
        assert "n_per_class must be >= 5" in res.stderr
        assert "Traceback" not in res.stderr
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("cap", ["1", "2"])
    @pytest.mark.parametrize("flag, value", [("--seed", "-1"), ("--data-seed", "-5")])
    def test_negative_seed_is_config_error_under_any_cap(self, tmp_path, cap, flag, value):
        res = run_cli(self.ARGS + ["--seeds", "2", flag, value], cwd=tmp_path, env={"COLLAPSE_LAB_THREADS": cap})
        assert res.returncode == 2, res.stderr
        assert f"{flag[2:].replace('-', '_')} must be an integer in [0, 2^64), got {value}" in res.stderr
        assert "Traceback" not in res.stderr
        assert not (tmp_path / "o").exists()

    def test_unknown_preset(self, tmp_path):
        res = run_cli(["train", "--preset", "wide-resnet", "--out", "o"], cwd=tmp_path)
        assert res.returncode == 2, res.stderr

    def test_invalid_combo_is_config_error(self, tmp_path):
        res = run_cli(self.ARGS + ["--norm", "bn", "--alpha", "0.1"], cwd=tmp_path)
        assert res.returncode == 2, res.stderr

    @pytest.mark.parametrize("flag, value", [("--wd", "nan"), ("--gamma-init", "inf"), ("--threshold", "-1")])
    def test_non_finite_or_negative_value_is_config_error(self, tmp_path, flag, value):
        res = run_cli(self.ARGS + [flag, value], cwd=tmp_path)
        assert res.returncode == 2, res.stderr
        assert "Traceback" not in res.stderr
        assert not (tmp_path / "o").exists()


class TestReport:
    def test_empty_dir_rejected(self, tmp_path):
        os.makedirs(tmp_path / "o")
        res = run_cli(["report", "--out", "o"], cwd=tmp_path)
        assert res.returncode == 2, res.stderr
        assert "no known CSV" in res.stderr

    def test_replots_are_byte_identical(self, tmp_path):
        run = run_cli(["decay", "--steps", "3000", "--stride", "50", "--out", "o"], cwd=tmp_path)
        assert run.returncode == 0, run.stderr
        original = (tmp_path / "o" / "decay_c.svg").read_bytes()
        res = run_cli(["report", "--source", "o", "--out", "r"], cwd=tmp_path)
        assert res.returncode == 0, res.stderr
        assert (tmp_path / "r" / "decay_c.svg").read_bytes() == original

    def test_replots_mc_and_experiment(self, tmp_path):
        # one source directory holding every plotted table: report re-draws
        # exactly the SVGs the commands drew, byte for byte
        for args in (
            [
                "analytic", "--k-grid=-2:2:0.25", "--j", "--beta", "uniform:-1:1",
                "--gamma-grid", "0.5:1.5:0.25", "--out", "o",
            ],
            ["mc", "--eta", "0.004", "--n", "30000", "--out", "o"],
            ["decay", "--steps", "3000", "--stride", "50", "--out", "o"],
            TestTrain.ARGS,
        ):
            res = run_cli(args, cwd=tmp_path)
            assert res.returncode == 0, res.stderr
        originals = {p.name: p.read_bytes() for p in (tmp_path / "o").glob("*.svg")}
        assert sorted(originals) == [
            "accuracy_vs_round.svg", "decay_c.svg", "drift_vs_eta.svg",
            "j_fn.svg", "k_fn.svg", "sparsity_vs_round.svg",
        ]
        res = run_cli(["report", "--source", "o", "--out", "r"], cwd=tmp_path)
        assert res.returncode == 0, res.stderr
        assert {p.name: p.read_bytes() for p in (tmp_path / "r").glob("*.svg")} == originals

    @pytest.mark.parametrize(
        "text, named",
        [
            ("x,k\n0.0,1.0\n1.0,abc\n", "row 2 of column 'k' holds 'abc'"),  # a text cell in a float column
            ("x,k\n0.0,\n", "row 1 of column 'k' holds ''"),  # an empty cell in a column that may not be empty
            ("x,kk\n0.0,1.0\n", "has the columns ['x', 'kk'], expected ['x', 'k']"),
            ("x,k\n0.0,1.0\n1.0\n", "a row does not have the header's 2 cells"),
        ],
    )
    def test_malformed_table_names_file_and_column(self, tmp_path, text, named):
        os.makedirs(tmp_path / "o")
        (tmp_path / "o" / "k_grid.csv").write_text(text)
        res = run_cli(["report", "--source", "o", "--out", "r"], cwd=tmp_path)
        assert res.returncode == 2, res.stderr
        assert f"k_grid.csv{':' if 'row' in named else ''} {named}" in res.stderr
        assert "Traceback" not in res.stderr
        assert not (tmp_path / "r").exists()


class TestPinnedBytes:
    """A small analytic, decay and report tree, and a small ``mc --verify`` tree, pinned by the sha256 of each file.

    The first digests were recorded with the per-cell CSV writer and reader
    and the per-point plotter; the columnar ones must write the same bytes.
    The ``mc`` digests are those of the drift chunk whose sums run over
    its firing neurons' pair terms only, a gated-off neuron contributing
    nothing, summed per block and the block sums combined by math.fsum.
    """

    PINNED = {
        "o/decay.csv": "9f0204105f1d55504b8b66ebe6e6eadbf4da58cd4f1b396a9b565631e98cbf97",
        "o/decay.json": "97faa9e2447fd4578ba75581cb7c8ee168710f8acdf651a8fbe6ff20094948f7",
        "o/decay_c.svg": "0db9d56c16cdb56465245e9dabcaafce1cf5919823a789b5edcde1d4f2271962",
        "o/j_fn.svg": "fb8dd38ba21753b23a5436e5ec999c4239763e5896af4e5a0f53d6192e8e1853",
        "o/j_grid.csv": "f81e0f5d77a98fe20daefd65fdf3a772d439e554ff706fa66823a272a6074a1b",
        "o/k_fn.svg": "1c44911aaf91d94b3bd48e321c3299fc8d7e6c35ed9c5619ad41bc776aa1bd8b",
        "o/k_grid.csv": "050d058490be0e023bc037eff98a59a1ec72fa701e1420b06ea869e7aee411d8",
        "r/decay_c.svg": "0db9d56c16cdb56465245e9dabcaafce1cf5919823a789b5edcde1d4f2271962",
        "r/j_fn.svg": "fb8dd38ba21753b23a5436e5ec999c4239763e5896af4e5a0f53d6192e8e1853",
        "r/k_fn.svg": "1c44911aaf91d94b3bd48e321c3299fc8d7e6c35ed9c5619ad41bc776aa1bd8b",
    }

    def test_tree_digests(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        for argv in (
            [
                "analytic", "--k-grid=-3:3:0.01", "--j", "--beta", "normal:0.2:1.1",
                "--gamma-grid", "0.1:5:0.1", "--out", "o",
            ],
            # gamma0 halves below the collapse threshold at step 139; the margin recovers at step 479
            ["decay", "--steps", "700", "--stride", "3", "--gamma", "0.002", "--wd", "0.05", "--out", "o"],
            ["report", "--source", "o", "--out", "r"],
        ):
            assert main(argv) == 0
        capsys.readouterr()
        got = {
            f"{d}/{p.name}": hashlib.sha256(p.read_bytes()).hexdigest()
            for d in ("o", "r")
            for p in sorted((tmp_path / d).iterdir())
        }
        assert got == self.PINNED

    def test_mc_verify_digests(self, tmp_path, monkeypatch, capsys):
        # 2.5M neurons: two full chunks and a half one, each with the grid's three etas on one draw per noise kind
        monkeypatch.chdir(tmp_path)
        assert main(["mc", "--verify", "--n", "2500000", "--seed", "1", "--out", "m"]) == 0
        capsys.readouterr()
        got = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted((tmp_path / "m").iterdir())}
        assert got == {
            "drift_vs_eta.svg": "e453bbb57d487fa133fa01699c6c22913308e57096576f815b00b3cd54ab7c7b",
            # its first 12 columns hash to c1acb4ab...: the file before gamma_crossings became its 13th column
            "mc_verify.csv": "20a70b19af94740e3a9338ccbca005c62371ef1e40945bf71eccb7a62a7c547b",
        }


class TestArgparseSurface:
    def test_missing_subcommand(self, tmp_path):
        res = run_cli([], cwd=tmp_path)
        assert res.returncode == 2, res.stderr

    def test_help_lists_subcommands(self, tmp_path):
        res = run_cli(["--help"], cwd=tmp_path)
        assert res.returncode == 0, res.stderr
        for name in ("analytic", "mc", "decay", "train", "report"):
            assert name in res.stdout

    def test_no_subcommand_accepts_threads(self, tmp_path):
        # COLLAPSE_LAB_THREADS is the one worker cap
        for command in ("analytic", "mc", "decay", "train", "report"):
            res = run_cli([command, "--threads", "2", "--out", "o"], cwd=tmp_path)
            assert res.returncode == 2, res.stderr
            assert "unrecognized arguments: --threads 2" in res.stderr
        (tmp_path / "lab.ini").write_text("[mc]\nthreads = 2\n")
        res = run_cli(["--config", "lab.ini", "mc", "--n", "20000", "--out", "o"], cwd=tmp_path)
        assert res.returncode == 2, res.stderr
        assert "unknown key 'threads' in [mc]" in res.stderr
        assert not (tmp_path / "o").exists()

    def test_seed_is_an_mc_and_train_flag(self, tmp_path):
        for command in ("analytic", "decay", "report"):
            res = run_cli([command, "--seed", "1", "--out", "o"], cwd=tmp_path)
            assert res.returncode == 2, res.stderr
            assert "unrecognized arguments: --seed 1" in res.stderr
        assert not (tmp_path / "o").exists()
        res = run_cli(["mc", "--n", "20000", "--seed", "1", "--out", "m"], cwd=tmp_path)
        assert res.returncode == 0, res.stderr
        res = run_cli(TestTrain.ARGS[:-2] + ["--seed", "1", "--out", "t"], cwd=tmp_path)
        assert res.returncode == 0, res.stderr
        assert (tmp_path / "t" / "checkpoint_custom_s1.json").exists()

    def test_format_is_an_analytic_flag(self, tmp_path):
        for command in ("mc", "train", "decay", "report"):
            res = run_cli([command, "--format", "json", "--out", "o"], cwd=tmp_path)
            assert res.returncode == 2, res.stderr
            assert "unrecognized arguments: --format json" in res.stderr
        assert not (tmp_path / "o").exists()

    def test_in_process_calls_parse_independently(self, tmp_path, monkeypatch, capsys):
        """main builds its parser once per process; each call still parses only its own argv."""
        monkeypatch.chdir(tmp_path)
        assert main(["analytic", "--k-grid", "0:1:0.5", "--format", "json", "--out", "a"]) == 0
        for argv, flag in ((["mc", "--format", "json"], "--format json"), (["analytic", "--seed", "1"], "--seed 1")):
            with pytest.raises(SystemExit) as exc:
                main(argv + ["--out", "x"])
            assert exc.value.code == 2
            assert f"unrecognized arguments: {flag}" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()
        # a flag given to one call is not a default of the next
        assert main(["mc", "--n", "20000", "--seed", "5", "--out", "m5"]) == 0
        assert main(["mc", "--n", "20000", "--out", "m"]) == 0
        assert main(["mc", "--n", "20000", "--seed", "0", "--out", "m0"]) == 0
        assert tree_bytes(tmp_path / "m") == tree_bytes(tmp_path / "m0") != tree_bytes(tmp_path / "m5")

    @pytest.mark.parametrize(
        "argv, reason",
        [
            (["mc", "--n", "inf"], "argument --n: count must be a positive integer, got 'inf'"),
            (["mc", "--n", "0.5"], "argument --n: count must be a positive integer, got '0.5'"),
            (["analytic", "--beta", "uniform:2:1"], "argument --beta: uniform requires lo < hi, got [2.0, 1.0]"),
        ],
        ids=["n-inf", "n-half", "beta-reversed"],
    )
    def test_flag_error_names_its_reason(self, tmp_path, argv, reason):
        res = run_cli(argv + ["--out", "o"], cwd=tmp_path)
        assert res.returncode == 2, res.stderr
        assert res.stderr.endswith(f"error: {reason}\n"), res.stderr
        assert not (tmp_path / "o").exists()

    def test_panels_flag_is_gone(self, tmp_path):
        res = run_cli(["analytic", "--k-grid", "0:1:0.5", "--panels", "4", "--out", "o"], cwd=tmp_path)
        assert res.returncode == 2, res.stderr
        assert "unrecognized arguments: --panels 4" in res.stderr
