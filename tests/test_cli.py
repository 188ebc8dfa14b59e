"""End-to-end CLI runs in subprocesses: files, exit codes, determinism."""

import json
import math
import os

import pytest
from helpers import run_cli, tree_bytes

from collapse_lab import analytic
from collapse_lab.dists import Uniform
from collapse_lab.net.model import load_checkpoint
from collapse_lab.tables import read_csv


def read_rows(path):
    header, rows = read_csv(path)
    return [dict(zip(header, row)) for row in rows]


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
        (row,) = read_rows(tmp_path / "o" / "drift.csv")
        want = analytic.drift_prediction(0.01, 1.0, Uniform(0.5, 1.5), Uniform(-1, 1))
        assert row["value"] == want.value
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

    def test_gamma_support_through_zero_is_config_error(self, tmp_path):
        res = run_cli(
            ["analytic", "--drift", "--gamma", "normal:1:0.1", "--beta", "uniform:-1:1", "--out", "o"],
            cwd=tmp_path,
        )
        assert res.returncode == 2, res.stderr
        assert "gamma support must lie in" in res.stderr
        assert not (tmp_path / "o").exists()  # nothing written, not even the directory


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
        bad = sum(not r["agree"] for r in rows)
        if bad:
            assert f"{bad} cell(s) disagree" in res.stderr
        else:
            assert lines[-1] == "all 6 cells within 3 standard errors"

    @pytest.mark.parametrize("threads", ["0", "-5"])
    def test_threads_must_be_positive(self, tmp_path, threads):
        res = run_cli(["mc", "--n", "20000", "--threads", threads, "--out", "o"], cwd=tmp_path)
        assert res.returncode == 2, res.stderr
        assert "--threads" in res.stderr

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

    def test_unknown_grid(self, tmp_path):
        res = run_cli(["mc", "--verify", "--grid", "huge", "--out", "o"], cwd=tmp_path)
        assert res.returncode == 2, res.stderr

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
            assert row["activation_prob"] == analytic.std_normal_cdf(row["c_margin"])
        assert rows[-1]["activation_prob"] >= 0.5

    def test_alpha_zero_is_a_flag_error(self, tmp_path):
        res = run_cli(["decay", "--alpha", "0", "--out", "o"], cwd=tmp_path)
        assert res.returncode == 2, res.stderr
        assert "alpha" in res.stderr


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
        hist = read_rows(out / "l1_hist_custom_s0.csv")
        assert sum(r["count"] for r in hist) == 8  # one row per first-layer unit
        model, _, extra = load_checkpoint(out / "checkpoint_custom_s0.json")
        assert extra == {"arm": "custom", "seed": 0}
        assert model.arch["hidden_width"] == 8
        assert (out / "sparsity_vs_round.svg").exists()
        assert (out / "accuracy_vs_round.svg").exists()

    @pytest.mark.skipif((os.cpu_count() or 1) < 2, reason="a cap of 2 needs two cores to start worker processes")
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

    def test_unknown_preset(self, tmp_path):
        res = run_cli(["train", "--preset", "wide-resnet", "--out", "o"], cwd=tmp_path)
        assert res.returncode == 2, res.stderr

    def test_invalid_combo_is_config_error(self, tmp_path):
        res = run_cli(self.ARGS + ["--norm", "bn", "--alpha", "0.1"], cwd=tmp_path)
        assert res.returncode == 2, res.stderr


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


class TestArgparseSurface:
    def test_missing_subcommand(self, tmp_path):
        res = run_cli([], cwd=tmp_path)
        assert res.returncode == 2, res.stderr

    def test_help_lists_subcommands(self, tmp_path):
        res = run_cli(["--help"], cwd=tmp_path)
        assert res.returncode == 0, res.stderr
        for name in ("analytic", "mc", "decay", "train", "report"):
            assert name in res.stdout

    def test_threads_is_an_mc_flag(self, tmp_path):
        for command in ("train", "decay"):
            res = run_cli([command, "--threads", "2", "--out", "o"], cwd=tmp_path)
            assert res.returncode == 2, res.stderr
            assert "unrecognized arguments: --threads 2" in res.stderr
        assert not (tmp_path / "o").exists()
        res = run_cli(["mc", "--n", "20000", "--threads", "2", "--out", "m"], cwd=tmp_path)
        assert res.returncode == 0, res.stderr

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

    def test_panels_flag_is_gone(self, tmp_path):
        res = run_cli(["analytic", "--k-grid", "0:1:0.5", "--panels", "4", "--out", "o"], cwd=tmp_path)
        assert res.returncode == 2, res.stderr
        assert "unrecognized arguments: --panels 4" in res.stderr
