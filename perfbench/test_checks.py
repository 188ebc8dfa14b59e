"""The benchmark's checks must fail on wrong outputs, and only on the operation that is wrong.

Each test runs a small version of a workload through the CLI, confirms
that the clean outputs pass, corrupts one output file, and asserts that
the checker reports exactly the corrupted operation as failed.

    python3 -m pytest perfbench -q
"""

import csv
import json
import os
import shutil
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import checks  # noqa: E402
import inputs as wl  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
from collapse_lab import cli  # noqa: E402

TINY_TOY = {
    "rounds": 2,
    "epochs_per_round": 2,
    "batch_size": 16,
    "hidden_width": 8,
    "hidden_layers": 2,
    "classes": 3,
    "dim": 6,
    "n_per_class": 20,
}


def run_and_check(inputs, root):
    codes, _ = run.run_round(cli, inputs, str(root))
    checker = checks.CHECKERS[inputs.workload](inputs)
    assert codes == [0] * len(inputs.invocations)
    assert failed(checker(str(root), codes)) == set()
    return codes, checker


def failed(problems):
    return {op for op, found in problems.items() if found}


def edit_csv(path, edit):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    edit(rows)
    with open(path, "w", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)


def edit_json(path, edit):
    with open(path) as fh:
        payload = json.load(fh)
    edit(payload)
    with open(path, "w") as fh:
        json.dump(payload, fh)


def test_verify_grid_flags_a_drift_with_flipped_sign(tmp_path):
    inputs = wl.verify_grid(seed=4, neurons=200_000)
    codes, checker = run_and_check(inputs, tmp_path)
    path = tmp_path / "mc" / "mc_verify.csv"

    def flip(rows):
        col = rows[0].index("empirical_mean")
        rows[2][col] = repr(-float(rows[2][col]))

    edit_csv(path, flip)
    assert failed(checker(str(tmp_path), codes)) == {inputs.ops[1]}


def test_verify_grid_flags_a_zero_standard_error(tmp_path):
    inputs = wl.verify_grid(seed=4, neurons=200_000)
    codes, checker = run_and_check(inputs, tmp_path)
    path = tmp_path / "mc" / "mc_verify.csv"

    def zero(rows):
        rows[3][rows[0].index("std_error")] = "0.0"

    edit_csv(path, zero)
    assert failed(checker(str(tmp_path), codes)) == {inputs.ops[2]}


def main_result(monkeypatch, capsys, codes):
    """The JSON line of run.main on theory-sweep, with one round of the given exit codes on empty outputs."""

    def one_round(args, cli, inputs, tally):
        root = os.path.join(run.RUNS, "perfbench-test-empty")
        tally.check(root, codes(inputs))
        return {}

    monkeypatch.setenv("COLLAPSE_LAB_THREADS", "1")
    monkeypatch.setattr(run, "end_to_end", one_round)
    assert run.main(["--workload", "theory-sweep", "--seed", "1", "--seconds", "1"]) == 0
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


def test_main_reports_wrong_outputs_as_not_correct(monkeypatch, capsys):
    result = main_result(monkeypatch, capsys, lambda inputs: [0] * len(inputs.invocations))
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] > 0


def test_main_keeps_correct_when_operations_only_exit_non_zero(monkeypatch, capsys):
    result = main_result(monkeypatch, capsys, lambda inputs: [3] * len(inputs.invocations))
    assert result["correct"] is True
    assert result["failed"] == result["attempted"] > 0


@pytest.fixture(scope="module")
def theory_run(tmp_path_factory):
    root = tmp_path_factory.mktemp("theory")
    inputs = wl.theory_sweep(seed=5)
    codes, checker = run_and_check(inputs, root)
    return inputs, root, codes, checker


@pytest.fixture
def theory(theory_run, tmp_path):
    """A private copy of the theory-sweep outputs, free to corrupt."""
    inputs, root, codes, checker = theory_run
    shutil.copytree(root, tmp_path / "out")
    return inputs, tmp_path / "out", codes, checker


def test_theory_sweep_flags_a_perturbed_k_value(theory):
    inputs, root, codes, checker = theory

    def perturb(rows):
        assert rows[8001][0] == "0.0"
        rows[8001][1] = repr(float(rows[8001][1]) + 1e-9)

    edit_csv(root / "k" / "k_grid.csv", perturb)
    assert failed(checker(str(root), codes)) == {"k-grid"}


def test_theory_sweep_flags_a_drift_with_flipped_sign(theory):
    inputs, root, codes, checker = theory
    inv = next(i for i in inputs.invocations if i.params.get("format") == "json")

    def flip(payload):
        payload[0]["value"] = -payload[0]["value"]

    edit_json(root / inv.out / "drift.json", flip)
    assert failed(checker(str(root), codes)) == {inv.ops[0]}


def test_theory_sweep_flags_a_reactivation_step_off_by_one(theory):
    inputs, root, codes, checker = theory

    def shift(payload):
        payload["reactivation_step"] += 1

    edit_json(root / "decay2" / "decay.json", shift)
    assert failed(checker(str(root), codes)) == {"decay2"}


def test_toy_study_flags_a_collapsed_count_off_by_one(tmp_path):
    inputs = wl.toy_study(seed=7, overrides=TINY_TOY)
    codes, checker = run_and_check(inputs, tmp_path)

    def bump(payload):
        payload["per_layer"][1]["collapsed_channels"] += 1

    edit_json(tmp_path / "train" / "sparsity_bn-leaky_s8.json", bump)
    assert failed(checker(str(tmp_path), codes)) == {"bn-leaky/s8"}


def test_toy_study_flags_a_failed_invocation(tmp_path):
    inputs = wl.toy_study(seed=7, overrides=TINY_TOY)
    checker = checks.CHECKERS[inputs.workload](inputs)
    problems = checker(str(tmp_path), [3, 0])
    assert failed(problems) == set(inputs.ops)


def test_tracer_reports_a_missing_target_and_keeps_running():
    tracer = tracing.Tracer()
    targets = [
        ("collapse_lab.analytic", "k_fn", "analytic.k_fn", "analytic.k_fn_points", tracing._size_of_first),
        ("collapse_lab.mc", "_no_such_chunk", "mc.chunk", None, None),
    ]
    from collapse_lab import analytic

    original = analytic.k_fn
    tracer.install(targets)
    try:
        analytic.k_fn([0.0, 1.0, 2.0])
    finally:
        tracer.uninstall()
    assert analytic.k_fn is original
    assert tracer.missing == ["collapse_lab.mc._no_such_chunk (private)"]
    assert tracer.counts["analytic.k_fn_points"] == 3
    assert tracer.summary()["analytic.k_fn"]["calls"] == 1
