"""Output checks, one checker per workload, run outside the timed section.

A checker is built once per run from the workload's inputs (it caches the
independent values it compares against) and is then called on each
round's output directory with the exit code of every invocation. It
returns, per operation, the list of problems found; an operation with any
problem counts as failed.
"""

from __future__ import annotations

import csv
import json
import os

import inputs as wl
import oracles

COLLAPSE_THRESHOLD = 1e-3
PREDICTED_REL_TOL = 1e-9
MC_SIGMAS = 5.0  # a true mean lies outside 5 standard errors with probability 6e-7
RATIO_WINDOW = 0.6
DRIFT_REL_TOL = 1e-6
K_ABS_TOL = 1e-10
J_REL_TOL = 1e-6
MARGIN_ABS_TOL = 1e-12


def read_csv(path: str) -> list[dict]:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return [dict(zip(rows[0], row)) for row in rows[1:]]


def read_json(path: str):
    with open(path) as fh:
        return json.load(fh)


def same_bytes(a: str, b: str) -> bool:
    with open(a, "rb") as fa, open(b, "rb") as fb:
        return fa.read() == fb.read()


def _rel(got: float, want: float) -> float:
    return abs(got - want) / max(abs(want), 1e-300)


class _Checker:
    def __init__(self, inputs: wl.Inputs):
        self.inputs = inputs

    def __call__(self, root: str, exit_codes: list) -> dict[str, list[str]]:
        problems: dict[str, list[str]] = {op: [] for op in self.inputs.ops}
        for inv, code in zip(self.inputs.invocations, exit_codes):
            if code != 0:
                for op in inv.ops:
                    problems[op].append(f"exit {code}")
        for ops, run in self.units(root):
            ops = [op for op in ops if not problems[op]]
            if not ops:
                continue
            try:
                found = list(run())
            except (OSError, ValueError, KeyError, IndexError, TypeError, ArithmeticError) as exc:
                found = [(op, f"unreadable output: {type(exc).__name__}: {exc}") for op in ops]
            for op, problem in found:
                if op in ops:
                    problems[op].append(problem)
        return problems

    def units(self, root: str):
        """Yields (ops, run): run() yields (op, problem) pairs for those operations."""
        raise NotImplementedError


class VerifyGrid(_Checker):
    """mc_verify.csv against an independent unit-eta drift factor and the eta^2 law."""

    def __init__(self, inputs):
        super().__init__(inputs)
        self.factor = oracles.drift_factor_oracle(
            oracles.parse_dist(wl.VERIFY_GAMMA), oracles.parse_dist(wl.VERIFY_BETA)
        )

    def units(self, root):
        inv = self.inputs.invocations[0]
        yield inv.ops, lambda: self._cells(os.path.join(root, inv.out), inv.ops)

    def _cells(self, out, ops):
        rows = {r["run_id"]: r for r in read_csv(os.path.join(out, "mc_verify.csv"))}
        etas = {float(r["eta"]) for r in rows.values()}
        for op in ops:
            row = rows.get(op)
            if row is None:
                yield op, "no row in mc_verify.csv"
                continue
            eta, c = float(row["eta"]), float(row["c"])
            mean, se = float(row["empirical_mean"]), float(row["std_error"])
            want = 0.5 * eta * eta * c * c * self.factor
            if (row["gamma_dist"], row["beta_dist"]) != (wl.VERIFY_GAMMA, wl.VERIFY_BETA):
                yield op, f"distributions {row['gamma_dist']}, {row['beta_dist']}"
            if int(row["n"]) != self.inputs.params["neurons"]:
                yield op, f"n = {row['n']}"
            if _rel(float(row["predicted"]), want) > PREDICTED_REL_TOL:
                yield op, f"predicted {row['predicted']} vs independent {want!r}"
            if not mean < 0:
                yield op, f"empirical drift {mean!r} is not negative"
            if not abs(mean - want) <= MC_SIGMAS * se:
                yield op, f"empirical {mean!r} (standard error {se!r}) is more than {MC_SIGMAS} of them from {want!r}"
            if eta / 2 in etas:
                ratio = float(row["ratio_to_half_eta"] or "nan")
                if not abs(ratio - 4.0) <= RATIO_WINDOW:
                    yield op, f"ratio_to_half_eta {ratio!r} outside 4 +- {RATIO_WINDOW}"


class ToyStudy(_Checker):
    """Checkpoints recounted and re-evaluated in plain NumPy; collapse trends; byte-identical re-plots."""

    SVGS = ("sparsity_vs_round.svg", "accuracy_vs_round.svg")

    def __init__(self, inputs):
        super().__init__(inputs)
        from collapse_lab.net.train import dataset_for

        self.datasets = {arm: dataset_for(cfg) for arm, cfg in wl.toy_arms(inputs.params["overrides"])}

    def units(self, root):
        train, report = self.inputs.invocations
        out = os.path.join(root, train.out)
        for arm in wl.TOY_ARMS:
            for seed in self.inputs.params["seeds"]:
                op = f"{arm}/s{seed}"
                yield [op], lambda arm=arm, seed=seed, op=op: ((op, p) for p in self._check_run(out, arm, seed))
        yield ["report"], lambda: (("report", p) for p in self._check_replot(out, os.path.join(root, report.out)))

    def _check_replot(self, out, replot):
        for name in self.SVGS:
            if not same_bytes(os.path.join(out, name), os.path.join(replot, name)):
                yield f"re-plotted {name} differs from the one train wrote"

    def _experiment(self, out):
        rows: dict[tuple[str, int], list[dict]] = {}
        for row in read_csv(os.path.join(out, "experiment.csv")):
            rows.setdefault((row["arm"], int(row["seed"])), []).append(row)
        return rows

    def _check_run(self, out, arm, seed):
        rows = self._experiment(out)
        history = rows.get((arm, seed))
        if not history:
            yield "no rows in experiment.csv"
            return
        if [int(r["round"]) for r in history] != list(range(len(history))):
            yield "rounds out of order in experiment.csv"
        last = history[-1]
        arch, blocks, extra = oracles.load_checkpoint_arrays(os.path.join(out, f"checkpoint_{arm}_s{seed}.json"))
        if extra != {"arm": arm, "seed": seed}:
            yield f"checkpoint is tagged {extra}"
        report = read_json(os.path.join(out, f"sparsity_{arm}_s{seed}.json"))
        if report["threshold"] != COLLAPSE_THRESHOLD:
            yield f"threshold {report['threshold']}"
        acct = oracles.collapse_accounting(arch, blocks, COLLAPSE_THRESHOLD)
        per_layer = [(e["layer_id"], e["total_channels"], e["collapsed_channels"]) for e in report["per_layer"]]
        want = [(k, w, c) for k, (w, c) in enumerate(zip(acct["widths"], acct["collapsed"]))]
        if per_layer != want:
            yield f"collapsed per layer {per_layer}, recounted {want}"
        ratio = sum(acct["collapsed"]) / sum(acct["widths"])
        reduction = 1.0 - acct["flops_after_prune"] / acct["flops_total"]
        for key, got, expect in (
            ("flops_total", report["flops_total"], acct["flops_total"]),
            ("flops_after_prune", report["flops_after_prune"], acct["flops_after_prune"]),
            ("sparsity_ratio", report["sparsity_ratio"], ratio),
            ("flops_reduction", report["flops_reduction"], reduction),
            ("experiment.csv sparsity_ratio", float(last["sparsity_ratio"]), ratio),
            ("experiment.csv flops_reduction", float(last["flops_reduction"]), reduction),
        ):
            if abs(got - expect) > 1e-12:
                yield f"{key} {got!r}, recounted {expect!r}"
        data = self.datasets[arm]
        acc = oracles.accuracy(oracles.eval_logits(arch, blocks, data.x_val), data.y_val)
        # one validation point of slack, so a change in summation order that
        # flips a near-tie does not read as a wrong accuracy
        if abs(acc - float(last["val_acc"])) > 1.0 / len(data.y_val) + 1e-12:
            yield f"val_acc {last['val_acc']}, recomputed {acc!r}"
        # Not on psbn-relu: a collapsed post-shifted unit still emits the
        # constant alpha + beta, so zeroing it is not neutral there (it moves
        # val_acc by more than 0.002 on some training seeds).
        if arch["norm"] != "psbn":
            pruned = oracles.accuracy(oracles.eval_logits(arch, blocks, data.x_val, COLLAPSE_THRESHOLD), data.y_val)
            if abs(pruned - acc) > 0.002:
                yield f"zeroing collapsed units moves val_acc {acc!r} -> {pruned!r}"
        spars = float(last["sparsity_ratio"])
        if arm == "bn-relu" and spars < float(history[0]["sparsity_ratio"]):
            yield f"sparsity fell from {history[0]['sparsity_ratio']} to {spars!r}"
        if arm == "psbn-relu":
            plain = rows.get(("bn-relu", seed))
            if plain and spars > float(plain[-1]["sparsity_ratio"]):
                yield f"final sparsity {spars!r} above bn-relu's {plain[-1]['sparsity_ratio']}"


class TheorySweep(_Checker):
    """K, J, drift and decay tables against erfc/quad oracles and scalar recurrences."""

    def __init__(self, inputs):
        super().__init__(inputs)
        self._j: dict[tuple[str, str], float] = {}
        self._factor: dict[tuple[str, str], float] = {}

    def j(self, gamma_text: str, beta: str) -> float:
        key = (gamma_text, beta)
        if key not in self._j:
            self._j[key] = oracles.j_oracle(float(gamma_text), oracles.parse_dist(beta))
        return self._j[key]

    def factor(self, gamma: str, beta: str) -> float:
        if (gamma, beta) not in self._factor:
            self._factor[gamma, beta] = oracles.drift_factor_oracle(oracles.parse_dist(gamma), oracles.parse_dist(beta))
        return self._factor[gamma, beta]

    def units(self, root):
        drift_values: dict[str, dict[float, float]] = {}
        for inv in self.inputs.invocations:
            out = os.path.join(root, inv.out)
            kind = inv.argv[0]
            if kind == "analytic" and "--k-grid=" + wl.K_GRID in inv.argv:
                run = lambda out=out: self._k_grid(out)
            elif kind == "analytic" and "--j" in inv.argv:
                run = lambda out=out, p=inv.params: self._j_grid(out, p["beta"])
            elif kind == "analytic":
                run = lambda out=out, p=inv.params: self._drift(out, p, drift_values)
            elif kind == "decay":
                run = lambda out=out, p=inv.params: self._decay(out, p)
            else:
                run = lambda out=out: self._replot(out, os.path.dirname(out))
            yield inv.ops, lambda op=inv.ops[0], run=run: ((op, p) for p in run())

    def _k_grid(self, out):
        rows = read_csv(os.path.join(out, "k_grid.csv"))
        lo, hi, step = (float(v) for v in wl.K_GRID.split(":"))
        if len(rows) != round((hi - lo) / step) + 1:
            yield f"{len(rows)} K rows"
        worst = max((abs(float(r["k"]) - oracles.k_oracle(float(r["x"]))), r["x"]) for r in rows)
        if not worst[0] <= K_ABS_TOL:
            yield f"K({worst[1]}) off the erfc oracle by {worst[0]:.3g}"
        if not os.path.exists(os.path.join(out, "k_fn.svg")):
            yield "no k_fn.svg"

    def _j_grid(self, out, beta):
        rows = read_csv(os.path.join(out, "j_grid.csv"))
        lo, hi, step = (float(v) for v in wl.J_GAMMA_GRID.split(":"))
        if len(rows) != round((hi - lo) / step) + 1:
            yield f"{len(rows)} J rows"
        for r in rows:
            j = float(r["j"])
            if (r["beta_dist"], r["beta_even"]) != (beta, "true"):
                yield f"row labelled {r['beta_dist']} even={r['beta_even']}"
            if not j < 0:
                yield f"J({r['gamma']}) = {j!r} is not negative for even {beta}"
            want = self.j(r["gamma"], beta)
            if _rel(j, want) > J_REL_TOL:
                yield f"J({r['gamma']}) = {j!r}, independent {want!r}"

    def _drift(self, out, p, values):
        fmt = p["format"]
        path = os.path.join(out, "drift." + fmt)
        row = read_csv(path)[0] if fmt == "csv" else read_json(path)[0]
        value = float(row["value"])
        want = 0.5 * p["eta"] ** 2 * p["c"] ** 2 * self.factor(p["gamma"], p["beta"])
        if (row["gamma_dist"], row["beta_dist"]) != (p["gamma"], p["beta"]):
            yield f"row labelled {row['gamma_dist']}, {row['beta_dist']}"
        if not value < 0:
            yield f"drift {value!r} is not negative"
        if _rel(value, want) > DRIFT_REL_TOL:
            yield f"drift {value!r}, independent {want!r}"
        pair = values.setdefault(p["pair"], {})
        pair[p["eta"]] = value
        half = pair.get(p["eta"] / 2)
        if fmt == "json" and half != value / 4:
            yield f"drift {value!r} at 2 eta is not 4 x {half!r}"

    def _decay(self, out, p):
        rows = read_csv(os.path.join(out, "decay.csv"))
        meta = read_json(os.path.join(out, "decay.json"))
        want = oracles.decay_reactivation(p["beta"], p["alpha"], p["lr"], p["wd"], wl.DECAY_MAX_STEPS)
        first = rows[0]
        if (int(first["step"]), float(first["gamma"]), float(first["beta"])) != (0, p["gamma"], p["beta"]):
            yield f"trace starts at {first}"
        err = oracles.margin_recurrence_error(
            [(int(r["step"]), float(r["gamma"]), float(r["c_margin"])) for r in rows], p["alpha"], p["lr"], p["wd"]
        )
        if not err <= MARGIN_ABS_TOL:
            yield f"margins leave the decay recurrence by {err:.3g}"
        if meta["reactivation_step"] != want or int(rows[-1]["step"]) != want:
            yield f"reactivation at {meta['reactivation_step']} (trace ends {rows[-1]['step']}), recurrence says {want}"
        if meta["steps_recorded"] != len(rows) or meta["alpha"] != p["alpha"]:
            yield f"decay.json {meta} does not describe the trace"

    def _replot(self, out, source):
        if not same_bytes(os.path.join(source, "decay_c.svg"), os.path.join(out, "decay_c.svg")):
            yield "re-plotted decay_c.svg differs from the one decay wrote"


CHECKERS = {"verify-grid": VerifyGrid, "toy-study": ToyStudy, "theory-sweep": TheorySweep}
