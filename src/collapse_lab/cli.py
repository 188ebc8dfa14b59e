"""Command-line front door.

Subcommands: ``analytic`` (kernel/expectation tables and drift
predictions), ``mc`` (simulation-vs-prediction verification), ``decay``
(pure-decay reactivation traces), ``train`` (toy collapse experiments),
``report`` (re-plot SVGs from existing CSV files).

Distribution arguments use a kind:param:param mini-grammar:
``uniform:-1:1``, ``normal:0:0.5``, ``point:0``. Grids are ``lo:hi:step``
with both endpoints included.

Configuration precedence: command-line flags override config-file values,
which override preset values. The config file is INI-style with one
section per subcommand; unknown keys in a section are rejected.

Exit codes: 0 success, 2 configuration error (including a gamma
distribution or grid that reaches the 1/gamma^2 singularity at 0), 3
runtime error (divergence, aborted run). Every command writes
byte-identical files for identical (config, seed), whatever the thread
cap; parallelism is bounded by COLLAPSE_LAB_THREADS. Files are written
atomically, so a failed run never leaves a truncated one.
"""

from __future__ import annotations

import argparse
import configparser
import math
import os
import sys
from dataclasses import replace

import numpy as np

from . import analytic, mc, sparsity, svgplot, tables
from .dists import parse_dist
from .errors import CollapseLabError, ConfigError, DivergenceError, DomainError, SingularityError
from .net import model as net_model
from .net import train as net_train
from .quadrature import QuadratureSpec

__all__ = ["main"]

MC_CSV_HEADER = [
    "run_id",
    "eta",
    "c",
    "noise",
    "gamma_dist",
    "beta_dist",
    "n",
    "empirical_mean",
    "std_error",
    "predicted",
    "agree",
    "ratio_to_half_eta",
]

DECAY_CSV_HEADER = ["step", "gamma", "beta", "activation_prob", "collapsed", "c_margin"]


def parse_grid(text: str) -> np.ndarray:
    parts = text.split(":")
    if len(parts) != 3:
        raise ConfigError(f"grid must be lo:hi:step, got {text!r}")
    try:
        lo, hi, step = (float(p) for p in parts)
    except ValueError:
        raise ConfigError(f"grid values must be numeric, got {text!r}")
    if not (math.isfinite(lo) and math.isfinite(hi) and math.isfinite(step)):
        raise ConfigError(f"grid values must be finite, got {text!r}")
    if step <= 0 or hi <= lo:
        raise ConfigError(f"grid needs hi > lo and step > 0, got {text!r}")
    n = int(round((hi - lo) / step)) + 1
    if n > 10_000_000:
        raise ConfigError(f"grid too large ({n} points): {text!r}")
    return np.linspace(lo, hi, n)


def _parse_bool(text: str) -> bool:
    low = text.strip().lower()
    if low in ("true", "1", "yes"):
        return True
    if low in ("false", "0", "no"):
        return False
    raise ConfigError(f"expected a boolean, got {text!r}")


def _parse_count(text: str) -> int:
    try:
        value = float(text)
    except ValueError:
        raise ConfigError(f"expected a count, got {text!r}")
    if value < 1 or value != int(value):
        raise ConfigError(f"count must be a positive integer, got {text!r}")
    return int(value)


# (dest, converter, default, help) per subcommand; drives both the argparse
# registration and the config-file validation, so the two never drift.
_COMMON = [
    ("out", str, "out", "output directory"),
    ("seed", int, 0, "base seed"),
    ("threads", int, None, "worker cap (also capped by COLLAPSE_LAB_THREADS)"),
    ("format", str, "csv", "table format for single-value outputs: csv or json"),
]

_OPTIONS = {
    "analytic": [
        ("k_grid", str, None, "emit the kernel on grid lo:hi:step"),
        ("j", _parse_bool, None, "emit the beta-expectation of the kernel over a gamma grid"),
        ("gamma_grid", str, "0.1:5:0.1", "gamma grid lo:hi:step for --j"),
        ("beta", parse_dist, None, "beta distribution (kind:param:param)"),
        ("gamma", parse_dist, None, "gamma distribution for --drift"),
        ("drift", _parse_bool, None, "emit the one-step drift prediction"),
        ("eta", float, 0.01, "learning rate for --drift"),
        ("c", float, 1.0, "gradient noise scale for --drift"),
        ("panels", int, None, "quadrature panel count override"),
    ],
    "mc": [
        ("verify", _parse_bool, None, "run the verification grid instead of a single cell"),
        ("grid", str, "standard", "verification grid name"),
        ("eta", float, 0.005, "learning rate"),
        ("c", float, 1.0, "gradient noise scale"),
        ("noise", str, "normal", "gradient noise kind: normal or uniform"),
        ("gamma", parse_dist, parse_dist("uniform:0.5:1.5"), "gamma distribution"),
        ("beta", parse_dist, parse_dist("uniform:-1:1"), "beta distribution"),
        ("n", _parse_count, 1_000_000, "neurons to sample"),
    ],
    "decay": [
        ("gamma", float, 1.0, "initial scale"),
        ("beta", float, -1.1, "initial bias"),
        ("alpha", float, 0.1, "post-shift constant (> 0)"),
        ("wd", float, 0.01, "weight decay"),
        ("lr", float, 0.1, "learning rate"),
        ("steps", _parse_count, 20_000, "maximum decay steps"),
        ("stride", _parse_count, 1, "record every this many steps"),
    ],
    "train": [
        ("preset", str, None, "arm set: " + ", ".join(sorted(net_train.PRESETS))),
        ("seeds", _parse_count, 1, "seeds per arm (seed, seed+1, ...)"),
        ("rounds", _parse_count, None, "cosine restart rounds"),
        ("epochs", _parse_count, None, "epochs per round"),
        ("batch_size", _parse_count, None, "SGD batch size"),
        ("eta_max", float, None, "cosine peak learning rate"),
        ("eta_min", float, None, "cosine floor learning rate"),
        ("momentum", float, None, "SGD momentum"),
        ("wd", float, None, "weight decay"),
        ("activation", str, None, "relu or leaky"),
        ("norm", str, None, "bn, psbn, or none"),
        ("alpha", float, None, "post-shift constant (psbn only)"),
        ("gamma_init", float, None, "initial BN scale"),
        ("width", _parse_count, None, "hidden width"),
        ("layers", _parse_count, None, "hidden layer count"),
        ("classes", _parse_count, None, "dataset classes"),
        ("dim", _parse_count, None, "dataset dimensionality"),
        ("n_per_class", _parse_count, None, "points per class"),
        ("data_seed", int, None, "dataset seed (shared across arms)"),
        ("threshold", float, None, "collapse threshold"),
        ("random_labels", _parse_bool, None, "train against a fixed random label permutation"),
    ],
    "report": [
        ("source", str, None, "directory holding CSV files to re-plot (defaults to --out)"),
    ],
}

# fields where the TrainConfig name differs from the flag name
_TRAIN_FIELD_FOR = {
    "rounds": "rounds",
    "epochs": "epochs_per_round",
    "batch_size": "batch_size",
    "eta_max": "eta_max",
    "eta_min": "eta_min",
    "momentum": "momentum_sgd",
    "wd": "weight_decay",
    "activation": "activation",
    "norm": "norm",
    "alpha": "alpha",
    "gamma_init": "gamma_init",
    "width": "hidden_width",
    "layers": "hidden_layers",
    "classes": "classes",
    "dim": "dim",
    "n_per_class": "n_per_class",
    "data_seed": "data_seed",
    "threshold": "collapse_threshold",
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="collapse-lab",
        description="Numerical laboratory for normalization-scale collapse under noisy SGD.",
    )
    parser.add_argument("--config", default=None, help="INI config file, one section per subcommand")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, options in _OPTIONS.items():
        p = sub.add_parser(command)
        for dest, conv, _default, help_text in _COMMON + options:
            flag = "--" + dest.replace("_", "-")
            if conv is _parse_bool:
                p.add_argument(flag, dest=dest, action="store_const", const=True, default=None, help=help_text)
            else:
                p.add_argument(flag, dest=dest, type=conv, default=None, help=help_text)
    return parser


def merged_params(args: argparse.Namespace, command: str) -> dict:
    """defaults <- config file <- explicit flags, with unknown keys rejected."""
    spec = {dest: (conv, default) for dest, conv, default, _ in _COMMON + _OPTIONS[command]}
    params = {dest: default for dest, (_, default) in spec.items()}
    if args.config:
        if not os.path.exists(args.config):
            raise ConfigError(f"config file not found: {args.config}")
        ini = configparser.ConfigParser()
        try:
            ini.read(args.config)
        except configparser.Error as exc:
            raise ConfigError(f"cannot parse {args.config}: {exc}")
        if ini.has_section(command):
            for key, raw in ini.items(command):
                if key not in spec:
                    raise ConfigError(f"unknown key {key!r} in [{command}] of {args.config}")
                conv = spec[key][0]
                try:
                    params[key] = conv(raw)
                except (ConfigError, ValueError) as exc:
                    raise ConfigError(f"[{command}] {key}: {exc}")
    for dest in spec:
        value = getattr(args, dest, None)
        if value is not None:
            params[dest] = value
    return params


def _outdir(params: dict) -> str:
    out = params["out"]
    os.makedirs(out, exist_ok=True)
    return out


def _emit(path: str) -> None:
    print(path)


def _write_svg(path: str, svg: str) -> None:
    with tables.atomic_write(path) as fh:
        fh.write(svg)
    _emit(path)


def _write_table(out: str, stem: str, fmt: str, header, rows):
    if fmt == "json":
        path = os.path.join(out, stem + ".json")
        tables.write_json(path, [dict(zip(header, row)) for row in rows])
    elif fmt == "csv":
        path = os.path.join(out, stem + ".csv")
        tables.write_csv(path, header, rows)
    else:
        raise ConfigError(f"format must be csv or json, got {fmt!r}")
    _emit(path)


def cmd_analytic(params: dict) -> int:
    out = _outdir(params)
    quad = QuadratureSpec(panels=params["panels"]) if params["panels"] else QuadratureSpec()
    did_anything = False
    if params["k_grid"]:
        did_anything = True
        xs = parse_grid(params["k_grid"])
        ks = analytic.k_fn(xs)
        path = os.path.join(out, "k_grid.csv")
        tables.write_csv(path, ["x", "k"], list(zip(xs.tolist(), ks.tolist())))
        _emit(path)
        svg = svgplot.line_plot(
            [svgplot.Series("K(x)", tuple(xs.tolist()), tuple(ks.tolist()))],
            title="Drift kernel",
            xlabel="x",
            ylabel="K(x)",
        )
        path = os.path.join(out, "k_fn.svg")
        _write_svg(path, svg)
    if params["j"]:
        did_anything = True
        if params["beta"] is None:
            raise ConfigError("--j requires --beta")
        beta = params["beta"]
        gammas = parse_grid(params["gamma_grid"])
        if np.any(gammas == 0):
            raise ConfigError(f"--gamma-grid must not contain 0, got {params['gamma_grid']!r}")
        jvals = [analytic.j_fn(float(g), beta, quad) for g in gammas]
        path = os.path.join(out, "j_grid.csv")
        tables.write_csv(
            path,
            ["gamma", "j", "beta_dist", "beta_even"],
            [[float(g), j, str(beta), beta.is_even] for g, j in zip(gammas, jvals)],
        )
        _emit(path)
        svg = svgplot.line_plot(
            [svgplot.Series(f"J, beta ~ {beta}", tuple(float(g) for g in gammas), tuple(jvals))],
            title="Kernel expectation over beta",
            xlabel="gamma",
            ylabel="J(gamma)",
        )
        path = os.path.join(out, "j_fn.svg")
        _write_svg(path, svg)
    if params["drift"]:
        did_anything = True
        if params["gamma"] is None or params["beta"] is None:
            raise ConfigError("--drift requires --gamma and --beta")
        pred = analytic.drift_prediction(params["eta"], params["c"], params["gamma"], params["beta"], quad)
        header = ["eta", "c", "gamma_dist", "beta_dist", "value"]
        row = [pred.eta, pred.c, str(pred.gamma_dist), str(pred.beta_dist), pred.value]
        _write_table(out, "drift", params["format"], header, [row])
    if not did_anything:
        raise ConfigError("nothing to do: pass --k-grid, --j, or --drift")
    return 0


def _mc_rows_csv(out: str, rows: list[mc.TheoremRow], fmt: str) -> None:
    table = [
        [
            r.run_id,
            r.eta,
            r.c,
            r.noise,
            r.gamma_dist,
            r.beta_dist,
            r.n,
            r.empirical_mean,
            r.std_error,
            r.predicted,
            r.agree,
            r.ratio_to_half_eta,
        ]
        for r in rows
    ]
    _write_table(out, "mc_verify", fmt, MC_CSV_HEADER, table)


def _mc_svg(out: str, rows: list[mc.TheoremRow]) -> None:
    by_noise: dict[str, list[mc.TheoremRow]] = {}
    for r in rows:
        by_noise.setdefault(r.noise, []).append(r)
    series = []
    positive = True
    for noise, group in sorted(by_noise.items()):
        group = sorted(group, key=lambda r: r.eta)
        if any(r.empirical_mean >= 0 or r.predicted >= 0 for r in group):
            positive = False
    for noise, group in sorted(by_noise.items()):
        group = sorted(group, key=lambda r: r.eta)
        flip = -1.0 if positive else 1.0
        series.append(
            svgplot.Series(
                f"measured ({noise})",
                tuple(r.eta for r in group),
                tuple(flip * r.empirical_mean for r in group),
                marker=True,
            )
        )
        series.append(
            svgplot.Series(
                f"predicted ({noise})",
                tuple(r.eta for r in group),
                tuple(flip * r.predicted for r in group),
            )
        )
    ylabel = "-drift" if positive else "drift"
    svg = svgplot.line_plot(
        series,
        title="One-step drift: simulation vs prediction",
        xlabel="eta",
        ylabel=ylabel,
        xlog=positive,
        ylog=positive,
    )
    path = os.path.join(out, "drift_vs_eta.svg")
    _write_svg(path, svg)


def cmd_mc(params: dict) -> int:
    out = _outdir(params)
    threads = params["threads"]
    if params["verify"]:
        if params["grid"] != "standard":
            raise ConfigError(f"unknown grid {params['grid']!r}; only 'standard' is defined")
        rows = mc.verify_theorem(count=params["n"], seed=params["seed"], threads=threads)
    else:
        cell = mc.VerifyCell(
            eta=params["eta"],
            c=params["c"],
            noise=params["noise"],
            gamma_dist=params["gamma"],
            beta_dist=params["beta"],
        )
        rows = mc.verify_theorem([cell], count=params["n"], seed=params["seed"], threads=threads)
    _mc_rows_csv(out, rows, params["format"])
    _mc_svg(out, rows)
    return 0


def cmd_decay(params: dict) -> int:
    out = _outdir(params)
    cfg = mc.UpdateConfig(
        eta=params["lr"],
        c=0.0,
        weight_decay=params["wd"],
        alpha=params["alpha"],
        seed=params["seed"],
    )
    try:
        result = mc.decay_trajectory(
            (params["gamma"], params["beta"]), cfg, steps=params["steps"], stride=params["stride"]
        )
    except DomainError as exc:
        # every rejection here is a bad flag value, not a mid-run failure
        raise ConfigError(str(exc))
    rows = [
        [r.step, r.gamma, r.beta, r.activation_prob, r.collapsed, (r.beta + result.alpha) / abs(r.gamma)]
        for r in result.records
    ]
    path = os.path.join(out, "decay.csv")
    tables.write_csv(path, DECAY_CSV_HEADER, rows)
    _emit(path)
    tables.write_json(
        os.path.join(out, "decay.json"),
        {
            "reactivation_step": result.reactivation_step,
            "alpha": result.alpha,
            "steps_recorded": len(result.records),
        },
    )
    _emit(os.path.join(out, "decay.json"))
    svg = svgplot.line_plot(
        [
            svgplot.Series(
                "C = (beta+alpha)/|gamma|",
                tuple(r.step for r in result.records),
                tuple((r.beta + result.alpha) / abs(r.gamma) for r in result.records),
            )
        ],
        title="Margin recovery under pure decay",
        xlabel="step",
        ylabel="C",
    )
    path = os.path.join(out, "decay_c.svg")
    _write_svg(path, svg)
    return 0


def _train_arms(params: dict) -> list[tuple[str, net_train.TrainConfig]]:
    if params["preset"]:
        arms = net_train.preset_arms(params["preset"])
    else:
        arms = [("custom", net_train.TrainConfig(weight_decay=0.05, hidden_width=64, n_per_class=200))]
    overrides = {}
    for flag, field_name in _TRAIN_FIELD_FOR.items():
        if params[flag] is not None:
            overrides[field_name] = params[flag]
    if params["random_labels"]:
        overrides["label_mode"] = "random"
    if overrides:
        arms = [(name, replace(cfg, **overrides)) for name, cfg in arms]
    return arms


def _train_svgs(out: str, rows: list[dict], arms: list[str]) -> None:
    def mean_series(metric: str, arm: str):
        by_round: dict[int, list[float]] = {}
        for row in rows:
            if row["arm"] == arm:
                by_round.setdefault(row["round"], []).append(row[metric])
        rounds = sorted(by_round)
        return (
            tuple(float(r + 1) for r in rounds),
            tuple(sum(by_round[r]) / len(by_round[r]) for r in rounds),
        )

    for metric, stem, ylabel in (
        ("sparsity_ratio", "sparsity_vs_round", "collapsed fraction"),
        ("val_acc", "accuracy_vs_round", "validation accuracy"),
    ):
        series = []
        for arm in arms:
            xs, ys = mean_series(metric, arm)
            if xs:
                series.append(svgplot.Series(arm, xs, ys, marker=True))
        if not series:
            continue
        svg = svgplot.line_plot(series, title=stem.replace("_", " "), xlabel="round", ylabel=ylabel)
        path = os.path.join(out, stem + ".svg")
        _write_svg(path, svg)


def cmd_train(params: dict) -> int:
    out = _outdir(params)
    arms = _train_arms(params)
    seeds = [params["seed"] + i for i in range(params["seeds"])]
    result = net_train.multi_round_experiment(arms, seeds)
    path = os.path.join(out, "experiment.csv")
    tables.write_csv(
        path,
        net_train.EXPERIMENT_CSV_HEADER,
        tables.rows_from_dicts(result.rows, net_train.EXPERIMENT_CSV_HEADER),
    )
    _emit(path)
    for (arm, seed), model in sorted(result.finals.items()):
        tag = f"{arm}_s{seed}"
        reports = result.reports[(arm, seed)]
        tables.write_json(
            os.path.join(out, f"sparsity_{tag}.json"),
            sparsity.report_to_json(reports[-1].sparsity),
        )
        _emit(os.path.join(out, f"sparsity_{tag}.json"))
        hist = sparsity.filter_l1_histogram(model.filter_matrix(0))
        header, hrows = sparsity.histogram_csv_rows(hist)
        hist_path = os.path.join(out, f"l1_hist_{tag}.csv")
        tables.write_csv(hist_path, header, hrows)
        _emit(hist_path)
        ckpt = os.path.join(out, f"checkpoint_{tag}.json")
        net_model.save_checkpoint(
            ckpt, model, result.rngs[(arm, seed)], extra={"arm": arm, "seed": seed}
        )
        _emit(ckpt)
    if result.failures:
        fail_path = os.path.join(out, "failures.csv")
        tables.write_csv(fail_path, ["arm", "seed", "error"], [list(f) for f in result.failures])
        _emit(fail_path)
        for arm, seed, message in result.failures:
            print(f"arm {arm} seed {seed} failed: {message}", file=sys.stderr)
    _train_svgs(out, result.rows, [name for name, _ in arms])
    if result.rows:
        return 0
    raise DivergenceError("all arms failed")


def cmd_report(params: dict) -> int:
    out = _outdir(params)
    source = params["source"] or out
    if not os.path.isdir(source):
        raise ConfigError(f"source directory not found: {source}")
    regenerated = 0
    exp_path = os.path.join(source, "experiment.csv")
    if os.path.exists(exp_path):
        header, raw = tables.read_csv(exp_path)
        if header != net_train.EXPERIMENT_CSV_HEADER:
            raise ConfigError(f"{exp_path} has unexpected columns {header}")
        rows = [dict(zip(header, row)) for row in raw]
        arm_order = list(dict.fromkeys(row["arm"] for row in rows))
        _train_svgs(out, rows, arm_order)
        regenerated += 1
    mc_path = os.path.join(source, "mc_verify.csv")
    if os.path.exists(mc_path):
        header, raw = tables.read_csv(mc_path)
        if header != MC_CSV_HEADER:
            raise ConfigError(f"{mc_path} has unexpected columns {header}")
        rows = [mc.TheoremRow(**dict(zip(header, row))) for row in raw]
        _mc_svg(out, rows)
        regenerated += 1
    decay_path = os.path.join(source, "decay.csv")
    if os.path.exists(decay_path):
        header, raw = tables.read_csv(decay_path)
        if header != DECAY_CSV_HEADER:
            raise ConfigError(f"{decay_path} has unexpected columns {header}")
        svg = svgplot.line_plot(
            [
                svgplot.Series(
                    "C = (beta+alpha)/|gamma|",
                    tuple(row[0] for row in raw),
                    tuple(row[5] for row in raw),
                )
            ],
            title="Margin recovery under pure decay",
            xlabel="step",
            ylabel="C",
        )
        path = os.path.join(out, "decay_c.svg")
        _write_svg(path, svg)
        regenerated += 1
    if regenerated == 0:
        raise ConfigError(f"no known CSV files found in {source}")
    return 0


_COMMANDS = {
    "analytic": cmd_analytic,
    "mc": cmd_mc,
    "decay": cmd_decay,
    "train": cmd_train,
    "report": cmd_report,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        params = merged_params(args, args.command)
        return _COMMANDS[args.command](params)
    except (ConfigError, SingularityError) as exc:
        # a SingularityError only comes from validating user-given
        # distributions or gammas, so it is a configuration error too
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except CollapseLabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
