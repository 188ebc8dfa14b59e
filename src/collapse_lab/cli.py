"""Command-line front door.

Subcommands: ``analytic`` (kernel/expectation tables and drift
predictions), ``mc`` (simulation-vs-prediction verification; ``--verify``
also prints an agreement table), ``decay`` (pure-decay reactivation
traces), ``train`` (toy collapse experiments), ``report`` (re-plot SVGs
from existing CSV files).

A table is one form from producer to file to plot: {column name:
column}. Every plotted artifact is registered in ``_ARTIFACTS`` as its
declared columns ({name: type}; a route's table is its row type's fields)
and a plot function: a command writes the table and draws the SVG from
the columns it wrote, and ``report`` reads the table back, each column
parsed as its declared type, and draws the same SVG from it, so the two
files are byte-identical. A table whose header or cells do not match its
declared columns is a configuration error.

Distribution arguments use a kind:param:param mini-grammar:
``uniform:-1:1``, ``normal:0:0.5``, ``point:0``. Grids are ``lo:hi:step``
with both endpoints included; hi - lo must be a whole number of steps.

Configuration precedence: command-line flags override config-file values,
which override preset values. The config file is INI-style with one
section per subcommand; unknown keys in a section are rejected.

Exit codes: 0 success, 2 configuration error (including a gamma
distribution or grid that reaches the 1/gamma^2 singularity at 0), 3
runtime error (divergence, aborted run, out of memory). Every command writes
byte-identical files for identical (config, seed), whatever the thread
cap; parallelism is bounded by COLLAPSE_LAB_THREADS. Files are written
atomically, so a failed run never leaves a truncated one.
"""

from __future__ import annotations

import argparse
import configparser
import functools
import itertools
import math
import os
import sys
import typing
from dataclasses import replace

import numpy as np

from . import analytic, mc, sparsity, svgplot, tables
from .dists import Uniform, parse_dist
from .errors import CollapseLabError, ConfigError, DivergenceError, DomainError
from .net import model as net_model
from .net import train as net_train

__all__ = ["main"]


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
    if not math.isfinite(hi - lo):
        raise ConfigError(f"grid span hi - lo overflows, got {text!r}")
    spans = (hi - lo) / step
    if not spans < 10_000_000:
        raise ConfigError(f"grid too large ({spans:.4g} steps): {text!r}")
    if round(spans) < 1 or abs(spans - round(spans)) > 1e-9 * spans:
        raise ConfigError(f"grid span hi - lo must be a whole number of steps, got {text!r}")
    return np.linspace(lo, hi, round(spans) + 1)


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
    if not (value >= 1 and value.is_integer()):  # inf and nan are no counts
        raise ConfigError(f"count must be a positive integer, got {text!r}")
    return int(value)


def _parse_format(text: str) -> str:
    if text not in ("csv", "json"):
        raise ConfigError(f"format must be csv or json, got {text!r}")
    return text


# (dest, converter, default, help) per subcommand; drives both the argparse
# registration and the config-file validation, so the two never drift.
_COMMON = [
    ("out", str, "out", "output directory"),
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
        ("format", _parse_format, "csv", "table format of the --drift value: csv or json"),
    ],
    "mc": [
        ("verify", _parse_bool, None, "run the verification grid instead of a single cell"),
        ("grid", str, "standard", "verification grid name"),
        ("eta", float, None, "learning rate"),
        ("c", float, None, "gradient noise scale"),
        ("noise", str, None, "gradient noise kind: normal or uniform"),
        ("gamma", parse_dist, None, "gamma distribution"),
        ("beta", parse_dist, None, "beta distribution"),
        ("n", _parse_count, 1_000_000, "neurons to sample"),
        ("seed", int, 0, "noise and sampling seed"),
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
        ("seed", int, 0, "first training seed"),
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

# mc flags that describe the single cell, each with the value it takes when
# not given; --verify's grid runs on these gamma and beta distributions
_MC_CELL = {"eta": 0.005, "c": 1.0, "noise": "normal", "gamma": Uniform(0.5, 1.5), "beta": Uniform(-1.0, 1.0)}

# train flags that set a TrainConfig field of another name; each train flag
# but preset, seed, seeds and random_labels sets the field of its own name
_TRAIN_FIELD_FOR = {
    "epochs": "epochs_per_round",
    "momentum": "momentum_sgd",
    "wd": "weight_decay",
    "width": "hidden_width",
    "layers": "hidden_layers",
    "threshold": "collapse_threshold",
}


def _flag_type(conv):
    """``conv`` as an argparse type: its ConfigError becomes the ArgumentTypeError whose text argparse prints.

    argparse reads any other ValueError as "invalid <conv's name> value", so the wrapper keeps that name.
    """

    @functools.wraps(conv)
    def convert(text: str):
        try:
            return conv(text)
        except ConfigError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None

    return convert


@functools.cache
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
                p.add_argument(flag, dest=dest, type=_flag_type(conv), default=None, help=help_text)
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


# Plot functions: a table ({column name: column}) -> {svg file name: svg text}.


def _k_plot(table: dict[str, list]) -> dict[str, str]:
    xs, ks = table["x"], table["k"]
    series = [svgplot.Series("K(x)", xs, ks)]
    x0 = analytic.k_sign_change()
    if xs[0] <= x0 <= xs[-1]:
        # K is positive only left of x0: the marker shows how short that window is
        series.append(svgplot.Series(f"sign change x0={x0:.4f}", (x0, x0), (min(ks), max(ks))))
    return {"k_fn.svg": svgplot.line_plot(series, title="Drift kernel", xlabel="x", ylabel="K(x)")}


def _j_plot(table: dict[str, list]) -> dict[str, str]:
    series = svgplot.Series(f"J, beta ~ {table['beta_dist'][0]}", table["gamma"], table["j"])
    return {
        "j_fn.svg": svgplot.line_plot(
            [series], title="Kernel expectation over beta", xlabel="gamma", ylabel="J(gamma)"
        )
    }


def _mc_plot(table: dict[str, list]) -> dict[str, str]:
    measured, predicted = table["empirical_mean"], table["predicted"]
    # an all-negative grid is drawn as -drift on log axes
    positive = not any(v >= 0 for v in measured + predicted)
    flip = -1.0 if positive else 1.0
    series = []
    ordered = sorted(zip(table["noise"], table["eta"], measured, predicted), key=lambda r: r[:2])
    for noise, group in itertools.groupby(ordered, key=lambda r: r[0]):
        _, etas, group_measured, group_predicted = zip(*group)
        series.append(
            svgplot.Series(f"measured ({noise})", etas, tuple(flip * v for v in group_measured), marker=True)
        )
        series.append(svgplot.Series(f"predicted ({noise})", etas, tuple(flip * v for v in group_predicted)))
    svg = svgplot.line_plot(
        series,
        title="One-step drift: simulation vs prediction",
        xlabel="eta",
        ylabel="-drift" if positive else "drift",
        xlog=positive,
        ylog=positive,
    )
    return {"drift_vs_eta.svg": svg}


def _decay_plot(table: dict[str, list]) -> dict[str, str]:
    series = svgplot.Series("C = (beta+alpha)/|gamma|", table["step"], table["c_margin"])
    return {
        "decay_c.svg": svgplot.line_plot(
            [series], title="Margin recovery under pure decay", xlabel="step", ylabel="C"
        )
    }


def _experiment_plot(table: dict[str, list]) -> dict[str, str]:
    svgs = {}
    for metric, stem, ylabel in (
        ("sparsity_ratio", "sparsity_vs_round", "collapsed fraction"),
        ("val_acc", "accuracy_vs_round", "validation accuracy"),
    ):
        # arm -> round -> values; arms keep the order the table lists them in
        cells: dict[str, dict[int, list]] = {}
        for arm, round_, value in zip(table["arm"], table["round"], table[metric]):
            cells.setdefault(arm, {}).setdefault(round_, []).append(value)
        series = []
        for arm, by_round in cells.items():
            rounds = sorted(by_round)
            means = tuple(sum(by_round[r]) / len(by_round[r]) for r in rounds)
            series.append(svgplot.Series(arm, tuple(float(r + 1) for r in rounds), means, marker=True))
        svgs[stem + ".svg"] = svgplot.line_plot(
            series, title=stem.replace("_", " "), xlabel="round", ylabel=ylabel
        )
    return svgs


# table stem -> (declared columns {name: type}, plot function); `report` re-draws each table it finds
_ARTIFACTS = {
    "k_grid": ({"x": float, "k": float}, _k_plot),
    "j_grid": ({"gamma": float, "j": float, "beta_dist": str, "beta_even": bool}, _j_plot),
    "mc_verify": (typing.get_type_hints(mc.TheoremRow), _mc_plot),
    "decay": (typing.get_type_hints(mc.TrajectoryRecord), _decay_plot),
    "experiment": (typing.get_type_hints(net_train.ExperimentRow), _experiment_plot),
}


def _columns(stem: str, rows) -> dict[str, list]:
    """The registered table ``stem`` built from ``rows``, objects with an attribute per column."""
    return {name: [getattr(row, name) for row in rows] for name in _ARTIFACTS[stem][0]}


def _write_table(out: str, stem: str, fmt: str, table: dict) -> None:
    path = os.path.join(out, f"{stem}.{fmt}")
    if fmt == "json":
        tables.write_json(path, [dict(zip(table, row)) for row in zip(*table.values())])
    else:
        tables.write_csv(path, table)
    print(path)


def _draw(out: str, stem: str, table: dict) -> None:
    """Write every SVG the plot of table ``stem`` draws from ``table``."""
    if not next(iter(table.values())):
        return  # e.g. a train run whose every arm failed: nothing to plot
    for name, svg in _ARTIFACTS[stem][1](table).items():
        path = os.path.join(out, name)
        with tables.atomic_write(path) as fh:
            fh.write(svg)
        print(path)


def _save(out: str, stem: str, table: dict) -> None:
    """Write a registered table, then its plots from the columns just written."""
    _write_table(out, stem, "csv", table)
    _draw(out, stem, table)


def cmd_analytic(params: dict) -> int:
    out = params["out"]
    beta, gamma = params["beta"], params["gamma"]
    # every flag is checked, and the drift computed, before the first write,
    # so a configuration error leaves no file behind
    if not (params["k_grid"] or params["j"] or params["drift"]):
        raise ConfigError("nothing to do: pass --k-grid, --j, or --drift")
    if params["j"] and beta is None:
        raise ConfigError("--j requires --beta")
    if params["drift"] and (gamma is None or beta is None):
        raise ConfigError("--drift requires --gamma and --beta")
    xs = parse_grid(params["k_grid"]) if params["k_grid"] else None
    gammas = parse_grid(params["gamma_grid"]) if params["j"] else None
    if gammas is not None and np.any(gammas == 0):
        raise ConfigError(f"--gamma-grid must not contain 0, got {params['gamma_grid']!r}")
    drift = None
    if params["drift"]:
        try:
            drift = analytic.drift_prediction(params["eta"], params["c"], gamma, beta)
        except DomainError as exc:
            raise ConfigError(f"--eta and --c: {exc}")  # a flag value outside the drift's domain
    if xs is not None:
        _save(out, "k_grid", {"x": xs.tolist(), "k": analytic.k_fn(xs).tolist()})
    if gammas is not None:
        table = {"gamma": gammas.tolist(), "j": analytic.j_fn(gammas, beta).tolist()}
        _save(out, "j_grid", table | {"beta_dist": [str(beta)] * len(gammas), "beta_even": [beta.is_even] * len(gammas)})
    if drift is not None:
        table = {
            "eta": [params["eta"]], "c": [params["c"]], "gamma_dist": [str(gamma)], "beta_dist": [str(beta)], "value": [drift]
        }
        _write_table(out, "drift", params["format"], table)
    return 0


def _print_agreement(rows: list[mc.TheoremRow]) -> None:
    header = f"{'cell':>24} {'empirical':>14} {'predicted':>14} {'se':>10} {'ratio':>8} agree"
    print(header)
    print("-" * len(header))
    for r in rows:
        ratio = f"{r.ratio_to_half_eta:.4f}" if r.ratio_to_half_eta is not None else "-"
        print(
            f"{r.run_id:>24} {r.empirical_mean:14.4e} {r.predicted:14.4e}"
            f" {r.std_error:10.2e} {ratio:>8} {r.agree}"
        )
    bad = sum(not r.agree for r in rows)
    if bad:
        print(f"\n{bad} cell(s) disagree", file=sys.stderr)
    else:
        print(f"\nall {len(rows)} cells within 3 standard errors")


def cmd_mc(params: dict) -> int:
    out = params["out"]
    given = [flag for flag in _MC_CELL if params[flag] is not None]
    if params["grid"] != "standard":
        raise ConfigError(f"unknown grid {params['grid']!r}; only 'standard' is defined")
    cell = _MC_CELL | {flag: params[flag] for flag in given}
    if params["verify"]:
        if given:
            flags = ", ".join("--" + flag for flag in given)
            raise ConfigError(f"--verify runs the standard grid, which sets every cell: drop {flags} (flag or [mc] key)")
        cfgs = mc.standard_grid(params["seed"])
    else:
        cfgs = [mc.UpdateConfig(eta=cell["eta"], c=cell["c"], noise=cell["noise"], seed=params["seed"])]
    rows = mc.one_step_drift(mc.EnsembleSpec(cell["gamma"], cell["beta"], params["n"]), cfgs)
    _save(out, "mc_verify", _columns("mc_verify", rows))
    if params["verify"]:
        _print_agreement(rows)
    return 0


def cmd_decay(params: dict) -> int:
    out = params["out"]
    cfg = mc.UpdateConfig(
        eta=params["lr"],
        c=0.0,
        weight_decay=params["wd"],
        alpha=params["alpha"],
    )
    try:
        result = mc.decay_trajectory(
            (params["gamma"], params["beta"]), cfg, steps=params["steps"], stride=params["stride"]
        )
    except DomainError as exc:
        # every rejection here is a bad flag value, not a mid-run failure
        raise ConfigError(str(exc))
    _save(out, "decay", _columns("decay", result.records))
    path = os.path.join(out, "decay.json")
    tables.write_json(
        path,
        {
            "reactivation_step": result.reactivation_step,
            "alpha": cfg.alpha,
            "steps_recorded": len(result.records),
        },
    )
    print(path)
    return 0


def _train_arms(params: dict) -> list[tuple[str, net_train.TrainConfig]]:
    if params["preset"]:
        arms = net_train.preset_arms(params["preset"])
    else:
        arms = [("custom", net_train.TOY_BASE)]
    overrides = {}
    for flag, *_ in _OPTIONS["train"]:
        if flag not in ("preset", "seed", "seeds", "random_labels") and params[flag] is not None:
            overrides[_TRAIN_FIELD_FOR.get(flag, flag)] = params[flag]
    if params["random_labels"]:
        overrides["label_mode"] = "random"
    if overrides:
        arms = [(name, replace(cfg, **overrides)) for name, cfg in arms]
    return arms


def cmd_train(params: dict) -> int:
    out = params["out"]
    arms = _train_arms(params)
    seeds = [params["seed"] + i for i in range(params["seeds"])]
    result = net_train.multi_round_experiment(arms, seeds)
    _save(out, "experiment", _columns("experiment", result.rows))
    for (arm, seed), (model, reports, rng) in sorted(result.runs.items()):
        tag = f"{arm}_s{seed}"
        path = os.path.join(out, f"sparsity_{tag}.json")
        tables.write_json(path, sparsity.report_to_json(reports[-1].sparsity))
        print(path)
        hist = sparsity.filter_l1_histogram(model.dense[0].w.T)  # one row per first-layer unit: its incoming weights
        _write_table(out, f"l1_hist_{tag}", "csv", sparsity.histogram_csv_rows(hist))
        path = os.path.join(out, f"checkpoint_{tag}.json")
        net_model.save_checkpoint(path, model, rng, extra={"arm": arm, "seed": seed})
        print(path)
    if result.failures:
        columns = map(list, zip(*result.failures))
        _write_table(out, "failures", "csv", dict(zip(["arm", "seed", "error"], columns)))
        for arm, seed, message in result.failures:
            print(f"arm {arm} seed {seed} failed: {message}", file=sys.stderr)
    if result.rows:
        return 0
    raise DivergenceError("all arms failed")


def cmd_report(params: dict) -> int:
    out = params["out"]
    source = params["source"] or out
    if not os.path.isdir(source):
        raise ConfigError(f"source directory not found: {source}")
    regenerated = 0
    for stem, (types, _) in _ARTIFACTS.items():
        path = os.path.join(source, stem + ".csv")
        if not os.path.exists(path):
            continue
        _draw(out, stem, tables.read_csv(path, types))
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
        return _COMMANDS[args.command](merged_params(args, args.command))
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except CollapseLabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except MemoryError as exc:  # an array too large for this machine, e.g. from a huge --width
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
