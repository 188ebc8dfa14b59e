"""Command-line front door.

Subcommands: ``analytic`` (kernel/expectation tables and drift
predictions), ``mc`` (simulation-vs-prediction verification; ``--verify``
also prints an agreement table), ``decay`` (pure-decay reactivation
traces), ``train`` (toy collapse experiments), ``report`` (re-plot SVGs
from existing CSV files).

Every plotted artifact is a table plus a plot function registered in
``_ARTIFACTS``: a command writes the table and draws the SVG from the rows
it wrote, and ``report`` draws the same SVG from the table read back, so
the two files are byte-identical.

Distribution arguments use a kind:param:param mini-grammar:
``uniform:-1:1``, ``normal:0:0.5``, ``point:0``. Grids are ``lo:hi:step``
with both endpoints included; hi - lo must be a whole number of steps.

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
import itertools
import math
import os
import sys
from dataclasses import astuple, fields, replace

import numpy as np

from . import analytic, mc, sparsity, svgplot, tables
from .dists import parse_dist
from .errors import CollapseLabError, ConfigError, DivergenceError, DomainError, SingularityError
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
    if value < 1 or value != int(value):
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
        ("threads", _parse_count, None, "worker cap (also capped by COLLAPSE_LAB_THREADS)"),
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

# mc flags that describe the single cell, and the VerifyCell field each
# sets; a field left unset takes VerifyCell's default
_MC_CELL_FIELD = {"eta": "eta", "c": "c", "noise": "noise", "gamma": "gamma_dist", "beta": "beta_dist"}

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


# Plot functions: decoded table rows (dicts keyed by the table's header)
# -> {svg file name: svg text}.


def _k_plot(rows: list[dict]) -> dict[str, str]:
    xs = tuple(r["x"] for r in rows)
    ks = tuple(r["k"] for r in rows)
    series = [svgplot.Series("K(x)", xs, ks)]
    x0 = analytic.k_sign_change()
    if xs[0] <= x0 <= xs[-1]:
        # K is positive only left of x0: the marker shows how short that window is
        series.append(svgplot.Series(f"sign change x0={x0:.4f}", (x0, x0), (min(ks), max(ks))))
    return {"k_fn.svg": svgplot.line_plot(series, title="Drift kernel", xlabel="x", ylabel="K(x)")}


def _j_plot(rows: list[dict]) -> dict[str, str]:
    series = svgplot.Series(
        f"J, beta ~ {rows[0]['beta_dist']}",
        tuple(r["gamma"] for r in rows),
        tuple(r["j"] for r in rows),
    )
    return {
        "j_fn.svg": svgplot.line_plot(
            [series], title="Kernel expectation over beta", xlabel="gamma", ylabel="J(gamma)"
        )
    }


def _mc_plot(rows: list[dict]) -> dict[str, str]:
    # an all-negative grid is drawn as -drift on log axes
    positive = not any(r["empirical_mean"] >= 0 or r["predicted"] >= 0 for r in rows)
    flip = -1.0 if positive else 1.0
    series = []
    ordered = sorted(rows, key=lambda r: (r["noise"], r["eta"]))
    for noise, group in itertools.groupby(ordered, key=lambda r: r["noise"]):
        group = list(group)
        etas = tuple(r["eta"] for r in group)
        series.append(
            svgplot.Series(
                f"measured ({noise})", etas, tuple(flip * r["empirical_mean"] for r in group), marker=True
            )
        )
        series.append(svgplot.Series(f"predicted ({noise})", etas, tuple(flip * r["predicted"] for r in group)))
    svg = svgplot.line_plot(
        series,
        title="One-step drift: simulation vs prediction",
        xlabel="eta",
        ylabel="-drift" if positive else "drift",
        xlog=positive,
        ylog=positive,
    )
    return {"drift_vs_eta.svg": svg}


def _decay_plot(rows: list[dict]) -> dict[str, str]:
    series = svgplot.Series(
        "C = (beta+alpha)/|gamma|",
        tuple(r["step"] for r in rows),
        tuple(r["c_margin"] for r in rows),
    )
    return {
        "decay_c.svg": svgplot.line_plot(
            [series], title="Margin recovery under pure decay", xlabel="step", ylabel="C"
        )
    }


def _experiment_plot(rows: list[dict]) -> dict[str, str]:
    # arm -> round -> rows; arms keep the order the table lists them in
    cells: dict[str, dict[int, list[dict]]] = {}
    for row in rows:
        cells.setdefault(row["arm"], {}).setdefault(row["round"], []).append(row)
    svgs = {}
    for metric, stem, ylabel in (
        ("sparsity_ratio", "sparsity_vs_round", "collapsed fraction"),
        ("val_acc", "accuracy_vs_round", "validation accuracy"),
    ):
        series = []
        for arm, by_round in cells.items():
            rounds = sorted(by_round)
            means = tuple(sum(row[metric] for row in by_round[r]) / len(by_round[r]) for r in rounds)
            series.append(svgplot.Series(arm, tuple(float(r + 1) for r in rounds), means, marker=True))
        svgs[stem + ".svg"] = svgplot.line_plot(
            series, title=stem.replace("_", " "), xlabel="round", ylabel=ylabel
        )
    return svgs


# table stem -> (CSV header, plot function); `report` re-draws each table it finds
_ARTIFACTS = {
    "k_grid": (["x", "k"], _k_plot),
    "j_grid": (["gamma", "j", "beta_dist", "beta_even"], _j_plot),
    "mc_verify": ([f.name for f in fields(mc.TheoremRow)], _mc_plot),
    "decay": (list(mc.TrajectoryRecord._fields), _decay_plot),
    "experiment": (net_train.EXPERIMENT_CSV_HEADER, _experiment_plot),
}


def _write_table(out: str, stem: str, fmt: str, header, rows) -> None:
    path = os.path.join(out, f"{stem}.{fmt}")
    if fmt == "json":
        tables.write_json(path, [dict(zip(header, row)) for row in rows])
    else:
        tables.write_csv(path, header, rows)
    print(path)


def _draw(out: str, stem: str, rows) -> None:
    """Write every SVG the plot of table ``stem`` draws from ``rows``."""
    if not rows:
        return  # e.g. a train run whose every arm failed: nothing to plot
    header, plot = _ARTIFACTS[stem]
    for name, svg in plot([dict(zip(header, row)) for row in rows]).items():
        path = os.path.join(out, name)
        with tables.atomic_write(path) as fh:
            fh.write(svg)
        print(path)


def _save(out: str, stem: str, rows) -> None:
    """Write a registered table, then its plots from the rows just written."""
    _write_table(out, stem, "csv", _ARTIFACTS[stem][0], rows)
    _draw(out, stem, rows)


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
    pred = analytic.drift_prediction(params["eta"], params["c"], gamma, beta) if params["drift"] else None
    if xs is not None:
        _save(out, "k_grid", list(zip(xs.tolist(), analytic.k_fn(xs).tolist())))
    if gammas is not None:
        rows = [[float(g), analytic.j_fn(float(g), beta), str(beta), beta.is_even] for g in gammas]
        _save(out, "j_grid", rows)
    if pred is not None:
        header = ["eta", "c", "gamma_dist", "beta_dist", "value"]
        row = [pred.eta, pred.c, str(pred.gamma_dist), str(pred.beta_dist), pred.value]
        _write_table(out, "drift", params["format"], header, [row])
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
    given = [flag for flag in _MC_CELL_FIELD if params[flag] is not None]
    if params["verify"]:
        if params["grid"] != "standard":
            raise ConfigError(f"unknown grid {params['grid']!r}; only 'standard' is defined")
        if given:
            flags = ", ".join("--" + flag for flag in given)
            raise ConfigError(f"--verify runs the standard grid, which sets every cell: drop {flags} (flag or [mc] key)")
        cells = mc.standard_grid()
    else:
        cells = [mc.VerifyCell(**{_MC_CELL_FIELD[flag]: params[flag] for flag in given})]
    rows = mc.verify_theorem(cells, count=params["n"], seed=params["seed"], threads=params["threads"])
    _save(out, "mc_verify", [astuple(r) for r in rows])
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
    _save(out, "decay", result.records)
    path = os.path.join(out, "decay.json")
    tables.write_json(
        path,
        {
            "reactivation_step": result.reactivation_step,
            "alpha": result.alpha,
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
    _save(out, "experiment", tables.rows_from_dicts(result.rows, net_train.EXPERIMENT_CSV_HEADER))
    for (arm, seed), model in sorted(result.finals.items()):
        tag = f"{arm}_s{seed}"
        reports = result.reports[(arm, seed)]
        path = os.path.join(out, f"sparsity_{tag}.json")
        tables.write_json(path, sparsity.report_to_json(reports[-1].sparsity))
        print(path)
        hist = sparsity.filter_l1_histogram(model.filter_matrix(0))
        _write_table(out, f"l1_hist_{tag}", "csv", *sparsity.histogram_csv_rows(hist))
        path = os.path.join(out, f"checkpoint_{tag}.json")
        net_model.save_checkpoint(
            path, model, result.rngs[(arm, seed)], extra={"arm": arm, "seed": seed}
        )
        print(path)
    if result.failures:
        _write_table(out, "failures", "csv", ["arm", "seed", "error"], [list(f) for f in result.failures])
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
    for stem, (header, _) in _ARTIFACTS.items():
        path = os.path.join(source, stem + ".csv")
        if not os.path.exists(path):
            continue
        found, rows = tables.read_csv(path)
        if found != header:
            raise ConfigError(f"{path} has unexpected columns {found}")
        _draw(out, stem, rows)
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
