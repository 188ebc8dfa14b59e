"""collapse-lab benchmark: run one workload in-process, check its outputs, print its metrics.

    python3 perfbench/run.py --workload verify-grid --seed 1 --seconds 15 --trace 0

Run from the root of a checkout. Every workload calls
``collapse_lab.cli.main`` from ``src/`` with its outputs under
``.perfbench_runs/<workload>/``, in whole rounds of the same invocations
until the timed rounds add up to ``--seconds`` (at least one round). Each
round's outputs are checked after its timed section; an operation whose
checks fail counts as failed.

``--trace 0`` prints the end-to-end metrics: ``setup_s`` (median wall
time over fresh interpreters of importing ``collapse_lab.cli`` and making
the inputs), ``peak_rss_mib`` and ``work_per_s`` (the median over rounds
of work units per wall-clock second of the timed calls: neurons, SGD
steps or invocations, by workload). The same work per CPU second of this
process (all threads) is printed as a diagnostic, not reported.
``--trace 1`` runs one round untraced and one traced, and prints the
per-layer metrics derived from the spans, including the tracing overhead.
The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``. ``failed`` counts the
operations that exited non-zero or whose outputs failed a check;
``correct`` is false when any operation that ran to exit 0 failed a check.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RUNS = os.path.join(ROOT, ".perfbench_runs")
SETUP_PROBES = 7

WORK_UNITS = {
    "verify-grid": ("mc_neurons_per_s", "neurons/s"),
    "toy-study": ("train_steps_per_s", "steps/s"),
    "theory-sweep": ("theory_cells_per_s", "cells/s"),
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description="collapse-lab benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORK_UNITS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    return args


def run_round(cli, inputs, out_root: str):
    """Runs every invocation once; returns (exit codes, seconds). Only the calls are timed."""
    shutil.rmtree(out_root, ignore_errors=True)
    os.makedirs(out_root)
    dirs = {inv.out: os.path.join(out_root, inv.out) for inv in inputs.invocations}
    argvs = [
        [a.format_map(dirs) if a.startswith("{") else a for a in inv.argv] + ["--out", dirs[inv.out]]
        for inv in inputs.invocations
    ]
    codes: list = []
    sink = io.StringIO()  # the CLI prints every path it writes
    t0 = perf_counter()
    with contextlib.redirect_stdout(sink):
        for argv in argvs:
            try:
                codes.append(cli.main(argv))
            except SystemExit as exc:  # argparse rejecting an argv
                codes.append(exc.code)
            except Exception as exc:  # keep measuring; the operation is counted as failed
                traceback.print_exc()
                codes.append(f"raised {type(exc).__name__}")
    return codes, perf_counter() - t0


def setup_seconds(workload: str, seed: int) -> float:
    """Median wall time of fresh interpreters that import the CLI and make the inputs."""
    probe = os.path.join(HERE, "setup_probe.py")
    times = []
    for _ in range(SETUP_PROBES):
        t0 = perf_counter()
        subprocess.run(
            [sys.executable, probe, "--workload", workload, "--seed", str(seed)],
            check=True,
            timeout=120,
            stdout=subprocess.DEVNULL,
        )
        times.append(perf_counter() - t0)
    return statistics.median(times)


class Tally:
    def __init__(self, checker):
        self.checker = checker
        self.attempted = 0
        self.failed = 0
        self.wrong = 0  # failed a check after exiting 0

    def check(self, out_root: str, codes: list) -> None:
        crashed = {op for inv, code in zip(self.checker.inputs.invocations, codes) if code != 0 for op in inv.ops}
        for op, problems in self.checker(out_root, codes).items():
            self.attempted += 1
            if problems:
                self.failed += 1
                self.wrong += op not in crashed
                print(f"FAILED {op}: {'; '.join(problems)}", file=sys.stderr)


def end_to_end(args, cli, inputs, tally) -> dict:
    out_root = os.path.join(RUNS, args.workload)
    setup = setup_seconds(args.workload, args.seed)
    wall_rates, cpu_rates, timed = [], [], 0.0
    while not wall_rates or timed < args.seconds:
        c0 = os.times()
        codes, seconds = run_round(cli, inputs, out_root)
        c1 = os.times()
        tally.check(out_root, codes)
        cpu_rates.append(inputs.work / ((c1.user - c0.user) + (c1.system - c0.system)))
        wall_rates.append(inputs.work / seconds)
        timed += seconds
    rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    name, unit = WORK_UNITS[args.workload]
    print(f"{args.workload}: {len(wall_rates)} rounds in {timed:.2f} s timed")
    print(f"  work_per_s = {name} = {statistics.median(wall_rates):.6g} {unit} (median over rounds)")
    print(f"  {unit.split('/')[0]} per CPU second of this process: {statistics.median(cpu_rates):.6g} (diagnostic)")
    print(f"  setup_s = {setup:.4f} s (median of {SETUP_PROBES} fresh interpreters)")
    print(f"  peak_rss_mib = {rss_mib:.1f} MiB")
    return {
        "setup_s": {"value": setup, "unit": "s"},
        "peak_rss_mib": {"value": rss_mib, "unit": "MiB"},
        "work_per_s": {"value": statistics.median(wall_rates), "unit": "1/s"},
    }


def per_layer(args, cli, inputs, tally, import_s: float) -> dict:
    import tracing

    out_root = os.path.join(RUNS, args.workload)
    codes, untraced = run_round(cli, inputs, out_root)
    tally.check(out_root, codes)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        codes, traced = run_round(cli, inputs, out_root)
    finally:
        tracer.uninstall()
    tally.check(out_root, codes)
    single = 0.0
    if args.workload == "verify-grid":
        cap = os.environ["COLLAPSE_LAB_THREADS"]
        os.environ["COLLAPSE_LAB_THREADS"] = "1"
        try:
            codes, seconds = run_round(cli, inputs, out_root)
        finally:
            os.environ["COLLAPSE_LAB_THREADS"] = cap
        tally.check(out_root, codes)
        single = inputs.work / seconds
    trace_path = os.path.join(RUNS, f"trace-{args.workload}-seed{args.seed}.tsv.gz")
    tracer.write(trace_path)
    for label in tracer.missing:
        print(f"trace: no span for {label}; its metrics read 0", file=sys.stderr)
    spans = tracer.summary()

    def total(name, key="inclusive_s"):
        return spans.get(name, {}).get(key, 0.0)

    busy, drift_wall = total("mc.chunk"), total("mc.one_step_drift")
    workers = tracer.workers_per_parent("mc.chunk")
    counts = tracer.counts
    values = {
        "cli.import_s": (import_s, "s"),
        "cli.self_s": (total("cli.main", "self_s"), "s"),
        "analytic.drift_prediction_s": (total("analytic.drift_prediction"), "s"),
        "analytic.drift_prediction_calls": (counts["analytic.drift_prediction_calls"], "count"),
        "analytic.j_fn_s": (total("analytic.j_fn"), "s"),
        "analytic.k_fn_s": (total("analytic.k_fn"), "s"),
        "analytic.k_fn_points": (counts["analytic.k_fn_points"], "count"),
        "quadrature.panel_nodes_s": (total("quadrature.panel_nodes"), "s"),
        "quadrature.panel_nodes_calls": (counts["quadrature.panel_nodes_calls"], "count"),
        "mc.one_step_drift_s": (drift_wall, "s"),
        "mc.chunk_busy_s": (busy, "s"),
        "mc.chunks": (counts["mc.chunks"], "count"),
        "mc.ndtr_s": (total("mc.ndtr"), "s"),
        "mc.ndtr_points": (counts["mc.ndtr_points"], "count"),
        "dists.sample_s": (total("dists.sample"), "s"),
        "dists.sample_draws": (counts["dists.sample_draws"], "count"),
        "mc.chunk_other_s": (total("mc.chunk", "self_s"), "s"),
        "mc.workers": (float(workers), "count"),
        "mc.parallel_efficiency": (busy / (workers * drift_wall) if workers and drift_wall else 0.0, "ratio"),
        "mc.single_thread_neurons_per_s": (single, "neurons/s"),
        "mc.decay_trajectory_s": (total("mc.decay_trajectory"), "s"),
        "mc.decay_steps": (counts["mc.decay_steps"], "count"),
        "net.dense_fwd_s": (total("net.dense_fwd"), "s"),
        "net.dense_bwd_s": (total("net.dense_bwd"), "s"),
        "net.bn_fwd_s": (total("net.bn_fwd"), "s"),
        "net.bn_bwd_s": (total("net.bn_bwd"), "s"),
        "net.act_fwd_s": (total("net.act_fwd"), "s"),
        "net.act_bwd_s": (total("net.act_bwd"), "s"),
        "net.softmax_s": (total("net.softmax"), "s"),
        "net.optimizer_s": (total("net.train_round", "self_s"), "s"),
        "net.evaluate_s": (total("net.evaluate"), "s"),
        "net.dataset_s": (total("net.dataset"), "s"),
        "net.steps": (counts["net.steps"], "count"),
        "net.save_checkpoint_s": (total("net.save_checkpoint"), "s"),
        "net.checkpoint_bytes": (counts["net.checkpoint_bytes"], "B"),
        "sparsity.report_s": (total("sparsity.report"), "s"),
        "sparsity.histogram_s": (total("sparsity.histogram"), "s"),
        "tables.write_s": (total("tables.write"), "s"),
        "tables.read_s": (total("tables.read"), "s"),
        "tables.bytes_written": (counts["tables.bytes_written"], "B"),
        "svgplot.line_plot_s": (total("svgplot.line_plot"), "s"),
        "svgplot.plots": (counts["svgplot.plots"], "count"),
        "trace.untraced_round_s": (untraced, "s"),
        "trace.traced_round_s": (traced, "s"),
        "trace.overhead_s": (traced - untraced, "s"),
        "trace.overhead_share": ((traced - untraced) / untraced, "ratio"),
        "trace.spans": (float(len(tracer.start)), "count"),
        "trace.missing_spans": (float(len(tracer.missing)), "count"),
    }
    print(f"{args.workload}: traced round {traced:.3f} s, untraced {untraced:.3f} s; spans in {trace_path}")
    for name, (value, unit) in values.items():
        print(f"  {name} = {value:.6g} {unit}")
    return {name: {"value": value, "unit": unit} for name, (value, unit) in values.items()}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "collapse_lab", "cli.py")):
        print(f"error: no collapse_lab source under {SRC}; run from a checkout of the repository", file=sys.stderr)
        return 2
    # the thread cap stays at the cores this process may use, whatever the caller exported
    os.environ["COLLAPSE_LAB_THREADS"] = str(len(os.sched_getaffinity(0)))
    sys.path.insert(0, SRC)
    t0 = perf_counter()
    from collapse_lab import cli

    import_s = perf_counter() - t0
    if not os.path.abspath(cli.__file__).startswith(SRC + os.sep):
        print(f"error: imported collapse_lab from {cli.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    import checks
    import inputs as wl

    inputs = wl.WORKLOADS[args.workload](args.seed)
    tally = Tally(checks.CHECKERS[args.workload](inputs))
    if args.trace:
        metrics = per_layer(args, cli, inputs, tally, import_s)
    else:
        metrics = end_to_end(args, cli, inputs, tally)
    print(f"  operations: {tally.attempted} attempted, {tally.failed} failed, {tally.wrong} with wrong outputs")
    print(json.dumps({"correct": tally.wrong == 0, "attempted": tally.attempted, "failed": tally.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
