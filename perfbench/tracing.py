"""Spans around the program's layer boundaries, recorded from outside the program.

``Tracer.install`` replaces module attributes and class methods of
collapse_lab with wrappers that record one span per call (name, start,
end, parent span, thread) and, for some, a count taken from the call's
arguments or result. Spans stay in flat arrays in memory and are written
out once, when the run ends. ``uninstall`` restores every original.

A target that names a private function (leading underscore) is marked
private: it may vanish in a refactor, and a missing target of either kind
is reported, never fatal.
"""

from __future__ import annotations

import gzip
import importlib
import math
import os
import threading
from array import array
from collections import defaultdict
from time import perf_counter

import numpy as np


def _size_of_first(args, kwargs, result):
    return float(np.size(args[0]))


def _size_of_second(args, kwargs, result):
    # dists.<Kind>.sample(self, rng, size)
    return float(args[2] if len(args) > 2 else kwargs["size"])


def _decay_steps(args, kwargs, result):
    return float(result.records[-1].step)


def _file_bytes(args, kwargs, result):
    path = args[0] if args else kwargs["path"]
    return float(os.path.getsize(path))


def _one(args, kwargs, result):
    return 1.0


# (module, attribute path, span name, counter name, counter). The module
# is where the caller looks the name up, so a function imported by name
# into another module is wrapped there as well.
TARGETS = [
    ("collapse_lab.cli", "main", "cli.main", None, None),
    ("collapse_lab.analytic", "drift_prediction", "analytic.drift_prediction", "analytic.drift_prediction_calls", _one),
    ("collapse_lab.mc", "drift_prediction", "analytic.drift_prediction", "analytic.drift_prediction_calls", _one),
    ("collapse_lab.analytic", "j_fn", "analytic.j_fn", None, None),
    ("collapse_lab.analytic", "k_fn", "analytic.k_fn", "analytic.k_fn_points", _size_of_first),
    ("collapse_lab.analytic", "panel_nodes", "quadrature.panel_nodes", "quadrature.panel_nodes_calls", _one),
    ("collapse_lab.quadrature", "panel_nodes", "quadrature.panel_nodes", "quadrature.panel_nodes_calls", _one),
    ("collapse_lab.mc", "one_step_drift", "mc.one_step_drift", None, None),
    ("collapse_lab.mc", "_drift_chunk", "mc.chunk", "mc.chunks", _one),
    ("collapse_lab.mc", "ndtr", "mc.ndtr", "mc.ndtr_points", _size_of_first),
    ("collapse_lab.mc", "decay_trajectory", "mc.decay_trajectory", "mc.decay_steps", _decay_steps),
    ("collapse_lab.dists", "Uniform.sample", "dists.sample", "dists.sample_draws", _size_of_second),
    ("collapse_lab.dists", "Normal.sample", "dists.sample", "dists.sample_draws", _size_of_second),
    ("collapse_lab.dists", "PointMass.sample", "dists.sample", "dists.sample_draws", _size_of_second),
    ("collapse_lab.net.layers", "Dense.forward", "net.dense_fwd", None, None),
    ("collapse_lab.net.layers", "Dense.backward", "net.dense_bwd", None, None),
    ("collapse_lab.net.layers", "BatchNorm.forward", "net.bn_fwd", None, None),
    ("collapse_lab.net.layers", "BatchNorm.backward", "net.bn_bwd", None, None),
    ("collapse_lab.net.layers", "ReLU.forward", "net.act_fwd", None, None),
    ("collapse_lab.net.layers", "ReLU.backward", "net.act_bwd", None, None),
    ("collapse_lab.net.layers", "LeakyReLU.forward", "net.act_fwd", None, None),
    ("collapse_lab.net.layers", "LeakyReLU.backward", "net.act_bwd", None, None),
    ("collapse_lab.net.model", "softmax_cross_entropy", "net.softmax", None, None),
    ("collapse_lab.net.model", "MLP.loss_and_grad", "net.loss_and_grad", "net.steps", _one),
    ("collapse_lab.net.model", "MLP.evaluate", "net.evaluate", None, None),
    ("collapse_lab.net.model", "save_checkpoint", "net.save_checkpoint", "net.checkpoint_bytes", _file_bytes),
    ("collapse_lab.net.train", "train_round", "net.train_round", None, None),
    ("collapse_lab.net.train", "dataset_for", "net.dataset", None, None),
    ("collapse_lab.net.train", "report_from_chain", "sparsity.report", None, None),
    ("collapse_lab.sparsity", "report_to_json", "sparsity.report", None, None),
    ("collapse_lab.sparsity", "filter_l1_histogram", "sparsity.histogram", None, None),
    ("collapse_lab.sparsity", "histogram_csv_rows", "sparsity.histogram", None, None),
    ("collapse_lab.tables", "write_csv", "tables.write", "tables.bytes_written", _file_bytes),
    ("collapse_lab.tables", "write_json", "tables.write", "tables.bytes_written", _file_bytes),
    ("collapse_lab.tables", "read_csv", "tables.read", None, None),
    ("collapse_lab.svgplot", "line_plot", "svgplot.line_plot", "svgplot.plots", _one),
]


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.name_id = array("i")
        self.thread = array("q")
        self.counts: dict[str, float] = defaultdict(float)
        self.missing: list[str] = []
        self._patches: list[tuple[object, str, object]] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main_stack: list[int] = []

    # recording

    def _stack(self) -> list[int]:
        try:
            return self._local.stack
        except AttributeError:
            self._local.stack = []
            return self._local.stack

    def _wrap(self, fn, name: str, counter_name: str | None, counter):
        with self._lock:
            nid = self._name_ids.setdefault(name, len(self.names))
            if nid == len(self.names):
                self.names.append(name)
        start, end, parent, name_id, thread = self.start, self.end, self.parent, self.name_id, self.thread
        lock, main_stack, get_stack, counts = self._lock, self._main_stack, self._stack, self.counts

        def traced(*args, **kwargs):
            stack = get_stack()
            # a worker thread's first span hangs under the main thread's open span
            up = stack[-1] if stack else (main_stack[-1] if main_stack else -1)
            with lock:
                sid = len(start)
                start.append(perf_counter())
                end.append(math.nan)
                parent.append(up)
                name_id.append(nid)
                thread.append(threading.get_ident())
            stack.append(sid)
            try:
                result = fn(*args, **kwargs)
            finally:
                end[sid] = perf_counter()
                stack.pop()
            if counter is not None:
                value = counter(args, kwargs, result)
                with lock:
                    counts[counter_name] += value
            return result

        return traced

    # installing

    def install(self, targets=TARGETS) -> None:
        self._local.stack = self._main_stack
        for module_name, path, name, counter_name, counter in targets:
            label = f"{module_name}.{path}" + (" (private)" if any(p.startswith("_") for p in path.split(".")) else "")
            try:
                owner = importlib.import_module(module_name)
                *parents, attr = path.split(".")
                for p in parents:
                    owner = getattr(owner, p)
                original = getattr(owner, attr)
            except (ImportError, AttributeError):
                self.missing.append(label)
                continue
            self._patches.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name, counter_name, counter))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # reading

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, inclusive seconds, self seconds, distinct threads."""
        n = len(self.start)
        start = np.frombuffer(self.start, dtype=np.float64)[:n]
        end = np.frombuffer(self.end, dtype=np.float64)[:n]
        children: dict[int, list[int]] = defaultdict(list)
        for sid, up in enumerate(self.parent):
            if up >= 0:
                children[up].append(sid)
        self_time = end - start
        for up, kids in children.items():
            # union of the children's intervals, clipped to the parent's
            covered, reach = 0.0, start[up]
            for kid in sorted(kids, key=lambda k: start[k]):
                lo, hi = max(start[kid], reach), min(end[kid], end[up])
                if hi > lo:
                    covered += hi - lo
                    reach = hi
            self_time[up] -= covered
        out: dict[str, dict[str, float]] = {}
        ids = np.frombuffer(self.name_id, dtype=np.int32)[:n]
        for nid, name in enumerate(self.names):
            mask = ids == nid
            out[name] = {
                "calls": float(np.count_nonzero(mask)),
                "inclusive_s": float(np.sum(end[mask] - start[mask])),
                "self_s": float(np.sum(self_time[mask])),
            }
        return out

    def workers_per_parent(self, child: str) -> int:
        """Most distinct threads that ran spans named ``child`` under one parent span."""
        nid = self._name_ids.get(child)
        seen: dict[int, set[int]] = defaultdict(set)
        for sid in range(len(self.start)):
            if self.name_id[sid] == nid:
                seen[self.parent[sid]].add(self.thread[sid])
        return max((len(t) for t in seen.values()), default=0)

    def write(self, path: str) -> None:
        """Spans as gzip'd TSV: id, name, parent, thread, start and end in seconds."""
        t0 = self.start[0] if len(self.start) else 0.0
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("id\tname\tparent\tthread\tstart_s\tend_s\n")
            for sid in range(len(self.start)):
                fh.write(
                    f"{sid}\t{self.names[self.name_id[sid]]}\t{self.parent[sid]}\t{self.thread[sid]}\t"
                    f"{self.start[sid] - t0:.9f}\t{self.end[sid] - t0:.9f}\n"
                )
