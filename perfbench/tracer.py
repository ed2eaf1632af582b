"""Span recorder for the traced benchmark run.

The tracer wraps the module attributes that callers look up at call time
(``caradec.kernels.decompose_blocks``, the extension names that
``caradec.solvers`` imports, ``caradec.matroids.min_g_lambda``,
``caradec.fstab.Dinic.max_flow``, an objective's ``value_of`` and so on).
Every call records one span: its name, the span that was open when it
started, the operation it belongs to, its start and end, and a work count.
Spans stay in compact arrays until the run ends; ``save`` writes them out.

A span's self time is its duration minus the durations of its direct
children.  Calls nest on one thread, so children never overlap.
"""

from __future__ import annotations

import time
from array import array

import numpy as np

# Spans the benchmark records around its own correctness checks; their time
# is taken out of the enclosing layer's self time and reported nowhere.
CHECK_SPAN = "bench.check"


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self.work = array("d")
        self.size = array("d")
        self.current_op = -1
        self.distinct: dict[int, set] = {}
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, nid: int) -> int:
        sid = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self.current_op)
        self.start.append(0.0)
        self.end.append(0.0)
        self.work.append(0.0)
        self.size.append(0.0)
        return sid

    def span(self, name: str, fn, work=None):
        """fn wrapped so that each call records a span; ``work(args, result)``
        returns the span's (work, size) pair."""
        nid = self._id(name)

        def traced(*args, **kwargs):
            sid = self._open(nid)
            self._stack.append(sid)
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                self._stack.pop()
                self.start[sid] = t0
                self.end[sid] = t1
            if work is not None:
                self.work[sid], self.size[sid] = work(args, out)
            return out

        return traced

    def record(self, name: str, t0: float, t1: float) -> None:
        """Record a finished leaf span under the currently open span."""
        sid = self._open(self._id(name))
        self.start[sid] = t0
        self.end[sid] = t1

    # -- installing and removing wrappers ---------------------------------

    def patch(self, owners, attr: str, name: str, work=None, wrap=None) -> None:
        """Replace ``attr`` on every owner (modules or classes that share one
        function object) by one traced wrapper; ``wrap`` adapts the traced
        function further (for example to trace a returned closure)."""
        original = getattr(owners[0], attr)
        for owner in owners[1:]:
            if getattr(owner, attr) is not original:
                raise RuntimeError(f"{owner.__name__}.{attr} is not {name}")
        fn = self.span(name, original if wrap is None else wrap(original), work)
        for owner in owners:
            self._patches.append((owner, attr, getattr(owner, attr)))
            setattr(owner, attr, fn)

    def trace_objective(self, f) -> None:
        """Trace one objective instance's ``value_of`` and count the distinct
        index sets it sees per operation."""

        def note(args, _out):
            self.distinct.setdefault(self.current_op, set()).add(tuple(args[0]))
            return 0.0, 0.0

        self._patches.append((f, "value_of", None))
        f.value_of = self.span("objectives.value_of", f.value_of, note)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            if original is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)

    # -- results ----------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.name, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "op": np.frombuffer(self.op, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "work": np.frombuffer(self.work, dtype=np.float64).copy(),
            "size": np.frombuffer(self.size, dtype=np.float64).copy(),
        }

    def save(self, path) -> None:
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())

    def span_counts(self, ops) -> dict[str, int]:
        """Number of spans of each name among the given operations."""
        a = self.arrays()
        ids = a["name"][np.isin(a["op"], list(ops))]
        return {name: int((ids == i).sum()) for i, name in enumerate(self.names)}

    def layer_metrics(self, ops, metrics) -> dict[str, float]:
        """The named per-layer metrics (``<span name>.<suffix>``) over the
        spans of the given operations.  ``self_s`` sums self times and
        ``calls`` counts spans; ``elem_steps`` sums work times input size,
        ``distinct`` counts distinct arguments, ``useful_ratio`` is distinct
        over calls and ``value_calls`` counts objective calls made directly
        by the span; any other suffix sums the spans' work counts."""
        a = self.arrays()
        keep = np.isin(a["op"], list(ops))
        self_t = self_times(a["parent"], a["start"], a["end"])
        ids = {n: i for i, n in enumerate(self.names)}
        n_distinct = sum(len(s) for op, s in self.distinct.items() if op in ops)
        out: dict[str, float] = {}
        for metric in metrics:
            name, suffix = metric.rsplit(".", 1)
            sel = keep & (a["name"] == ids.get(name, -1))
            calls = int(sel.sum())
            if suffix == "self_s":
                val = float(self_t[sel].sum())
            elif suffix == "calls":
                val = calls
            elif suffix == "elem_steps":
                val = float((a["work"][sel] * a["size"][sel]).sum())
            elif suffix == "distinct":
                val = n_distinct
            elif suffix == "useful_ratio":
                val = n_distinct / calls if calls else 0.0
            elif suffix == "value_calls":
                vsel = keep & (a["name"] == ids.get("objectives.value_of", -1))
                val = int(np.isin(a["parent"][vsel], np.flatnonzero(sel)).sum())
            else:
                val = float(a["work"][sel].sum())
            out[metric] = val
        return out


def install_layers(tracer: Tracer) -> None:
    """Wrap the attributes that callers of each layer look up; the span
    names are the layer names of BENCHMARK.json's per-layer metrics."""
    from caradec import extension, fstab, kernels, matroids, solvers

    tracer.patch([kernels], "decompose_blocks", "kernels.decompose_blocks",
                 work=lambda args, out: (len(out[0]), len(args[0])))
    tracer.patch([kernels], "backprop_blocks", "kernels.backprop_blocks")
    for attr in ("decompose_with_tape", "evaluate_extension", "backprop_extension", "best_set"):
        tracer.patch([extension, solvers], attr, f"extension.{attr}")
    tracer.patch([extension, solvers], "decompose", "extension.decompose",
                 work=lambda args, d: (d.iterations, 0.0))

    def trace_vjp(project_point):
        def call(z, c):
            x, vjp = project_point(z, c)
            return x, tracer.span("solvers.vjp", vjp)

        return call

    tracer.patch([solvers], "project_point", "solvers.project_point", wrap=trace_vjp)
    for attr in ("direct_optimize", "multi_scale_solve", "local_improve"):
        tracer.patch([solvers], attr, f"solvers.{attr}")
    tracer.patch([matroids], "min_g_lambda", "matroids.min_g_lambda")
    tracer.patch([matroids], "graphic_step_coefficient", "matroids.graphic_step_coefficient",
                 work=lambda args, out: (out[1].search_iterations, 0.0))
    tracer.patch([matroids, solvers], "spanning_tree_marginals", "matroids.spanning_tree_marginals")
    for attr in ("fstab_vertex", "fstab_step_coefficient", "project_to_fstab_trace", "fstab_projection_vjp"):
        tracer.patch([fstab], attr, f"fstab.{attr}")
    tracer.patch([fstab.Dinic], "max_flow", "fstab.Dinic.max_flow")


def self_times(parent: np.ndarray, start: np.ndarray, end: np.ndarray) -> np.ndarray:
    """Duration of each span minus the durations of its direct children."""
    dur = end - start
    child = np.zeros_like(dur)
    nested = parent >= 0
    np.add.at(child, parent[nested], dur[nested])
    return dur - child

