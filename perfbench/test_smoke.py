"""Tests of the benchmark itself: the smoke mode (every workload on tiny
inputs, untraced and traced) and the pieces its figures rest on.

    python3 -m pytest perfbench/test_smoke.py -q
"""

import subprocess
import sys
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from run import run_ops, tail  # noqa: E402
from tracer import Tracer, self_times  # noqa: E402


def test_smoke_mode_prints_every_metric_with_its_unit():
    done = subprocess.run([sys.executable, str(HERE / "run.py"), "--smoke"],
                          capture_output=True, text=True, timeout=900, cwd=HERE.parent)
    assert done.returncode == 0, done.stdout + done.stderr
    assert done.stdout.strip().endswith("smoke: ok")


def test_self_time_subtracts_direct_children_only():
    # root [0, 10] > child [1, 4] > grandchild [2, 3]; second child [5, 6]
    parent = np.array([-1, 0, 1, 0])
    start = np.array([0.0, 1.0, 2.0, 5.0])
    end = np.array([10.0, 4.0, 3.0, 6.0])
    assert self_times(parent, start, end).tolist() == [6.0, 2.0, 1.0, 1.0]


def test_tracer_nests_spans_and_restores_patched_functions():
    class Box:
        @staticmethod
        def inner(x):
            return x + 1

        @staticmethod
        def outer(x):
            return Box.inner(x) * 2

    original_inner, original_outer = Box.inner, Box.outer
    tracer = Tracer()
    tracer.patch([Box], "inner", "inner")
    tracer.patch([Box], "outer", "outer", work=lambda args, out: (out, 1.0))
    tracer.current_op = 3
    assert Box.outer(1) == 4
    tracer.uninstall()
    assert Box.inner is original_inner and Box.outer is original_outer
    a = tracer.arrays()
    assert [tracer.names[i] for i in a["name"]] == ["outer", "inner"]
    assert a["parent"].tolist() == [-1, 0] and a["op"].tolist() == [3, 3]
    assert a["work"].tolist() == [4.0, 0.0]


class CountingWorkload:
    """Three inputs; input 2 is ten times slower and, from its second run
    on, returns a different output."""

    cycle, solves = 3, False

    def __init__(self):
        self.runs = [0, 0, 0]

    def key(self, j):
        return j % 3

    def op(self, j):
        i = j % 3
        self.runs[i] += 1
        time.sleep(0.01 if i == 2 else 0.001)
        return {"i": i, "v": 1 if i == 2 and self.runs[i] > 1 else 0}

    def check(self, out):
        return []

    def fingerprint(self, out):
        return {"v": out["v"]}


class NoChecker:
    check_s, errors = 0.0, []

    def begin_op(self):
        pass


def test_run_ops_makes_one_pass_without_time_and_repeats_cheap_inputs():
    wl, seen = CountingWorkload(), {}
    records = run_ops(wl, NoChecker(), 0.0, seen)
    assert [r["op"] for r in records] == [0, 1, 2] and sorted(seen) == [0, 1, 2]
    records = run_ops(wl, NoChecker(), 0.15, seen)
    counts = [sum(r["key"] == i for r in records) for i in range(3)]
    assert counts[0] > 3 * counts[2] and counts[1] > 3 * counts[2]
    # the second run of input 2 changed its output: reported, first one kept
    assert all(r["errors"] for r in records if r["key"] == 2)
    assert not any(r["errors"] for r in records if r["key"] != 2)
    assert seen[2][1]["v"] == 0


def test_tail_has_ten_samples_beyond_it():
    values = list(range(100))
    value, percentile, n = tail(values)
    assert sum(v > value for v in values) == 10 and percentile == 90.0 and n == 100
    assert tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 3)


def test_decomposition_check_accepts_exact_and_rejects_perturbed_pairs():
    sys.path.insert(0, str(HERE.parent / "src"))
    from caradec.core import Cardinality, Decomposition
    from caradec.extension import decompose
    from caradec.hypersimplex import project_to_hypersimplex
    from workloads import decomposition_errors

    c = Cardinality(12, 3)
    x = project_to_hypersimplex(np.linspace(0.05, 0.95, 12), 3).values
    d = decompose(x, c)
    assert decomposition_errors(d, x, c) == []
    (p0, v0), rest = d.pairs[0], d.pairs[1:]
    shifted = Decomposition(((p0 + 1e-6, v0),) + rest, iterations=d.iterations)
    errors = decomposition_errors(shifted, x, c)
    assert any("reconstruction" in e for e in errors) and any("mass" in e for e in errors)
    wrong_size = Decomposition(((p0, type(v0).integral(v0.indices[:-1], 12)),) + rest)
    assert any("infeasible" in e for e in decomposition_errors(wrong_size, x, c))
