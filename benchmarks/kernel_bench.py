#!/usr/bin/env python3
"""Benchmark the compiled decomposition kernel against the pure-numpy
fallback on the workloads that dominate solver runtime: exact
decomposition, tape-based gradient backprop, and small-factor rescaled
decomposition.

Usage: python benchmarks/kernel_bench.py [--repeats N]
"""

import argparse
import time

import numpy as np

from caradec.hypersimplex import project_to_hypersimplex
from caradec.kernels import _purepy

try:
    from caradec.kernels import _speedups
except ImportError:
    _speedups = None


def time_call(fn, repeats):
    best = np.inf
    out = None
    for _ in range(repeats):
        t0 = time.perf_counter()
        out = fn()
        best = min(best, time.perf_counter() - t0)
    return best, out


def bench(repeats):
    rng = np.random.default_rng(0)
    impls = [("pure", _purepy)] + ([("compiled", _speedups)] if _speedups else [])
    cases = [
        ("exact decompose      n=500 k=10 ", 500, 10, 1.0, 0.0, 0.0, 501),
        ("exact decompose      n=2000 k=50", 2000, 50, 1.0, 0.0, 0.0, 2001),
        ("rescaled b=0.1 decomp n=500 k=10", 500, 10, 0.1, 0.0, 1e-4, 2000),
    ]
    print(f"{'case':<34} " + " ".join(f"{name:>10}" for name, _ in impls) +
          ("   speedup" if _speedups else ""))
    for label, n, k, scale, floor, eps, max_iter in cases:
        x = project_to_hypersimplex(rng.random(n), k).values
        blk = np.zeros(n, dtype=np.int32)
        bud = np.array([k], dtype=np.int64)
        times = []
        for _, impl in impls:
            t, _ = time_call(
                lambda impl=impl: impl.decompose_blocks(
                    x, blk, bud, scale, floor, eps, max_iter, 1e-12, False
                ),
                repeats,
            )
            times.append(t)
        row = f"{label:<34} " + " ".join(f"{t * 1e3:9.2f}ms" for t in times)
        if len(times) == 2:
            row += f"   {times[0] / times[1]:6.1f}x"
        print(row)

    # tape + backprop (the direct-optimize inner loop)
    n, k = 500, 10
    x = project_to_hypersimplex(rng.random(n), k).values
    blk = np.zeros(n, dtype=np.int32)
    bud = np.array([k], dtype=np.int64)
    times = []
    for _, impl in impls:
        tape = impl.decompose_blocks(x, blk, bud, 1.0, 0.0, 0.0, n + 1, 1e-12, True)
        fvals = rng.random(len(tape[0]))
        t, _ = time_call(lambda impl=impl, tape=tape: impl.backprop_blocks(
            n, *tape[:8], fvals), repeats)
        times.append(t)
    row = f"{'tape backprop        n=500 k=10 ':<34} " + " ".join(
        f"{t * 1e3:9.2f}ms" for t in times)
    if len(times) == 2:
        row += f"   {times[0] / times[1]:6.1f}x"
    print(row)
    if _speedups is None:
        print("\n(compiled kernel not available; showing fallback only)")


if __name__ == "__main__":
    ap = argparse.ArgumentParser()
    ap.add_argument("--repeats", type=int, default=5)
    bench(ap.parse_args().repeats)
