"""Benchmark orchestration: run (instance, method, k, seed) jobs from a
JSON config, collect rows deterministically, and write CSV plus a
mean/std summary."""

from __future__ import annotations

import csv
import json
import statistics
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from pathlib import Path

from .core import Cardinality
from .generators import gen_er_graph, gen_random_pareto, gen_random_uniform
from .objectives import (
    CoverageInstance,
    CoverageObjective,
    CutObjective,
    brute_force_optimum,
)
from .solvers import (
    DEFAULT_SCALES,
    OptimizeConfig,
    ScaleSchedule,
    direct_optimize,
    greedy_coverage,
    random_baseline,
    random_decomp_baseline,
    solve_pipeline,
)

CSV_HEADER = ["instance_id", "method", "k", "objective", "extension", "time_ms", "seed", "iterations"]


@dataclass(frozen=True)
class BenchmarkRow:
    instance_id: str
    method: str
    k: int
    objective: float
    extension: float
    time_ms: float
    seed: int
    iterations: int

    def as_list(self):
        return [
            self.instance_id, self.method, self.k,
            f"{self.objective:.6f}", f"{self.extension:.6f}",
            f"{self.time_ms:.3f}", self.seed, self.iterations,
        ]


def _materialize(ds: dict, instance_id: int, seed: int):
    kind = ds["kind"]
    if kind == "random-uniform":
        inst = gen_random_uniform(
            ds["n_sets"], ds["n_elements"],
            tuple(ds.get("degree_range", (10, 30))),
            tuple(ds.get("weight_range", (1, 100))),
            seed=seed, instance_id=instance_id,
        )
        return CoverageObjective(inst), inst.n_sets, inst
    if kind == "random-pareto":
        inst = gen_random_pareto(
            ds["n_sets"], ds["n_elements"],
            tuple(ds.get("weight_range", (1, 100))),
            tuple(ds.get("alpha_range", (1.0, 2.0))),
            seed=seed, instance_id=instance_id,
        )
        return CoverageObjective(inst), inst.n_sets, inst
    if kind == "erdos-renyi":
        g = gen_er_graph(ds["n_nodes"], ds["edge_prob"], seed=seed, instance_id=instance_id)
        return CutObjective(g), g.n_nodes, g
    if kind == "coverage-files":
        path = ds["paths"][instance_id]
        inst = CoverageInstance.from_json(Path(path).read_text())
        return CoverageObjective(inst), inst.n_sets, inst
    raise ValueError(f"unknown dataset kind {kind!r}")


def _run_one(job):
    ds, instance_id, method, k, seed, opts = job
    f, n, raw = _materialize(ds, instance_id, seed)
    if not (0 <= k <= n):
        from .generators import InfeasibleConfigError

        raise InfeasibleConfigError(f"k={k} infeasible for {ds['name']} (n={n})")
    c = Cardinality(n, k)
    name = f"{ds['name']}_{instance_id:03d}"
    run_seed = (seed * 1_000_003 + instance_id * 101 + k) & 0x7FFFFFFF
    t0 = time.perf_counter()
    if method == "greedy":
        if not isinstance(raw, CoverageInstance):
            raise ValueError("greedy runs on coverage datasets only")
        v, val = greedy_coverage(raw, k)
        ext, iters = val, k
    elif method == "random":
        res = random_baseline(
            f, c, trials=opts.get("random_trials"),
            seconds=opts.get("random_seconds"), seed=run_seed,
        )
        v, val, ext, iters = res.best, res.objective, res.extension_value, res.iterations
    elif method == "random-decomp":
        res = random_decomp_baseline(f, c, seed=run_seed)
        v, val, ext, iters = res.best, res.objective, res.extension_value, res.iterations
    elif method == "brute":
        v, val = brute_force_optimum(f, c)
        ext, iters = val, 0
    elif method in ("direct", "direct+local"):
        cfg = OptimizeConfig(
            steps=opts.get("steps", 150), lr=opts.get("lr", 0.015),
            seed=run_seed, init=opts.get("init", "random"),
        )
        if method == "direct+local":
            sched = ScaleSchedule(
                factors=tuple(opts.get("scales", DEFAULT_SCALES)),
                tolerance=opts.get("epsilon", 1e-4),
                floor=opts.get("floor", 0.0),
                max_iterations=opts.get("scale_max_iterations", 4 * n),
                seed=run_seed,
            )
            res = solve_pipeline(f, c, cfg, sched, opts.get("local_iters", 10))
        else:
            res = direct_optimize(f, c, cfg)
        v, val, ext, iters = res.best, res.objective, res.extension_value, res.iterations
    else:
        raise ValueError(f"unknown method {method!r}")
    ms_total = (time.perf_counter() - t0) * 1e3
    return BenchmarkRow(name, method, k, float(val), float(ext), ms_total, run_seed, int(iters))


def run_benchmark(config: dict, out_csv=None, plot_dir=None):
    """Run every (dataset instance, method, k) combination in the config;
    returns (rows, summary) and optionally writes CSV/plot data."""
    seed = config.get("seed", 0)
    methods = config["methods"]
    ks = config["k"] if isinstance(config["k"], list) else [config["k"]]
    opts = {
        key: config[key]
        for key in (
            "random_trials", "random_seconds", "steps", "lr", "scales",
            "epsilon", "floor", "local_iters", "init", "scale_max_iterations",
        )
        if key in config
    }
    if "random_trials" not in opts and "random_seconds" not in opts:
        opts["random_trials"] = 1000
    jobs = []
    for ds in config["datasets"]:
        count = ds.get("count", len(ds.get("paths", []))) or 1
        for instance_id in range(count):
            for method in methods:
                for k in ks:
                    jobs.append((ds, instance_id, method, k, seed, opts))
    workers = config.get("workers", 1)
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(_run_one, jobs))
    else:
        rows = [_run_one(job) for job in jobs]
    rows.sort(key=lambda r: (r.instance_id, r.method, r.k))
    summary = summarize(rows)
    if out_csv is not None:
        write_rows(rows, out_csv)
    if plot_dir is not None:
        write_plot_data(rows, plot_dir)
    return rows, summary


def summarize(rows):
    groups: dict = {}
    for r in rows:
        groups.setdefault((r.instance_id.rsplit("_", 1)[0], r.method, r.k), []).append(r)
    out = {}
    for key, grp in sorted(groups.items()):
        objs = [r.objective for r in grp]
        times = [r.time_ms for r in grp]
        out[key] = {
            "count": len(grp),
            "objective_mean": statistics.fmean(objs),
            "objective_std": statistics.pstdev(objs) if len(objs) > 1 else 0.0,
            "time_ms_mean": statistics.fmean(times),
        }
    return out


def write_rows(rows, path):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_HEADER)
        for r in rows:
            writer.writerow(r.as_list())


def write_plot_data(rows, plot_dir):
    plot_dir = Path(plot_dir)
    plot_dir.mkdir(parents=True, exist_ok=True)
    by_method: dict = {}
    for r in rows:
        by_method.setdefault(r.method, []).append((r.time_ms, r.objective))
    for method, pts in sorted(by_method.items()):
        with open(plot_dir / f"plot_{method.replace('+', '_')}.csv", "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["time_ms", "objective"])
            for t, o in sorted(pts):
                writer.writerow([f"{t:.3f}", f"{o:.6f}"])


def load_config(path) -> dict:
    return json.loads(Path(path).read_text())
