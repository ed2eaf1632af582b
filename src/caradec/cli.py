"""Command line interface: instance generation, decomposition, marginals,
solving, and benchmark orchestration.

Exit codes: 0 success, 1 validation failure, 2 infeasible configuration
(including an instance above a family's size limit).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np

from .bench import load_config, run_benchmark
from .core import (
    Cardinality,
    DecompositionConfig,
    FractionalStableSet,
    GraphicMatroid,
    MembershipError,
    PartitionMatroid,
    validate_decomposition,
)
from .extension import LinearObjective, decompose
from .generators import InfeasibleConfigError, gen_er_graph, gen_random_pareto, gen_random_uniform
from .graphs import read_edge_list, write_edge_list
from .matroids import spanning_tree_marginals
from .objectives import CoverageInstance, CoverageObjective, CutObjective
from .solvers import (
    DEFAULT_SCALES,
    OptimizeConfig,
    ScaleSchedule,
    direct_optimize,
    greedy_coverage,
    random_baseline,
    solve_pipeline,
)


def _parse_scales(text: str) -> tuple[float, ...]:
    return tuple(float(tok) for tok in text.split(",") if tok.strip())


def _load_point(path) -> np.ndarray:
    return np.asarray(json.loads(Path(path).read_text()), dtype=float)


def _load_blocks(path) -> PartitionMatroid:
    obj = json.loads(Path(path).read_text())
    return PartitionMatroid(obj["blocks"], obj["budgets"])


def _constraint(args, dim_hint=None):
    kind = args.constraint
    if kind == "card":
        if args.k is None:
            raise InfeasibleConfigError("--k is required for cardinality constraints")
        return Cardinality(dim_hint, args.k)
    if kind == "partition":
        if not args.blocks:
            raise InfeasibleConfigError("--blocks is required for partition constraints")
        return _load_blocks(args.blocks)
    if kind == "forest":
        return GraphicMatroid(read_edge_list(args.graph))
    if kind == "indset":
        return FractionalStableSet(read_edge_list(args.graph), slack=args.slack)
    raise InfeasibleConfigError(f"unknown constraint {kind!r}")


def cmd_gen(args) -> int:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for i in range(args.count):
        if args.kind == "er":
            g = gen_er_graph(args.n_nodes, args.p, seed=args.seed, instance_id=i)
            write_edge_list(g, out / f"{args.name}_{i:03d}.edges")
        else:
            if args.kind == "random-uniform":
                inst = gen_random_uniform(
                    args.n_sets, args.n_elements,
                    (args.degree_min, args.degree_max),
                    (args.weight_min, args.weight_max),
                    seed=args.seed, instance_id=i,
                )
            else:
                inst = gen_random_pareto(
                    args.n_sets, args.n_elements,
                    (args.weight_min, args.weight_max),
                    seed=args.seed, instance_id=i,
                )
            (out / f"{args.name}_{i:03d}.json").write_text(inst.to_json())
    print(f"wrote {args.count} instance(s) to {out}")
    return 0


def cmd_decompose(args) -> int:
    x = _load_point(args.point)
    c = _constraint(args, dim_hint=x.shape[0])
    results = []
    for b in _parse_scales(args.scales):
        cfg = DecompositionConfig(
            scale=b, floor=args.floor if b < 1.0 else 0.0,
            tolerance=args.epsilon,
        )
        d = decompose(x, c, cfg)
        report = validate_decomposition(d, c, x)
        results.append((b, d, report))
    payload = [
        {"scale": b, "decomposition": json.loads(d.to_json())}
        for b, d, _ in results
    ]
    text = json.dumps(payload[0]["decomposition"] if len(payload) == 1 else payload,
                      separators=(",", ":"))
    if args.out:
        Path(args.out).write_text(text)
    else:
        print(text)
    bad = [b for b, d, rep in results if not rep.ok() and d.residual <= 1e-9]
    return 1 if bad else 0


def cmd_marginals(args) -> int:
    g = read_edge_list(args.graph)
    mu = spanning_tree_marginals(g)
    text = json.dumps([float(v) for v in mu], separators=(",", ":"))
    if args.out:
        Path(args.out).write_text(text)
    else:
        print(text)
    return 0


def cmd_solve(args) -> int:
    if args.instance:
        inst = CoverageInstance.from_json(Path(args.instance).read_text())
        f = CoverageObjective(inst)
        c = Cardinality(inst.n_sets, args.k)
    else:
        g = read_edge_list(args.graph)
        if args.constraint == "card":
            f = CutObjective(g)
            c = Cardinality(g.n_nodes, args.k)
        elif args.constraint == "forest":
            f = LinearObjective(g.weight_array())
            c = GraphicMatroid(g)
        elif args.constraint == "indset":
            f = LinearObjective(np.ones(g.n_nodes))
            c = FractionalStableSet(g, slack=args.slack)
        else:
            raise InfeasibleConfigError("graph solving needs card, forest, or indset")

    if args.method == "greedy":
        if not args.instance:
            raise InfeasibleConfigError("greedy needs a coverage instance")
        t0 = time.perf_counter()
        v, val = greedy_coverage(inst, args.k)
        result = {"method": "greedy", "set": list(v.indices), "objective": val,
                  "time_ms": (time.perf_counter() - t0) * 1e3, "iterations": args.k}
    elif args.method == "random":
        res = random_baseline(f, c, trials=args.trials, seconds=args.seconds, seed=args.seed)
        result = {"method": "random", "set": list(res.best.indices), "objective": res.objective,
                  "time_ms": res.time_ms, "iterations": res.iterations}
    else:  # direct / direct+local
        cfg = OptimizeConfig(steps=args.steps, lr=args.lr, seed=args.seed, init=args.init)
        if args.method == "direct+local":
            sched = ScaleSchedule(
                factors=_parse_scales(args.scales), tolerance=args.epsilon,
                floor=args.floor, max_iterations=4 * c.dim, seed=args.seed,
            )
            res = solve_pipeline(f, c, cfg, sched, args.local_iters)
        else:
            res = direct_optimize(f, c, cfg)
        result = {
            "method": args.method, "set": list(res.best.indices), "objective": res.objective,
            "extension": res.extension_value, "time_ms": res.time_ms,
            "iterations": res.iterations,
        }
    if args.format == "csv":
        from .bench import CSV_HEADER

        name = Path(args.instance or args.graph).stem
        text = ",".join(CSV_HEADER) + "\n" + (
            f"{name},{result['method']},{args.k or len(result['set'])},"
            f"{result['objective']:.6f},{result.get('extension', result['objective']):.6f},"
            f"{result['time_ms']:.3f},{args.seed},{result['iterations']}\n"
        )
    else:
        text = json.dumps(result, separators=(",", ":"))
    if args.out:
        Path(args.out).write_text(text)
    else:
        print(text)
    return 0


def cmd_bench(args) -> int:
    config = load_config(args.config)
    rows, summary = run_benchmark(config, out_csv=args.out, plot_dir=args.plot_data)
    for (dataset, method, k), stats in summary.items():
        print(
            f"{dataset:<16} {method:<14} k={k:<4} "
            f"obj {stats['objective_mean']:.2f} +- {stats['objective_std']:.2f} "
            f"({stats['count']} runs, {stats['time_ms_mean']:.0f} ms avg)"
        )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="caradec")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate synthetic instances")
    p.add_argument("--kind", choices=["random-uniform", "random-pareto", "er"], required=True)
    p.add_argument("--name", default="inst")
    p.add_argument("--n-sets", type=int, default=500)
    p.add_argument("--n-elements", type=int, default=1000)
    p.add_argument("--degree-min", type=int, default=10)
    p.add_argument("--degree-max", type=int, default=30)
    p.add_argument("--weight-min", type=int, default=1)
    p.add_argument("--weight-max", type=int, default=100)
    p.add_argument("--n-nodes", type=int, default=50)
    p.add_argument("--p", type=float, default=0.15)
    p.add_argument("--count", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("decompose", help="decompose a polytope point")
    _common_constraint_flags(p)
    p.add_argument("--point", required=True, help="JSON array file")
    p.add_argument("--scales", default="1.0")
    p.add_argument("--epsilon", type=float, default=1e-4)
    p.add_argument("--floor", type=float, default=0.0)
    p.add_argument("--out")
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("marginals", help="spanning-tree edge marginals")
    p.add_argument("--graph", required=True)
    p.add_argument("--out")
    p.set_defaults(func=cmd_marginals)

    p = sub.add_parser("solve", help="optimize an instance")
    _common_constraint_flags(p)
    p.add_argument("--instance", help="coverage instance JSON")
    p.add_argument("--method", default="direct+local",
                   choices=["greedy", "random", "direct", "direct+local"])
    p.add_argument("--steps", type=int, default=150)
    p.add_argument("--lr", type=float, default=0.015)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--init", default="random", choices=["center", "random"])
    p.add_argument("--scales", default=",".join(str(b) for b in DEFAULT_SCALES))
    p.add_argument("--epsilon", type=float, default=1e-4)
    p.add_argument("--floor", type=float, default=0.0)
    p.add_argument("--local-iters", type=int, default=10)
    p.add_argument("--trials", type=int)
    p.add_argument("--seconds", type=float)
    p.add_argument("--out")
    p.add_argument("--format", choices=["json", "csv"], default="json")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("bench", help="run a benchmark config")
    p.add_argument("--config", required=True)
    p.add_argument("--out", help="CSV output path")
    p.add_argument("--plot-data", help="directory for per-method plot data")
    p.set_defaults(func=cmd_bench)
    return parser


def _common_constraint_flags(p):
    p.add_argument("--constraint", choices=["card", "partition", "forest", "indset"],
                   default="card")
    p.add_argument("--k", type=int)
    p.add_argument("--blocks", help="JSON file with blocks and budgets")
    p.add_argument("--graph", help="edge-list graph file")
    p.add_argument("--slack", type=float, default=0.0)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InfeasibleConfigError as exc:
        print(f"infeasible configuration: {exc}", file=sys.stderr)
        return 2
    except (MembershipError, ValueError, FileNotFoundError) as exc:
        print(f"validation failure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
