"""Acceptance suite: one test per criterion, each printing a PASS line
with the measured figures (run with `pytest tests/test_acceptance.py -v -s`).

Every tolerance is pinned here, none deferred: reconstruction 1e-9 (1e-8
for graphical-matroid marginal points), gradient agreement 1e-4 relative
at >= 99% of generic points, greedy-mean window +-5% around the published
15641 reference for regenerated Random500 data.
"""

import time
from itertools import combinations

import numpy as np
from gradient_checks import finite_diff_gradient, project_to_tangent, tie_margin
from reference_loops import fstab_vertex_enumerate, reference_iterates, reference_min_g_lambda

from caradec.core import (
    Cardinality,
    FractionalStableSet,
    GraphicMatroid,
    PartitionMatroid,
)
from caradec.extension import (
    CallableObjective,
    LinearObjective,
    backprop_extension,
    best_set,
    decompose,
    decompose_with_tape,
    evaluate_extension,
)
from caradec.fstab import (
    decompose_fstab,
    fstab_vertex,
    project_to_fstab,
)
from caradec.generators import gen_er_graph, gen_random_uniform
from caradec.graphs import Graph, UnionFind
from caradec.hypersimplex import (
    decompose_hypersimplex,
    decompose_partition,
    project_to_hypersimplex,
    project_to_partition_polytope,
)
from caradec.matroids import spanning_tree_marginals
from caradec.objectives import CoverageObjective, CutObjective, brute_force_optimum
from caradec.rng import stream
from caradec.solvers import (
    DecompositionConfig,
    OptimizeConfig,
    ScaleSchedule,
    direct_optimize,
    greedy_coverage,
    random_decomp_baseline,
    solve_pipeline,
)

GREEDY_REFERENCE_MEAN = 15641.0  # published Random500 k=10 greedy mean


def _report(criterion: int, message: str):
    print(f"\ncriterion {criterion:>2} PASS: {message}")


def random_connected_graph(rng, n, extra):
    edges = set()
    for v in range(1, n):
        edges.add((int(rng.integers(0, v)), v))
    rest = [(u, v) for u in range(n) for v in range(u + 1, n) if (u, v) not in edges]
    if rest and extra:
        pick = rng.choice(len(rest), size=min(extra, len(rest)), replace=False)
        for i in pick:
            edges.add(rest[int(i)])
    return Graph(n, tuple(sorted(edges)))


def test_criterion_01_cardinality_decomposition():
    rng = stream(1001, "crit1")
    t0 = time.perf_counter()
    worst_recon = worst_sum = 0.0
    for _ in range(1000):
        n = int(rng.integers(5, 201))
        k = int(rng.integers(1, n))
        x = project_to_hypersimplex(rng.random(n), k)
        d = decompose_hypersimplex(x, k)
        worst_sum = max(worst_sum, abs(d.probability_sum() - 1.0))
        worst_recon = max(worst_recon, float(np.max(np.abs(d.reconstruct(n) - x))))
        assert all(len(v.indices) == k for _, v in d.pairs)
        assert d.iterations <= n
    elapsed = time.perf_counter() - t0
    assert worst_sum <= 1e-9
    assert worst_recon <= 1e-9
    assert elapsed < 30.0
    _report(1, f"1000 points, max |sum p - 1| {worst_sum:.2e}, "
               f"max recon {worst_recon:.2e}, {elapsed:.1f}s")


def test_criterion_02_partition_decomposition():
    rng = stream(1002, "crit2")
    worst_recon = worst_sum = 0.0
    for _ in range(1000):
        n = int(rng.integers(5, 201))
        nblocks = int(rng.integers(1, min(6, n) + 1))
        cuts = np.sort(rng.choice(np.arange(1, n), size=nblocks - 1, replace=False)) if nblocks > 1 else np.array([], dtype=int)
        perm = rng.permutation(n)
        blocks, pos = [], 0
        for cut in list(cuts) + [n]:
            blocks.append(tuple(int(i) for i in perm[pos:cut]))
            pos = cut
        budgets = [int(rng.integers(0, len(b) + 1)) for b in blocks]
        spec = PartitionMatroid(blocks, budgets)
        x = project_to_partition_polytope(rng.random(n), spec)
        d = decompose_partition(x, spec)
        worst_sum = max(worst_sum, abs(d.probability_sum() - 1.0))
        worst_recon = max(worst_recon, float(np.max(np.abs(d.reconstruct(n) - x))))
        assert d.iterations <= n
        for _, v in d.pairs:
            s = set(v.indices)
            assert all(len(s & set(b)) == kk for b, kk in zip(blocks, budgets))
    assert worst_sum <= 1e-9 and worst_recon <= 1e-9
    # single block is pairwise identical to the hypersimplex decomposition
    for _ in range(50):
        n, k = int(rng.integers(5, 40)), 0
        while not (1 <= k < n):
            k = int(rng.integers(1, n))
        spec = PartitionMatroid([tuple(range(n))], [k])
        x = project_to_partition_polytope(rng.random(n), spec)
        dp = decompose_partition(x, spec)
        dh = decompose_hypersimplex(x, k)
        assert [(p, v.indices) for p, v in dp.pairs] == [
            (p, v.indices) for p, v in dh.pairs
        ]
    _report(2, f"1000 block structures, max |sum p - 1| {worst_sum:.2e}, "
               f"max recon {worst_recon:.2e}; single-block is pairwise equal")


def test_criterion_03_graphic_decomposition():
    rng = stream(1003, "crit3")
    # the triangle marginals are exactly (2/3, 2/3, 2/3)
    tri = Graph(3, ((0, 1), (0, 2), (1, 2)))
    mu = spanning_tree_marginals(tri)
    assert np.max(np.abs(mu - 2 / 3)) <= 1e-12
    checked_iterates = 0
    for gi in range(10):
        n = int(rng.integers(3, 8))
        g = random_connected_graph(rng, n, int(rng.integers(0, 10)))
        if g.m > 16:
            continue
        w = 0.2 + rng.random(g.m)
        x = spanning_tree_marginals(g, w)
        c = GraphicMatroid(g)
        d, tape, x_next = reference_iterates(x, c)
        assert np.max(np.abs(d.reconstruct(g.m) - x)) <= 1e-8
        size = g.n_nodes - 1
        for _, v in d.pairs:
            assert len(v.indices) == size and g.is_forest(v.indices)
        # brute-force SFM cross-check of every iterate at lambda = 0
        iterates = [tape.x0, *x_next]
        for xt in iterates:
            val, _ = reference_min_g_lambda(g, xt, (), 0.0)
            assert val >= -1e-8
            checked_iterates += 1
    _report(3, f"triangle marginals exact; {checked_iterates} iterates "
               f"rank-checked by brute-force SFM at lambda=0")


def brute_marginals(g, w):
    w = np.asarray(w, dtype=float)
    total = 0.0
    per_edge = np.zeros(g.m)
    for combo in combinations(range(g.m), g.n_nodes - 1):
        uf = UnionFind(g.n_nodes)
        if not all(uf.union(*g.edges[e]) for e in combo):
            continue
        weight = float(np.prod(w[list(combo)]))
        total += weight
        for e in combo:
            per_edge[e] += weight
    return per_edge / total


def test_criterion_04_marginals_vs_enumeration():
    rng = stream(1004, "crit4")
    draws = 0
    worst = 0.0
    while draws < 100:
        n = int(rng.integers(3, 7))
        g = random_connected_graph(rng, n, int(rng.integers(0, 6)))
        if g.m > 10:
            continue
        w = 0.1 + 2.0 * rng.random(g.m)
        mu = spanning_tree_marginals(g, w)
        ref = brute_marginals(g, w)
        worst = max(worst, float(np.max(np.abs(mu - ref))))
        assert abs(mu.sum() - (g.n_nodes - 1)) <= 1e-8
        draws += 1
    assert worst <= 1e-8
    _report(4, f"100 weighted-tree enumerations matched, max gap {worst:.2e}")


def test_criterion_05_fstab():
    rng = stream(1005, "crit5")
    worst = 0.0
    for _ in range(200):
        n = int(rng.integers(2, 13))
        g = Graph(n, tuple(
            (u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.35
        ))
        x = project_to_fstab(rng.random(n), g, 0.0)
        d = decompose_fstab(x, g)
        worst = max(worst, float(np.max(np.abs(d.reconstruct(n) - x))))
        assert d.iterations <= n + 1
        for _, v in d.pairs:
            if v.is_integral:
                assert g.is_independent_set(v.indices)
    assert worst <= 1e-9
    agree = 0
    for _ in range(500):
        n = int(rng.integers(2, 10))
        g = Graph(n, tuple(
            (u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.4
        ))
        x = project_to_fstab(rng.random(n), g, 0.0)
        a = fstab_vertex(x, g).to_vector()
        b = fstab_vertex_enumerate(x, g).to_vector()
        agree += bool(np.allclose(a, b))
    assert agree == 500
    _report(5, f"200 decompositions (max recon {worst:.2e}, <= n+1 steps); "
               f"min-cut oracle agreed with enumeration on {agree}/500 objectives")


def _family_cases(rng):
    yield Cardinality(10, 4), project_to_hypersimplex(rng.random(10), 4)
    spec = PartitionMatroid([(0, 1, 2, 3), (4, 5, 6), (7, 8, 9)], [2, 1, 1])
    yield spec, project_to_partition_polytope(rng.random(10), spec)
    g = random_connected_graph(rng, 5, 4)
    yield GraphicMatroid(g), spanning_tree_marginals(g, 0.2 + rng.random(g.m))
    gg = Graph(8, tuple(
        (u, v) for u in range(8) for v in range(u + 1, 8) if rng.random() < 0.35
    ))
    yield FractionalStableSet(gg), project_to_fstab(rng.random(8), gg, 0.0)


def test_criterion_06_rounding_guarantee():
    rng = stream(1006, "crit6")
    checked = 0
    for _ in range(250):
        for c, x in _family_cases(rng):
            w = rng.random(c.dim)
            f = CallableObjective(lambda S, w=w: float(sum(w[i] for i in S)))
            d = decompose(x, c)
            F = evaluate_extension(d, f)
            _, val = best_set(d, f)
            assert val >= F - 1e-9
            checked += 1
    _report(6, f"{checked} random nonnegative objectives, "
               f"max integral f >= F - 1e-9 in every family")


def _generic_point(rng, c, make_point, min_margin):
    for _ in range(1000):
        x = make_point()
        if tie_margin(x, c) > min_margin:
            return x
    raise RuntimeError("could not sample a generic point")


def test_criterion_07_gradient_correctness():
    rng = stream(1007, "crit7")
    h = 1e-6
    makers = {
        "cardinality": lambda: (
            Cardinality(8, 3),
            lambda: project_to_hypersimplex(rng.random(8), 3),
        ),
        "partition": lambda: (
            PartitionMatroid([(0, 1, 2, 3), (4, 5, 6, 7)], [2, 1]),
            None,
        ),
        "graphic": lambda: (
            GraphicMatroid(Graph(4, ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)))),
            None,
        ),
        "fstab": lambda: (
            FractionalStableSet(Graph(6, (
                (0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 5), (1, 4), (0, 3),
            ))),
            None,
        ),
    }
    summary = {}
    for name, mk in makers.items():
        c, maker = mk()
        if maker is None:
            if isinstance(c, PartitionMatroid):
                maker = lambda: project_to_partition_polytope(rng.random(c.n), c)
            elif isinstance(c, GraphicMatroid):
                maker = lambda: spanning_tree_marginals(
                    c.graph, 0.2 + rng.random(c.graph.m)
                )
            else:
                maker = lambda: project_to_fstab(
                    rng.random(c.graph.n_nodes), c.graph, 0.0
                )
        passed = 0
        lin_worst = 0.0
        for _ in range(400):
            x = _generic_point(rng, c, maker, 10 * h)
            w = rng.random(c.dim)
            f = CallableObjective(
                lambda S, w=w: float(sum(w[i] for i in S))
                + 0.2 * sum(1 for i in S for j in S if i < j)
            )
            _, tape = decompose_with_tape(x, c)
            g = project_to_tangent(backprop_extension(tape, f), c)
            fd, reliable = finite_diff_gradient(x, c, f, h)
            if not reliable.all():
                continue
            scale = max(1.0, float(np.max(np.abs(g))))
            if float(np.max(np.abs(g - fd))) / scale <= 1e-4:
                passed += 1
            # linear objective: gradient equals the weights
            lf = LinearObjective(w)
            _, ltape = decompose_with_tape(x, c)
            lg = backprop_extension(ltape, lf)
            gap = np.max(np.abs(project_to_tangent(lg, c) - project_to_tangent(w, c)))
            if isinstance(c, FractionalStableSet):
                gap = max(gap, float(np.max(np.abs(lg - w))))
            lin_worst = max(lin_worst, float(gap))
        assert passed >= 0.99 * 400, (name, passed)
        assert lin_worst <= 1e-9, (name, lin_worst)
        summary[name] = (passed, lin_worst)
    msg = ", ".join(f"{k}: {v[0]}/400 fd, linear gap {v[1]:.1e}" for k, v in summary.items())
    _report(7, msg)


def test_criterion_08_rescaling_residual_bound():
    rng = stream(1008, "crit8")
    ell = 0.05
    corrs = []
    for _ in range(200):
        n = int(rng.integers(5, 17))
        k = int(rng.integers(1, n))
        x = project_to_hypersimplex(rng.random(n), k)
        cfg = DecompositionConfig(scale=0.5, floor=ell, tolerance=1e-7,
                                  max_iterations=3000)
        _, tape, x_next = reference_iterates(x, Cardinality(n, k), cfg)
        resid = []
        for t in range(len(tape.a) - tape.terminal):
            mass = tape.q[t] * (1.0 - tape.a[t])
            resid.append(mass * float(np.linalg.norm(x_next[t])))
        for T, r in enumerate(resid, start=1):
            assert r <= (1 - ell) ** T * n + 1e-12, (n, k, T, r)
        logs = np.log(np.maximum(resid, 1e-300))
        if len(logs) >= 5:
            ts = np.arange(1, len(logs) + 1)
            corrs.append(float(np.corrcoef(ts, logs)[0, 1]))
    assert np.median(corrs) <= -0.9
    _report(8, f"200 runs within (1-l)^T * n for every T; "
               f"median log-residual correlation {np.median(corrs):.3f}")


def test_criterion_09_max_k_cut_ablation():
    hits = 0
    ratios_direct, ratios_rand = [], []
    for i in range(50):
        rng = stream(123, "crit9-params", i)
        n = int(rng.integers(12, 21))
        p = float(rng.uniform(0.15, 0.3))
        g = gen_er_graph(n, p, seed=123, instance_id=i)
        k = max(3, round(0.25 * n))
        f = CutObjective(g)
        c = Cardinality(n, k)
        _, opt = brute_force_optimum(f, c)
        opt = max(opt, 1.0)
        res = direct_optimize(
            f, c,
            OptimizeConfig(steps=150, lr=0.015, seed=i, init="random", round_every=1),
        )
        rd = random_decomp_baseline(f, c, seed=i)
        ratios_direct.append(res.objective / opt)
        ratios_rand.append(rd.objective / opt)
        hits += res.objective >= 0.9 * opt
    mean_d, mean_r = float(np.mean(ratios_direct)), float(np.mean(ratios_rand))
    assert hits >= 0.8 * 50
    assert mean_d > mean_r
    _report(9, f">=0.9x brute on {hits}/50 instances; mean normalized "
               f"{mean_d:.3f} (direct) > {mean_r:.3f} (random+decomp)")


def test_criterion_10_max_coverage_regenerated():
    t0 = time.perf_counter()
    k = 10
    greedy_vals, pipe_vals = [], []
    for i in range(20):
        inst = gen_random_uniform(500, 1000, seed=42, instance_id=i)
        f = CoverageObjective(inst)
        c = Cardinality(500, k)
        _, gval = greedy_coverage(inst, k)
        greedy_vals.append(gval)
        res = solve_pipeline(
            f, c, OptimizeConfig(steps=150, lr=0.015, seed=i, init="random"),
            ScaleSchedule(max_iterations=2000, seed=i), 10,
        )
        pipe_vals.append(res.objective)
    greedy_mean = float(np.mean(greedy_vals))
    pipe_mean = float(np.mean(pipe_vals))
    elapsed = time.perf_counter() - t0
    assert abs(greedy_mean - GREEDY_REFERENCE_MEAN) <= 0.05 * GREEDY_REFERENCE_MEAN
    assert pipe_mean >= 0.95 * greedy_mean
    assert elapsed <= 600.0
    _report(10, f"greedy mean {greedy_mean:.0f} (ref {GREEDY_REFERENCE_MEAN:.0f} "
                f"+-5%); pipeline mean {pipe_mean:.0f} = "
                f"{pipe_mean / greedy_mean:.1%} of greedy; {elapsed:.0f}s")


def test_criterion_11_scope_statement():
    # The neural-encoder experiment tables (Twitch, Railway, TTO variants)
    # are out of scope by design; criteria 9 and 10 carry their role via
    # property-scaled substitutes on regenerated data.
    _report(11, "SSL/GNN tables not reproduced by design; covered by "
                "criteria 9-10 property substitutes")
