"""Solver drivers: direct optimization, multi-scale inference, local
improvement, greedy, and the random baselines."""

import numpy as np
import pytest

from caradec.core import Cardinality, FractionalStableSet, GraphicMatroid, PartitionMatroid, VertexSet
from caradec import solvers
from caradec.extension import (
    LinearObjective,
    backprop_extension,
    best_set,
    decompose,
    decompose_with_tape,
    evaluate_extension,
)
from caradec.generators import gen_er_graph, gen_random_uniform
from caradec.graphs import Graph
from caradec.objectives import (
    CoverageInstance,
    CoverageObjective,
    CutObjective,
    brute_force_optimum,
)
from caradec.rng import stream
from caradec.solvers import (
    Adam,
    OptimizeConfig,
    _sigmoid,
    ScaleSchedule,
    direct_optimize,
    greedy_coverage,
    local_improve,
    multi_scale_solve,
    random_baseline,
    random_decomp_baseline,
    random_point_in_polytope,
    project_point,
)

TRIANGLE = Graph(3, ((0, 1), (0, 2), (1, 2)))


class TestAdam:
    def test_matches_reference_update(self):
        opt = Adam(2, lr=0.1)
        theta = np.zeros(2)
        grad = np.array([1.0, -2.0])
        theta = opt.ascend(theta, grad)
        # first step: mhat = grad, vhat = grad^2 -> step = lr * sign(grad)
        assert np.allclose(theta, [0.1 * 1.0 / (1.0 + 1e-8), -0.1 * 2.0 / (2.0 + 1e-8)])

    def test_converges_on_quadratic(self):
        opt = Adam(1, lr=0.05)
        theta = np.array([3.0])
        for _ in range(800):
            theta = opt.ascend(theta, -2 * (theta - 1.0))
        assert abs(theta[0] - 1.0) < 1e-3


class TestDirectOptimize:
    def test_steps_zero_rounds_initialization(self):
        g = gen_er_graph(10, 0.3, seed=1)
        f = CutObjective(g)
        c = Cardinality(10, 3)
        res = direct_optimize(f, c, OptimizeConfig(steps=0, seed=0))
        x0 = np.full(10, 0.3)
        d = decompose(x0, c)
        _, val = best_set(d, f)
        assert res.objective == pytest.approx(val)

    def test_deterministic_under_seed(self):
        g = gen_er_graph(12, 0.25, seed=2)
        f = CutObjective(g)
        c = Cardinality(12, 3)
        cfg = OptimizeConfig(steps=40, seed=7, init="random")
        r1 = direct_optimize(f, c, cfg)
        r2 = direct_optimize(f, c, cfg)
        assert r1.objective == r2.objective
        assert r1.best.indices == r2.best.indices
        assert r1.extension_value == pytest.approx(r2.extension_value, abs=0)

    def test_rounding_guarantee(self):
        g = gen_er_graph(12, 0.3, seed=3)
        f = CutObjective(g)
        c = Cardinality(12, 4)
        res = direct_optimize(f, c, OptimizeConfig(steps=30, seed=1, init="random"))
        assert res.objective >= res.extension_value - 1e-9

    def test_small_instance_quality(self):
        hits = 0
        for i in range(12):
            g = gen_er_graph(12, 0.3, seed=50 + i)
            f = CutObjective(g)
            c = Cardinality(12, 3)
            _, opt = brute_force_optimum(f, c)
            res = direct_optimize(
                f, c, OptimizeConfig(steps=150, seed=i, init="random", round_every=1)
            )
            hits += res.objective >= 0.9 * opt
        assert hits >= 9

    def test_partition_and_matroid_families(self):
        spec = PartitionMatroid([(0, 1, 2), (3, 4, 5)], [1, 1])
        w = np.array([5.0, 1.0, 2.0, 1.0, 4.0, 2.0])
        res = direct_optimize(LinearObjective(w), spec,
                              OptimizeConfig(steps=60, seed=0, round_every=1))
        assert res.objective == pytest.approx(9.0)  # picks 0 and 4
        g = Graph(4, ((0, 1), (0, 2), (0, 3), (1, 2), (2, 3)))
        w = np.array([5.0, 1.0, 3.0, 2.0, 4.0])
        res = direct_optimize(LinearObjective(w), GraphicMatroid(g),
                              OptimizeConfig(steps=40, seed=0, round_every=1))
        _, opt = brute_force_optimum(LinearObjective(w), GraphicMatroid(g))
        assert res.objective == pytest.approx(opt)


class CountingCut(CutObjective):
    def __init__(self, g):
        super().__init__(g)
        self.calls = 0

    def value_of(self, indices):
        self.calls += 1
        return super().value_of(indices)


def reference_direct(f, c, cfg):
    """direct_optimize written with evaluate_extension, best_set and
    backprop_extension, each of which evaluates f on its own."""
    theta = cfg.init_scale * stream(cfg.seed, "direct-optimize").standard_normal(c.dim)
    adam = Adam(c.dim, cfg.lr, cfg.beta1, cfg.beta2, cfg.eps)
    incumbent = None
    for step in range(cfg.steps + 1):
        z = _sigmoid(theta)
        x, vjp = project_point(z, c)
        d, tape = decompose_with_tape(x, c, cfg.decomposition)
        F = evaluate_extension(d, f)
        v, val = best_set(d, f)
        if incumbent is None or val > incumbent[1]:
            incumbent = (v, val)
        if step == cfg.steps:
            return incumbent, F, x
        theta = adam.ascend(theta, vjp(backprop_extension(tape, f)) * z * (1.0 - z))


class TestSingleEvaluation:
    def test_one_call_per_vertex(self, monkeypatch):
        g = gen_er_graph(14, 0.3, seed=8)
        c = Cardinality(14, 4)
        cfg = OptimizeConfig(steps=25, seed=3, init="random", round_every=1)
        supports = []

        def recording(x, c, cfg):
            d, tape = decompose_with_tape(x, c, cfg)
            supports.append(len(d.pairs))
            return d, tape

        monkeypatch.setattr(solvers, "decompose_with_tape", recording)
        f = CountingCut(g)
        res = direct_optimize(f, c, cfg)
        assert len(supports) == cfg.steps + 1
        assert f.calls == sum(supports)

        (best, value), F, x = reference_direct(CutObjective(g), c, cfg)
        assert res.objective == value
        assert res.best == best
        assert res.extension_value == F
        assert np.array_equal(res.final_point, x)


class TestMultiScale:
    def test_single_factor_equals_best_set(self):
        rng = stream(5, "ms")
        c = Cardinality(10, 3)
        x = random_point_in_polytope(c, rng)
        f = LinearObjective(rng.random(10))
        res, pool = multi_scale_solve(x, ScaleSchedule(factors=(1.0,)), f, c)
        d = decompose(x, c)
        _, val = best_set(d, f)
        assert res.objective == pytest.approx(val)

    def test_more_factors_never_worse(self):
        rng = stream(7, "ms2")
        c = Cardinality(12, 4)
        for _ in range(20):
            x = random_point_in_polytope(c, rng)
            f = LinearObjective(rng.random(12))
            r1, _ = multi_scale_solve(x, ScaleSchedule(factors=(1.0,)), f, c)
            r2, _ = multi_scale_solve(
                x, ScaleSchedule(factors=(1.0, 0.6, 0.3), max_iterations=300), f, c
            )
            assert r2.objective >= r1.objective - 1e-12

    def test_nine_factor_schedule_improves_mean(self):
        rng = stream(11, "ms3")
        c = Cardinality(20, 5)
        single_vals, multi_vals = [], []
        for trial in range(200):
            inst_rng = stream(11, "ms3-inst", trial)
            sets = tuple(
                tuple(sorted(set(int(e) for e in inst_rng.integers(0, 30, 6))))
                for _ in range(20)
            )
            inst = CoverageInstance(20, 30, tuple([1.0] * 30), sets)
            f = CoverageObjective(inst)
            x = random_point_in_polytope(c, inst_rng)
            r1, _ = multi_scale_solve(x, ScaleSchedule(factors=(1.0,)), f, c)
            r9, _ = multi_scale_solve(
                x, ScaleSchedule(max_iterations=200), f, c
            )
            single_vals.append(r1.objective)
            multi_vals.append(r9.objective)
        assert np.mean(multi_vals) > np.mean(single_vals)

    def test_pool_contains_best_support(self):
        rng = stream(13, "pool")
        c = Cardinality(10, 3)
        x = random_point_in_polytope(c, rng)
        f = LinearObjective(rng.random(10))
        res, pool = multi_scale_solve(x, ScaleSchedule(max_iterations=200), f, c)
        assert set(res.best.indices) <= set(pool)


class TestLocalImprove:
    def test_local_optimum_unchanged(self):
        inst = CoverageInstance(3, 4, (1.0,) * 4, ((0, 1), (1, 2), (2, 3)))
        f = CoverageObjective(inst)
        c = Cardinality(3, 1)
        v, val = local_improve(VertexSet.integral([1], 3), [0, 2], f, c)
        assert v.indices == (1,) and val == pytest.approx(2.0)

    def test_triangle_cut_symmetric(self):
        f = CutObjective(TRIANGLE)
        c = Cardinality(3, 1)
        v, val = local_improve(VertexSet.integral([0], 3), [1, 2], f, c)
        assert v.indices == (0,) and val == pytest.approx(2.0)

    def test_improves_when_possible(self):
        w = np.array([1.0, 10.0, 2.0, 3.0])
        f = LinearObjective(w)
        c = Cardinality(4, 2)
        v, val = local_improve(VertexSet.integral([0, 2], 4), [1, 3], f, c)
        assert val == pytest.approx(13.0) and v.indices == (1, 3)

    def test_respects_partition_blocks(self):
        spec = PartitionMatroid([(0, 1), (2, 3)], [1, 1])
        w = np.array([1.0, 5.0, 1.0, 5.0])
        v, val = local_improve(
            VertexSet.integral([0, 2], 4), [1, 3], LinearObjective(w), spec
        )
        assert v.indices == (1, 3) and val == pytest.approx(10.0)

    def test_respects_forest_feasibility(self):
        c = GraphicMatroid(TRIANGLE)
        w = np.array([1.0, 2.0, 3.0])
        v, val = local_improve(
            VertexSet.integral([0, 1], 3), [2], LinearObjective(w), c
        )
        assert val == pytest.approx(5.0)
        assert TRIANGLE.is_forest(v.indices)

    def test_never_worse_and_terminates(self):
        rng = stream(17, "li")
        for _ in range(30):
            inst_sets = tuple(
                tuple(sorted(set(int(e) for e in rng.integers(0, 25, 5))))
                for _ in range(12)
            )
            inst = CoverageInstance(12, 25, tuple([1.0] * 25), inst_sets)
            f = CoverageObjective(inst)
            c = Cardinality(12, 4)
            start = tuple(sorted(rng.choice(12, 4, replace=False).tolist()))
            v0 = f.value_of(start)
            v, val = local_improve(VertexSet.integral(start, 12), list(range(12)), f, c, max_iter=10)
            assert val >= v0 - 1e-12


class TestGreedy:
    def test_k_zero(self):
        inst = CoverageInstance(2, 3, (1.0,) * 3, ((0,), (1, 2)))
        v, val = greedy_coverage(inst, 0)
        assert v.indices == () and val == 0.0

    def test_marginal_gain_example(self):
        inst = CoverageInstance(3, 4, (1.0,) * 4, ((0, 1, 2), (0,), (3,)))
        v, val = greedy_coverage(inst, 2)
        assert v.indices == (0, 2) and val == pytest.approx(4.0)

    def test_approximation_guarantee(self):
        rng = stream(19, "greedy")
        bound = 1 - 1 / np.e
        for _ in range(30):
            n_sets = int(rng.integers(5, 10))
            n_el = int(rng.integers(8, 25))
            sets = tuple(
                tuple(sorted(set(int(e) for e in rng.integers(0, n_el, int(rng.integers(1, 7))))))
                for _ in range(n_sets)
            )
            weights = tuple(float(w) for w in rng.integers(1, 30, n_el))
            inst = CoverageInstance(n_sets, n_el, weights, sets)
            k = int(rng.integers(1, min(5, n_sets)))
            _, gval = greedy_coverage(inst, k)
            _, opt = brute_force_optimum(CoverageObjective(inst), Cardinality(n_sets, k))
            assert gval >= bound * opt - 1e-9


class TestRandomBaselines:
    def test_single_trial(self):
        f = CutObjective(TRIANGLE)
        res = random_baseline(f, Cardinality(3, 1), trials=1, seed=0)
        assert res.iterations == 1

    def test_running_max_nondecreasing(self):
        g = gen_er_graph(10, 0.4, seed=5)
        f = CutObjective(g)
        c = Cardinality(10, 3)
        vals = [
            random_baseline(f, c, trials=t, seed=3).objective
            for t in (1, 4, 16, 64, 256)
        ]
        assert all(b >= a for a, b in zip(vals, vals[1:]))

    def test_deterministic(self):
        g = gen_er_graph(10, 0.4, seed=6)
        f = CutObjective(g)
        c = Cardinality(10, 3)
        a = random_baseline(f, c, trials=100, seed=1)
        b = random_baseline(f, c, trials=100, seed=1)
        assert a.objective == b.objective and a.best.indices == b.best.indices

    def test_random_below_greedy_on_coverage_suite(self):
        greedy_vals, random_vals = [], []
        for i in range(10):
            inst = gen_random_uniform(60, 120, (3, 8), (1, 100), seed=9, instance_id=i)
            f = CoverageObjective(inst)
            _, gval = greedy_coverage(inst, 5)
            rres = random_baseline(f, Cardinality(60, 5), trials=2000, seed=i)
            greedy_vals.append(gval)
            random_vals.append(rres.objective)
        assert np.mean(random_vals) < np.mean(greedy_vals)

    def test_all_families_sampleable(self):
        c_list = [
            Cardinality(8, 3),
            PartitionMatroid([(0, 1, 2, 3), (4, 5, 6, 7)], [2, 1]),
            GraphicMatroid(Graph(5, ((0, 1), (1, 2), (2, 3), (3, 4), (0, 4)))),
            FractionalStableSet(Graph(6, ((0, 1), (2, 3), (4, 5)))),
        ]
        for c in c_list:
            f = LinearObjective(np.ones(c.dim))
            res = random_baseline(f, c, trials=32, seed=0)
            assert c.vertex_feasible(res.best) or isinstance(c, FractionalStableSet)

    def test_random_decomp_baseline(self):
        for c in (
            Cardinality(9, 3),
            GraphicMatroid(TRIANGLE),
            FractionalStableSet(Graph(5, ((0, 1), (1, 2), (3, 4)))),
        ):
            f = LinearObjective(np.linspace(1, 2, c.dim))
            res = random_decomp_baseline(f, c, seed=2)
            assert res.objective >= res.extension_value - 1e-9


class TestScheduleVariation:
    def test_jittered_repeats_enlarge_pool(self):
        rng = stream(23, "jit")
        c = Cardinality(14, 4)
        x = random_point_in_polytope(c, rng)
        f = LinearObjective(rng.random(14))
        base = ScaleSchedule(factors=(1.0, 0.5), max_iterations=200, seed=5)
        jit = ScaleSchedule(factors=(1.0, 0.5), max_iterations=200, seed=5,
                            repeats=4, jitter=0.15)
        _, pool_base = multi_scale_solve(x, base, f, c)
        r_jit, pool_jit = multi_scale_solve(x, jit, f, c)
        assert set(pool_base) <= set(pool_jit)
        # deterministic under the same schedule seed
        r_jit2, pool_jit2 = multi_scale_solve(x, jit, f, c)
        assert pool_jit == pool_jit2 and r_jit.objective == r_jit2.objective


class TestSolveResultCsv:
    def test_row_format(self):
        g = gen_er_graph(8, 0.4, seed=1)
        res = random_baseline(CutObjective(g), Cardinality(8, 2), trials=16, seed=3)
        row = res.csv_row("inst_x", 2)
        cols = row.split(",")
        assert cols[0] == "inst_x" and cols[1] == "random" and cols[2] == "2"
        assert float(cols[3]) == res.objective
