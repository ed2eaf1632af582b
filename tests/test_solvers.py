"""Solver drivers: direct optimization, multi-scale inference, local
improvement, greedy, and the random baselines."""

import math

import numpy as np
import pytest
from kernel_backends import available, use
from reference_loops import reference_local_improve

from caradec.core import (
    Cardinality,
    FractionalStableSet,
    GraphicMatroid,
    MembershipError,
    PartitionMatroid,
    VertexSet,
)
from caradec import kernels, solvers
from caradec.extension import (
    CallableObjective,
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
    """Counts calls of the batch hook and the rows they score."""

    def __init__(self, g):
        super().__init__(g)
        self.calls = 0
        self.rows = 0

    def values_of_rows(self, indptr, indices):
        self.calls += 1
        self.rows += len(indptr) - 1
        return super().values_of_rows(indptr, indices)


def reference_direct(f, c, cfg):
    """direct_optimize written stage by stage with evaluate_extension,
    best_set and backprop_extension, each of which evaluates f on its own."""
    theta = np.zeros(c.dim)
    if cfg.init == "random":
        theta = cfg.init_scale * stream(cfg.seed, "direct-optimize").standard_normal(c.dim)
    adam = Adam(c.dim, cfg.lr, cfg.beta1, cfg.beta2, cfg.eps)
    incumbent = None
    for step in range(cfg.steps + 1):
        z = _sigmoid(theta)
        x, vjp = project_point(z, c)
        d, tape = decompose_with_tape(x, c, cfg.decomposition)
        F = evaluate_extension(d, f)
        if step % cfg.round_every == 0 or step == cfg.steps:
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
        # One batch per decomposition, one row per vertex.
        assert f.calls == cfg.steps + 1
        assert f.rows == sum(supports)

        (best, value), F, x = reference_direct(CutObjective(g), c, cfg)
        assert res.objective == value
        assert res.best == best
        assert res.extension_value == F
        assert np.array_equal(res.final_point, x)


def block_specs():
    """{label: (spec, objectives)}: cardinality and partition specs, with
    blocks of budget 0 and full budget, and the empty ground set."""
    g = gen_er_graph(14, 0.3, seed=4)
    inst = gen_random_uniform(14, 30, seed=2, instance_id=0)
    w = stream(9, "direct-parity").standard_normal(14)
    objectives = {"cut": CutObjective(g), "coverage": CoverageObjective(inst), "linear": LinearObjective(w)}
    partition = PartitionMatroid([range(0, 5), range(5, 8), range(8, 12), range(12, 14)], [2, 0, 4, 1])
    empty = {"cut": CutObjective(Graph(0, ())), "linear": LinearObjective(np.zeros(0))}
    return {"card": (Cardinality(14, 4), objectives), "partition": (partition, objectives),
            "empty": (Cardinality(0, 0), empty)}


def direct_cases():
    for label, (c, objectives) in block_specs().items():
        for name in objectives:
            for round_every in (1, 10):
                for init in ("center", "random"):
                    yield pytest.param(label, name, round_every, init, id=f"{label}-{name}-{round_every}-{init}")


class TestDirectMatchesReference:
    """On block specs a step's reverse half is one fused kernel call; the
    run equals the stage-by-stage reference byte for byte on both
    backends."""

    @pytest.mark.parametrize("backend", available())
    @pytest.mark.parametrize("label, name, round_every, init", direct_cases())
    def test_same_bytes(self, monkeypatch, backend, label, name, round_every, init):
        use(monkeypatch, backend)
        c, objectives = block_specs()[label]
        f = objectives[name]
        cfg = OptimizeConfig(steps=23, seed=5, init=init, init_scale=2.0, round_every=round_every)
        res = direct_optimize(f, c, cfg)
        (best, value), F, x = reference_direct(f, c, cfg)
        assert res.best == best
        assert np.float64(res.objective).tobytes() == np.float64(value).tobytes()
        assert np.float64(res.extension_value).tobytes() == np.float64(F).tobytes()
        assert res.final_point.tobytes() == x.tobytes()

    @pytest.mark.parametrize("backend", available())
    def test_block_specs_take_the_fused_step(self, monkeypatch, backend):
        """A block spec's step calls ascend_blocks and neither the reverse
        pass nor the VJP on their own; a graphic spec's does the reverse."""
        use(monkeypatch, backend)
        calls = {"ascend_blocks": 0, "backprop_blocks": 0, "project_blocks_vjp": 0}
        for name in calls:
            monkeypatch.setattr(kernels, name, counted(calls, name, getattr(kernels, name)))
        g = gen_er_graph(8, 0.5, seed=1)
        direct_optimize(CutObjective(g), Cardinality(8, 3), OptimizeConfig(steps=6, seed=1))
        assert calls == {"ascend_blocks": 6, "backprop_blocks": 0, "project_blocks_vjp": 0}
        calls.update(ascend_blocks=0)
        direct_optimize(LinearObjective(np.ones(3)), GraphicMatroid(TRIANGLE), OptimizeConfig(steps=4, seed=1))
        assert calls == {"ascend_blocks": 0, "backprop_blocks": 4, "project_blocks_vjp": 0}


def counted(calls, name, fn):
    def call(*args):
        calls[name] += 1
        return fn(*args)

    return call


class TestBlockStepRouting:
    @pytest.mark.parametrize("backend", available())
    def test_one_call_of_each_per_step(self, monkeypatch, backend):
        """A block step is one np.exp, one sigmoid_project, one
        decompose_with_tape through solvers, one values_of_rows, an argmax
        and one ascend_blocks; it projects through no other call and checks
        no block layout again."""
        use(monkeypatch, backend)
        names = ("sigmoid_project", "ascend_blocks", "project_blocks", "decompose_blocks")
        calls = dict.fromkeys(names + ("exp", "decompose_with_tape", "block_members"), 0)
        for name in names:
            monkeypatch.setattr(kernels, name, counted(calls, name, getattr(kernels, name)))
        monkeypatch.setattr(solvers, "decompose_with_tape",
                            counted(calls, "decompose_with_tape", solvers.decompose_with_tape))
        c = Cardinality(12, 3)
        monkeypatch.setattr(kernels._purepy, "block_members",
                            counted(calls, "block_members", kernels._purepy.block_members))
        real_exp = np.exp

        def exp(*args, **kwargs):
            calls["exp"] += 1
            return real_exp(*args, **kwargs)

        monkeypatch.setattr(np, "exp", exp)
        f = CountingCut(gen_er_graph(12, 0.3, seed=2))
        direct_optimize(f, c, OptimizeConfig(steps=9, seed=4, init="random", round_every=1))
        monkeypatch.setattr(np, "exp", real_exp)
        assert f.calls == 10
        assert calls == {"sigmoid_project": 10, "ascend_blocks": 9, "project_blocks": 0, "decompose_blocks": 10,
                         "exp": 10, "decompose_with_tape": 10, "block_members": 0}


def nan_at_zero(value):
    """A set function that is value on sets holding 0 and their size
    elsewhere."""
    return CallableObjective(lambda s: value if 0 in s else float(len(s)))


class TestNonFiniteObjective:
    """An objective that is NaN or infinite at a vertex is refused before
    Adam moves theta by it, whichever family's reverse pass reads it."""

    SPECS = {"cardinality": Cardinality(6, 2), "partition": PartitionMatroid([(0, 1, 2), (3, 4, 5)], [1, 1]),
             "graphic": GraphicMatroid(Graph(4, ((0, 1), (1, 2), (2, 3), (0, 3), (0, 2)))),
             "stable set": FractionalStableSet(Graph(4, ((0, 1), (1, 2), (2, 3))))}

    @pytest.mark.parametrize("backend", available())
    @pytest.mark.parametrize("label", list(SPECS))
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("steps", [20, 0])
    def test_refused_with_its_own_message(self, monkeypatch, backend, label, value, steps):
        use(monkeypatch, backend)
        cfg = OptimizeConfig(steps=steps, init="random", seed=1)
        with pytest.raises(ValueError, match="^the objective returned a non-finite value") as caught:
            direct_optimize(nan_at_zero(value), self.SPECS[label], cfg)
        assert not isinstance(caught.value, MembershipError)


class TestOptimizeConfigRefusals:
    @pytest.mark.parametrize("field, value", [
        ("lr", math.inf), ("lr", math.nan), ("lr", 0.0), ("beta1", 1.0), ("beta1", 1.5), ("beta1", -0.1),
        ("beta1", math.nan), ("beta2", 1.0), ("beta2", -1.0), ("eps", -1.0), ("eps", 0.0), ("eps", math.inf),
        ("eps", math.nan), ("init_scale", math.inf), ("init_scale", math.nan), ("round_every", 0),
        ("round_every", -3), ("steps", -1),
    ])
    def test_refused_with_the_field_named(self, field, value):
        with pytest.raises(ValueError, match=f"^{field} must be"):
            OptimizeConfig(**{field: value})

    def test_edges_of_the_ranges_are_accepted(self):
        cfg = OptimizeConfig(beta1=0.0, beta2=0.0, eps=5e-324, init_scale=0.0, round_every=1, steps=0)
        res = direct_optimize(CutObjective(TRIANGLE), Cardinality(3, 1), cfg)
        assert res.objective == 2.0


class TestMultiScale:
    @pytest.mark.parametrize("factors, message", [((), "factors must not be empty"),
                                                  ((1.0, 0.0), r"factors must be in \(0, 1\]")])
    def test_bad_factors_are_refused(self, factors, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            ScaleSchedule(factors=factors)

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


class TestPoolOrder:
    """multi_scale_solve's pool lists each element of the integral rows'
    supports at its first appearance, in the order that the former
    np.unique(return_index=True) dedupe gave."""

    @staticmethod
    def by_unique(ids, dim):
        return ids[np.sort(np.unique(ids, return_index=True)[1])]

    def test_first_occurrences(self):
        rng = stream(17, "first-occurrences")
        for dim in (1, 5, 500):
            for size in (0, 1, 7, 20000):
                ids = rng.integers(0, dim, size)
                got = solvers._first_occurrences(ids, dim)
                assert got.dtype == np.int64 and got.tolist() == self.by_unique(ids, dim).tolist()
        assert solvers._first_occurrences(np.zeros(0, dtype=np.int64), 0).tolist() == []

    def test_repeated_empty_and_half_integral_rows(self, monkeypatch):
        c = FractionalStableSet(gen_er_graph(12, 0.3, seed=3, instance_id=0))
        rng = stream(19, "pool-order")
        f = LinearObjective(rng.random(c.dim))
        half_integral = 0
        for _ in range(6):
            x = 0.6 * random_point_in_polytope(c, rng)
            d = decompose(x, c)
            half_integral += int((~d.integral).sum())
            assert (np.diff(d.vertex_rows[0]) == 0).any()  # the empty set is a row
            sched = ScaleSchedule(factors=(1.0, 0.5), repeats=2, jitter=0.05, max_iterations=200)
            got = multi_scale_solve(x, sched, f, c)
            with monkeypatch.context() as m:
                m.setattr(solvers, "_first_occurrences", self.by_unique)
                want = multi_scale_solve(x, sched, f, c)
            assert got[1] == want[1] and got[0].best == want[0].best
        assert half_integral > 0


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

    def test_refuses_better_cross_block_swap(self):
        # Swapping 0 out for 4 (value 14) beats the best in-block swap,
        # 3 -> 4 (value 9), but leaves block 0 empty.
        spec = PartitionMatroid([(0, 1, 2), (3, 4, 5)], [1, 1])
        w = np.array([0.0, 0.0, 0.0, 5.0, 9.0, 0.0])
        v, val = local_improve(
            VertexSet.integral([0, 3], 6), range(6), LinearObjective(w), spec
        )
        assert v.indices == (0, 4) and val == pytest.approx(9.0)
        assert spec.vertex_feasible(v)

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


class TestBatchedLocalImprove:
    """Batched sweeps pick the same swaps, ties included, as the loop."""

    @staticmethod
    def unit_coverage(rng, n_sets, n_elements):
        sets = tuple(
            tuple(sorted(set(rng.integers(0, n_elements, int(rng.integers(1, 6))).tolist())))
            for _ in range(n_sets)
        )
        return CoverageObjective(CoverageInstance(n_sets, n_elements, (1.0,) * n_elements, sets))

    def assert_same(self, start, pool, f, c, max_iter=10):
        got = local_improve(start, pool, f, c, max_iter)
        want = reference_local_improve(start, pool, f, c, max_iter)
        assert got[0] == want[0] and got[1] == want[1]
        return got

    def test_unit_weight_ties(self):
        rng = stream(37, "batched-li")
        moved = 0
        for trial in range(25):
            f = self.unit_coverage(rng, 30, 25)
            c = Cardinality(30, 5)
            start = VertexSet.integral(rng.choice(30, 5, replace=False).tolist(), 30)
            pool = rng.permutation(30)[: int(rng.integers(5, 31))].tolist()
            v, _ = self.assert_same(start, pool, f, c, max_iter=int(rng.integers(1, 11)))
            moved += v != start
            g = gen_er_graph(12, 0.4, seed=trial)
            self.assert_same(VertexSet.integral(range(4), 12), list(range(12))[::-1], CutObjective(g),
                             Cardinality(12, 4))
        assert moved > 0

    def test_partition_cross_block_candidates(self):
        rng = stream(41, "batched-li-partition")
        spec = PartitionMatroid([range(0, 8), range(8, 14), range(14, 24)], [2, 1, 3])
        for _ in range(20):
            f = self.unit_coverage(rng, 24, 20)
            start = VertexSet.integral(
                [i for idx, k in zip(spec.block_indices, spec.budgets) for i in rng.choice(idx, k, replace=False)], 24
            )
            v, _ = self.assert_same(start, rng.permutation(24).tolist(), f, spec)
            assert spec.vertex_feasible(v)

    def test_graphic_ties(self):
        rng = stream(43, "batched-li-graphic")
        g = gen_er_graph(7, 0.6, seed=4)
        c = GraphicMatroid(g)
        for _ in range(10):
            f = LinearObjective(rng.integers(0, 3, g.m).astype(float))
            start = c.sample_feasible(rng)
            self.assert_same(VertexSet.integral(start, g.m), rng.permutation(g.m).tolist(), f, c)

    def test_stable_set_and_graphic_instances(self):
        """The stable-set mask over the edge arrays and the per-member
        forests give the swaps of the per-pair edge scans."""
        rng = stream(47, "batched-li-graph-families")
        for trial in range(12):
            g = gen_er_graph(14, 0.25, seed=trial)
            c = FractionalStableSet(g)
            f = CutObjective(g) if trial % 2 else LinearObjective(rng.integers(0, 4, 14).astype(float))
            start = c.sample_feasible(rng)
            v, _ = self.assert_same(VertexSet.integral(start, 14), rng.permutation(14).tolist(), f, c)
            assert c.vertex_feasible(v)
            g = gen_er_graph(8, 0.5, seed=trial)
            if g.m and g.n_components() == 1:
                c = GraphicMatroid(g)
                start = c.sample_feasible(rng)
                v, _ = self.assert_same(VertexSet.integral(start, g.m), rng.permutation(g.m).tolist(),
                                        LinearObjective(rng.random(g.m)), c)
                assert c.vertex_feasible(v)


    def test_tiny_random500_pipeline(self):
        """Random500's last stage at 60 sets: the start and the pool of
        direct ascent and multi-scale rounding."""
        moved = 0
        for i in range(4):
            f = CoverageObjective(gen_random_uniform(60, 120, seed=42, instance_id=i))
            c = Cardinality(60, 4)
            res = direct_optimize(f, c, OptimizeConfig(steps=10, lr=0.015, seed=i, init="random"))
            ms, pool = multi_scale_solve(res.final_point, ScaleSchedule(max_iterations=200, seed=i), f, c)
            start = ms.best if ms.objective > res.objective else res.best
            v, _ = self.assert_same(start, pool, f, c)
            moved += v != start
        assert moved > 0

    def test_weighted_cut(self):
        rng = stream(59, "batched-li-weighted-cut")
        for trial in range(10):
            g = gen_er_graph(16, 0.35, seed=trial)
            g = Graph(g.n_nodes, g.edges, tuple(float(w) for w in rng.integers(2, 12, g.m)))
            start = VertexSet.integral(rng.choice(16, 5, replace=False).tolist(), 16)
            self.assert_same(start, rng.permutation(16).tolist(), CutObjective(g), Cardinality(16, 5))

    def test_large_float_weights(self):
        """Float weights with totals near 1e5, where one ulp exceeds the
        1e-12 margin: a swap whose gain rounds above zero must not win,
        and every set appears twice, so many swaps change nothing."""
        rng = stream(61, "batched-li-large-floats")
        for trial in range(30):
            sets = [tuple(sorted(set(rng.integers(0, 80, int(rng.integers(1, 8))).tolist()))) for _ in range(20)]
            inst = CoverageInstance(40, 80, tuple((rng.random(80) * 3e3).tolist()), tuple(sets + sets))
            start = VertexSet.integral(rng.choice(40, 6, replace=False).tolist(), 40)
            self.assert_same(start, rng.permutation(40).tolist(), CoverageObjective(inst), Cardinality(40, 6))
            g = gen_er_graph(16, 0.35, seed=trial)
            g = Graph(g.n_nodes, g.edges, tuple((rng.random(g.m) * 1e4).tolist()))
            start = VertexSet.integral(rng.choice(16, 5, replace=False).tolist(), 16)
            self.assert_same(start, rng.permutation(16).tolist(), CutObjective(g), Cardinality(16, 5))


class TestLocalImproveRefusals:
    @pytest.mark.parametrize("start, pool, max_iter", [
        (VertexSet.half_integral([0.5, 0.5, 0.0]), [2], 10),
        (VertexSet.integral([0], 3), [1, 3], 10),
        (VertexSet.integral([0], 3), [2, 1, 7], 10),
        (VertexSet.integral([0], 3), [-1], 10),  # a numpy gather would read id 2
        (VertexSet.integral([0], 3), [1, 2], -1),
    ])
    def test_refused_before_scoring(self, start, pool, max_iter):
        f = CallableObjective(lambda s: pytest.fail("scored"))
        with pytest.raises(ValueError, match="local search needs"):
            local_improve(start, pool, f, Cardinality(3, 1), max_iter)

    def test_zero_max_iter_keeps_the_start(self):
        f, c = CutObjective(TRIANGLE), Cardinality(3, 1)
        v, val = local_improve(VertexSet.integral([0], 3), [1, 2], f, c, max_iter=0)
        assert v.indices == (0,) and val == 2.0


class TestCardinalityAsOneBlock:
    def test_pipeline_matches_one_block_partition(self):
        inst = gen_random_uniform(24, 60, degree_range=(3, 9), seed=5)
        f = CoverageObjective(inst)
        results = []
        for c in (Cardinality(24, 5), PartitionMatroid([range(24)], [5])):
            res = direct_optimize(f, c, OptimizeConfig(steps=25, seed=2, init="random"))
            sched = ScaleSchedule(factors=(1.0, 0.5, 0.1), max_iterations=300, seed=2)
            ms, pool = multi_scale_solve(res.final_point, sched, f, c)
            v, val = local_improve(ms.best, pool, f, c)
            results.append((res.best.indices, res.objective, ms.best.indices, ms.objective,
                            pool, v.indices, val))
        assert results[0] == results[1]


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
            assert c.vertex_feasible(res.best)

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
