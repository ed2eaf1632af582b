"""Extension evaluation, rounding, tape gradients, finite differences."""

import numpy as np
import pytest
from gradient_checks import finite_diff_gradient, project_to_tangent, tie_margin

from caradec.core import (
    Cardinality,
    Decomposition,
    FractionalStableSet,
    GraphicMatroid,
    PartitionMatroid,
    VertexSet,
)
from caradec.extension import (
    CallableObjective,
    LinearObjective,
    backprop_extension,
    best_set,
    decompose,
    decompose_with_tape,
    evaluate_extension,
    vertex_values,
)
from caradec.fstab import project_to_fstab
from caradec.generators import gen_er_graph
from caradec.graphs import Graph
from caradec.hypersimplex import project_to_hypersimplex, project_to_partition_polytope
from caradec.matroids import spanning_tree_marginals
from caradec.objectives import brute_force_optimum
from caradec.rng import stream


def quadratic_objective(rng, n, bonus=0.25):
    w = rng.random(n)

    def fn(S):
        val = float(sum(w[i] for i in S))
        val += bonus * sum(1 for i in S for j in S if i < j)
        return val

    return CallableObjective(fn)


def test_sums_add_in_pair_order():
    """F and the mass add term by term from 0.0, as the C kernels add.  On
    [1e16, 1.0, -1e16] that gives 0.0: sum() compensates float sums from
    Python 3.12 on and would give 1.0."""
    v = VertexSet.integral([0], 2)
    d = Decomposition(((0.5, v), (0.25, v), (0.25, v)))
    assert evaluate_extension(d, None, [2e16, 4.0, -4e16]) == 0.0
    assert Decomposition(((1e16, v), (1.0, v), (-1e16, v))).probability_sum() == 0.0
    assert Decomposition().probability_sum() == 0.0


def test_half_integral_rows_score_as_vertex_sets():
    """vertex_values scores the half-integral rows in one batch: the linear
    objective by the same dot product per row, any other through
    half_integral_value of a VertexSet per row, with the bytes of a loop over
    d.vertex(t)."""
    rng = stream(31, "half-rows")
    seen = 0
    for size in (8, 30, 60):
        g = gen_er_graph(size, 0.3, seed=1, instance_id=size)
        d = decompose(project_to_fstab(rng.random(size), g, 0.0), FractionalStableSet(g))
        w = rng.random(size)
        for f in (LinearObjective(w), CallableObjective(lambda S: float(len(S)), lambda v: float(sum(v.halves))),
                  CallableObjective(lambda S: 1.0)):
            want = [f(d.vertex(t)) for t in range(d.iterations)]
            assert np.array(want).tobytes() == vertex_values(d, f).tobytes()
        seen += int((~d.integral).sum())
    assert seen > 20


def random_point(rng, c):
    if isinstance(c, Cardinality):
        return project_to_hypersimplex(rng.random(c.n), c.k)
    if isinstance(c, PartitionMatroid):
        return project_to_partition_polytope(rng.random(c.n), c)
    if isinstance(c, GraphicMatroid):
        return spanning_tree_marginals(c.graph, 0.2 + rng.random(c.graph.m))
    return project_to_fstab(rng.random(c.graph.n_nodes), c.graph, 0.0)


def generic_point(rng, c, min_margin):
    for _ in range(500):
        x = random_point(rng, c)
        if tie_margin(x, c) > min_margin:
            return x
    raise RuntimeError("no generic point found")


FAMILIES = {
    "cardinality": lambda: Cardinality(7, 3),
    "partition": lambda: PartitionMatroid([(0, 1, 2), (3, 4, 5, 6)], [1, 2]),
    "graphic": lambda: GraphicMatroid(
        Graph(4, ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)))
    ),
    "fstab": lambda: FractionalStableSet(
        Graph(6, ((0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 5), (1, 4)))
    ),
}


class TestTapeBasics:
    def test_spec_example_three_steps(self):
        d, tape = decompose_with_tape(np.array([0.5, 0.3, 0.2]), Cardinality(3, 1))
        assert len(tape.a) == 3
        # step 0 binds min-in-set at index 0: functional +x_0
        indptr, indices, data = tape.functional_rows
        assert indices[indptr[0]:indptr[1]].tolist() == [0]
        assert data[indptr[0]:indptr[1]].tolist() == [1.0]

    def test_vertex_single_step(self):
        d, tape = decompose_with_tape(np.array([0.0, 1.0, 0.0]), Cardinality(3, 1))
        assert len(tape.a) == 1
        assert tape.a[0] == pytest.approx(1.0)
        assert tape.terminal

    def test_replay_matches(self):
        """p_t = a_t * prod_{i<t}(1 - a_i), with all the mass left on a
        terminal last step."""
        rng = stream(2, "replay")
        for name, mk in FAMILIES.items():
            c = mk()
            x = random_point(rng, c)
            _, tape = decompose_with_tape(x, c)
            replay, mass = np.empty_like(tape.a), 1.0
            for t, at in enumerate(tape.a):
                if tape.terminal and t == len(tape.a) - 1:
                    at = 1.0
                replay[t] = at * mass
                mass *= 1.0 - at
            assert np.allclose(replay, tape.d.p, atol=1e-12), name


class TestEvaluateAndRounding:
    def test_weighted_sum_example(self):
        pairs = (
            (0.5, VertexSet.integral([0], 3)),
            (0.3, VertexSet.integral([1], 3)),
            (0.2, VertexSet.integral([2], 3)),
        )
        from caradec.core import Decomposition

        d = Decomposition(pairs)
        f = CallableObjective(lambda S: float(len(S & {0})))
        assert evaluate_extension(d, f) == pytest.approx(0.5)
        v, val = best_set(d, f)
        assert v.indices == (0,) and val == pytest.approx(1.0)
        assert val >= evaluate_extension(d, f)

    def test_single_pair(self):
        from caradec.core import Decomposition

        d = Decomposition(((1.0, VertexSet.integral([1, 2], 4)),))
        f = CallableObjective(lambda S: float(sum(S)))
        assert evaluate_extension(d, f) == pytest.approx(3.0)
        assert best_set(d, f)[0].indices == (1, 2)

    def test_forest_rounding_example(self):
        g = Graph(3, ((0, 1), (0, 2), (1, 2)))
        d = decompose(np.array([2 / 3, 2 / 3, 2 / 3]), GraphicMatroid(g))
        w = np.array([3.0, 2.0, 1.0])
        f = LinearObjective(w)
        v, val = best_set(d, f)
        assert v.indices == (0, 1) and val == pytest.approx(5.0)

    def test_rounding_bound_random(self):
        rng = stream(5, "round-bound")
        for name, mk in FAMILIES.items():
            c = mk()
            for _ in range(250):
                x = random_point(rng, c)
                d = decompose(x, c)
                w = rng.random(c.dim)
                f = CallableObjective(lambda S, w=w: float(sum(w[i] for i in S)))
                F = evaluate_extension(d, f)
                _, val = best_set(d, f)
                assert val >= F - 1e-9, name

    def test_half_integral_only_error(self):
        from caradec.core import Decomposition

        d = Decomposition(((1.0, VertexSet.half_integral([0.5, 0.5, 0.5])),))
        with pytest.raises(ValueError):
            best_set(d, CallableObjective(lambda S: 1.0))


class TestLinearExactness:
    def test_value_and_gradient_per_family(self):
        rng = stream(7, "linear")
        for name, mk in FAMILIES.items():
            c = mk()
            for _ in range(40):
                x = generic_point(rng, c, 1e-8)
                w = np.abs(rng.standard_normal(c.dim))
                f = LinearObjective(w)
                d, tape = decompose_with_tape(x, c)
                assert abs(evaluate_extension(d, f) - w @ x) < 1e-9, name
                g = backprop_extension(tape, f)
                gp = project_to_tangent(g, c)
                wp = project_to_tangent(w, c)
                assert np.max(np.abs(gp - wp)) < 1e-9, name


class TestGradientAgreement:
    def test_fd_vs_backprop(self):
        rng = stream(11, "fd")
        h = 1e-6
        for name, mk in FAMILIES.items():
            passed = tested = 0
            while tested < 25:
                c = mk()
                x = generic_point(rng, c, 10 * h)
                f = quadratic_objective(rng, c.dim)
                _, tape = decompose_with_tape(x, c)
                g = project_to_tangent(backprop_extension(tape, f), c)
                fd, reliable = finite_diff_gradient(x, c, f, h)
                if not reliable.all():
                    continue
                tested += 1
                scale = max(1.0, float(np.max(np.abs(g))))
                if np.max(np.abs(g - fd)) / scale < 1e-4:
                    passed += 1
            assert passed == tested, (name, passed, tested)

    def test_tie_point_flagged(self):
        c = Cardinality(4, 2)
        x = np.array([0.5, 0.5, 0.5, 0.5])
        f = quadratic_objective(stream(13, "tie"), 4)
        _, reliable = finite_diff_gradient(x, c, f, 1e-6)
        assert not reliable.all()

    def test_halving_h_stays_accurate(self):
        rng = stream(17, "hhalf")
        c = Cardinality(6, 2)
        x = generic_point(rng, c, 1e-4)
        f = quadratic_objective(rng, 6)
        _, tape = decompose_with_tape(x, c)
        g = project_to_tangent(backprop_extension(tape, f), c)
        for h in (1e-6, 5e-7):
            fd, _ = finite_diff_gradient(x, c, f, h)
            assert np.max(np.abs(g - fd)) < 1e-6


class TestExtremePointPreservation:
    def test_max_of_extension_bounded_by_discrete_max(self):
        rng = stream(19, "extreme")
        for n, k in ((5, 2), (6, 3)):
            c = Cardinality(n, k)
            f = quadratic_objective(rng, n, bonus=0.4)
            _, fstar = brute_force_optimum(f, c)
            worst = -np.inf
            for _ in range(50_000):
                x = random_point(rng, c)
                F = evaluate_extension(decompose(x, c), f)
                worst = max(worst, F)
                assert F <= fstar + 1e-9
            # equality attained at the optimal vertex itself
            vstar, _ = brute_force_optimum(f, c)
            xv = vstar.to_vector()
            F = evaluate_extension(decompose(xv, c), f)
            assert F == pytest.approx(fstar, abs=1e-9)


class TestRescaledTapeGradients:
    def test_single_step_scale_factor_exact(self):
        # one rescaled step: F = (b * a_exact) * f(S0) with a_exact = x[i*],
        # so dF/dx = b * f0 * e_{i*} exactly
        from caradec.core import DecompositionConfig

        x = np.array([0.5, 0.3, 0.2])
        cfg = DecompositionConfig(scale=0.5, tolerance=1e-12, max_iterations=1)
        _, tape = decompose_with_tape(x, Cardinality(3, 1), cfg)
        assert len(tape.a) == 1 and tape.a[0] == pytest.approx(0.25)
        f = CallableObjective(lambda S: 2.0 if S == frozenset({0}) else 0.0)
        g = backprop_extension(tape, f)
        assert np.allclose(g, [0.5 * 2.0, 0.0, 0.0])

    def test_rescaled_fd_agreement(self):
        # a T-step rescaled run amplifies input perturbations by ~1/mass,
        # so the linear piece around x has diameter on the order of the
        # final residual mass; h must sit well inside it
        from caradec.core import DecompositionConfig

        rng = stream(29, "rescaled-grad")
        cfg = DecompositionConfig(scale=0.6, floor=0.0, tolerance=1e-7,
                                  max_iterations=2000)
        h = 1e-9
        passed = tested = 0
        while tested < 25:
            n = int(rng.integers(4, 7))
            k = int(rng.integers(1, n))
            c = Cardinality(n, k)
            x = generic_point(rng, c, 1e-4)
            f = quadratic_objective(rng, n)
            _, tape = decompose_with_tape(x, c, cfg)
            g = project_to_tangent(backprop_extension(tape, f), c)

            def F(vec):
                d = decompose(vec, c, cfg)
                return evaluate_extension(d, f)

            fd = np.zeros(n)
            ref = n - 1
            for i in range(n - 1):
                up, dn = x.copy(), x.copy()
                up[i] += h
                up[ref] -= h
                dn[i] -= h
                dn[ref] += h
                fd[i] = (F(up) - F(dn)) / (2 * h)
            fd -= fd.mean()
            tested += 1
            scale = max(1.0, float(np.max(np.abs(g))))
            if np.max(np.abs(g - fd)) / scale < 1e-4:
                passed += 1
        assert passed >= 0.8 * tested, (passed, tested)
