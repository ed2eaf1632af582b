"""Fractional stable set polytope: projection, the min-cut vertex oracle
against brute-force enumeration, and the decomposition loop."""

import numpy as np
import pytest
from reference_loops import reference_iterates

from caradec.core import FractionalStableSet, validate_decomposition
from caradec.fstab import (
    decompose_fstab,
    fstab_step_coefficient,
    fstab_vertex,
    fstab_vertex_enumerate,
    project_to_fstab,
    project_to_fstab_trace,
)
from caradec.graphs import Graph
from caradec.rng import stream

EDGE = Graph(2, ((0, 1),))
TRIANGLE = Graph(3, ((0, 1), (0, 2), (1, 2)))


def random_graph(rng, n, p=0.4):
    edges = tuple(
        (u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p
    )
    return Graph(n, edges)


class TestProjection:
    def test_single_edge_violation(self):
        p = project_to_fstab(np.array([0.8, 0.8]), EDGE, 0.0)
        assert np.allclose(p.values, [0.5, 0.5])

    def test_feasible_unchanged(self):
        p = project_to_fstab(np.array([0.1, 0.05]), EDGE, 0.0)
        assert np.allclose(p.values, [0.1, 0.05])

    def test_always_feasible_after_one_step(self):
        rng = stream(3, "fstab-proj")
        for _ in range(200):
            n = int(rng.integers(2, 51))
            g = random_graph(rng, n, 0.15)
            slack = float(rng.choice([0.0, 0.05]))
            x = project_to_fstab(2 * rng.random(n) - 0.5, g, slack).values
            assert x.min() >= 0.0
            for u, v in g.edges:
                assert x[u] + x[v] + slack <= 1.0 + 1e-12

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_non_finite_rejected(self, bad):
        g = Graph(3, ((0, 1),))
        with pytest.raises(ValueError, match="finite"):
            project_to_fstab(np.array([bad, 0.2, 0.3]), g)
        with pytest.raises(ValueError, match="finite"):
            project_to_fstab_trace(np.array([0.2, 0.3, bad]), g)

    def test_finite_out_of_box_clipped(self):
        p = project_to_fstab(np.array([1.7, -0.4, 0.3]), Graph(3, ((1, 2),)))
        assert p.values.tolist() == [1.0, 0.0, 0.3]


class TestVertexOracle:
    def test_interior_prefers_heavy_endpoint(self):
        v = fstab_vertex(np.array([0.6, 0.2]), EDGE)
        assert v.to_vector().tolist() == [1.0, 0.0]

    def test_tied_edge_resolves_lexicographically(self):
        # (1/2,1/2) is not a vertex of single-edge FSTAB; the lexicographic
        # limit of the perturbed program picks (1,0).
        v = fstab_vertex(np.array([0.5, 0.5]), EDGE)
        assert v.to_vector().tolist() == [1.0, 0.0]

    def test_empty_graph_all_ones(self):
        g = Graph(3, ())
        v = fstab_vertex(np.array([0.2, 0.7, 0.4]), g)
        assert v.indices == (0, 1, 2)

    def test_triangle_half_vertex(self):
        v = fstab_vertex(np.full(3, 0.5), TRIANGLE)
        assert not v.is_integral
        assert v.to_vector().tolist() == [0.5, 0.5, 0.5]

    def test_agrees_with_enumeration(self):
        rng = stream(7, "fstab-agree")
        for _ in range(300):
            n = int(rng.integers(2, 9))
            g = random_graph(rng, n)
            x = project_to_fstab(rng.random(n), g, 0.0).values
            a = fstab_vertex(x, g).to_vector()
            b = fstab_vertex_enumerate(x, g).to_vector()
            assert np.allclose(a, b), (x, g.edges, a, b)


class TestStepCoefficient:
    def test_example_one(self):
        from caradec.core import VertexSet

        a, rec = fstab_step_coefficient(
            np.array([0.6, 0.2]), VertexSet.integral([0], 2), EDGE
        )
        assert a == pytest.approx(0.6)
        assert rec.kind == "lower" and rec.indices == (0,)

    def test_example_two(self):
        from caradec.core import VertexSet

        a, rec = fstab_step_coefficient(
            np.array([0.0, 0.5]), VertexSet.integral([1], 2), EDGE
        )
        assert a == pytest.approx(0.5)
        assert rec.kind == "lower" and rec.indices == (1,)

    def test_x_equals_vertex_raises(self):
        from caradec.core import VertexSet

        g = Graph(1, ())
        with pytest.raises(ValueError):
            # the only constraints on a single node are 0 <= x <= 1; at
            # v = x = 1 no constraint has a positive denominator gap... use
            # the degenerate all-tight construction
            fstab_step_coefficient(np.array([]), VertexSet.integral([], 0), Graph(0, ()))


class TestDecomposition:
    def test_hand_trace(self):
        d = decompose_fstab(np.array([0.6, 0.2]), EDGE)
        got = [(p, v.to_vector().tolist()) for p, v in d.pairs]
        assert got[0] == (pytest.approx(0.6), [1.0, 0.0])
        assert got[1] == (pytest.approx(0.2), [0.0, 1.0])
        assert got[2] == (pytest.approx(0.2), [0.0, 0.0])

    def test_independent_set_indicator(self):
        g = Graph(4, ((0, 1), (1, 2), (2, 3)))
        d = decompose_fstab(np.array([1.0, 0.0, 1.0, 0.0]), g)
        assert len(d.pairs) == 1 and d.pairs[0][1].indices == (0, 2)

    def test_tied_edge_two_pairs(self):
        d = decompose_fstab(np.array([0.5, 0.5]), EDGE)
        got = [(p, v.to_vector().tolist()) for p, v in d.pairs]
        assert got == [
            (pytest.approx(0.5), [1.0, 0.0]),
            (pytest.approx(0.5), [0.0, 1.0]),
        ]

    def test_triangle_half_point_is_vertex(self):
        d = decompose_fstab(np.full(3, 0.5), TRIANGLE)
        assert len(d.pairs) == 1
        assert d.pairs[0][0] == pytest.approx(1.0)
        assert d.pairs[0][1].to_vector().tolist() == [0.5, 0.5, 0.5]

    def test_random_graphs_full_battery(self):
        rng = stream(11, "fstab-dec")
        for _ in range(150):
            n = int(rng.integers(2, 13))
            g = random_graph(rng, n, 0.35)
            c = FractionalStableSet(g)
            x = project_to_fstab(rng.random(n), g, 0.0)
            d = decompose_fstab(x, g)
            rep = validate_decomposition(d, c, x)
            assert rep.ok(1e-9), (g.edges, x.values, rep)
            assert d.iterations <= n + 1
            for _, v in d.pairs:
                if v.is_integral:
                    assert g.is_independent_set(v.indices)

    def test_tightened_edges_persist(self):
        rng = stream(13, "persist")
        for _ in range(60):
            n = int(rng.integers(3, 10))
            g = random_graph(rng, n)
            x = project_to_fstab(rng.random(n), g, 0.0)
            _, _, x_next = reference_iterates(x, FractionalStableSet(g))
            tight_prev: set = set()
            for xn in x_next:
                tight_now = {
                    (u, v) for u, v in g.edges if xn[u] + xn[v] >= 1.0 - 1e-7
                }
                assert tight_prev <= tight_now
                tight_prev = tight_now

    def test_rounding_with_zero_half_policy(self):
        from caradec.extension import CallableObjective, best_set, evaluate_extension

        rng = stream(17, "round")
        for _ in range(100):
            n = int(rng.integers(2, 10))
            g = random_graph(rng, n)
            x = project_to_fstab(rng.random(n), g, 0.0)
            d = decompose_fstab(x, g)
            w = rng.random(n)
            f = CallableObjective(lambda S, w=w: float(sum(w[i] for i in S)))
            F = evaluate_extension(d, f)
            try:
                _, val = best_set(d, f)
            except ValueError:
                continue
            assert val >= F - 1e-9
