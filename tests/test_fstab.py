"""Fractional stable set polytope: projection, the min-cut vertex oracle
against brute-force enumeration and against the former oracle of one LP
re-solve per coordinate, its one max-flow per step, the array forms of the
per-edge loops, the decomposition loop, and the C kernel that runs a whole
decomposition against its pure twin."""

import numpy as np
import pytest
from kernel_backends import BACKENDS, HAVE_CC, flat, implementation, peel_args, twins_agree, use
from reference_loops import (
    _lp_value,
    assert_bytes,
    fstab_vertex_enumerate,
    reference_augmented_weights,
    reference_finishing_pass,
    reference_fstab_step_coefficient,
    reference_fstab_vertex,
    reference_iterates,
    reference_project_to_fstab_trace,
)

from caradec import fstab
from caradec.core import (
    EXACT,
    Cardinality,
    DecompositionConfig,
    DimensionError,
    FractionalStableSet,
    MembershipError,
    validate_decomposition,
)
from caradec.fstab import (
    Dinic,
    _augmented_weights,
    check_fstab_membership,
    decompose_fstab,
    finishing_pass,
    fstab_step_coefficient,
    fstab_vertex,
    project_to_fstab,
    project_to_fstab_trace,
)
from caradec.generators import gen_er_graph
from caradec.graphs import Graph
from caradec.hypersimplex import decompose_hypersimplex
from caradec.kernels import _compiled
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
        assert np.allclose(p, [0.5, 0.5])

    def test_feasible_unchanged(self):
        p = project_to_fstab(np.array([0.1, 0.05]), EDGE, 0.0)
        assert np.allclose(p, [0.1, 0.05])

    def test_always_feasible_after_one_step(self):
        rng = stream(3, "fstab-proj")
        for _ in range(200):
            n = int(rng.integers(2, 51))
            g = random_graph(rng, n, 0.15)
            slack = float(rng.choice([0.0, 0.05]))
            x = project_to_fstab(2 * rng.random(n) - 0.5, g, slack)
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
        assert p.tolist() == [1.0, 0.0, 0.3]

    @pytest.mark.parametrize("shape", [(2,), (4,), (3, 1), ()])
    def test_family_projection_refuses_a_wrong_shape(self, shape):
        with pytest.raises(DimensionError):
            FractionalStableSet(Graph(3, ((0, 1),))).project(np.full(shape, 0.2))

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_family_projection_refuses_non_finite_input(self, bad):
        with pytest.raises(ValueError, match="finite"):
            FractionalStableSet(Graph(3, ((0, 1),))).project(np.array([0.2, bad, 0.3]))


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

    def test_exact_optimum_beats_a_near_tie(self):
        # (0, 1, 1) weighs 1e-8 more than (1, 0, 0): the lexicographically
        # larger vertex is within 1e-9 |best| (1.65e-8) of the optimum, but
        # only exactly optimal vertices compete.
        v = fstab_vertex(np.array([0.5, 0.5, 1e-8]), Graph(3, ((0, 1), (0, 2))))
        assert v.to_vector().tolist() == [0.0, 1.0, 1.0]

    def test_optimal_where_float_residuals_break_the_cover_symmetry(self):
        # x_4 - x_3 = 2e-12 puts residual capacities at _purepy.FLOW_EPS: no
        # minimum cut meets y_0's patterns 1, 1/2 or 0, only (0_L, 0_R both
        # out).
        x = np.array([0.7, 0.3, 0.5, 0.25, 0.250000000002, 0.25, 0.25, 1 / 3, 0.3, 0.3])
        g = Graph(10, ((0, 1), (0, 5), (0, 6), (0, 8), (0, 9), (1, 9), (2, 7), (2, 9), (3, 4), (4, 7)))
        y = fstab_vertex(x, g).to_vector()
        c, _, live = _augmented_weights(x, g)
        best = _lp_value(c, np.ones(10), [g.edges[e] for e in np.flatnonzero(live)])
        assert y.tolist() == [0.5] * 10
        assert abs(float(c @ y) - best) <= 1e-9 * best

    def test_agrees_with_enumeration(self):
        rng = stream(7, "fstab-agree")
        for _ in range(300):
            n = int(rng.integers(2, 9))
            g = random_graph(rng, n)
            x = project_to_fstab(rng.random(n), g, 0.0)
            a = fstab_vertex(x, g).to_vector()
            b = fstab_vertex_enumerate(x, g).to_vector()
            assert np.allclose(a, b), (x, g.edges, a, b)


def er_point(rng, n, p):
    g = random_graph(rng, n, p)
    return g, project_to_fstab(rng.random(n), g, 0.0)


def oracle_cases():
    """(name, graph, point): random ER graphs with n in [10, 60], points on
    the quarter grid (exact ties, tight and zero coordinates), and the
    degenerate cases."""
    rng = stream(19, "fstab-oracle-parity")
    for i in range(10):
        yield f"er-{i}", *er_point(rng, int(rng.integers(10, 61)), float(rng.uniform(0.05, 0.3)))
    for i in range(10):
        g, x = er_point(rng, int(rng.integers(10, 31)), float(rng.uniform(0.1, 0.4)))
        yield f"quarter-{i}", g, np.floor(4.0 * x) / 4.0
    g = Graph(6, ((0, 1), (1, 2), (2, 3), (3, 4)))
    yield "isolated-node", g, project_to_fstab(rng.random(6), g, 0.0)
    yield "empty-graph", Graph(5, ()), rng.random(5)
    yield "all-zero", random_graph(rng, 8), np.zeros(8)


def run_kernel(backend, x, g, cfg=EXACT):
    """A backend's raw decomposition of x, as FractionalStableSet calls it."""
    return implementation(backend).decompose_fstab(*peel_args(x, g, g.n_nodes, cfg))


def assert_backends_agree(x, g, cfg=EXACT):
    """The C kernel's whole decomposition equals the pure twin's byte for
    byte: p, q, a, the vertex and functional rows, wx, the clipped point,
    the residual and the terminal flag."""
    assert len(twins_agree("decompose_fstab", *peel_args(x, g, g.n_nodes, cfg))) == 13


class TestOneMaxFlowOracle:
    """The residual-closure oracle against the former oracle, which re-solved
    the LP per coordinate and value within 1e-9 |best|.  The pure twin of
    the decomposition kernel calls the oracle once per step; the C kernel
    must give its bytes."""

    @pytest.mark.parametrize("name, g, x", [pytest.param(*case, id=case[0]) for case in oracle_cases()])
    def test_every_step_matches_the_reference(self, monkeypatch, name, g, x):
        steps = []

        def checked(xt, gt):
            got = fstab_vertex(xt, gt)
            assert_bytes(got.to_vector(), reference_fstab_vertex(xt, gt).to_vector(),
                         f"{name} step {len(steps)}")
            steps.append(got)
            return got

        use(monkeypatch, "pure")
        monkeypatch.setattr(fstab, "fstab_vertex", checked)
        d = decompose_fstab(x, g)
        assert len(steps) == d.iterations > 0
        # So the C kernel's every step matches the reference too.
        monkeypatch.undo()
        assert_backends_agree(x, g)

    def test_one_max_flow_per_step(self, monkeypatch):
        g = gen_er_graph(120, 0.15, seed=0, instance_id=120)
        x = project_to_fstab(0.2 + 0.8 * stream(0, "fstab-flows").random(120), g, 0.0)
        calls = []
        max_flow = Dinic.max_flow

        def counted(net, rs, rt, r):
            calls.append(len(rs))
            return max_flow(net, rs, rt, r)

        use(monkeypatch, "pure")
        monkeypatch.setattr(Dinic, "max_flow", counted)
        d = decompose_fstab(x, g)
        assert d.iterations > 50
        assert len(calls) == d.iterations
        monkeypatch.undo()
        assert_backends_agree(x, g)


RESCALED = (
    DecompositionConfig(scale=0.5),
    DecompositionConfig(scale=0.8, floor=0.1),
    DecompositionConfig(scale=0.9, tolerance=1e-3),
    DecompositionConfig(scale=0.6, floor=0.02, tolerance=1e-6, max_iterations=7),
    DecompositionConfig(max_iterations=3),
    DecompositionConfig(max_iterations=0),
)


class TestWholePeelKernel:
    """``kernels.decompose_fstab``: one C call per decomposition, byte for
    byte the pure twin, which is core.peel over the oracle."""

    @pytest.mark.parametrize("cfg", RESCALED, ids=lambda c: f"s{c.scale}-f{c.floor}-t{c.tolerance}-m{c.max_iterations}")
    def test_rescaled_configs(self, cfg):
        for name, g, x in oracle_cases():
            assert_backends_agree(x, g, cfg)

    @pytest.mark.skipif(not HAVE_CC, reason="no C compiler")
    def test_a_run_over_several_calls_equals_one_call(self, monkeypatch):
        g = gen_er_graph(40, 0.15, seed=0, instance_id=40)
        x = project_to_fstab(0.2 + 0.8 * stream(0, "fstab-calls").random(40), g, 0.0)
        for cfg in (EXACT, DecompositionConfig(scale=0.7, tolerance=1e-4)):
            whole = run_kernel("compiled", x, g, cfg)
            assert len(whole[0]) > 8
            # Room for three steps per call.
            monkeypatch.setattr(_compiled, "FSTAB_CALL_WORDS", 3 * 40)
            assert_backends_agree(x, g, cfg)
            for a, b in zip(flat(run_kernel("compiled", x, g, cfg)), flat(whole)):
                assert np.asarray(a).tobytes() == np.asarray(b).tobytes()
            monkeypatch.undo()

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_refusals(self, monkeypatch, backend):
        use(monkeypatch, backend)
        c = FractionalStableSet(TRIANGLE)
        for shape in [(2,), (4,), (3, 1), ()]:
            with pytest.raises(DimensionError):
                c.decompose(np.full(shape, 0.2), EXACT)
        for bad in (np.nan, np.inf, -np.inf):
            with pytest.raises(MembershipError, match="non-finite"):
                c.decompose(np.array([0.2, bad, 0.3]), EXACT)
        with pytest.raises(MembershipError, match=r"leaves"):
            c.decompose(np.array([0.2, 1.5, 0.0]), EXACT)
        with pytest.raises(MembershipError, match=r"edge \(1,2\) sum 1.100000000 > 1"):
            c.decompose(np.array([0.0, 0.6, 0.5]), EXACT)
        # Within the tolerance the point is clipped and accepted.
        d, tape = c.decompose_with_tape(np.array([-1e-10, 0.5, 0.5 + 1e-10]), EXACT)
        assert tape.x0.tolist() == [0.0, 0.5, 0.5 + 1e-10]

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_the_empty_point_is_its_own_decomposition(self, monkeypatch, backend):
        use(monkeypatch, backend)
        want = decompose_hypersimplex(np.zeros(0), 0)
        assert Cardinality(0, 0).dim == 0 and want.pairs[0][0] == 1.0
        for cfg in (EXACT, DecompositionConfig(scale=0.5, floor=0.1)):
            d, tape = FractionalStableSet(Graph(0, ())).decompose_with_tape(np.zeros(0), cfg)
            assert [(p, v.indices) for p, v in d.pairs] == [(p, v.indices) for p, v in want.pairs] == [(1.0, ())]
            assert d.residual == 0.0 and tape.terminal and tape.q.tolist() == [1.0]
        assert decompose_fstab(np.zeros(0), Graph(0, ())).pairs[0][0] == 1.0

    def test_a_run_without_a_terminal_step_keeps_the_residual_sign(self):
        # numpy's max of signed zeros may be -0.0; both twins take it.
        for g in (Graph(3, ((0, 1),)), Graph(3, ())):
            for cfg in (DecompositionConfig(max_iterations=0), DecompositionConfig(max_iterations=1)):
                assert_backends_agree(np.array([-0.0, 0.0, -0.0]), g, cfg)


def finishing_cases():
    """Points for the projection's exact pass: the projection corpora's
    inputs clipped to the box, which break many edges, and their projections
    nudged up by a few ulps, which break tight edges by that much."""
    rng = stream(29, "fstab-finish")
    for i in range(120):
        n = int(rng.integers(1, 51))
        g = random_graph(rng, n, float(rng.uniform(0.05, 0.6)))
        slack = float(rng.choice([0.0, 0.05]))
        z = 2 * rng.random(n) - 0.5
        if i % 3 == 0:
            z = np.round(4.0 * z) / 4.0
        yield g, np.clip(z, 0.0, 1.0), slack
        x = project_to_fstab(z, g, slack)
        for _ in range(int(rng.integers(1, 4))):
            x = np.nextafter(x, 2.0)
        yield g, x, slack


class TestLoopParity:
    """The array forms of the per-edge loops give the loops' bytes and tie
    rules."""

    @staticmethod
    def cases():
        rng = stream(23, "fstab-loop-parity")
        for i in range(40):
            n = int(rng.integers(1, 25))
            g = random_graph(rng, n, float(rng.uniform(0.0, 0.5)))
            z = 1.6 * rng.random(n) - 0.3
            if i % 2:
                z = np.round(4.0 * z) / 4.0  # ties between ratios and tight edges
            yield g, z

    def test_projection(self):
        for g, z in self.cases():
            for slack in (0.0, 0.05):
                x, (active, steps, fin) = project_to_fstab_trace(z, g, slack)
                rx, (ractive, rsteps, rfin) = reference_project_to_fstab_trace(z, g, slack)
                assert_bytes(x, rx, "x")
                assert active.tolist() == ractive.tolist() and fin == rfin
                assert len(steps) == len(rsteps)
                for (d, ub, vb, keep), (rd, rub, rvb, rkeep) in zip(steps, rsteps):
                    assert_bytes(d, rd, "d")
                    assert (ub, vb) == (rub, rvb) and keep.tolist() == rkeep.tolist()

    def test_finishing_pass_visits_only_the_edges_over_at_its_start(self):
        lowered = 0
        for g, x, slack in finishing_cases():
            got, want = x.copy(), x.copy()
            fin = finishing_pass(got, g, slack)
            assert fin == reference_finishing_pass(want, g, slack)
            assert_bytes(got, want, "x")
            lowered += len(fin)
        assert lowered > 100

    def test_weights_coefficient_and_membership(self):
        for g, z in self.cases():
            x = project_to_fstab(z, g, 0.0)
            for pt in (x, np.floor(4.0 * x) / 4.0):
                c, alive, live = _augmented_weights(pt, g)
                rc, ralive, rlive = reference_augmented_weights(pt, g)
                assert_bytes(c, rc, "c")
                assert alive.tolist() == ralive.tolist()
                assert [g.edges[e] for e in np.flatnonzero(live)] == rlive
                v = fstab_vertex(pt, g)
                a, rec = fstab_step_coefficient(pt, v, g)
                ra, rrec = reference_fstab_step_coefficient(pt, v, g)
                assert_bytes(a, ra, "a")
                assert rec == rrec and all(type(i) is int for i in rec.indices)
                assert_bytes(check_fstab_membership(pt, g), pt, "member")
            if g.m:
                bad = x.copy()
                bad[list(g.edges[g.m // 2])] = 0.75
                u, w = next((u, w) for u, w in g.edges if bad[u] + bad[w] > 1.0 + 1e-9)
                with pytest.raises(MembershipError, match=rf"edge \({u},{w}\)"):
                    check_fstab_membership(bad, g)


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
            assert rep.ok(1e-9), (g.edges, x, rep)
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
