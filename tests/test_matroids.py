"""Partition and graphical matroid decompositions, the node-block rank
oracle and its Newton step against the 2^m enumeration in
reference_loops, and spanning-tree marginals against enumeration
oracles."""

import re
import time
from collections import Counter
from itertools import combinations

import numpy as np
import pytest
from gradient_checks import graphic_rank
from kernel_backends import BACKENDS, HAVE_CC, compiled, flat, peel_args, twins_agree, use
from reference_loops import (
    _rank_table,
    _subset_sums,
    reference_face_respecting_forest,
    reference_graphic_steps,
    reference_graphic_step_coefficient,
    reference_min_g_lambda,
)

from caradec import fstab, kernels, matroids
from caradec.core import (
    EXACT,
    RANK_AT_ZERO,
    DecompositionConfig,
    DimensionError,
    GraphicMatroid,
    MembershipError,
    PartitionMatroid,
    validate_decomposition,
)
from caradec.extension import decompose_with_tape
from caradec.graphs import Graph, UnionFind
from caradec.kernels import _compiled
from caradec.hypersimplex import (
    decompose_hypersimplex,
    decompose_partition,
    project_to_partition_polytope,
)
from caradec.matroids import (
    _face_respecting_forest,
    decompose_graphic,
    graphic_step_coefficient,
    max_spanning_forest,
    min_g_lambda,
    spanning_tree_marginals,
)
from caradec.rng import stream

TRIANGLE = Graph(3, ((0, 1), (0, 2), (1, 2)))


def brute_marginals(g: Graph, w) -> np.ndarray:
    """Oracle: enumerate spanning trees, weight each by its edge-weight
    product, return per-edge inclusion probabilities."""
    w = np.asarray(w, dtype=float)
    size = g.n_nodes - 1
    total = 0.0
    per_edge = np.zeros(g.m)
    for combo in combinations(range(g.m), size):
        uf = UnionFind(g.n_nodes)
        if not all(uf.union(*g.edges[e]) for e in combo):
            continue
        weight = float(np.prod(w[list(combo)]))
        total += weight
        for e in combo:
            per_edge[e] += weight
    return per_edge / total


def random_connected_graph(rng, n, extra_edges):
    edges = set()
    for v in range(1, n):
        u = int(rng.integers(0, v))
        edges.add((u, v))
    candidates = [
        (u, v) for u in range(n) for v in range(u + 1, n) if (u, v) not in edges
    ]
    if candidates and extra_edges:
        take = rng.choice(len(candidates), size=min(extra_edges, len(candidates)),
                          replace=False)
        for idx in take:
            edges.add(candidates[int(idx)])
    return Graph(n, tuple(sorted(edges)))


class TestPartitionProjection:
    def test_constant_block_maps_to_center(self):
        spec = PartitionMatroid([(0, 1, 2), (3, 4)], [1, 1])
        x = project_to_partition_polytope(np.array([0.4, 0.4, 0.4, 0.8, 0.8]), spec)
        assert np.allclose(x[:3], 1 / 3)
        assert np.allclose(x[3:], 1 / 2)

    def test_vertex_passes_through(self):
        spec = PartitionMatroid([(0, 1), (2, 3)], [1, 1])
        x = project_to_partition_polytope(np.array([1.0, 0.0, 1.0, 0.0]), spec)
        assert np.allclose(x, [1, 0, 1, 0])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_rejected(self, bad):
        # The bad entry sits in a full-budget block, which maps to its center.
        spec = PartitionMatroid([(0, 1), (2, 3)], [1, 2])
        with pytest.raises(ValueError):
            project_to_partition_polytope(np.array([0.3, 0.6, bad, 0.1]), spec)

    def test_single_block_matches_hypersimplex(self):
        from caradec.hypersimplex import project_to_hypersimplex

        spec = PartitionMatroid([tuple(range(6))], [2])
        z = stream(3, "pp").random(6)
        a = project_to_partition_polytope(z, spec)
        b = project_to_hypersimplex(z, 2)
        assert np.allclose(a, b)


class TestPartitionDecomposition:
    def test_indicator_single_pair(self):
        spec = PartitionMatroid([(0, 1), (2, 3)], [1, 1])
        d = decompose_partition(np.array([1.0, 0.0, 0.0, 1.0]), spec)
        assert len(d.pairs) == 1 and d.pairs[0][1].indices == (0, 3)

    def test_hand_recurrence(self):
        spec = PartitionMatroid([(0, 1), (2, 3)], [1, 1])
        d = decompose_partition(np.array([0.6, 0.4, 0.7, 0.3]), spec)
        got = [(p, v.indices) for p, v in d.pairs]
        assert got[0] == (pytest.approx(0.6), (0, 2))
        assert got[1] == (pytest.approx(0.3), (1, 3))
        assert got[2] == (pytest.approx(0.1), (1, 2))

    def test_single_block_reduction_pairwise(self):
        rng = stream(5, "single-block")
        for _ in range(25):
            n, k = 7, 3
            z = rng.random(n)
            spec = PartitionMatroid([tuple(range(n))], [k])
            x = project_to_partition_polytope(z, spec)
            dp = decompose_partition(x, spec)
            dh = decompose_hypersimplex(x, k)
            assert [(p, v.indices) for p, v in dp.pairs] == [
                (p, v.indices) for p, v in dh.pairs
            ]

    def test_random_block_structures(self):
        rng = stream(7, "blocks")
        for _ in range(60):
            nblocks = int(rng.integers(1, 5))
            sizes = [int(rng.integers(1, 6)) for _ in range(nblocks)]
            n = sum(sizes)
            perm = rng.permutation(n)
            blocks, pos = [], 0
            for sz in sizes:
                blocks.append(tuple(int(i) for i in perm[pos:pos + sz]))
                pos += sz
            budgets = [int(rng.integers(0, sz + 1)) for sz in sizes]
            spec = PartitionMatroid(blocks, budgets)
            x = project_to_partition_polytope(rng.random(n), spec)
            d = decompose_partition(x, spec)
            rep = validate_decomposition(d, spec, x)
            assert rep.ok(1e-9), rep
            for _, v in d.pairs:
                s = set(v.indices)
                for blk, k in zip(blocks, budgets):
                    assert len(s & set(blk)) == k

    def test_membership_error(self):
        spec = PartitionMatroid([(0, 1)], [1])
        with pytest.raises(MembershipError):
            decompose_partition(np.array([0.9, 0.9]), spec)


class TestKruskal:
    def test_weight_order(self):
        v = max_spanning_forest(np.array([3.0, 2.0, 1.0]), TRIANGLE)
        assert v.indices == (0, 1)

    def test_tree_takes_all_edges(self):
        g = Graph(4, ((0, 1), (1, 2), (2, 3)))
        v = max_spanning_forest(np.array([0.5, 0.7, 0.2]), g)
        assert v.indices == (0, 1, 2)

    def test_tie_break_lexicographic(self):
        v = max_spanning_forest(np.ones(3), TRIANGLE)
        assert v.indices == (0, 1)

    def test_zero_entries_dropped(self):
        v = max_spanning_forest(np.array([1.0, 0.0, 1e-13]), TRIANGLE)
        assert v.indices == (0,)


class TestRank:
    def test_examples(self):
        assert graphic_rank(TRIANGLE, (0, 1, 2)) == 2
        assert graphic_rank(Graph(4, ()), ()) == 0
        square = Graph(4, ((0, 1), (1, 2), (2, 3), (0, 3)))
        assert graphic_rank(square, (0, 2)) == 2


class TestMinG:
    def test_lambda_zero_is_membership(self):
        x = np.array([2 / 3, 2 / 3, 2 / 3])
        val, face = min_g_lambda(TRIANGLE, x, (), 0.0)
        assert val == pytest.approx(0.0, abs=1e-12)

    def test_triangle_example(self):
        x = np.array([2 / 3, 2 / 3, 2 / 3])
        val, face = min_g_lambda(TRIANGLE, x, (0, 1), 1 / 3)
        assert val == pytest.approx(0.0, abs=1e-12)

    def test_empty_set_anchor(self):
        rng = stream(31, "anchor")
        for _ in range(20):
            g = random_connected_graph(rng, 5, 3)
            x = rng.random(g.m)
            val, _ = min_g_lambda(g, x, (), float(rng.random()))
            assert val <= 1e-12

    def test_no_size_limit(self):
        # A 21-edge star at its only vertex: every block is tight.
        big = Graph(22, tuple((0, v) for v in range(1, 22)))
        val, face = min_g_lambda(big, np.ones(21), (), 0.0)
        assert val == 0.0 and face == ()

    def test_submodularity_spot_check(self):
        rng = stream(37, "submod")
        g = random_connected_graph(rng, 5, 4)
        x = rng.random(g.m)
        s_t = max_spanning_forest(x, g).indices
        lam = 0.4

        def gval(mask_edges):
            ind = np.zeros(g.m)
            ind[list(s_t)] = 1.0
            r = graphic_rank(g, mask_edges)
            return (1 - lam) * r - x[list(mask_edges)].sum() + lam * sum(
                1 for e in mask_edges if e in s_t
            )

        for _ in range(500):
            f1 = {e for e in range(g.m) if rng.random() < 0.5}
            f2 = {e for e in range(g.m) if rng.random() < 0.5}
            lhs = gval(f1) + gval(f2)
            rhs = gval(f1 | f2) + gval(f1 & f2)
            assert lhs >= rhs - 1e-9


class TestGraphicCoefficient:
    def test_triangle_uniform(self):
        x = np.array([2 / 3, 2 / 3, 2 / 3])
        s = max_spanning_forest(x, TRIANGLE)
        a, trace = graphic_step_coefficient(TRIANGLE, x, s)
        assert a == pytest.approx(1 / 3)
        assert trace.kind == "rank_face" and trace.face == (2,)

    def test_vertex_unit_step(self):
        g = Graph(4, ((0, 1), (1, 2), (2, 3), (0, 2)))
        x = np.array([1.0, 1.0, 1.0, 0.0])
        s = max_spanning_forest(x, g)
        a, _ = graphic_step_coefficient(g, x, s)
        assert a == pytest.approx(1.0)

    def test_second_example(self):
        x = np.array([0.5, 0.5, 1.0])
        s = max_spanning_forest(x, TRIANGLE)
        assert s.indices == (0, 2)
        a, trace = graphic_step_coefficient(TRIANGLE, x, s)
        assert a == pytest.approx(0.5)
        assert trace.kind == "rank_face" and trace.face == (1,)


class TestGraphicDecomposition:
    def test_forest_indicator(self):
        g = Graph(4, ((0, 1), (1, 2), (2, 3), (0, 2)))
        x = np.array([1.0, 0.0, 1.0, 1.0])  # edges (0,1), (2,3), (0,2): a tree
        d = decompose_graphic(x, g)
        assert len(d.pairs) == 1 and d.pairs[0][1].indices == (0, 2, 3)

    def test_triangle_thirds(self):
        d = decompose_graphic(np.array([2 / 3, 2 / 3, 2 / 3]), TRIANGLE)
        got = [(p, v.indices) for p, v in d.pairs]
        assert got[0] == (pytest.approx(1 / 3), (0, 1))
        assert got[1] == (pytest.approx(1 / 3), (0, 2))
        assert got[2] == (pytest.approx(1 / 3), (1, 2))

    def test_unique_tree(self):
        g = Graph(3, ((0, 1), (1, 2)))
        d = decompose_graphic(np.array([1.0, 1.0]), g)
        assert len(d.pairs) == 1 and d.pairs[0][1].indices == (0, 1)

    def test_random_marginal_points(self):
        rng = stream(41, "graphic-dec")
        for _ in range(25):
            g = random_connected_graph(rng, int(rng.integers(3, 6)), int(rng.integers(0, 4)))
            w = 0.2 + rng.random(g.m)
            x = spanning_tree_marginals(g, w)
            d = decompose_graphic(x, g)
            rep = validate_decomposition(d, GraphicMatroid(g), x)
            assert rep.ok(1e-8), rep
            assert d.iterations <= g.m + 1
            size = g.n_nodes - 1
            for _, v in d.pairs:
                assert len(v.indices) == size
                assert g.is_forest(v.indices)

    def test_each_scan_is_one_kernel_call(self, monkeypatch):
        # perfbench traces fstab.Dinic.max_flow as the stable-set flows;
        # the graphic oracle runs its flows inside the block kernels.  The
        # pure twin of kernels.decompose_graphic makes these calls; the C
        # kernel runs the same scans inside its one call and must give the
        # same bytes.
        use(monkeypatch, "pure")
        g = random_connected_graph(stream(43, "graphic-flows"), 8, 6)
        x = spanning_tree_marginals(g, np.ones(g.m))
        calls = Counter()

        def count(owner, name):
            inner = getattr(owner, name)

            def call(*args):
                calls[name] += 1
                out = inner(*args)
                if name == "graphic_step_coefficient":  # one scan per Newton iterate
                    calls["newton"] += out[1].search_iterations + 1
                return out

            monkeypatch.setattr(owner, name, call)

        for owner, name in [(fstab.Dinic, "max_flow"), (kernels, "block_scan"), (kernels, "tight_blocks"),
                            (matroids, "min_g_lambda"), (matroids, "graphic_step_coefficient")]:
            count(owner, name)
        decompose_graphic(x, g)
        assert calls["max_flow"] == 0 and calls["graphic_step_coefficient"] > 1
        assert calls["block_scan"] == calls["min_g_lambda"] + calls["newton"]
        assert calls["tight_blocks"] == calls["graphic_step_coefficient"]
        monkeypatch.undo()
        assert len(twins_agree("decompose_graphic", *peel_args(x, g, g.m, EXACT))) == 13

    def test_disconnected_components(self):
        # Peeled whole: the contract holds, whatever the pair list.
        g = Graph(6, ((0, 1), (0, 2), (1, 2), (3, 4), (4, 5)))
        x = np.array([2 / 3, 2 / 3, 2 / 3, 1.0, 1.0])
        d = decompose_graphic(x, g)
        assert np.max(np.abs(d.reconstruct(g.m) - x)) <= 1e-9
        assert abs(d.probability_sum() - 1.0) <= 1e-12 and d.iterations <= g.m + 1
        for _, v in d.pairs:
            assert len(v.indices) == 6 - 2
            assert g.is_forest(v.indices)

    def test_membership_violation(self):
        with pytest.raises(MembershipError):
            decompose_graphic(np.array([1.0, 1.0, 0.9]), TRIANGLE)


class TestMarginals:
    def test_tree_all_ones(self):
        g = Graph(4, ((0, 1), (1, 2), (1, 3)))
        mu = spanning_tree_marginals(g, np.array([2.0, 5.0, 1.0]))
        assert np.allclose(mu, 1.0, atol=1e-10)

    def test_triangle_uniform(self):
        mu = spanning_tree_marginals(TRIANGLE)
        assert np.allclose(mu, 2 / 3, atol=1e-10)

    def test_triangle_weighted(self):
        mu = spanning_tree_marginals(TRIANGLE, np.array([1.0, 1.0, 2.0]))
        assert np.allclose(mu, [0.6, 0.6, 0.8], atol=1e-10)

    def test_matches_enumeration(self):
        rng = stream(43, "marg")
        for _ in range(30):
            n = int(rng.integers(3, 6))
            g = random_connected_graph(rng, n, int(rng.integers(0, 5)))
            if g.m > 10:
                continue
            w = 0.1 + 2 * rng.random(g.m)
            mu = spanning_tree_marginals(g, w)
            ref = brute_marginals(g, w)
            assert np.max(np.abs(mu - ref)) <= 1e-8
            assert mu.sum() == pytest.approx(n - 1, abs=1e-8)

    def test_marginals_lie_in_polytope(self):
        rng = stream(47, "closure")
        g = random_connected_graph(rng, 5, 3)
        w = 0.3 + rng.random(g.m)
        x = spanning_tree_marginals(g, w)
        d = decompose_graphic(x, g)
        assert np.max(np.abs(d.reconstruct(g.m) - x)) <= 1e-8

    def test_projection_vjp_matches_central_differences(self):
        rng = stream(59, "graphic-vjp")
        for _ in range(12):
            g = random_connected_graph(rng, int(rng.integers(3, 8)), int(rng.integers(0, 8)))
            c = GraphicMatroid(g)
            z = 0.1 + rng.random(g.m)  # above the 1e-6 floor of the weights
            gx = rng.standard_normal(g.m)
            _, vjp = c.project(z)
            h, fd = 1e-6, np.zeros(g.m)
            for j in range(g.m):
                up, dn = z.copy(), z.copy()
                up[j] += h
                dn[j] -= h
                fd[j] = gx @ (c.project(up)[0] - c.project(dn)[0]) / (2 * h)
            got = vjp(gx)
            assert np.max(np.abs(got - fd)) <= 1e-7 * max(1.0, np.max(np.abs(fd)))

    @pytest.mark.parametrize("shape", [(2,), (4,), (3, 1), ()])
    def test_family_projection_refuses_a_wrong_shape(self, shape):
        with pytest.raises(DimensionError):
            GraphicMatroid(TRIANGLE).project(np.full(shape, 0.5))

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_family_projection_refuses_non_finite_input(self, bad):
        with pytest.raises(ValueError, match="projection input must be finite"):
            GraphicMatroid(TRIANGLE).project(np.array([0.5, bad, 0.5]))

    def test_errors(self):
        disconnected = Graph(4, ((0, 1), (2, 3)))
        with pytest.raises(ValueError):
            spanning_tree_marginals(disconnected)
        with pytest.raises(ValueError):
            spanning_tree_marginals(TRIANGLE, np.array([1.0, -1.0, 1.0]))


def connected_graph(n, m, rng):
    """Random spanning tree on n nodes plus random extra edges up to m (the
    construction of perfbench's ``workloads.connected_graph``)."""
    perm = rng.permutation(n)
    edges = set()
    for i in range(1, n):
        u, v = int(perm[i]), int(perm[rng.integers(0, i)])
        edges.add((min(u, v), max(u, v)))
    while len(edges) < m:
        u, v = (int(a) for a in rng.choice(n, 2, replace=False))
        edges.add((min(u, v), max(u, v)))
    return Graph(n, tuple(sorted(edges)))


def parity_corpus():
    """(graph, point) pairs with m <= 16: spanning-tree marginals, and
    mixtures of 2-4 spanning trees, whose iterates have many tight sets."""
    out = []
    for k in range(36):
        rng = stream(53, "graphic-parity", k)
        n = int(rng.integers(4, 9))
        g = random_connected_graph(rng, n, int(rng.integers(0, 17 - n)))
        if k % 2:
            weights = rng.dirichlet(np.ones(int(rng.integers(2, 5))))
            x = sum(w * max_spanning_forest(rng.random(g.m), g).to_vector() for w in weights)
        else:
            x = spanning_tree_marginals(g, 0.05 + rng.random(g.m))
        out.append((g, x))
    return out


def parity_iterates():
    """(point number, step, graph, iterate) for every step of the exact
    decompositions of the parity corpus."""
    out = []
    for k, (g, x) in enumerate(parity_corpus()):
        steps, _ = reference_graphic_steps(x, g, EXACT)
        iterates = [x] + [s[6] for s in steps if s[6] is not None]
        out.extend((k, t, g, xt) for t, xt in enumerate(iterates[:len(steps)]))
    return out


# (point, step) of the corpus where the coefficients differ by more than
# 1e-12: the enumeration's probe face is E minus one edge and ties with both
# box terms to within 5e-12, a box constraint in disguise, while the node
# blocks report a smaller face of the same tie.
RANK_BOX_TIES = {(16, 12)}


# An exact, a rescaled and a capped run of the whole-peel kernel.
PEEL_CONFIGS = (EXACT, DecompositionConfig(scale=0.7, floor=0.1, tolerance=1e-3), DecompositionConfig(max_iterations=3))


class TestBlockOracleParity:
    """The node-block oracle against the 2^m enumeration, on every iterate
    of the exact decompositions of the parity corpus."""

    @pytest.fixture(scope="class")
    def iterates(self):
        return parity_iterates()

    def test_corpus_has_proper_tight_sets(self, iterates):
        proper = 0
        for _, _, g, x in iterates:
            rank = _rank_table(g.n_nodes, g.edges)
            slack = rank - _subset_sums(x)
            proper += bool(np.any((slack[1:] <= 1e-9) & (rank[1:] < g.n_nodes - 1)))
        assert len(iterates) == 201 and proper >= 150

    def test_forests_byte_equal(self, iterates):
        for k, t, g, x in iterates:
            got = _face_respecting_forest(x, g)
            want = reference_face_respecting_forest(x, g)
            assert got.indices == want.indices, (k, t)

    def test_sign_and_minimum_ratio(self, iterates):
        for k, t, g, x in iterates:
            s = _face_respecting_forest(x, g)
            for lam in (0.0, 0.2, 0.5, 0.8, 1.0):
                got, _ = min_g_lambda(g, x, s, lam)
                want, _ = reference_min_g_lambda(g, x, s, lam)
                assert (got < -1e-9) == (want < -1e-9), (k, t, lam)
                assert got >= want - 1e-12, (k, t, lam)
            # lambda* is the least ratio N(F)/D(F) over the edge sets with
            # D(F) > 0, or the box bound when that is lower; Newton stops
            # once the minimum is at least -1e-9, within 1e-9 above it.
            _, trace = graphic_step_coefficient(g, x, s)
            rank = _rank_table(g.n_nodes, g.edges).astype(float)
            den = rank - _subset_sums(s.to_vector())
            ratio = (rank - _subset_sums(x))[den > 0] / den[den > 0]
            box = min(x[list(s.indices)].min(), 1.0 - np.delete(x, list(s.indices)).max(initial=0.0))
            least = min(ratio.min(initial=np.inf), box, 1.0)
            assert least - 1e-12 <= trace.lambda_star <= least + 1e-9, (k, t)

    def test_coefficients_agree_except_listed_ties(self, iterates):
        ties = set()
        for k, t, g, x in iterates:
            s = _face_respecting_forest(x, g)
            a, trace = graphic_step_coefficient(g, x, s)
            a_ref, ref = reference_graphic_step_coefficient(g, x, s)
            if abs(a - a_ref) <= 1e-12:
                continue
            ties.add((k, t))
            assert abs(a - a_ref) <= 1e-9, (k, t)
            box = min(x[list(s.indices)].min(), 1.0 - np.delete(x, list(s.indices)).max(initial=0.0))
            assert ref.kind == "rank_face" and abs(box - a_ref) <= 1e-9, (k, t)
        assert ties == RANK_BOX_TIES

    def test_whole_peels_byte_equal(self, iterates):
        """kernels.decompose_graphic's nine outputs (p, q, a, the vertex and
        functional rows, wx, the clipped point, the residual and the
        terminal flag) are byte-equal on both backends from every iterate,
        under each of PEEL_CONFIGS."""
        for k, t, g, x in iterates:
            for cfg in PEEL_CONFIGS:
                assert len(twins_agree("decompose_graphic", *peel_args(x, g, g.m, cfg))) == 13, (k, t, cfg)


class TestDriftCorpus:
    """Decompositions whose late steps divide rounding error by a small
    1 - a: the slack of the blocks the forest spans drifts below 0 by up to
    1e-8, which must neither raise nor stall the peel."""

    @pytest.mark.parametrize("n,m", [(10, 18), (11, 20)])
    def test_decomposes(self, n, m):
        for seed in range(20):
            rng = stream(seed, "y", m)
            g = connected_graph(n, m, rng)
            c = GraphicMatroid(g)
            x, _ = c.project(rng.random(m))
            d, _ = decompose_with_tape(x, c)
            assert np.max(np.abs(d.reconstruct(m) - x)) <= 1e-8, seed
            assert d.p.sum() == pytest.approx(1.0, abs=1e-9), seed
            assert d.iterations <= c.iteration_bound(), seed
            assert all(c.vertex_feasible(v) for _, v in d.pairs), seed

    @pytest.mark.parametrize("n,m", [(10, 18), (11, 20)])
    def test_whole_peels_byte_equal(self, n, m):
        for seed in range(20):
            rng = stream(seed, "y", m)
            g = connected_graph(n, m, rng)
            x, _ = GraphicMatroid(g).project(rng.random(m))
            for cfg in PEEL_CONFIGS[:2]:
                assert len(twins_agree("decompose_graphic", *peel_args(x, g, m, cfg))) == 13, (seed, cfg)

    def test_forty_edges(self):
        rng = stream(0, "y", 40)
        g = connected_graph(21, 40, rng)
        c = GraphicMatroid(g)
        x, _ = c.project(rng.random(40))
        t0 = time.perf_counter()
        d = decompose_graphic(x, g)
        print(f"m=40 exact decomposition: {len(d.p)} steps in {time.perf_counter() - t0:.3f} s")
        rep = validate_decomposition(d, c, x)
        assert rep.ok(1e-9), rep


# A triangle with a pendant edge: n - c(G) = 3.
PENDANT = Graph(4, ((0, 1), (0, 2), (1, 2), (2, 3)))


def bad_graphic_points():
    """(label, x, exception type, message pattern) of points that PENDANT's
    base polytope refuses."""
    cases = [(f"shape {shape}", np.full(shape, 0.5), DimensionError, "shape") for shape in ((3,), (5,), (4, 1), ())]
    for bad in (np.nan, np.inf, -np.inf):
        cases.append((f"entry {bad}", np.array([2 / 3, bad, 2 / 3, 1.0]), MembershipError, "non-finite"))
    cases += [
        ("off the box", np.array([2 / 3, 2 / 3, 2 / 3, 1.5]), MembershipError, r"leaves \[0,1\]\^m"),
        ("off the sum", np.array([0.5, 0.5, 0.5, 1.0]), MembershipError, r"sum 2.500000000 != n - c\(G\) = 3"),
        ("rank at lam = 0", np.array([1.0, 1.0, 1.0, 0.0]), MembershipError,
         r"rank constraint violated on face \(0, 1, 2\) by 1"),
    ]
    return cases


def refusing_draws():
    """(graph, point) draws of FOUND 39's family at m = 100 and 120 whose
    peel drifts until an iterate's lam = 0 scan finds a rank face that its
    forest does not span (an early step, so the pure twin is quick)."""
    for m, seed in ((100, 144), (120, 41)):
        rng = stream(seed, "stress", m)
        g = connected_graph(m // 2 + 1, m, rng)
        w = rng.dirichlet(np.ones(4))
        yield g, sum(wk * max_spanning_forest(rng.random(m), g).to_vector() for wk in w)


class TestWholePeelKernel:
    """``kernels.decompose_graphic``: one C call per decomposition, byte for
    byte its pure twin, core.peel over GraphicMatroid.peel_step."""

    @pytest.mark.parametrize("label, x, exc, pattern", [pytest.param(*case, id=case[0]) for case in bad_graphic_points()])
    def test_bad_points_are_refused_alike(self, label, x, exc, pattern):
        got = twins_agree("decompose_graphic", *peel_args(x, PENDANT, PENDANT.m, EXACT))
        assert got[0] is exc and re.search(pattern, got[1]), got

    def test_points_within_the_tolerance_are_clipped(self):
        x = np.array([-1e-10, 1.0, 1.0, 1.0 + 1e-10])
        out = twins_agree("decompose_graphic", *peel_args(x, PENDANT, PENDANT.m, EXACT))
        assert out[10].tolist() == [0.0, 1.0, 1.0, 1.0] and out[12]

    def test_a_drifting_iterate_is_refused_alike(self):
        for g, x in refusing_draws():
            assert twins_agree("decompose_graphic", *peel_args(x, g, g.m, EXACT)) == (MembershipError, RANK_AT_ZERO)

    @pytest.mark.skipif(not HAVE_CC, reason="no C compiler")
    def test_a_run_over_several_calls_equals_one_call(self, monkeypatch):
        rng = stream(0, "graphic-calls")
        g = connected_graph(11, 20, rng)
        x, _ = GraphicMatroid(g).project(rng.random(20))
        for cfg in (EXACT, DecompositionConfig(scale=0.7, tolerance=1e-4)):
            args = peel_args(x, g, g.m, cfg)
            whole = flat(compiled().decompose_graphic(*args))
            assert len(whole[0]) > 8
            # Room for three steps per call.
            monkeypatch.setattr(_compiled, "GRAPHIC_CALL_WORDS", 3 * (g.n_nodes + g.m + 1))
            twins_agree("decompose_graphic", *args)
            for a, b in zip(flat(compiled().decompose_graphic(*args)), whole):
                assert np.asarray(a).tobytes() == np.asarray(b).tobytes()
            monkeypatch.undo()

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_graphs_without_edges(self, monkeypatch, backend):
        # Every forest is empty: the empty set takes the whole mass in one
        # terminal step.
        use(monkeypatch, backend)
        for g in (Graph(0, ()), Graph(3, ())):
            for cfg in (EXACT, PEEL_CONFIGS[2]):
                d, tape = GraphicMatroid(g).decompose_with_tape(np.zeros(0), cfg)
                assert d.sets == ((),) and d.p.tolist() == [1.0] and d.residual == 0.0 and tape.terminal

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_disconnected_graphs_have_a_tape(self, monkeypatch, backend):
        """A disconnected graph is peeled whole, with its tape."""
        use(monkeypatch, backend)
        g = Graph(9, ((0, 1), (0, 2), (1, 2), (2, 3), (4, 5), (5, 6), (4, 6), (7, 8)))
        rng = stream(3, "graphic-split")
        x = sum(w * max_spanning_forest(rng.random(g.m), g).to_vector() for w in (0.5, 0.3, 0.2))
        c = GraphicMatroid(g)
        d, tape = c.decompose_with_tape(x, EXACT)
        assert validate_decomposition(d, c, x).ok(1e-9) and tape.d is d
        assert len(twins_agree("decompose_graphic", *peel_args(x, g, g.m, EXACT))) == 13
