"""Property tests of the block kernel's decomposition contract, on both
backends: every decomposition reconstructs its point to 1e-9, its masses
sum to 1 (a rescaled run's to at most 1, the rest left in its residual),
every vertex meets the budgets, and a run takes at most n + 1 exact steps
or its cap.  The C and pure kernels give the same bytes.  Inputs come from
hypothesis: scattered, empty and single-element blocks, budgets of 0 and
of the whole block, points on a coarse grid (exact ties and pinned
coordinates) or mixtures of vertices, and -0.0 in place of 0.0.

The stable-set vertex oracle, on drawn graphs and on projected points
(generic or on a coarse grid), returns a feasible half-integral vertex
that keeps every zero coordinate at 0 and every tight edge tight, and
whose augmented weight is the LP optimum.

Exact decompositions of both graph families (stable sets on the drawn
graphs above, graphic matroids on drawn connected graphs) meet the
contract and give the same bytes on both backends.  The whole graphic
peel gives the same bytes in all its outputs on both backends on any
drawn graph (disconnected ones and the 0-node graph included), exact,
rescaled or capped.  The graphic oracle's
block scans find the blocks that an enumeration of the node sets finds."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from kernel_backends import available, flat, implementation, peel_args, twins_agree, use
from reference_loops import _lp_value

from caradec import kernels
from caradec.core import EXACT as EXACT_CONFIG
from caradec.core import (
    RANK_AT_ZERO,
    Decomposition,
    DecompositionConfig,
    FractionalStableSet,
    GraphicMatroid,
    MembershipError,
    PartitionMatroid,
    validate_decomposition,
)
from caradec.fstab import TIGHT_TOL, _augmented_weights, fstab_vertex, project_to_fstab
from caradec.graphs import Graph
from caradec.hypersimplex import kernel_decomposition
from caradec.kernels import BlockLayout
from caradec.matroids import TIGHT_TOL as GRAPHIC_TIGHT_TOL
from caradec.matroids import _weights, max_spanning_forest, spanning_tree_marginals

EXACT = (1.0, 0.0, 0.0)  # scale, floor, eps
RESCALED = (0.5, 0.02, 1e-5)


@st.composite
def block_points(draw):
    """(x, block_of, budgets): a point of a partition base polytope whose
    blocks interleave over the index range."""
    sizes = draw(st.lists(st.integers(0, 6), min_size=1, max_size=4))
    if sum(sizes) == 0:
        sizes[0] = 1
    budgets = [draw(st.integers(0, s)) for s in sizes]
    n = sum(sizes)
    block_of = np.array(draw(st.permutations(np.repeat(np.arange(len(sizes)), sizes).tolist())),
                        dtype=np.int32)
    x = np.zeros(n)
    grid = draw(st.sampled_from([1, 2, 3, 4, 8]))
    mixture = draw(st.booleans())
    for b, k in enumerate(budgets):
        idx = np.flatnonzero(block_of == b)
        if mixture:
            # A convex combination of vertices: float weights give generic
            # points, integer ones ties.
            weights = draw(st.lists(st.floats(0.01, 1.0) | st.integers(1, 3), min_size=1, max_size=5))
            for w in weights:
                x[draw(st.permutations(idx.tolist()))[:k]] += w / sum(weights)
        else:
            # k*grid units, at most grid per coordinate, moved one at a time
            # from the first k coordinates: multiples of 1/grid.
            units = np.zeros(idx.size, dtype=np.int64)
            units[:k] = grid
            for i, j in draw(st.lists(st.tuples(st.integers(0, 5), st.integers(0, 5)), max_size=12)):
                if i < idx.size and j < idx.size and units[i] > 0 and units[j] < grid:
                    units[i] -= 1
                    units[j] += 1
            x[idx] = units / grid
    x = np.clip(x, 0.0, 1.0)
    if draw(st.booleans()):
        x[x == 0.0] = -0.0
    return x, block_of, np.array(budgets, dtype=np.int64)


def assert_contract(out, x, block_of, budgets, mode, cap):
    n = x.shape[0]
    spec = PartitionMatroid([np.flatnonzero(block_of == b) for b in range(len(budgets))], budgets)
    d = kernel_decomposition(out)
    rep = validate_decomposition(d, spec, x)
    assert rep.all_feasible
    assert rep.reconstruction_error <= max(1e-9, d.residual + 1e-9)
    mass = d.probability_sum()
    if mode is EXACT:
        assert out[8], "an exact run ends on a terminal step"
        assert rep.reconstruction_error <= 1e-9 and abs(mass - 1.0) <= 1e-9
        assert d.iterations <= n + 1
    else:
        assert mass <= 1.0 + 1e-9 and d.iterations <= cap


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(block_points(), st.sampled_from([EXACT, RESCALED]))
def test_contract_on_both_backends(point, mode):
    x, block_of, budgets = point
    n = x.shape[0]
    cap = n + 1 if mode is EXACT else 4 * n + 16
    args = (x, BlockLayout(block_of, budgets), *mode, cap, 1e-12)
    outs = [implementation(backend).decompose_blocks(*args) for backend in available()]
    assert_contract(outs[0], x, block_of, budgets, mode, cap)
    for out in outs[1:]:
        for got, want in zip(flat(out), flat(outs[0])):
            got, want = np.asarray(got), np.asarray(want)
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes()


def step_outputs(out):
    """The outputs of a run that grow with each step: probs, qs, avals, the
    vertex and functional rows, wx, branch and aex."""
    probs, qs, avals, (vptr, vidx, _), (wptr, widx, wval), wx, _, _, _, branch, aex = out
    return probs, qs, avals, vptr, vidx, wptr, widx, wval, wx, branch, aex


@settings(max_examples=60, deadline=None)
@given(block_points(), st.integers(0, 40))
def test_iteration_cap(point, cap):
    """A run never takes more steps than its cap, and a capped exact run is
    the first steps of the uncapped one."""
    x, block_of, budgets = point
    for backend in available():
        kernel = implementation(backend).decompose_blocks
        full = kernel(x, BlockLayout(block_of, budgets), *EXACT, x.shape[0] + 1, 1e-12)
        part = kernel(x, BlockLayout(block_of, budgets), *EXACT, cap, 1e-12)
        T = len(part[0])
        assert T <= cap
        for got, want in zip(step_outputs(part), step_outputs(full)):
            assert got.tobytes() == want[:len(got)].tobytes()


@st.composite
def stable_set_points(draw):
    """(graph, x): a drawn graph on 1..12 nodes and the projection of a
    drawn point, kept generic or rounded down to a grid of 1/2 or 1/4
    (rounding down keeps it feasible and makes exact ties)."""
    n = draw(st.integers(1, 12))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    g = Graph(n, tuple(pair for pair, k in zip(pairs, keep) if k))
    z = np.array(draw(st.lists(st.floats(-0.5, 1.5), min_size=n, max_size=n)))
    x = project_to_fstab(z, g)
    grid = draw(st.sampled_from([0, 2, 4]))
    if grid:
        x = np.floor(grid * x) / grid
    return g, x


@settings(max_examples=300, deadline=None)
@given(stable_set_points())
def test_stable_set_vertex_is_an_optimal_vertex_of_the_face(case):
    g, x = case
    y = fstab_vertex(x, g).to_vector()
    c, alive, live = _augmented_weights(x, g)
    assert set(y.tolist()) <= {0.0, 0.5, 1.0}
    assert all(y[u] + y[v] <= 1.0 for u, v in g.edges)
    assert (y[~alive] == 0.0).all()
    for u, v in g.edges:
        if x[u] + x[v] >= 1.0 - TIGHT_TOL:
            assert y[u] + y[v] == 1.0, (u, v)
    best = _lp_value(c, np.ones(x.shape[0]), [g.edges[e] for e in np.flatnonzero(live)])
    assert abs(float(c @ y) - best) <= 1e-9 * max(1.0, abs(best))


@st.composite
def graphic_points(draw, most=7):
    """(graph, x): a connected graph on 2..most nodes (a drawn spanning tree
    plus drawn extra edges) and a point of its base polytope, either the
    spanning-tree marginals of drawn weights or a mixture of maximum
    spanning trees (exact ties and tight node sets)."""
    n = draw(st.integers(2, most))
    tree = {tuple(sorted((v, draw(st.integers(0, v - 1))))) for v in range(1, n)}
    rest = [(u, v) for u in range(n) for v in range(u + 1, n) if (u, v) not in tree]
    keep = draw(st.lists(st.booleans(), min_size=len(rest), max_size=len(rest)))
    g = Graph(n, tuple(sorted(tree | {pair for pair, k in zip(rest, keep) if k})))
    weights = st.lists(st.floats(0.05, 2.0), min_size=g.m, max_size=g.m)
    if draw(st.booleans()):
        return g, spanning_tree_marginals(g, np.array(draw(weights)))
    mix = draw(st.lists(st.integers(1, 3), min_size=1, max_size=4))
    x = sum(k * max_spanning_forest(np.array(draw(weights)), g).to_vector() for k in mix)
    return g, x / sum(mix)


def assert_graph_contract(spec, x, tol):
    """An exact decomposition of x on both backends: the same bytes, and
    the contract (reconstruction to tol, mass 1 to 1e-9, feasible vertices,
    at most dim + 1 steps)."""
    outs = []
    for backend in available():
        with pytest.MonkeyPatch.context() as mp:
            use(mp, backend)
            outs.append(spec.decompose(x, EXACT_CONFIG))
    d = outs[0]
    rep = validate_decomposition(d, spec, x)
    assert rep.reconstruction_error <= tol
    assert abs(d.probability_sum() - 1.0) <= 1e-9
    assert rep.all_feasible
    assert d.iterations <= spec.dim + 1
    for other in outs[1:]:
        for got, want in zip((other.p, *other.vertex_rows), (d.p, *d.vertex_rows)):
            assert got.tobytes() == want.tobytes()


@settings(max_examples=100, deadline=None)
@given(stable_set_points())
def test_stable_set_decomposition_contract_on_both_backends(case):
    g, x = case
    assert_graph_contract(FractionalStableSet(g), x, 1e-9)


@settings(max_examples=100, deadline=None)
@given(graphic_points())
def test_graphic_decomposition_contract_on_both_backends(case):
    g, x = case
    assert_graph_contract(GraphicMatroid(g), x, 1e-8)


@st.composite
def any_graphic_points(draw, most=7):
    """(graph, x): any graph on 0..most nodes, disconnected ones and the
    0-node graph included, and a point of its base polytope: a mixture of
    maximum spanning forests with float weights (generic points) or integer
    ones (ties), sometimes with -0.0 in place of every 0."""
    n = draw(st.integers(0, most))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    g = Graph(n, tuple(pair for pair, k in zip(pairs, keep) if k))
    mix = draw(st.lists(st.floats(0.01, 1.0) | st.integers(1, 3), min_size=1, max_size=4))
    weights = st.lists(st.floats(0.05, 2.0), min_size=g.m, max_size=g.m)
    x = sum(k * max_spanning_forest(np.array(draw(weights)), g).to_vector() for k in mix) / sum(mix)
    if draw(st.booleans()):
        x[x == 0.0] = -0.0
    return g, np.asarray(x, dtype=float).reshape(g.m)


@settings(max_examples=150, deadline=None)
@given(any_graphic_points(), st.sampled_from([EXACT_CONFIG, DecompositionConfig(scale=0.5, floor=0.02, tolerance=1e-5),
                                              DecompositionConfig(max_iterations=2)]))
def test_graphic_peel_on_any_graph_on_both_backends(case, cfg):
    """All nine outputs of kernels.decompose_graphic are byte-equal on both
    backends.  An uncapped exact peel meets the contract, whatever the graph's
    components; a rescaled one may drift off its face and be refused alike
    (ROADMAP item 3)."""
    g, x = case
    out = twins_agree("decompose_graphic", *peel_args(x, g, g.m, cfg))
    if out == (MembershipError, RANK_AT_ZERO) and not cfg.is_exact:
        return
    assert len(out) == 13
    if cfg is EXACT_CONFIG:
        spec = GraphicMatroid(g)
        d = Decomposition.from_rows(out[0], tuple(out[3:6]), g.m, out[11])
        assert validate_decomposition(d, spec, x).ok(1e-8)


def enumerated_blocks(g, y, cost):
    """Per node set U as a bitmask (the empty set and singletons at 0):
    cost (|U| - 1) - y(E(U)), its size, and whether it holds each edge."""
    n = g.n_nodes
    bits = (np.arange(1 << n)[:, None] >> np.arange(n) & 1).astype(bool)
    inside = bits[:, g.edge_u] & bits[:, g.edge_v]
    size = bits.sum(axis=1)
    return np.where(size > 1, cost * (size - 1) - inside @ np.maximum(y, 0.0), 0.0), size, inside, bits


@settings(max_examples=100, deadline=None)
@given(graphic_points(most=9), st.floats(0.0, 1.0), st.data())
def test_block_kernels_against_the_enumeration(case, lam, data):
    """block_scan over every start at lam, with a drawn S, and tight_blocks
    against the enumeration of the node sets.  Each start's value is the
    lowest block among the node sets whose smallest node it is (0 when it
    has no edge of positive weight to a later node), and the lowest value
    is the lowest block of all, both within 1e-9 of the enumeration.
    tight_blocks' value is block_scan's lowest at lam = 0, and each edge's
    size is that of a node set with slack at most the limit holding both
    its ends (n when none), and no smaller than the smallest such set."""
    g, x = case
    n, net = g.n_nodes, g.edge_network.layout
    s = np.flatnonzero(data.draw(st.lists(st.booleans(), min_size=g.m, max_size=g.m)))
    y = _weights(g, x, s, lam)
    values, sides = kernels.block_scan(net, y, 1.0 - lam, np.arange(n))
    value, side, drift, limit, sizes = kernels.tight_blocks(net, x, GRAPHIC_TIGHT_TOL)
    zero_values = kernels.block_scan(net, np.maximum(x, 0.0), 1.0, np.arange(n))[0]

    blocks, size, inside, bits = enumerated_blocks(g, y, 1.0 - lam)
    smallest = np.where(size > 0, np.argmax(bits, axis=1), n)
    for i in range(n):
        if (y[g.edge_u == i] > 0).any():
            assert abs(values[i] - blocks[smallest == i].min(initial=0.0)) <= 1e-9
        else:
            assert values[i] == 0.0 and not sides[i].any()
    assert abs(min(values.min(), 0.0) - blocks.min()) <= 1e-9

    assert value == min(zero_values.min(), 0.0) and drift == -value and limit == GRAPHIC_TIGHT_TOL + 8 * drift
    # A dot product adds in another order than the kernels; 1e-12 absorbs
    # that at sets whose slack lies at the limit.
    slack = np.where(size > 0, size - 1 - inside @ x, np.inf)
    for e in range(g.m):
        holds = inside[:, e] & (slack <= limit + 1e-12)
        assert sizes[e] >= min(size[holds].min(initial=n), n)
        assert sizes[e] == n or (holds & (size == sizes[e])).any()
