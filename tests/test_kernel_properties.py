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
whose augmented weight is the LP optimum."""

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from kernel_backends import available, flat, implementation
from reference_loops import _lp_value

from caradec.core import PartitionMatroid, validate_decomposition
from caradec.fstab import TIGHT_TOL, _augmented_weights, fstab_vertex, project_to_fstab
from caradec.graphs import Graph
from caradec.hypersimplex import kernel_decomposition
from caradec.kernels import block_layout

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
    args = (x, block_layout(block_of, budgets), *mode, cap, 1e-12)
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
        full = kernel(x, block_layout(block_of, budgets), *EXACT, x.shape[0] + 1, 1e-12)
        part = kernel(x, block_layout(block_of, budgets), *EXACT, cap, 1e-12)
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
    c, alive, live_edges = _augmented_weights(x, g)
    assert set(y.tolist()) <= {0.0, 0.5, 1.0}
    assert all(y[u] + y[v] <= 1.0 for u, v in g.edges)
    assert (y[~alive] == 0.0).all()
    for u, v in g.edges:
        if x[u] + x[v] >= 1.0 - TIGHT_TOL:
            assert y[u] + y[v] == 1.0, (u, v)
    best = _lp_value(c, np.ones(x.shape[0]), live_edges)
    assert abs(float(c @ y) - best) <= 1e-9 * max(1.0, abs(best))
