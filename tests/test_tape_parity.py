"""The shared peeling loop and the array tape must reproduce, byte for
byte, the steps of the per-family graph loops and of the block kernel's
per-element loop, and the one reverse loop must give the gradients of the
reverse loops that read every iterate, to 1e-12 relative (the iterate dot
products become a scalar recurrence, so the last ulps move).  Those loops
are kept in ``reference_loops`` as the reference.  A decomposition rebuilt
from its pairs must hold the producer's arrays byte for byte."""

import numpy as np
import pytest
from reference_loops import (
    assert_bytes,
    dense_vertices,
    reference_backprop,
    reference_backprop_blocks,
    reference_fstab_tape,
    reference_graphic_tape,
    reference_kernel_run,
)

from caradec.core import (
    Cardinality,
    Decomposition,
    DecompositionConfig,
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
from caradec.graphs import Graph
from caradec.hypersimplex import project_to_hypersimplex, project_to_partition_polytope
from caradec.matroids import max_spanning_forest, spanning_tree_marginals
from caradec.rng import stream

EXACT = DecompositionConfig()
RESCALED = DecompositionConfig(scale=0.5, floor=0.05, tolerance=1e-6, max_iterations=40)
GRAD_RTOL = 1e-12


# ---------------------------------------------------------------------------
# Inputs


def connected_graph(rng, n, extra):
    edges = {(int(rng.integers(0, v)), v) for v in range(1, n)}
    rest = [(u, v) for u in range(n) for v in range(u + 1, n) if (u, v) not in edges]
    for i in rng.choice(len(rest), size=min(extra, len(rest)), replace=False):
        edges.add(rest[int(i)])
    return Graph(n, tuple(sorted(edges)))


def graphic_points(rng, g):
    """Tree marginals (interior) and a mix of two trees (on rank faces)."""
    yield spanning_tree_marginals(g, 0.2 + rng.random(g.m))
    s1 = max_spanning_forest(rng.random(g.m), g).to_vector()
    s2 = max_spanning_forest(rng.random(g.m), g).to_vector()
    lam = float(rng.uniform(0.2, 0.8))
    yield lam * s1 + (1 - lam) * s2


def fstab_cases(rng, count):
    """Dense small graphs projected from high scores: tight edges and
    odd cycles, so half-integral vertices occur."""
    for _ in range(count):
        n = int(rng.integers(3, 10))
        edges = tuple((u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.5)
        g = Graph(n, edges)
        yield g, project_to_fstab(0.3 + rng.random(n), g, 0.0)


def assert_close_gradient(got, want, what):
    """max |got - want| <= GRAD_RTOL * max |want|."""
    assert got.shape == want.shape, what
    err = float(np.max(np.abs(got - want), initial=0.0))
    assert err <= GRAD_RTOL * float(np.max(np.abs(want), initial=0.0)), (what, err)


def assert_same_tape(x, c, cfg, reference, rng):
    want, residual, terminal = reference(x, c.graph, cfg)
    d, tape = decompose_with_tape(x, c, cfg)
    T = len(want["p"])
    for key, got in (("p", tape.d.p), ("q", tape.q), ("a", tape.a)):
        assert_bytes(got, want[key], key)
    assert tape.terminal == terminal
    assert_bytes(dense_vertices(tape), [v.to_vector() for v in want["vertices"]], "vertices")
    rows = [(i, w) for i, w in zip(want["w_idx"], want["w_coef"]) if i is not None]
    indptr, indices, data = tape.functional_rows
    assert np.array_equal(indptr, np.cumsum([0] + [len(i) for i, _ in rows] + [0] * terminal))
    assert np.array_equal(indices, np.concatenate([np.zeros(0, int), *(i for i, _ in rows)]))
    assert_bytes(data, np.concatenate([np.zeros(0), *(w for _, w in rows)]), "functional data")
    assert d.pairs == tuple(zip(want["p"], want["vertices"]))
    assert (d.residual, d.iterations) == (residual, T)
    fvals = rng.standard_normal(T)
    assert_close_gradient(backprop_extension(tape, None, fvals), reference_backprop(want, c.dim, fvals), "gradient")
    f = LinearObjective(rng.random(c.dim))
    ref = reference_backprop(want, c.dim, np.array([f(v) for v in want["vertices"]]))
    assert_close_gradient(backprop_extension(tape, f), ref, "gradient from tape values")
    return want


@pytest.mark.parametrize("cfg", [EXACT, RESCALED], ids=["exact", "rescaled"])
def test_graphic_tape_matches_reference(cfg):
    rng = stream(41, "graphic-tape-parity", cfg.scale)
    kinds = set()
    for _ in range(12 if cfg is EXACT else 6):
        n = int(rng.integers(3, 7))
        g = connected_graph(rng, n, int(rng.integers(0, 13 - (n - 1))))
        assert g.m <= 12
        for x in graphic_points(rng, g):
            want = assert_same_tape(x, GraphicMatroid(g), cfg, reference_graphic_tape, rng)
            kinds.update(len(i) for i in want["w_idx"] if i is not None)
    assert 1 in kinds and any(k > 1 for k in kinds), kinds  # box and rank-face steps


@pytest.mark.parametrize("cfg", [EXACT, RESCALED], ids=["exact", "rescaled"])
def test_fstab_tape_matches_reference(cfg):
    rng = stream(43, "fstab-tape-parity", cfg.scale)
    halves = 0
    for g, x in fstab_cases(rng, 60 if cfg is EXACT else 20):
        want = assert_same_tape(x, FractionalStableSet(g), cfg, reference_fstab_tape, rng)
        halves += sum(not v.is_integral for v in want["vertices"])
    assert halves > 0


def test_decompose_matches_tape_decomposition():
    rng = stream(47, "decompose-vs-tape")
    g = connected_graph(rng, 5, 4)
    fg, fx = next(fstab_cases(rng, 1))
    pm = PartitionMatroid([(0, 2, 4), (1, 3, 5, 6)], [1, 2])
    cases = [
        (Cardinality(9, 4), project_to_hypersimplex(rng.random(9), 4)),
        (pm, project_to_partition_polytope(rng.random(7), pm)),
        (GraphicMatroid(g), next(graphic_points(rng, g))),
        (GraphicMatroid(Graph(1, ())), np.zeros(0)),  # no edge binds any step
        (FractionalStableSet(fg), fx),
    ]
    # Injective on the vertices of these cases: a binary code for index
    # sets, a negative base-3 code for half-integral vectors.
    f = CallableObjective(
        lambda s: float(sum(2**i for i in s)),
        lambda v: -1.0 - sum(2 * h * 3**i for i, h in enumerate(v.halves)),
    )
    for c, x in cases:
        for cfg in (EXACT, RESCALED):
            d = decompose(x, c, cfg)
            dt, tape = decompose_with_tape(x, c, cfg)
            assert d.pairs == dt.pairs, c.family
            assert (d.residual, d.iterations) == (dt.residual, dt.iterations), c.family
            assert vertex_values(dt, f).tobytes() == vertex_values(d, f).tobytes(), c.family


def kernel_cases():
    """(spec, point, config) triples for the block kernel's tapes."""
    rng = stream(53, "kernel-tape-parity")
    card = Cardinality(500, 10)
    x500 = project_to_hypersimplex(rng.random(500), 10)
    blocks = PartitionMatroid([range(i * 100, (i + 1) * 100) for i in range(20)], [10] * 20)
    mixed = PartitionMatroid([range(0, 5), range(5, 12), range(12, 17)], [0, 3, 5])
    small = Cardinality(20, 5)
    vertex = np.zeros(8)
    vertex[[1, 4, 6]] = 1.0
    return {
        "card500-exact": (card, x500, EXACT),
        "card500-rescaled": (card, x500, DecompositionConfig(scale=0.1, tolerance=1e-4, max_iterations=2000)),
        "partition2000": (blocks, project_to_partition_polytope(rng.random(2000), blocks), EXACT),
        "k0": (Cardinality(12, 0), np.zeros(12), EXACT),
        "kn": (Cardinality(12, 12), np.ones(12), EXACT),
        "blocks-k0-kn-exact": (mixed, project_to_partition_polytope(rng.random(17), mixed), EXACT),
        "blocks-k0-kn-rescaled": (mixed, project_to_partition_polytope(rng.random(17), mixed), RESCALED),
        "T0": (small, project_to_hypersimplex(rng.random(20), 5), DecompositionConfig(max_iterations=0)),
        "terminal-only": (Cardinality(8, 3), vertex, EXACT),
    }


@pytest.mark.parametrize("case", list(kernel_cases()))
def test_kernel_tape_matches_reference(case):
    c, x, cfg = kernel_cases()[case]
    _, tape = decompose_with_tape(x, c, cfg)
    out, snaps = reference_kernel_run(tape.x0, c, cfg)
    T = len(out[0])
    for key, got, want in zip(("p", "q", "a"), (tape.d.p, tape.q, tape.a), out):
        assert_bytes(got, want, key)
    assert tape.terminal == out[-1]
    assert np.array_equal(tape.d.vertex_rows[1].reshape(out[3].shape), out[3])
    assert (T == 0) == (case == "T0") and (T == 1) == (case in ("k0", "kn", "terminal-only"))
    rng = stream(59, "kernel-tape-gradient", case)
    f = LinearObjective(rng.random(c.n))
    for fvals in (rng.standard_normal(T), np.array([f.value_of(tuple(v)) for v in out[3].tolist()])):
        want = reference_backprop_blocks(c.n, *out[:6], snaps, out[6], fvals)
        assert_close_gradient(backprop_extension(tape, None, fvals), want, case)
    assert_close_gradient(backprop_extension(tape, f), want, case)


def round_trip_cases():
    """(spec, point, config) triples covering every producer of a
    decomposition, with the edge cases of each."""
    rng = stream(61, "pairs-rows")
    g = connected_graph(rng, 5, 4)
    split = Graph(8, g.edges + ((5, 6), (5, 7), (6, 7)))
    forests = [max_spanning_forest(rng.random(split.m), split).to_vector() for _ in range(3)]
    pm = PartitionMatroid([(0, 2, 4), (1, 3, 5, 6)], [1, 2])
    bowtie = Graph(5, ((0, 1), (1, 2), (0, 2), (2, 3), (3, 4)))
    return {
        "card-exact": (Cardinality(9, 4), project_to_hypersimplex(rng.random(9), 4), EXACT),
        "card-rescaled": (Cardinality(9, 4), project_to_hypersimplex(rng.random(9), 4), RESCALED),
        "partition": (pm, project_to_partition_polytope(rng.random(7), pm), EXACT),
        "kernel-T0": (Cardinality(20, 5), project_to_hypersimplex(rng.random(20), 5),
                      DecompositionConfig(max_iterations=0)),
        "graphic-connected": (GraphicMatroid(g), next(graphic_points(rng, g)), EXACT),
        "graphic-disconnected": (GraphicMatroid(split), 0.5 * forests[0] + 0.3 * forests[1] + 0.2 * forests[2], EXACT),
        "fstab-half": (FractionalStableSet(bowtie), np.array([0.4, 0.4, 0.4, 0.3, 0.5]), EXACT),
    }


@pytest.mark.parametrize("case", list(round_trip_cases()))
def test_pairs_and_rows_agree(case):
    """Rebuilding a produced decomposition from its pairs gives the same
    arrays, byte for byte, and the same JSON."""
    c, x, cfg = round_trip_cases()[case]
    d = decompose(x, c, cfg)
    back = Decomposition(d.pairs, d.residual, d.iterations)
    for got, want in zip((back.p, *back.vertex_rows), (d.p, *d.vertex_rows)):
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), case
    assert back.to_json() == d.to_json(), case
    assert (len(d.p) == 0) == (case == "kernel-T0")
    if case == "graphic-disconnected":
        assert c.graph.n_components() == 2
    if case == "fstab-half":
        assert {v.is_integral for _, v in d.pairs} == {True, False} and () in d.sets


def test_no_vertex_set_per_row(monkeypatch):
    """One solver pass on the block kernel builds no VertexSet; rounding
    builds one, for the winner."""
    rng = stream(67, "no-vertex-set")
    c = Cardinality(500, 10)
    x = project_to_hypersimplex(rng.random(500), 10)
    f = LinearObjective(rng.random(500))
    calls = []
    post_init = VertexSet.__post_init__
    monkeypatch.setattr(VertexSet, "__post_init__", lambda v: calls.append(post_init(v)))
    d, tape = decompose_with_tape(x, c)
    fvals = vertex_values(d, f)
    evaluate_extension(d, f, fvals)
    backprop_extension(tape, f, fvals)
    assert len(d.p) > 1 and len(calls) == 0
    best_set(d, f, fvals)
    assert len(calls) == 1
