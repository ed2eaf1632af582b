"""The shared peeling loop and the array tape must reproduce, byte for
byte, the per-family graph loops and the list-based tapes they replaced.
Those loops, their tape builders and the list-based backprop loop are kept
below as the reference."""

import numpy as np
import pytest

from caradec.core import (
    Cardinality,
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
    decompose,
    decompose_with_tape,
    tape_values,
    vertex_values,
)
from caradec.fstab import (
    check_fstab_membership,
    fstab_step_coefficient,
    fstab_vertex,
    project_to_fstab,
)
from caradec.graphs import Graph
from caradec.hypersimplex import project_to_hypersimplex, project_to_partition_polytope
from caradec.matroids import (
    _face_respecting_forest,
    check_graphic_membership,
    graphic_step_coefficient,
    max_spanning_forest,
    spanning_tree_marginals,
)
from caradec.rng import stream

EXACT = DecompositionConfig()
RESCALED = DecompositionConfig(scale=0.5, floor=0.05, tolerance=1e-6, max_iterations=40)


# ---------------------------------------------------------------------------
# Reference: the per-family loops, list tapes and list backprop


def reference_graphic_steps(x, g, cfg):
    """Steps (p, q, a, a_exact, vertex indices, trace, x_next) and the
    residual of the former graphic loop."""
    x = x.copy()
    q, steps, terminal = 1.0, [], False
    eps = 0.0 if cfg.is_exact else cfg.tolerance
    for _ in range(cfg.iteration_cap(g.m)):
        s_t = _face_respecting_forest(x, g)
        a_exact, trace = graphic_step_coefficient(g, x, s_t)
        a = cfg.scale * a_exact if cfg.scale * a_exact >= cfg.floor else a_exact
        if a > 1.0 - cfg.guard or q * (1.0 - a) < cfg.guard:
            steps.append((q, q, 1.0, 1.0, s_t.indices, None, None))
            terminal = True
            break
        om = 1.0 - a
        x[list(s_t.indices)] -= a
        x /= om
        if a == a_exact:
            if trace.kind == "min_in_forest":
                x[trace.edge] = 0.0
            elif trace.kind == "one_minus_max_outside":
                x[trace.edge] = 1.0
        np.clip(x, 0.0, 1.0, out=x)
        steps.append((a * q, q, a, a_exact, s_t.indices, trace, x.copy()))
        q = q * om
        if eps > 0.0 and q * float(np.linalg.norm(x)) <= eps:
            break
    residual = q * float(np.max(x, initial=0.0))
    if terminal:
        diff = x.copy()
        diff[list(steps[-1][4])] -= 1.0
        residual = q * float(np.max(np.abs(diff), initial=0.0))
    return steps, residual


def reference_graphic_tape(x, g, cfg):
    x0 = check_graphic_membership(x, g)
    steps, residual = reference_graphic_steps(x0.copy(), g, cfg)
    tape = {key: [] for key in ("p", "q", "a", "vertices", "w_idx", "w_coef", "x_next")}
    for pt, qt, at, aext, vidx, trace, xn in steps:
        ratio = at / aext if aext > 0 else 1.0
        if trace is None:
            idx = coef = None
        elif trace.kind == "min_in_forest":
            idx, coef = np.array([trace.edge]), np.array([ratio])
        elif trace.kind == "one_minus_max_outside":
            idx, coef = np.array([trace.edge]), np.array([-ratio])
        else:
            den = trace.face_rank - trace.face_inter
            idx, coef = np.asarray(trace.face), np.full(len(trace.face), -ratio / den)
        row = (pt, qt, at, VertexSet.integral(vidx, g.m), idx, coef, xn)
        for key, val in zip(tape, row):
            tape[key].append(val)
    return tape, residual, steps[-1][5] is None


def reference_fstab_tape(x, g, cfg):
    xv = check_fstab_membership(x, g).copy()
    tape = {key: [] for key in ("p", "q", "a", "vertices", "w_idx", "w_coef", "x_next")}
    q, residual, terminal = 1.0, 0.0, False
    eps = 0.0 if cfg.is_exact else cfg.tolerance
    for _ in range(cfg.iteration_cap(xv.shape[0])):
        v = fstab_vertex(xv, g)
        a_exact, record = fstab_step_coefficient(xv, v, g)
        a = cfg.scale * a_exact if cfg.scale * a_exact >= cfg.floor else a_exact
        if a > 1.0 - cfg.guard or q * (1.0 - a) < cfg.guard:
            row = (q, q, 1.0, v, None, None, None)
            residual = q * float(np.max(np.abs(xv - v.to_vector()), initial=0.0))
            terminal = True
        else:
            om = 1.0 - a
            xv = (xv - a * v.to_vector()) / om
            if a == a_exact and record.kind in ("lower", "upper"):
                xv[record.indices[0]] = 0.0 if record.kind == "lower" else 1.0
            np.clip(xv, 0.0, 1.0, out=xv)
            ratio = a / a_exact if a_exact > 0 else 1.0
            coef = -ratio * np.asarray(record.coeffs) / record.denominator()
            row = (a * q, q, a, v, np.asarray(record.indices), coef, xv.copy())
            q *= om
            residual = q * float(np.max(xv, initial=0.0))
        for key, val in zip(tape, row):
            tape[key].append(val)
        if terminal or (eps > 0.0 and q * float(np.linalg.norm(xv)) <= eps):
            break
    return tape, residual, terminal


def reference_backprop(tape, n, fvals):
    g = np.zeros(n)
    rest = 0.0
    for t in range(len(fvals) - 1, -1, -1):
        if tape["w_idx"][t] is None:
            rest += tape["p"][t] * fvals[t]
            continue
        om = 1.0 - tape["a"][t]
        s = tape["q"][t] * fvals[t] - rest / om
        dot = float(g @ tape["x_next"][t]) - float(g @ tape["vertices"][t].to_vector())
        coeff = dot / om + s
        g /= om
        g[tape["w_idx"][t]] += coeff * tape["w_coef"][t]
        rest += tape["p"][t] * fvals[t]
    return g


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
    yield spanning_tree_marginals(g, 0.2 + rng.random(g.m)).values
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
        yield g, project_to_fstab(0.3 + rng.random(n), g, 0.0).values


def assert_bytes(got, want, what):
    got, want = np.asarray(got, dtype=np.float64), np.asarray(want, dtype=np.float64)
    assert got.shape == want.shape, what
    assert got.tobytes() == want.tobytes(), what


def assert_same_tape(x, c, cfg, reference, rng):
    want, residual, terminal = reference(x, c.graph, cfg)
    d, tape = decompose_with_tape(x, c, cfg)
    T = len(want["p"])
    for key in ("p", "q", "a"):
        assert_bytes(getattr(tape, key), want[key], key)
    assert tape.terminal == terminal
    iterates = np.reshape([xn for xn in want["x_next"] if xn is not None], (-1, c.dim))
    assert_bytes(tape.x_next[: T - terminal], iterates, "x_next")
    assert d.pairs == tuple(zip(want["p"], want["vertices"]))
    assert (d.residual, d.iterations) == (residual, T)
    fvals = rng.standard_normal(T)
    assert_bytes(backprop_extension(tape, None, fvals), reference_backprop(want, c.dim, fvals), "gradient")
    f = LinearObjective(rng.random(c.dim))
    ref = reference_backprop(want, c.dim, np.array([f(v) for v in want["vertices"]]))
    assert_bytes(backprop_extension(tape, f), ref, "gradient from rebuilt vertices")
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
        (Cardinality(9, 4), project_to_hypersimplex(rng.random(9), 4).values),
        (pm, project_to_partition_polytope(rng.random(7), pm).values),
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
            assert tape_values(tape, f) == vertex_values(d, f), c.family
