"""Graphical-matroid base polytope: the family class, vertex oracle, step
coefficients, decompositions, and spanning-tree marginals via the reduced
Laplacian.

The rank oracle works on node sets (Cunningham, "Optimal attack and
reinforcement of a network", JACM 1985).  The minimum over edge sets F of
(1 - lam) r(F) - x(F) + lam |F ∩ S| splits into the node blocks that F
connects, and an edge whose weight x_e - lam [e in S] is negative never
lowers it.  So it is negative exactly when some node set U has
(1 - lam)(|U| - 1) - y(E(U)) < 0, with y = max(x - lam 1_S, 0), and one
max-flow per node i finds the lowest such U among the sets whose smallest
node is i.  The flows run on the layout of ``Graph.edge_network``, built
once per graph, with the max-flow of the stable-set oracle; a whole scan
of the nodes is one call (``kernels.block_scan``), and so is the scan at
lam = 0 that also finds the tight sets (``kernels.tight_blocks``), both
in Python on either backend.  The step coefficient is the root in lam of
that minimum; a Dinkelbach/Newton iteration (Dinkelbach, Mgmt. Sci. 1967)
reaches it from above through the ratios of the minimising blocks.

A decomposition is one call of ``kernels.decompose_graphic``, which checks
the point and runs every step.  Its pure twin is ``core.peel`` over
``GraphicMatroid.peel_step``, that is over ``_tight_blocks``,
``_face_respecting_forest`` and ``graphic_step_coefficient`` (whose probe
is ``min_g_lambda``); the C kernel repeats their operations, byte for
byte, without calling them: the scans are its static stages
``scan_blocks`` and ``tight_scan``, which no other C entry point exposes.
``check_graphic_membership`` runs the lam = 0 scan in Python.  A
disconnected graph needs no split: no node
block that spans two components can be the lowest, so the graph is
peeled whole."""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np
from scipy.linalg import cho_factor, cho_solve

from . import kernels
from .core import (
    ENUMERATION_CAP,
    EXACT,
    RANK_AT_ZERO,
    SUM_TOL,
    ActiveConstraintRecord,
    Decomposition,
    DecompositionConfig,
    GradientTape,
    MembershipError,
    VertexSet,
    check_box,
    check_shape,
)
from .graphs import Graph, UnionFind

ZERO_WEIGHT = 1e-12
TIGHT_TOL = 1e-9  # slack tolerance of the rank tests, before any drift allowance


@dataclass(frozen=True)
class GraphicMatroid:
    """Full spanning forests of a graph (graphical matroid base polytope),
    over edge-indexed vectors."""

    graph: Graph

    family = "graphic"

    @property
    def dim(self) -> int:
        return self.graph.m

    def iteration_bound(self) -> int:
        return self.graph.m + 1

    def forest_size(self) -> int:
        return self.graph.n_nodes - self.graph.n_components()

    def vertex_feasible(self, v: VertexSet) -> bool:
        if not v.is_integral or v.n != self.dim or len(v.indices) != self.forest_size():
            return False
        return self.graph.is_forest(v.indices)

    def project(self, z):
        """Spanning-tree marginals of the edge weights w = max(z, 1e-6),
        and their exact vjp in w by the transfer-current identity (Burton &
        Pemantle 1993): d mu_e / d w_f = [e = f] R_e - w_e M_ef^2, with
        M = B^T L^+ B and R its diagonal, from the marginals' one solve.
        A shape other than (m,) raises DimensionError, and NaN or inf
        ValueError."""
        z = check_shape(z, self.dim)
        if not np.isfinite(z).all():
            raise ValueError("projection input must be finite")
        w = np.maximum(z, 1e-6)
        x, reff, b, sol = _tree_currents(self.graph, w)

        def vjp(gx):
            gx = np.asarray(gx, dtype=float)
            cur = b.T @ sol
            return reff * gx - (w * gx) @ (cur * cur)

        return x, vjp

    def decompose(self, x, cfg):
        return self.decompose_with_tape(x, cfg)[0]

    def decompose_with_tape(self, x, cfg):
        """The peel of ``peel_step`` on x, checked first, in one call of
        ``kernels.decompose_graphic``; a disconnected graph is peeled
        whole."""
        p, q, a, vertex_rows, functional_rows, wx, x0, residual, terminal = kernels.decompose_graphic(
            x, self.graph, cfg.scale, cfg.floor, 0.0 if cfg.is_exact else cfg.tolerance,
            cfg.iteration_cap(self.dim), cfg.guard)
        d = Decomposition.from_rows(p, vertex_rows, self.dim, residual, all_integral=True)
        return d, GradientTape(d, q, a, terminal, x0, functional_rows, wx)

    def peel_step(self, x):
        """The face-respecting forest of x, its step coefficient and the
        binding inequality z.y <= b, which is -y_e <= 0 (min in forest),
        y_e <= 1 (max outside) or y(F) <= r(F) (rank face).  One scan of
        the node blocks at lam = 0 serves both the forest and the
        coefficient."""
        zero = _tight_blocks(self.graph, x)
        s_t = _face_respecting_forest(x, self.graph, zero)
        a_exact, trace = graphic_step_coefficient(self.graph, x, s_t, zero)
        if trace.kind == "min_in_forest":
            record = ActiveConstraintRecord(trace.kind, (trace.edge,), (-1.0,), 0.0, -1.0)
            pin = (trace.edge, 0.0)
        elif trace.kind == "one_minus_max_outside":
            record = ActiveConstraintRecord(trace.kind, (trace.edge,), (1.0,), 1.0, 0.0)
            pin = (trace.edge, 1.0)
        elif trace.face is None:  # nothing binds before a = 1
            record, pin = ActiveConstraintRecord(trace.kind, (), (), 1.0, 0.0), None
        else:
            record = ActiveConstraintRecord(
                trace.kind, trace.face, (1.0,) * len(trace.face),
                float(trace.face_rank), float(trace.face_inter),
            )
            pin = None
        return s_t, a_exact, record, pin

    def swap_mask(self, members, candidates):
        """A swap keeps a forest when the rest is a forest and the candidate
        joins two of its trees."""
        g = self.graph
        mask = np.zeros((len(members), len(candidates)), dtype=bool)
        for r, i in enumerate(members.tolist()):
            uf = UnionFind(g.n_nodes)
            if all(uf.union(*g.edges[e]) for e in members.tolist() if e != i):
                root = np.array([uf.find(v) for v in range(g.n_nodes)])
                mask[r] = root[g.edge_u[candidates]] != root[g.edge_v[candidates]]
        return mask

    def jitter(self, x, noise):
        return x  # marginals stay valid; graphic points are not jittered

    def sample_feasible(self, rng):
        return max_spanning_forest(0.5 + 0.5 * rng.random(self.graph.m), self.graph).indices

    def random_point(self, rng):
        return spanning_tree_marginals(self.graph, 0.05 + rng.random(self.dim))

    def feasible_sets(self):
        g = self.graph
        if math.comb(g.m, self.forest_size()) > ENUMERATION_CAP:
            raise ValueError("enumeration cap exceeded")
        for combo in combinations(range(g.m), self.forest_size()):
            if g.is_forest(combo):
                yield combo


# ---------------------------------------------------------------------------
# Graphical matroid


@dataclass(frozen=True)
class GraphicCoefficientTrace:
    """How a graphical-matroid step coefficient was determined.

    kind is one of "min_in_forest", "one_minus_max_outside", "rank_face";
    for rank faces the face, its rank and |S_t ∩ F| make the
    coefficient recoverable as the affine form (r(F) - x(F))/(r(F) - |S∩F|).
    search_iterations counts the Newton steps taken towards lambda*.
    """

    kind: str
    edge: int | None = None
    face: tuple[int, ...] | None = None
    face_rank: int | None = None
    face_inter: int | None = None
    lambda_star: float | None = None
    search_iterations: int = 0


def max_spanning_forest(weights, g: Graph, zero_tol: float = ZERO_WEIGHT) -> VertexSet:
    """Kruskal with edges ordered by (weight desc, index asc); weights at or
    below zero_tol are treated as non-edges."""
    w = np.asarray(weights, dtype=float)
    if w.shape[0] != g.m:
        raise ValueError("one weight per edge required")
    order = np.argsort(-w, kind="stable")
    uf = UnionFind(g.n_nodes)
    chosen = []
    for e in order:
        if w[e] <= zero_tol:
            break
        u, v = g.edges[e]
        if uf.union(u, v):
            chosen.append(int(e))
    return VertexSet.integral(chosen, g.m)


def _scan(g: Graph, y: np.ndarray, cost: float, starts):
    """Per start i, the lowest block among the node sets whose smallest node
    is i: its value and its node set as a row of a bool array, from the
    smallest minimum cut of i's flow, in one kernel call.  A node with no
    edge of positive weight to a later node needs no flow: without it, each
    of its blocks is at least as low."""
    return kernels.block_scan(g.edge_network.layout, y, cost, starts)


def _face(g: Graph, y: np.ndarray, side: np.ndarray) -> tuple:
    """The edges of E(U) with y_e > 0, ascending, for the node set U given
    as a bool array."""
    return tuple(np.flatnonzero(side[g.edge_u] & side[g.edge_v] & (y > 0)).tolist())


def _lowest(g: Graph, y: np.ndarray, values: np.ndarray, sides: np.ndarray):
    """The lowest (value, face) of a scan; the empty face at 0 when no block
    is negative, ties to the first start."""
    if values.shape[0]:
        k = int(np.argmin(values))
        if values[k] < 0.0:
            return float(values[k]), _face(g, y, sides[k])
    return 0.0, ()


def _weights(g: Graph, x_t, s_t, lam: float) -> np.ndarray:
    """y = max(x - lam 1_S, 0)."""
    y = np.array(x_t, dtype=float)
    y[list(s_t.indices if isinstance(s_t, VertexSet) else s_t)] -= lam
    return np.maximum(y, 0.0, out=y)


def min_g_lambda(g: Graph, x_t, s_t, lam: float):
    """Minimum over node sets U of (1-lam)(|U|-1) - y(E(U)), y = max(x_t -
    lam 1_S, 0), by one max-flow per node.  It is 0 or negative, and
    negative exactly when the minimum of (1-lam) r(F) - x_t(F) + lam |F ∩ S|
    over edge sets F is.  Returns (value, face), the face being the lowest
    block's edges with y_e > 0 (empty at 0); ties go to the block with the
    smaller smallest node, then to the smaller set."""
    y = _weights(g, x_t, s_t, lam)
    return _lowest(g, y, *_scan(g, y, 1.0 - lam, np.arange(g.n_nodes)))


@dataclass(frozen=True)
class _TightBlocks:
    """The node blocks of x at lam = 0: the lowest slack (|U| - 1) - x(E(U))
    with its face, the drift max(0, -lowest slack), the tight limit and per
    edge e the size |M_e| of the smallest node set with slack at most the
    limit that holds both ends of e (n when none)."""

    value: float
    face: tuple
    drift: float
    limit: float
    sizes: np.ndarray


def _tight_blocks(g: Graph, x) -> _TightBlocks:
    """One flow per node at lam = 0, read twice, in one kernel call
    (``kernels.tight_blocks``).  The smallest minimum cuts give the lowest
    block.  M_e comes from the residual graphs: a node set of flow i whose
    cut exceeds the minimum by at most tau has no residual arc above tau
    leaving it, so the closure of {i, u, v} under those arcs lies inside
    every such set that holds the edge's ends u and v.  With tau = (the
    tight limit) - (flow i's minimum), that covers every tight set whose
    smallest node is i, and the closure is M_e when it is tight itself
    (tight sets that meet are closed under intersection).  The smallest
    tight closure over the flows wins.

    The tight limit is TIGHT_TOL plus eight times the drift.  Rounding,
    which each step divides by 1 - a, spreads the slacks of tight sets to
    both sides of 0; in decompositions with m up to 60 the positive side
    reached 2.1 times the drift.  Counting a set as tight too early only
    reorders the forest's edges."""
    x = np.ascontiguousarray(x, dtype=float)
    value, side, drift, limit, sizes = kernels.tight_blocks(g.edge_network.layout, x, TIGHT_TOL)
    return _TightBlocks(value, _face(g, x, side), drift, limit, sizes)


def _rank(g: Graph, face) -> int:
    """r(F), the size of a spanning forest of the edge set F."""
    uf = UnionFind(g.n_nodes)
    return sum(uf.union(*g.edges[e]) for e in face)


def check_graphic_membership(x, g: Graph) -> np.ndarray:
    x = check_box(x, g.m, "[0,1]^m")
    target = g.n_nodes - g.n_components()
    if abs(float(x.sum()) - target) > SUM_TOL:
        raise MembershipError(f"sum {x.sum():.9f} != n - c(G) = {target}")
    val, face = min_g_lambda(g, x, (), 0.0)
    if val < -1e-9:
        raise MembershipError(f"rank constraint violated on face {face} by {-val:.3g}")
    return np.clip(x, 0.0, 1.0)


def graphic_step_coefficient(
    g: Graph, x_t, s_t: VertexSet, zero: _TightBlocks | None = None
) -> tuple[float, GraphicCoefficientTrace]:
    """Largest coefficient keeping (x - a*1_S)/(1-a) in the base polytope:
    min of the two box terms and the rank-face term lambda*.

    lambda* is the root of lam -> min_g_lambda(lam), reached from above by
    Newton steps lam <- N(F)/D(F) on the minimising block's face F, with
    N = r(F) - x(F) and D = r(F) - |S ∩ F|, until the minimum is at least
    -tol.  A scan only reruns the starts that were below -tol at the lam
    before, since every block's value falls as lam grows.  The face of a
    final probe just past lambda* gives the coefficient in closed form.

    A block the forest spans (D = 0) cannot bind: its value does not depend
    on lam, and a negative slack there is rounding drift that the division
    by 1 - a amplifies from step to step.  So the drift of the lowest block
    at lam = 0 is added to the 1e-9 tolerance of this step's tests (the
    Newton stop and the probe's offset), and only a block with D > 0 below
    -1e-9 at lam = 0 raises MembershipError.  zero is the lam = 0 scan of
    x, when the caller has it."""
    x = np.asarray(x_t, dtype=float)
    s_idx = list(s_t.indices)
    in_set = np.zeros(g.m, dtype=bool)
    in_set[s_idx] = True

    if s_idx:
        rel = int(np.argmin(x[s_idx]))
        a_in, e_in = float(x[s_idx][rel]), int(s_idx[rel])
    else:
        a_in, e_in = np.inf, -1
    comp = np.flatnonzero(~in_set)
    if comp.size:
        rel = int(np.argmax(x[comp]))
        a_out, e_out = 1.0 - float(x[comp][rel]), int(comp[rel])
    else:
        a_out, e_out = np.inf, -1
    upper = min(a_in, a_out, 1.0)

    def deficit(face):
        return _rank(g, face) - int(np.count_nonzero(in_set[list(face)]))

    if zero is None:
        zero = _tight_blocks(g, x)
    if zero.value < -TIGHT_TOL and deficit(zero.face) > 0:
        raise MembershipError(RANK_AT_ZERO)
    tol = TIGHT_TOL + zero.drift

    iters, lam, starts = 0, upper, np.arange(g.n_nodes)
    while True:
        y = _weights(g, x, s_idx, lam)
        values, sides = _scan(g, y, 1.0 - lam, starts)
        low = values < -tol
        if not low.any():
            break
        starts = starts[low]
        _, face = _lowest(g, y, values, sides)
        d = deficit(face)
        if d <= 0:
            break
        lam = max((_rank(g, face) - float(x[list(face)].sum())) / d, 0.0)
        iters += 1
    lam_star = lam

    # The face just past lambda* gives the exact affine piece the gradient
    # needs.
    a_rank, face, face_rank, face_inter = np.inf, None, None, None
    val, probe_face = min_g_lambda(g, x, s_t, min(lam_star + tol, 1.0))
    if val < -1e-15 and probe_face:
        rF = _rank(g, probe_face)
        inter = int(np.count_nonzero(in_set[list(probe_face)]))
        if rF - inter > 0:
            a_rank = (rF - float(x[list(probe_face)].sum())) / (rF - inter)
            face, face_rank, face_inter = probe_face, rF, inter

    candidates = [
        (a_rank, "rank_face"),
        (a_in, "min_in_forest"),
        (a_out, "one_minus_max_outside"),
    ]
    a = min(c for c, _ in candidates)
    kind = next(name for c, name in candidates if c == a)
    if kind == "rank_face":
        trace = GraphicCoefficientTrace(
            kind, face=face, face_rank=face_rank, face_inter=face_inter,
            lambda_star=lam_star, search_iterations=iters,
        )
    elif kind == "min_in_forest":
        trace = GraphicCoefficientTrace(kind, edge=e_in, lambda_star=lam_star,
                                        search_iterations=iters)
    else:
        trace = GraphicCoefficientTrace(kind, edge=e_out, lambda_star=lam_star,
                                        search_iterations=iters)
    return float(max(min(a, 1.0), 0.0)), trace


def _face_respecting_forest(x: np.ndarray, g: Graph, zero: _TightBlocks | None = None,
                            zero_tol: float = ZERO_WEIGHT) -> VertexSet:
    """Maximum-weight spanning forest that is a vertex of the minimal face
    containing x: edges are ordered by (|M_e| asc, weight desc, index asc),
    M_e the smallest tight node set holding both ends of e, so Kruskal
    spans every tight set U before it leaves it, |S cap E(U)| = |U| - 1,
    and the step coefficient stays positive.  Edges with weight at most the
    tight limit come after all others: they are rounding noise around 0,
    and no tight set needs them to be spanned.  zero is the lam = 0 scan
    of x, when the caller has it.

    At interior points no proper set is tight and this reduces to plain
    Kruskal on (weight desc, index asc)."""
    if zero is None:
        zero = _tight_blocks(g, x)
    order = np.lexsort((np.arange(g.m), -np.asarray(x), zero.sizes, x <= zero.limit))
    uf = UnionFind(g.n_nodes)
    chosen = []
    for e in order:
        if x[e] <= zero_tol:
            continue
        u, v = g.edges[e]
        if uf.union(u, v):
            chosen.append(int(e))
    return VertexSet.integral(chosen, g.m)


def decompose_graphic(x, g: Graph, cfg: DecompositionConfig = EXACT) -> Decomposition:
    """Decompose a base-polytope point into full spanning forests, the
    whole graph in one peel whatever its components: no node block that
    spans two components can be the lowest, so the oracle needs no split."""
    return GraphicMatroid(g).decompose(np.asarray(x, dtype=float), cfg)


def spanning_tree_marginals(g: Graph, w=None) -> np.ndarray:
    """Edge marginals of the w-weighted spanning tree distribution,
    mu_e = w_e * b_e^T L^+ b_e."""
    return np.clip(check_box(_tree_currents(g, w)[0]), 0.0, 1.0)


def _tree_currents(g: Graph, w=None):
    """The marginals mu_e = w_e * b_e^T L^+ b_e (clipped to [0, 1]), the
    effective resistances b_e^T L^+ b_e, the incidence B and L^-1 B, via
    one SPD factorization of the reduced Laplacian (last node's row/column
    deleted) and one solve per edge."""
    if g.n_components() != 1:
        raise ValueError("marginals require a connected graph")
    w = g.weight_array() if w is None else np.asarray(w, dtype=float)
    if w.shape[0] != g.m or np.any(w <= 0):
        raise ValueError("positive weight per edge required")
    n = g.n_nodes
    lap = np.zeros((n, n))
    for e, (u, v) in enumerate(g.edges):
        lap[u, u] += w[e]
        lap[v, v] += w[e]
        lap[u, v] -= w[e]
        lap[v, u] -= w[e]
    red = lap[: n - 1, : n - 1]
    factor = cho_factor(red)
    b = np.zeros((n - 1, g.m))
    for e, (u, v) in enumerate(g.edges):
        if u < n - 1:
            b[u, e] = 1.0
        if v < n - 1:
            b[v, e] -= 1.0
    sol = cho_solve(factor, b)
    reff = np.einsum("ie,ie->e", b, sol)
    mu = w * reff
    total = float(mu.sum())
    if abs(total - (n - 1)) > 1e-8:
        raise ArithmeticError(f"marginal mass {total:.12f} != n-1; Laplacian solve unstable")
    return np.clip(mu, 0.0, 1.0), reff, b, sol
