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
node is i.  The step coefficient is the root in lam of that minimum; a
Dinkelbach/Newton iteration (Dinkelbach, Mgmt. Sci. 1967) reaches it from
above through the ratios of the minimising blocks."""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations

import numpy as np
from scipy.linalg import cho_factor, cho_solve

from .core import (
    ENUMERATION_CAP,
    EXACT,
    SUM_TOL,
    ActiveConstraintRecord,
    Decomposition,
    DecompositionConfig,
    MembershipError,
    VertexSet,
    check_box,
    csr_rows,
    peel,
)
from .graphs import Graph, UnionFind

ZERO_WEIGHT = 1e-12
TIGHT_TOL = 1e-9  # slack tolerance of the rank tests, before any drift allowance
FLOW_EPS = 1e-12  # residual capacities at most this count as saturated


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
        M = B^T L^+ B and R its diagonal, from the marginals' one solve."""
        w = np.maximum(z, 1e-6)
        x, reff, b, sol = _tree_currents(self.graph, w)

        def vjp(gx):
            gx = np.asarray(gx, dtype=float)
            cur = b.T @ sol
            return reff * gx - (w * gx) @ (cur * cur)

        return x, vjp

    def decompose(self, x, cfg):
        return decompose_graphic(x, self.graph, cfg)

    def decompose_with_tape(self, x, cfg):
        if self.graph.n_components() != 1:
            raise ValueError("gradient tape for graphic constraints needs a connected graph")
        return peel(check_graphic_membership(x, self.graph), cfg, self.peel_step)

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


@lru_cache(maxsize=64)
def _arcs(n_nodes: int, edges: tuple) -> tuple:
    """Each node's (neighbour, arc) pairs.  Edge e = (u, v) has arc 2e from
    u to v and arc 2e + 1 back, so arc a's reverse is a ^ 1."""
    adj: list[list] = [[] for _ in range(n_nodes)]
    for e, (u, v) in enumerate(edges):
        adj[u].append((v, 2 * e))
        adj[v].append((u, 2 * e + 1))
    return tuple(tuple(nbrs) for nbrs in adj)


def _block_flow(adj, arc_cap: list, src_cap: list, cost: float, i: int):
    """Maximum flow of node i's block network, returned as the residual
    capacities (source arcs, sink arcs, edge arcs).

    Node v has a source arc of capacity d_v/2 (d_v its y-degree) and a sink
    arc of capacity cost, and each edge an arc of capacity y_e/2 each way.
    The source arc of i and the sink arcs of the nodes below i are
    unbounded, which forces i in and those nodes out.  A cut with source
    side U then costs cost (|U| - 1) - y(E(U)) plus a constant.  Dinic's
    algorithm, after each node's direct path to the sink is filled."""
    n, eps = len(adj), FLOW_EPS
    rs = list(src_cap)
    rs[i] = math.inf
    rt = [math.inf] * i + [cost] * (n - i)
    for v in range(n):
        p = rs[v] if rs[v] < rt[v] else rt[v]
        rs[v] -= p
        rt[v] -= p
    r = list(arc_cap)
    while True:
        level = [-1] * n
        queue = [v for v in range(n) if rs[v] > eps]
        roots = list(queue)
        for v in roots:
            level[v] = 0
        found = False
        for u in queue:
            if rt[u] > eps:
                found = True
                continue
            nxt = level[u] + 1
            for w, a in adj[u]:
                if level[w] < 0 and r[a] > eps:
                    level[w] = nxt
                    queue.append(w)
        if not found:
            return rs, rt, r
        it = [0] * n
        for v in roots:
            while rs[v] > eps:
                # One augmenting path along the levels, by depth-first
                # search from v with a current-arc pointer per node.
                nodes, arcs = [v], []
                while nodes and rt[nodes[-1]] <= eps:
                    u = nodes[-1]
                    nbrs, k, nxt = adj[u], it[u], level[u] + 1
                    while k < len(nbrs):
                        w, a = nbrs[k]
                        if level[w] == nxt and r[a] > eps:
                            break
                        k += 1
                    it[u] = k
                    if k < len(nbrs):
                        nodes.append(w)
                        arcs.append(a)
                    else:  # a dead end: back past the arc into it
                        nodes.pop()
                        if arcs:
                            arcs.pop()
                            it[nodes[-1]] += 1
                if not nodes:
                    break
                d = rs[v]
                for a in arcs:
                    if r[a] < d:
                        d = r[a]
                t = nodes[-1]
                if rt[t] < d:
                    d = rt[t]
                rt[t] -= d
                for a in arcs:
                    r[a] -= d
                    r[a ^ 1] += d
                rs[v] -= d


def _networks(g: Graph, y: np.ndarray):
    """Edge-arc capacities y_e/2 (both arcs of each edge) and source-arc
    capacities d_v/2 of the block networks, as lists."""
    half = y / 2.0
    deg = np.bincount(np.concatenate((g.edge_u, g.edge_v)), weights=np.tile(half, 2),
                      minlength=g.n_nodes)
    return np.repeat(half, 2).tolist(), deg.tolist()


def _source_side(adj, rs, r, tol: float) -> int:
    """The nodes the source reaches through residual capacities above tol,
    as a bitmask."""
    stack = [v for v in range(len(adj)) if rs[v] > tol]
    seen = 0
    for v in stack:
        seen |= 1 << v
    while stack:
        u = stack.pop()
        for w, a in adj[u]:
            if r[a] > tol and not seen >> w & 1:
                seen |= 1 << w
                stack.append(w)
    return seen


def _block(g: Graph, y: np.ndarray, cost: float, side: int):
    """cost (|U| - 1) - y(E(U)) of the node set U given as a bitmask, and
    its face: the edges of E(U) with y_e > 0, ascending."""
    if side & (side - 1) == 0:  # one node
        return 0.0, ()
    inside = np.array([side >> v & 1 for v in range(g.n_nodes)], dtype=bool)
    face = np.flatnonzero(inside[g.edge_u] & inside[g.edge_v] & (y > 0))
    return cost * (side.bit_count() - 1) - float(y[face].sum()), tuple(face.tolist())


def _scan(g: Graph, y: np.ndarray, cost: float, starts):
    """Per start i, the lowest block among the node sets whose smallest node
    is i: (value, face), from the smallest minimum cut of i's flow.  A node
    with no edge of positive weight to a later node needs no flow: without
    it, each of its blocks is at least as low."""
    adj = _arcs(g.n_nodes, g.edges)
    arc_cap, src_cap = _networks(g, y)
    leads = _leads(g, y)
    out = {}
    for i in starts:
        if leads[i]:
            rs, _, r = _block_flow(adj, arc_cap, src_cap, cost, i)
            out[i] = _block(g, y, cost, _source_side(adj, rs, r, FLOW_EPS))
        else:
            out[i] = (0.0, ())
    return out


def _leads(g: Graph, y: np.ndarray) -> list:
    """Per node, whether an edge of positive weight joins it to a later
    node."""
    return np.bincount(g.edge_u[y > 0], minlength=g.n_nodes).astype(bool).tolist()


def _lowest(blocks: dict):
    """The lowest (value, face) of a scan; the empty face at 0 when no block
    is negative, ties to the smallest start."""
    best = (0.0, ())
    for val, face in blocks.values():
        if val < best[0]:
            best = (val, face)
    return best


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
    return _lowest(_scan(g, y, 1.0 - lam, range(g.n_nodes)))


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
    """One flow per node at lam = 0, read twice.  The smallest minimum cuts
    give the lowest block.  M_e comes from the residual graphs: a node set
    of flow i whose cut exceeds the minimum by at most tau has no residual
    arc above tau leaving it, so the closure of {i, u, v} under those arcs
    lies inside every such set that holds the edge's ends u and v.  With
    tau = (the tight limit) - (flow i's minimum), that covers every tight
    set whose smallest node is i, and the closure is M_e when it is tight
    itself (tight sets that meet are closed under intersection).  The
    smallest tight closure over the flows wins.

    The tight limit is TIGHT_TOL plus eight times the drift.  Rounding,
    which each step divides by 1 - a, spreads the slacks of tight sets to
    both sides of 0; in decompositions with m up to 60 the positive side
    reached 2.1 times the drift.  Counting a set as tight too early only
    reorders the forest's edges."""
    x = np.asarray(x, dtype=float)
    y = np.maximum(x, 0.0)
    n, eu, ev = g.n_nodes, g.edge_u.tolist(), g.edge_v.tolist()
    adj = _arcs(n, g.edges)
    arc_cap, src_cap = _networks(g, y)
    best, flows = (0.0, ()), []
    for i in np.flatnonzero(_leads(g, y)).tolist():  # no tight set starts elsewhere
        rs, rt, r = _block_flow(adj, arc_cap, src_cap, 1.0, i)
        val, face = _block(g, y, 1.0, _source_side(adj, rs, r, FLOW_EPS))
        if val < best[0]:
            best = (val, face)
        flows.append((i, val, rs, rt, r))
    drift = -best[0]
    limit = TIGHT_TOL + 8 * drift
    found = []  # (size, i, e, closure)
    for i, val, rs, rt, r in flows:
        tau = limit - val
        # A node that reaches a sink arc lies in no closed set, and the rest
        # are closed under the arcs, so only the rest need closures.
        pred: list[list[int]] = [[] for _ in range(n)]
        for u in range(i, n):
            for w, a in adj[u]:
                if r[a] > tau:
                    pred[w].append(u)
        doomed = [rt[v] > tau for v in range(n)]
        queue = [v for v in range(n) if doomed[v]]
        for w in queue:
            for u in pred[w]:
                if not doomed[u]:
                    doomed[u] = True
                    queue.append(u)
        sources = [v for v in range(i, n) if rs[v] > tau]
        if any(doomed[v] for v in sources):
            continue
        live = [u for u in range(i, n) if not doomed[u]]
        reach = [0] * n
        for u in live:
            bits = 1 << u
            for w, a in adj[u]:
                if r[a] > tau:
                    bits |= 1 << w
            reach[u] = bits
        for k in live:  # transitive closure (Warshall)
            bit, rk = 1 << k, reach[k]
            for u in live:
                if reach[u] & bit:
                    reach[u] |= rk
        base = 0
        for v in sources:
            base |= reach[v]
        for e in range(g.m):
            u, v = eu[e], ev[e]
            if u >= i and not (doomed[u] or doomed[v]):
                closed = base | reach[u] | reach[v]
                found.append((closed.bit_count(), i, e, closed))
    sizes = np.full(g.m, n, dtype=np.int64)
    slack_of: dict = {}
    for size, _, e, closed in sorted(found):
        if size >= sizes[e]:
            continue
        if closed not in slack_of:
            inner = sum(x[f] for f in range(g.m) if closed >> eu[f] & 1 and closed >> ev[f] & 1)
            slack_of[closed] = size - 1 - inner
        if slack_of[closed] <= limit:
            sizes[e] = size
    return _TightBlocks(best[0], best[1], drift, limit, sizes)


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
        raise MembershipError("iterate violates a rank constraint at lambda=0")
    tol = TIGHT_TOL + zero.drift

    iters, lam, starts = 0, upper, range(g.n_nodes)
    while True:
        blocks = _scan(g, _weights(g, x, s_idx, lam), 1.0 - lam, starts)
        starts = [i for i, (val, _) in blocks.items() if val < -tol]
        if not starts:
            break
        _, face = _lowest(blocks)
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


def _merge_component_steps(parts, edge_maps):
    """Couple per-component decompositions into whole-graph pairs:
    repeatedly emit the smallest remaining head mass with the union of head
    sets."""
    probs = [d.p.tolist() for d in parts]
    ptrs = [0] * len(parts)
    rems = [p[0] if p else 0.0 for p in probs]
    merged = []
    while all(i < len(p) for i, p in zip(ptrs, probs)):
        delta = min(rems)
        union = []
        for ci, d in enumerate(parts):
            union.extend(edge_maps[ci][e] for e in d.sets[ptrs[ci]])
        merged.append((delta, sorted(union)))
        for ci in range(len(parts)):
            rems[ci] -= delta
            if rems[ci] <= 1e-15:
                ptrs[ci] += 1
                if ptrs[ci] < len(probs[ci]):
                    rems[ci] = probs[ci][ptrs[ci]]
    return merged


def decompose_graphic(x, g: Graph, cfg: DecompositionConfig = EXACT) -> Decomposition:
    """Decompose a base-polytope point into spanning forests, one connected
    component at a time (component couplings are merged pairwise)."""
    xv = np.asarray(x, dtype=float)
    xv = check_graphic_membership(xv, g)
    comps = _node_components(g)
    if len(comps) == 1:
        return peel(xv, cfg, GraphicMatroid(g).peel_step)[0]
    parts, edge_maps = [], []
    for nodes in comps:
        sub, edge_map = _induced_subgraph(g, nodes)
        parts.append(peel(xv[edge_map], cfg, GraphicMatroid(sub).peel_step)[0])
        edge_maps.append(edge_map)
    merged = _merge_component_steps(parts, edge_maps)
    rows, recon = np.zeros((len(merged), g.m)), np.zeros(g.m)
    for t, (p, s) in enumerate(merged):
        rows[t, s] = 1.0
        recon[s] += p
    residual = np.max(np.abs(recon - xv), initial=0.0)
    return Decomposition.from_rows(np.array([p for p, _ in merged], dtype=float),
                                   csr_rows(rows), g.m, residual)


def _node_components(g: Graph) -> list[list[int]]:
    uf = UnionFind(g.n_nodes)
    for u, v in g.edges:
        uf.union(u, v)
    byroot: dict[int, list[int]] = {}
    for v in range(g.n_nodes):
        byroot.setdefault(uf.find(v), []).append(v)
    return [byroot[r] for r in sorted(byroot)]


def _induced_subgraph(g: Graph, nodes: list[int]):
    relabel = {v: i for i, v in enumerate(nodes)}
    edges, edge_map = [], []
    for e, (u, v) in enumerate(g.edges):
        if u in relabel and v in relabel:
            edges.append((relabel[u], relabel[v]))
            edge_map.append(e)
    return Graph(len(nodes), tuple(edges)), np.asarray(edge_map, dtype=np.int64)


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
