"""Graphical-matroid base polytope: vertex oracle, step coefficients,
decompositions, and spanning-tree marginals via the reduced Laplacian."""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.linalg import cho_factor, cho_solve

from .core import (
    EXACT,
    SUM_TOL,
    ActiveConstraintRecord,
    Decomposition,
    DecompositionConfig,
    MembershipError,
    Point,
    SizeLimitError,
    VertexSet,
    check_box,
    csr_rows,
    peel,
)
from .graphs import Graph, UnionFind

SFM_CUTOFF = 20
ZERO_WEIGHT = 1e-12


# ---------------------------------------------------------------------------
# Graphical matroid


@dataclass(frozen=True)
class GraphicCoefficientTrace:
    """How a graphical-matroid step coefficient was determined.

    kind is one of "min_in_forest", "one_minus_max_outside", "rank_face";
    for rank faces the face, its rank and |S_t ∩ F| make the
    coefficient recoverable as the affine form (r(F) - x(F))/(r(F) - |S∩F|).
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


def graphic_rank(g: Graph, edge_subset) -> int:
    """r(F) = n - c(F), isolated nodes counting as components."""
    return g.rank(edge_subset)


@lru_cache(maxsize=64)
def _rank_table(n_nodes: int, edges: tuple) -> np.ndarray:
    """Rank of every edge subset, indexed by bitmask; partitions are
    interned so the table builds in O(2^m) dictionary steps."""
    m = len(edges)
    full = 1 << m
    rank = np.zeros(full, dtype=np.int8)
    parts: list = [None] * full
    parts[0] = tuple(range(n_nodes))
    merge_memo: dict = {}
    for mask in range(1, full):
        low = mask & -mask
        e = low.bit_length() - 1
        prev = mask ^ low
        base = parts[prev]
        key = (base, e)
        hit = merge_memo.get(key)
        if hit is None:
            u, v = edges[e]
            ru, rv = base[u], base[v]
            if ru == rv:
                hit = (base, 0)
            else:
                a, b = (ru, rv) if ru < rv else (rv, ru)
                hit = (tuple(a if lbl == b else lbl for lbl in base), 1)
            merge_memo[key] = hit
        parts[mask] = hit[0]
        rank[mask] = rank[prev] + hit[1]
    return rank


def _subset_sums(values: np.ndarray) -> np.ndarray:
    """sums[mask] = sum of values over the bits of mask, for all masks."""
    m = values.shape[0]
    out = np.zeros(1 << m)
    for b in range(m):
        step = 1 << b
        out[step : 2 * step] = out[:step] + values[b]
    return out


def min_g_lambda(g: Graph, x_t, s_t, lam: float, cutoff: int = SFM_CUTOFF):
    """Exact minimum of (1-lam)*r(F) - x_t(F) + lam*|F ∩ S_t| over all edge
    subsets; ties go to the smallest bitmask.  Returns (value, subset)."""
    if g.m > cutoff:
        raise SizeLimitError(f"m={g.m} exceeds the brute-force SFM cutoff {cutoff}")
    x_t = np.asarray(x_t, dtype=float)
    indicator = np.zeros(g.m)
    s_idx = s_t.indices if isinstance(s_t, VertexSet) else tuple(s_t)
    indicator[list(s_idx)] = 1.0
    rank = _rank_table(g.n_nodes, g.edges).astype(np.float64)
    vals = (1.0 - lam) * rank - _subset_sums(x_t) + lam * _subset_sums(indicator)
    best = int(np.argmin(vals))
    face = tuple(e for e in range(g.m) if best >> e & 1)
    return float(vals[best]), face


def check_graphic_membership(x, g: Graph) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.shape[0] != g.m:
        raise ValueError("one coordinate per edge required")
    check_box(x, "[0,1]^m")
    target = g.n_nodes - g.n_components()
    if abs(float(x.sum()) - target) > SUM_TOL:
        raise MembershipError(f"sum {x.sum():.9f} != n - c(G) = {target}")
    val, face = min_g_lambda(g, x, (), 0.0)
    if val < -1e-9:
        raise MembershipError(f"rank constraint violated on face {face} by {-val:.3g}")
    return np.clip(x, 0.0, 1.0)


def graphic_step_coefficient(
    g: Graph, x_t, s_t: VertexSet, tol: float = 1e-10
) -> tuple[float, GraphicCoefficientTrace]:
    """Largest coefficient keeping (x - a*1_S)/(1-a) in the base polytope:
    min of the two box terms and the rank-face term lambda*, the latter
    located by binary search over the submodular oracle and then recovered
    in closed form from the violating face."""
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

    def feasible(lam: float) -> bool:
        # slack absorbs renormalization drift on faces tightened earlier
        return min_g_lambda(g, x, s_t, lam)[0] >= -1e-9

    if not feasible(0.0):
        raise MembershipError("iterate violates a rank constraint at lambda=0")

    iters = 0
    a_rank, face, face_rank, face_inter = np.inf, None, None, None
    lam_star = upper
    if not feasible(upper):
        lo, hi = 0.0, upper
        for iters in range(1, 61):
            mid = 0.5 * (lo + hi)
            if feasible(mid):
                lo = mid
            else:
                hi = mid
            if hi - lo <= tol:
                break
        lam_star = lo
    # Recover the binding face just past lambda*; the closed form from that
    # face is the exact affine piece the gradient needs.
    val, probe_face = min_g_lambda(g, x, s_t, min(lam_star + 10 * tol, 1.0))
    if val < -1e-15 and probe_face:
        rF = float(_rank_table(g.n_nodes, g.edges)[sum(1 << e for e in probe_face)])
        inter = sum(1 for e in probe_face if in_set[e])
        if rF - inter > 0:
            a_rank = (rF - float(x[list(probe_face)].sum())) / (rF - inter)
            face, face_rank, face_inter = probe_face, int(rF), int(inter)

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


def _face_respecting_forest(x: np.ndarray, g: Graph, zero_tol: float = ZERO_WEIGHT) -> VertexSet:
    """Maximum-weight spanning forest that is a vertex of the minimal face
    containing x: edges are ordered by (# tight rank sets containing them
    desc, weight desc, index asc), so every x-tight set F keeps
    |S cap F| = r(F) and the step coefficient stays positive.

    At interior points no proper set is tight and this reduces to plain
    Kruskal on (weight desc, index asc)."""
    rank = _rank_table(g.n_nodes, g.edges).astype(np.float64)
    slack = rank - _subset_sums(np.asarray(x, dtype=float))
    tight = np.flatnonzero(slack <= 1e-9)
    t = np.array([np.count_nonzero(tight & (1 << b)) for b in range(g.m)], dtype=float)
    order = np.lexsort((np.arange(g.m), -np.asarray(x), -t))
    uf = UnionFind(g.n_nodes)
    chosen = []
    for e in order:
        if x[e] <= zero_tol:
            continue
        u, v = g.edges[e]
        if uf.union(u, v):
            chosen.append(int(e))
    return VertexSet.integral(chosen, g.m)


def graphic_step(g: Graph):
    """The peel step of the base polytope of g: the face-respecting forest,
    its step coefficient and the binding inequality z.y <= b, which is
    -y_e <= 0 (min in forest), y_e <= 1 (max outside) or y(F) <= r(F)
    (rank face)."""

    def step(x):
        s_t = _face_respecting_forest(x, g)
        a_exact, trace = graphic_step_coefficient(g, x, s_t)
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

    return step


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
    xv = x.values if isinstance(x, Point) else np.asarray(x, dtype=float)
    xv = check_graphic_membership(xv, g)
    comps = _node_components(g)
    if len(comps) == 1:
        return peel(xv, cfg, graphic_step(g))[0]
    parts, edge_maps = [], []
    for nodes in comps:
        sub, edge_map = _induced_subgraph(g, nodes)
        parts.append(peel(xv[edge_map], cfg, graphic_step(sub))[0])
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


def spanning_tree_marginals(g: Graph, w=None) -> Point:
    """Edge marginals of the w-weighted spanning tree distribution,
    mu_e = w_e * b_e^T L^+ b_e, via one SPD factorization of the reduced
    Laplacian (last node's row/column deleted) and one solve per edge."""
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
    mu = w * np.einsum("ie,ie->e", b, sol)
    total = float(mu.sum())
    if abs(total - (n - 1)) > 1e-8:
        raise ArithmeticError(f"marginal mass {total:.12f} != n-1; Laplacian solve unstable")
    return Point(np.clip(mu, 0.0, 1.0), "graphic")
