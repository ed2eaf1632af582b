"""Fractional stable set polytope: gradient-step projection, the
half-integral vertex oracle (min s-t cut on the bipartite double cover
with exact lexicographic refinement), step coefficients, and the
decomposition into independent sets and half-integral vertices."""

from __future__ import annotations

from itertools import product

import numpy as np

from .core import (
    EXACT,
    ActiveConstraintRecord,
    Decomposition,
    DecompositionConfig,
    MembershipError,
    Point,
    VertexSet,
    check_box,
    peel,
)
from .graphs import Graph


ZERO_TOL = 1e-9
TIGHT_TOL = 1e-9
ENUM_LIMIT = 14


class Dinic:
    """Max-flow with float capacities and deterministic arc order."""

    EPS = 1e-12

    def __init__(self, n: int):
        self.n = n
        self.head: list[list[int]] = [[] for _ in range(n)]
        self.to: list[int] = []
        self.cap: list[float] = []

    def add_edge(self, u: int, v: int, c: float) -> None:
        self.head[u].append(len(self.to))
        self.to.append(v)
        self.cap.append(c)
        self.head[v].append(len(self.to))
        self.to.append(u)
        self.cap.append(0.0)

    def max_flow(self, s: int, t: int) -> float:
        flow = 0.0
        while True:
            level = self._bfs(s, t)
            if level is None:
                return flow
            it = [0] * self.n
            while True:
                pushed = self._dfs(s, t, np.inf, level, it)
                if pushed <= self.EPS:
                    break
                flow += pushed

    def _bfs(self, s: int, t: int):
        level = [-1] * self.n
        level[s] = 0
        queue = [s]
        for u in queue:
            for eid in self.head[u]:
                v = self.to[eid]
                if self.cap[eid] > self.EPS and level[v] < 0:
                    level[v] = level[u] + 1
                    queue.append(v)
        return level if level[t] >= 0 else None

    def _dfs(self, u, t, limit, level, it):
        if u == t:
            return limit
        while it[u] < len(self.head[u]):
            eid = self.head[u][it[u]]
            v = self.to[eid]
            if self.cap[eid] > self.EPS and level[v] == level[u] + 1:
                pushed = self._dfs(v, t, min(limit, self.cap[eid]), level, it)
                if pushed > self.EPS:
                    self.cap[eid] -= pushed
                    self.cap[eid ^ 1] += pushed
                    return pushed
            it[u] += 1
        return 0.0


def _lp_value(c: np.ndarray, caps: np.ndarray, edges) -> float:
    """max c.y over y_u + y_v <= 1 per edge, 0 <= y_u <= caps_u, caps in
    {1, 1/2}, c >= 0; solved as bipartite max-weight independent set on the
    double cover via min cut."""
    n = c.shape[0]
    src, snk = 2 * n, 2 * n + 1
    net = Dinic(2 * n + 2)
    total = 0.0
    for u in range(n):
        if c[u] > 0:
            net.add_edge(src, u, c[u] / 2.0)
            net.add_edge(n + u, snk, c[u] / 2.0)
            total += c[u]
    inf = float(c.sum()) + 1.0
    for u, v in edges:
        net.add_edge(u, n + v, inf)
        net.add_edge(v, n + u, inf)
    for u in range(n):
        if caps[u] < 1.0:
            net.add_edge(u, n + u, inf)
    return total - net.max_flow(src, snk)


def _augmented_weights(x: np.ndarray, g: Graph):
    """Support restriction plus tight-edge preservation: zero coordinates
    are fixed out, and each tight edge adds a big weight on its endpoints so
    every optimum keeps the minimal face's equalities tight."""
    n = x.shape[0]
    alive = x > ZERO_TOL
    big = 4.0 * (n + 1)
    c = np.where(alive, x, 0.0)
    tight = []
    for u, v in g.edges:
        if x[u] + x[v] >= 1.0 - TIGHT_TOL:
            tight.append((u, v))
            if alive[u]:
                c[u] += big
            if alive[v]:
                c[v] += big
    live_edges = [(u, v) for u, v in g.edges if alive[u] and alive[v]]
    return c, alive, live_edges


def fstab_vertex(x_t, g: Graph) -> VertexSet:
    """Vertex of FSTAB on the minimal face containing x_t, maximizing
    x_t.y with exact lexicographic tie-breaking (the eps -> 0 limit of the
    geometric perturbation, computed exactly)."""
    x = np.asarray(x_t, dtype=float)
    n = x.shape[0]
    c, alive, live_edges = _augmented_weights(x, g)

    caps = np.ones(n)
    fixed = np.full(n, -1.0)
    fixed[~alive] = 0.0

    def solve(fx: np.ndarray) -> float:
        free = fx < 0
        base = float(np.where(fx > 0, c * fx, 0.0).sum())
        sub_caps = caps.copy()
        for u, v in live_edges:
            if fx[u] >= 0:
                sub_caps[v] = min(sub_caps[v], 1.0 - fx[u])
            if fx[v] >= 0:
                sub_caps[u] = min(sub_caps[u], 1.0 - fx[v])
        idx = np.flatnonzero(free & (sub_caps > 0))
        relabel = {int(u): i for i, u in enumerate(idx)}
        sub_edges = [
            (relabel[u], relabel[v])
            for u, v in live_edges
            if u in relabel and v in relabel
        ]
        return base + _lp_value(c[idx], sub_caps[idx], sub_edges)

    def compatible(i: int, beta: float, fx: np.ndarray) -> bool:
        for u, v in live_edges:
            if u == i and fx[v] >= 0 and beta + fx[v] > 1.0 + 1e-12:
                return False
            if v == i and fx[u] >= 0 and beta + fx[u] > 1.0 + 1e-12:
                return False
        return True

    best = solve(fixed)
    tol = 1e-9 * max(1.0, abs(best))
    for i in range(n):
        if fixed[i] >= 0:
            continue
        accepted = 0.0
        for beta in (1.0, 0.5):
            trial = fixed.copy()
            trial[i] = beta
            if compatible(i, beta, fixed) and solve(trial) >= best - tol:
                accepted = beta
                break
        fixed[i] = accepted
    return VertexSet.half_integral(fixed)


def fstab_vertex_enumerate(x_t, g: Graph) -> VertexSet:
    """Validation oracle: brute force over feasible {0, 1/2, 1}^n points with
    the same augmented objective and lexicographic preference."""
    x = np.asarray(x_t, dtype=float)
    n = x.shape[0]
    if n > ENUM_LIMIT:
        raise ValueError(f"enumeration limited to n <= {ENUM_LIMIT}")
    c, alive, live_edges = _augmented_weights(x, g)
    feasible = []
    for combo in product((1.0, 0.5, 0.0), repeat=n):
        y = np.asarray(combo)
        if np.any(y[~alive] > 0):
            continue
        if any(y[u] + y[v] > 1.0 + 1e-12 for u, v in live_edges):
            continue
        feasible.append((float(c @ y), y))
    vmax = max(val for val, _ in feasible)
    tol = 1e-9 * max(1.0, abs(vmax))
    best_y = None
    for val, y in feasible:
        if val >= vmax - tol and (best_y is None or _lex_greater(y, best_y)):
            best_y = y
    return VertexSet.half_integral(best_y)


def _lex_greater(a: np.ndarray, b: np.ndarray) -> bool:
    for x, y in zip(a, b):
        if x != y:
            return x > y
    return False


def fstab_step_coefficient(
    x_t, v: VertexSet, g: Graph
) -> tuple[float, ActiveConstraintRecord]:
    """Largest feasible coefficient over the three constraint families
    (x_i >= 0, x_i <= 1, x_u + x_v <= 1) with the actual, possibly
    half-integral, vertex values in the denominators."""
    x = np.asarray(x_t, dtype=float)
    vv = v.to_vector()
    best, record = np.inf, None
    for i in range(x.shape[0]):
        den = vv[i]  # constraint -x_i <= 0
        if den > 1e-15:
            ratio = x[i] / den
            if ratio < best:
                best = ratio
                record = ActiveConstraintRecord("lower", (i,), (-1.0,), 0.0, -float(vv[i]))
        den = 1.0 - vv[i]  # constraint x_i <= 1
        if den > 1e-15:
            ratio = (1.0 - x[i]) / den
            if ratio < best:
                best = ratio
                record = ActiveConstraintRecord("upper", (i,), (1.0,), 1.0, float(vv[i]))
    for u, w in g.edges:
        den = 1.0 - vv[u] - vv[w]
        if den > 1e-15:
            ratio = (1.0 - x[u] - x[w]) / den
            if ratio < best:
                best = ratio
                record = ActiveConstraintRecord(
                    "edge", (u, w), (1.0, 1.0), 1.0, float(vv[u] + vv[w])
                )
    if record is None:
        raise ValueError("no constraint with positive denominator: x_t equals v")
    return float(max(min(best, 1.0), 0.0)), record


def project_to_fstab(x, g: Graph, slack: float = 0.0) -> Point:
    """Gradient-correction projection into {x >= 0, x_u + x_v + slack <= 1}.

    The step size zeroes every violated edge in one move unless the relu
    clips an endpoint at 0 (the clipped mass is lost); the step is repeated
    in that case and a final exact pass shaves off any float-level rest."""
    out, _ = project_to_fstab_trace(x, g, slack)
    return Point(out, "fstab")


def project_to_fstab_trace(x, g: Graph, slack: float = 0.0):
    """Projection plus the piecewise-linear trace needed for its vjp.
    Finite input is clipped into the box first; NaN or inf raises
    ValueError."""
    x_in = np.asarray(x, dtype=float)
    if not np.isfinite(x_in).all():
        raise ValueError("projection input must be finite")
    entry_active = (x_in > 0.0) & (x_in < 1.0)
    x = np.clip(x_in, 0.0, 1.0)
    steps = []
    for _ in range(200):
        excess = np.array([x[u] + x[v] + slack - 1.0 for u, v in g.edges])
        violated = excess > 0
        if not violated.any():
            break
        d = np.zeros_like(x)
        for e, (u, v) in enumerate(g.edges):
            if violated[e]:
                d[u] += 1.0
                d[v] += 1.0
        ratios = [
            (excess[e] / (d[u] + d[v]), e)
            for e, (u, v) in enumerate(g.edges)
            if violated[e]
        ]
        eta, ebest = max(ratios)
        ub, vb = g.edges[ebest]
        raw = x - eta * d
        steps.append((d, ub, vb, raw > 0.0))
        x = np.clip(np.maximum(raw, 0.0), 0.0, 1.0)
    finishers = []
    for u, v in g.edges:  # exact pass, ulp-scale at most
        over = x[u] + x[v] + slack - 1.0
        if over > 0:
            i = u if x[u] >= x[v] else v
            finishers.append((i, u, v))
            x[i] = max(x[i] - over, 0.0)
    return x, (entry_active, steps, finishers)


def fstab_projection_vjp(trace, gx: np.ndarray) -> np.ndarray:
    """Pull dF/dx back through the recorded projection steps, treating the
    violated sets, the max-ratio edge, and the clip masks as constant."""
    entry_active, steps, finishers = trace
    g = np.asarray(gx, dtype=float).copy()
    for i, u, v in reversed(finishers):
        other = v if i == u else u
        gi = g[i]
        g[i] = 0.0
        g[other] -= gi
    for d, ub, vb, active in reversed(steps):
        ga = np.where(active, g, 0.0)
        scale = float(ga @ d) / (d[ub] + d[vb])
        g = ga
        g[ub] -= scale
        g[vb] -= scale
    g[~entry_active] = 0.0
    return g


def check_fstab_membership(x, g: Graph) -> np.ndarray:
    x = check_box(x)
    for u, v in g.edges:
        if x[u] + x[v] > 1.0 + 1e-9:
            raise MembershipError(f"edge ({u},{v}) sum {x[u] + x[v]:.9f} > 1")
    return np.clip(x, 0.0, 1.0)


def fstab_step(g: Graph):
    """The peel step of FSTAB(g): the lexicographic vertex, its step
    coefficient and binding inequality, and the pin of a binding box
    constraint."""

    def step(x):
        v = fstab_vertex(x, g)
        a_exact, record = fstab_step_coefficient(x, v, g)
        pin = None
        if record.kind in ("lower", "upper"):
            pin = (record.indices[0], 0.0 if record.kind == "lower" else 1.0)
        return v, a_exact, record, pin

    return step


def decompose_fstab(x, g: Graph, cfg: DecompositionConfig = EXACT) -> Decomposition:
    """Decompose a FSTAB point into at most n+1 vertices; each step
    tightens one inequality that stays tight afterwards."""
    xv = x.values if isinstance(x, Point) else np.asarray(x, dtype=float)
    return peel(check_fstab_membership(xv, g), cfg, fstab_step(g)).decomposition()
