"""Fractional stable set polytope FSTAB(g) = {x in [0, 1]^n : x_u + x_v <= 1
for every edge}: the family class, the gradient-step projection and its
VJP, the vertex oracle, step coefficients, and the decomposition into independent sets and
half-integral vertices.

The vertex oracle returns the lexicographically largest of the
half-integral optima of a linear program over the minimal face of x.  A
call resets the capacities of the graph's bipartite double cover
(Nemhauser & Trotter 1975), which ``Graph.double_cover`` builds once per
graph, and solves one max-flow on it with ``graphs.Dinic``, the max-flow
routine the graphic oracle shares.  Then ``kernels.label_stable_set``
fixes the coordinates in order by reachability in its residual graph,
whose closed sets are exactly the minimum cuts (Picard & Queyranne 1980).
Both stages run in Python on either backend.  The per-edge sums (tight
edges, ratios, excesses) are array operations over ``Graph.edge_u`` and
``Graph.edge_v``.

A decomposition is one call of ``kernels.decompose_fstab``, which checks
the point and runs every step.  Its pure twin is ``core.peel`` over
``FractionalStableSet.peel_step``, that is over ``fstab_vertex`` and
``fstab_step_coefficient``; the C kernel repeats their operations, byte
for byte, without calling them: the flow and the labelling are its
static stages ``push_flow`` and ``label_cover``, which no other C entry
point exposes."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    ENUMERATION_CAP,
    EXACT,
    MEMBERSHIP_TOL,
    ActiveConstraintRecord,
    Decomposition,
    DecompositionConfig,
    GradientTape,
    VertexSet,
    check_box,
    check_shape,
)
from . import kernels
from .graphs import Dinic, Graph  # noqa: F401  (fstab.Dinic is the flow's traced name)


ZERO_TOL = 1e-9
TIGHT_TOL = 1e-9


@dataclass(frozen=True)
class FractionalStableSet:
    """Box plus per-edge x_u + x_v <= 1 constraints; integral vertices are
    independent sets, other vertices are half-integral.  slack tightens the
    edge constraints of the projection only."""

    graph: Graph
    slack: float = 0.0

    def __post_init__(self):
        if self.slack < 0:
            raise ValueError("slack must be >= 0")

    family = "fstab"

    @property
    def dim(self) -> int:
        return self.graph.n_nodes

    def iteration_bound(self) -> int:
        return self.graph.n_nodes + 1

    def vertex_feasible(self, v: VertexSet) -> bool:
        if v.n != self.dim:
            return False
        vec = v.to_vector()
        return bool(np.all(vec[self.graph.edge_u] + vec[self.graph.edge_v] <= 1.0))

    def project(self, z):
        x, trace = project_to_fstab_trace(z, self.graph, self.slack)
        return x, lambda gx: fstab_projection_vjp(trace, gx)

    def decompose(self, x, cfg):
        return self.decompose_with_tape(x, cfg)[0]

    def decompose_with_tape(self, x, cfg):
        """The peel of ``peel_step`` on x, checked first, in one call of
        ``kernels.decompose_fstab``."""
        p, q, a, vertex_rows, functional_rows, wx, x0, residual, terminal = kernels.decompose_fstab(
            x, self.graph, cfg.scale, cfg.floor, 0.0 if cfg.is_exact else cfg.tolerance,
            cfg.iteration_cap(self.dim), cfg.guard)
        d = Decomposition.from_rows(p, vertex_rows, self.dim, residual)
        return d, GradientTape(d, q, a, terminal, x0, functional_rows, wx)

    def peel_step(self, x):
        """The lexicographic vertex of x, its step coefficient and binding
        inequality, and the pin of a binding box constraint.  With no
        coordinate there is no constraint either: the empty vertex takes an
        unbounded coefficient, a terminal step."""
        v = fstab_vertex(x, self.graph)
        if not self.dim:
            return v, math.inf, None, None
        a_exact, record = fstab_step_coefficient(x, v, self.graph)
        pin = None
        if record.kind in ("lower", "upper"):
            pin = (record.indices[0], 0.0 if record.kind == "lower" else 1.0)
        return v, a_exact, record, pin

    def swap_mask(self, members, candidates):
        """Swapping member r for a candidate keeps the set independent when
        the candidate has no neighbour among the other members."""
        g, k = self.graph, len(members)
        slot = np.full(self.dim, -1)
        slot[members] = np.arange(k)
        # near[v, r]: node v is adjacent to member r.
        near = np.zeros((self.dim, k), dtype=bool)
        for a, b in ((g.edge_u, g.edge_v), (g.edge_v, g.edge_u)):
            hit = slot[b] >= 0
            near[a[hit], slot[b[hit]]] = True
        near = near[candidates]
        return near.sum(axis=1) - near.T == 0

    def jitter(self, x, noise):
        return project_to_fstab(np.clip(x + noise, 0.0, 1.0), self.graph, self.slack)

    def sample_feasible(self, rng):
        """Greedy independent set over a random node order."""
        indptr, nbrs = self.graph.adjacency()
        blocked = np.zeros(self.dim, dtype=bool)
        chosen = []
        for v in rng.permutation(self.dim).tolist():
            if not blocked[v]:
                chosen.append(v)
                blocked[nbrs[indptr[v]:indptr[v + 1]]] = True
        return tuple(sorted(chosen))

    def random_point(self, rng):
        return project_to_fstab(rng.random(self.dim), self.graph, self.slack)

    def feasible_sets(self):
        """Every independent set, depth first in lexicographic order."""
        n = self.dim
        if 2**n > ENUMERATION_CAP:
            raise ValueError("enumeration cap exceeded")
        indptr, nbrs = self.graph.adjacency()
        blocked = np.zeros(n, dtype=np.int64)  # members adjacent to each node

        def extend(prefix, start):
            yield tuple(prefix)
            for v in range(start, n):
                if not blocked[v]:
                    prefix.append(v)
                    blocked[nbrs[indptr[v]:indptr[v + 1]]] += 1
                    yield from extend(prefix, v + 1)
                    blocked[nbrs[indptr[v]:indptr[v + 1]]] -= 1
                    prefix.pop()

        yield from extend([], 0)


def _augmented_weights(x: np.ndarray, g: Graph):
    """Support restriction plus tight-edge preservation: zero coordinates
    are fixed out, and each tight edge adds a big weight on its endpoints so
    every optimum keeps the minimal face's equalities tight.  Returns the
    weights c, the alive nodes and the live edges (both ends alive) as
    masks."""
    n = x.shape[0]
    alive = x > ZERO_TOL
    big = 4.0 * (n + 1)
    c = np.where(alive, x, 0.0)
    eu, ev = g.edge_u, g.edge_v
    tight = x[eu] + x[ev] >= 1.0 - TIGHT_TOL
    # Every add is the same big, so the order of the repeated adds does not
    # change the sum.
    np.add.at(c, np.concatenate((eu[tight & alive[eu]], ev[tight & alive[ev]])), big)
    return c, alive, alive[eu] & alive[ev]


def fstab_vertex(x_t, g: Graph) -> VertexSet:
    """Vertex of FSTAB on the minimal face containing x_t: of the
    half-integral y that maximize c.y over y_u + y_v <= 1 (c from
    ``_augmented_weights``; zero coordinates stay 0), the lexicographically
    largest, with 1 > 1/2 > 0 and coordinate 0 first.  This is the eps -> 0
    limit of the geometric perturbation, computed exactly.

    The double cover (``Graph.double_cover``, built once per graph) has a
    node u_L and a node u_R per node u.  Each step only resets its
    capacities: u_L has source capacity c_u/2, u_R sink capacity c_u/2, and
    each live edge's two arcs u_L -> v_R and v_L -> u_R the capacity
    c(alive) + 1, which no minimum cut crosses; every other capacity is 0.
    So the dead nodes and the other arcs are never entered, and the flow and
    its residuals are those of the double cover of the alive nodes alone.
    A cut with source side S gives a_u = [u_L in S], b_u = [u_R not in S]
    and y = (a + b)/2, and the minimum cuts give exactly the optimal y.
    After one max-flow the minimum cuts are the source sides closed under
    the residual arcs (Picard & Queyranne 1980): IN, what the nodes with
    source capacity left reach, lies in all of them, and OUT, what reaches
    the nodes with sink capacity left, in none.  Each coordinate in turn
    takes the first y whose pattern some minimum cut still meets: y = 1 is
    (u_L in S, u_R out), 1/2 is (in, in) and 0 is (out, in).  A pattern is
    met when the closure of its forced-in nodes reaches no OUT node and the
    reverse closure of its forced-out nodes reaches neither an IN node nor
    the first closure; taking it adds the two closures to IN and OUT
    (``kernels.label_stable_set``).  With (a, b) optimal, (a or b, a and b)
    is optimal with the same y and uses only these patterns, so they lose
    no optimum.  A fourth pattern, (out, out), also y = 1/2, serves where
    float residuals break that symmetry: IN always meets one of the four."""
    x = np.asarray(x_t, dtype=float)
    n = x.shape[0]
    c, alive, live = _augmented_weights(x, g)
    net = g.double_cover
    # One buffer: the source capacities of the 2n nodes, their sink
    # capacities, then the four arcs of each edge.
    caps = np.zeros(4 * n + 4 * g.m)
    rs, rt, r = caps[: 2 * n], caps[2 * n : 4 * n], caps[4 * n :]
    rs[:n] = rt[n:] = c / 2.0
    g.cover_arcs(r)[live] = float(c[alive].sum()) + 1.0
    _, side = net.max_flow(rs, rt, r)
    return VertexSet.half_integral(kernels.label_stable_set(net.layout, rt, r, alive, side))


def fstab_step_coefficient(
    x_t, v: VertexSet, g: Graph
) -> tuple[float, ActiveConstraintRecord]:
    """Largest feasible coefficient over the three constraint families
    (x_i >= 0, x_i <= 1, x_u + x_v <= 1) with the actual, possibly
    half-integral, vertex values in the denominators."""
    x = np.asarray(x_t, dtype=float)
    vv = v.to_vector()
    n, eu, ev = x.shape[0], g.edge_u, g.edge_v
    # One candidate per constraint, in the order lower_i, upper_i for each
    # i, then the edges; the first minimum binds.
    num = np.concatenate((np.stack((x, 1.0 - x), axis=1).ravel(), 1.0 - x[eu] - x[ev]))
    den = np.concatenate((np.stack((vv, 1.0 - vv), axis=1).ravel(), 1.0 - vv[eu] - vv[ev]))
    usable = den > 1e-15
    if not usable.any():
        raise ValueError("no constraint with positive denominator: x_t equals v")
    ratio = np.divide(num, den, out=np.full(den.shape, np.inf), where=usable)
    j = int(np.argmin(ratio))
    if j < 2 * n:
        i = j // 2
        if j % 2 == 0:  # constraint -x_i <= 0
            record = ActiveConstraintRecord("lower", (i,), (-1.0,), 0.0, -float(vv[i]))
        else:  # constraint x_i <= 1
            record = ActiveConstraintRecord("upper", (i,), (1.0,), 1.0, float(vv[i]))
    else:
        u, w = g.edges[j - 2 * n]
        record = ActiveConstraintRecord("edge", (u, w), (1.0, 1.0), 1.0, float(vv[u] + vv[w]))
    return float(max(min(ratio[j], 1.0), 0.0)), record


def project_to_fstab(x, g: Graph, slack: float = 0.0) -> np.ndarray:
    """Gradient-correction projection into {x >= 0, x_u + x_v + slack <= 1}.

    The step size zeroes every violated edge in one move unless the relu
    clips an endpoint at 0 (the clipped mass is lost); the step is repeated
    in that case and a final exact pass shaves off any float-level rest."""
    out, _ = project_to_fstab_trace(x, g, slack)
    return np.clip(check_box(out), 0.0, 1.0)


def project_to_fstab_trace(x, g: Graph, slack: float = 0.0):
    """Projection plus the piecewise-linear trace needed for its vjp.
    Finite input is clipped into the box first; a shape other than (n,)
    raises DimensionError, and NaN or inf ValueError."""
    x_in = check_shape(x, g.n_nodes)
    if not np.isfinite(x_in).all():
        raise ValueError("projection input must be finite")
    entry_active = (x_in > 0.0) & (x_in < 1.0)
    x = np.clip(x_in, 0.0, 1.0)
    steps = []
    eu, ev = g.edge_u, g.edge_v
    for _ in range(200):
        excess = x[eu] + x[ev] + slack - 1.0
        violated = np.flatnonzero(excess > 0)
        if not violated.size:
            break
        vu, vv = eu[violated], ev[violated]
        d = np.bincount(np.concatenate((vu, vv)), minlength=x.shape[0]).astype(float)
        ratios = excess[violated] / (d[vu] + d[vv])
        # The largest ratio; a tie goes to the larger edge index.
        j = ratios.size - 1 - int(np.argmax(ratios[::-1]))
        eta = ratios[j]
        ub, vb = g.edges[violated[j]]
        raw = x - eta * d
        steps.append((d, ub, vb, raw > 0.0))
        x = np.clip(np.maximum(raw, 0.0), 0.0, 1.0)
    return x, (entry_active, steps, finishing_pass(x, g, slack))


def finishing_pass(x: np.ndarray, g: Graph, slack: float) -> list:
    """The projection's exact pass, ulp-scale at most: edge by edge in edge
    order, an edge over by x_u + x_v + slack - 1 > 0 lowers its larger end
    (u on a tie) by that much, clipped at 0, in place.  Returns the
    (lowered end, u, v) of each such edge.  The pass only lowers entries,
    and rounding is monotone, so an edge that is not over at its start
    never gets over: one array test finds the edges to visit."""
    finishers = []
    for e in np.flatnonzero(x[g.edge_u] + x[g.edge_v] + slack - 1.0 > 0).tolist():
        u, v = g.edges[e]
        over = x[u] + x[v] + slack - 1.0
        if over > 0:
            i = u if x[u] >= x[v] else v
            finishers.append((i, u, v))
            x[i] = max(x[i] - over, 0.0)
    return finishers


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
    """x clipped to [0, 1], once check_box passes it and no edge's ends add
    up to more than 1 + MEMBERSHIP_TOL (MembershipError for the first that
    does)."""
    x = check_box(x, g.n_nodes)
    over = x[g.edge_u] + x[g.edge_v] > 1.0 + MEMBERSHIP_TOL
    if over.any():
        u, v = g.edges[int(np.argmax(over))]
        raise kernels.edge_sum_error(u, v, x[u] + x[v])
    return np.clip(x, 0.0, 1.0)


def decompose_fstab(x, g: Graph, cfg: DecompositionConfig = EXACT) -> Decomposition:
    """Decompose a FSTAB point into at most n+1 vertices; each step
    tightens one inequality that stays tight afterwards."""
    xv = np.asarray(x, dtype=float)
    return FractionalStableSet(g).decompose(xv, cfg)
