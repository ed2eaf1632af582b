"""Simple undirected graphs: the ground structure for forest and stable-set
constraints, plus the edge-list file format shared by the CLI."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


class GraphFormatError(ValueError):
    pass


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph with optional positive edge weights.

    Edges are stored as (u, v) with u < v, no duplicates, no self-loops.
    Edge indices (their position in ``edges``) identify coordinates of
    edge-indexed vectors throughout the package.  ``edge_u`` and ``edge_v``
    are the edges' endpoints as read-only int64 arrays, in edge order.
    """

    n_nodes: int
    edges: tuple[tuple[int, int], ...]
    weights: tuple[float, ...] | None = None
    edge_u: np.ndarray = field(init=False, repr=False, compare=False)
    edge_v: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        seen = set()
        for u, v in self.edges:
            if u == v:
                raise GraphFormatError(f"self-loop at node {u}")
            if not (0 <= u < v < self.n_nodes):
                raise GraphFormatError(f"bad edge ({u}, {v}) for n={self.n_nodes}")
            if (u, v) in seen:
                raise GraphFormatError(f"duplicate edge ({u}, {v})")
            seen.add((u, v))
        if self.weights is not None:
            if len(self.weights) != len(self.edges):
                raise GraphFormatError("weights length != edge count")
            # NaN fails the comparison.
            if not all(0 < w < np.inf for w in self.weights):
                raise GraphFormatError("weights must be positive and finite")
        ends = np.array(self.edges, dtype=np.int64).reshape(-1, 2).T.copy()
        ends.flags.writeable = False
        object.__setattr__(self, "edge_u", ends[0])
        object.__setattr__(self, "edge_v", ends[1])

    @property
    def m(self) -> int:
        return len(self.edges)

    def weight_array(self) -> np.ndarray:
        if self.weights is None:
            return np.ones(self.m)
        return np.asarray(self.weights, dtype=float)

    def n_components(self, edge_subset=None) -> int:
        """Number of connected components of (V, F); isolated nodes count."""
        uf = UnionFind(self.n_nodes)
        idxs = range(self.m) if edge_subset is None else edge_subset
        for e in idxs:
            u, v = self.edges[e]
            uf.union(u, v)
        return uf.n_components

    def is_forest(self, edge_subset) -> bool:
        uf = UnionFind(self.n_nodes)
        for e in edge_subset:
            u, v = self.edges[e]
            if not uf.union(u, v):
                return False
        return True

    def is_independent_set(self, nodes) -> bool:
        nodes = list(nodes)
        return not (np.isin(self.edge_u, nodes) & np.isin(self.edge_v, nodes)).any()

    def adjacency(self) -> tuple[np.ndarray, np.ndarray]:
        """Neighbour lists in CSR form: node v's neighbours are
        nbrs[indptr[v]:indptr[v + 1]]."""
        ends = np.concatenate((self.edge_u, self.edge_v))
        order = np.argsort(ends, kind="stable")
        indptr = np.searchsorted(ends[order], np.arange(self.n_nodes + 1))
        return indptr, np.concatenate((self.edge_v, self.edge_u))[order]


class UnionFind:
    """Union-find with path halving; tracks the component count."""

    def __init__(self, n: int):
        self.parent = list(range(n))
        self.n_components = n

    def find(self, x: int) -> int:
        p = self.parent
        while p[x] != x:
            p[x] = p[p[x]]
            x = p[x]
        return x

    def union(self, a: int, b: int) -> bool:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        self.parent[rb] = ra
        self.n_components -= 1
        return True


class Dinic:
    """Max-flow over a fixed arc layout with a source and a sink capacity
    per node; the one flow routine behind both graph oracles.

    ``adj[u]`` lists node u's (neighbour, arc) pairs, and arc a ^ 1 is the
    reverse of arc a.  ``max_flow`` takes the capacities as three lists and
    leaves the residual capacities in them."""

    EPS = 1e-12  # residual capacities at most this count as saturated

    def __init__(self, adj):
        self.adj = adj

    def max_flow(self, rs: list, rt: list, r: list) -> float:
        """Push a maximum flow from the source capacities rs to the sink
        capacities rt through the arc capacities r, and return its value.
        Each node's direct path to the sink is filled first (no node may
        have both unbounded).  Then come Dinic's phases: levels from the
        nodes with source capacity left, stopping at nodes with sink
        capacity left, and one augmenting path at a time, by depth-first
        search with a current-arc pointer per node."""
        adj, n, eps = self.adj, len(self.adj), self.EPS
        flow = 0.0
        for v in range(n):
            p = rs[v] if rs[v] < rt[v] else rt[v]
            rs[v] -= p
            rt[v] -= p
            flow += p
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
                return flow
            it = [0] * n
            for v in roots:
                while rs[v] > eps:
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
                    flow += d


def write_edge_list(g: Graph, path) -> None:
    """Write the text edge-list format: header "n m", then "u v [w]" lines."""
    with open(path, "w") as fh:
        fh.write(f"{g.n_nodes} {g.m}\n")
        for idx, (u, v) in enumerate(g.edges):
            if g.weights is None:
                fh.write(f"{u} {v}\n")
            else:
                fh.write(f"{u} {v} {g.weights[idx]!r}\n")


def read_edge_list(path) -> Graph:
    """Parse the "n m" / "u v [w]" format; weights default to 1.0."""
    with open(path) as fh:
        lines = [ln.strip() for ln in fh if ln.strip()]
    if not lines:
        raise GraphFormatError("empty graph file")
    try:
        n, m = map(int, lines[0].split())
    except ValueError as exc:
        raise GraphFormatError(f"bad header {lines[0]!r}") from exc
    if len(lines) - 1 != m:
        raise GraphFormatError(f"header says m={m}, found {len(lines) - 1} edges")
    edges, weights, any_weight = [], [], False
    for ln in lines[1:]:
        parts = ln.split()
        if len(parts) not in (2, 3):
            raise GraphFormatError(f"bad edge line {ln!r}")
        u, v = int(parts[0]), int(parts[1])
        if u > v:
            u, v = v, u
        edges.append((u, v))
        if len(parts) == 3:
            any_weight = True
            weights.append(float(parts[2]))
        else:
            weights.append(1.0)
    return Graph(n, tuple(edges), tuple(weights) if any_weight else None)
