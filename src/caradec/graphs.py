"""Simple undirected graphs: the ground structure for forest and stable-set
constraints, their two flow networks (built once per graph), the max-flow
routine of both graph oracles, and the edge-list file format shared by
the CLI."""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import kernels


class GraphFormatError(ValueError):
    pass


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph with optional positive edge weights.

    Edges are stored as (u, v) with u < v, no duplicates, no self-loops.
    Edge indices (their position in ``edges``) identify coordinates of
    edge-indexed vectors throughout the package.  ``edge_u`` and ``edge_v``
    are the edges' endpoints as read-only int64 arrays, in edge order.
    ``edge_network`` and ``double_cover``, the flow networks of the graphic
    and stable-set oracles, are built on first use and kept.
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

    @cached_property
    def edge_network(self) -> Dinic:
        """The flow network of the graphic block flows, built once: edge e =
        (u, v) has arc 2e from u to v and arc 2e + 1 back, the numbering
        that ``kernels.block_scan`` and ``kernels.tight_blocks`` read."""
        return Dinic.from_tails(self.n_nodes, np.stack((self.edge_u, self.edge_v), axis=1).ravel())

    @cached_property
    def double_cover(self) -> Dinic:
        """The bipartite double cover of the stable-set oracle, built once:
        node u_L = u and node u_R = n + u, and per edge e = (u, v) the arcs
        4e from u_L to v_R and 4e + 2 from v_L to u_R, each followed by its
        reverse."""
        n, eu, ev = self.n_nodes, self.edge_u, self.edge_v
        return Dinic.from_tails(2 * n, np.stack((eu, n + ev, ev, n + eu), axis=1).ravel())

    def cover_arcs(self, r: np.ndarray) -> np.ndarray:
        """The arc capacities r of ``double_cover`` as an (m, 2) view of its
        left-to-right arcs: row e holds edge e's arcs u_L -> v_R and
        v_L -> u_R."""
        return r.reshape(self.m, 4)[:, ::2]

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
    per node; the one flow routine behind both graph oracles.  The
    stable-set oracle's per-step path calls ``max_flow``; the graphic
    oracle's block scans run the same flow, once per node, on ``layout``.
    Both run in Python (``_purepy.max_flow``, on either backend); the C
    twin of the flow runs inside the whole-peel kernels
    (``kernels.decompose_fstab`` and ``kernels.decompose_graphic``).

    Node u's slots are ptr[u] .. ptr[u + 1], slot s holds the arc arc[s]
    from u to head[s], and arc a ^ 1 is the reverse of arc a.  The layout
    is built and checked once, into the ``kernels.FlowLayout`` that the
    flow kernels read (ValueError when it is malformed); ``n`` is its node
    count."""

    def __init__(self, ptr, head, arc):
        self.layout = kernels.FlowLayout(ptr, head, arc)
        self.n = self.layout.n

    @classmethod
    def from_tails(cls, n: int, tails) -> Dinic:
        """The layout on n nodes whose arc a leaves tails[a] for tails[a ^ 1],
        each node's arcs in arc order."""
        tails = np.asarray(tails, dtype=np.int64)
        order = np.argsort(tails, kind="stable")
        return cls(np.searchsorted(tails[order], np.arange(n + 1)), tails[order ^ 1], order)

    def max_flow(self, rs: np.ndarray, rt: np.ndarray, r: np.ndarray):
        """Push a maximum flow from the source capacities rs to the sink
        capacities rt through the arc capacities r, float64 arrays that
        become the residual capacities (``kernels.max_flow``; no node may
        have both unbounded).  Returns
        the flow value and the source side of the smallest minimum cut as a
        bool array: the nodes that the nodes with source capacity left reach
        through residual capacities above 1e-12 (``_purepy.FLOW_EPS``)."""
        return kernels.max_flow(self.layout, rs, rt, r)


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
