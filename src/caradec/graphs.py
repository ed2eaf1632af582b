"""Simple undirected graphs: the ground structure for forest and stable-set
constraints, plus the edge-list file format shared by the CLI."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class GraphFormatError(ValueError):
    pass


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph with optional positive edge weights.

    Edges are stored as (u, v) with u < v, no duplicates, no self-loops.
    Edge indices (their position in ``edges``) identify coordinates of
    edge-indexed vectors throughout the package.
    """

    n_nodes: int
    edges: tuple[tuple[int, int], ...]
    weights: tuple[float, ...] | None = None

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

    def rank(self, edge_subset) -> int:
        """Graphic matroid rank r(F) = n - c(F)."""
        return self.n_nodes - self.n_components(edge_subset)

    def is_forest(self, edge_subset) -> bool:
        uf = UnionFind(self.n_nodes)
        for e in edge_subset:
            u, v = self.edges[e]
            if not uf.union(u, v):
                return False
        return True

    def is_independent_set(self, nodes) -> bool:
        s = set(nodes)
        return not any(u in s and v in s for u, v in self.edges)


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
