"""Concrete set objectives (weighted max coverage, max cut, linear) and a
brute-force optimum oracle for desk-scale instances."""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .core import ConstraintSpec, FractionalStableSet, GraphicMatroid, PartitionMatroid, VertexSet
from .extension import SetObjective
from .graphs import Graph, UnionFind


@dataclass(frozen=True)
class CoverageInstance:
    """Bipartite coverage system: n_sets covering subsets of n_elements
    weighted elements."""

    n_sets: int
    n_elements: int
    weights: tuple[float, ...]
    sets: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if len(self.weights) != self.n_elements:
            raise ValueError("one weight per element required")
        if len(self.sets) != self.n_sets:
            raise ValueError("one member list per set required")
        if any(w < 0 for w in self.weights):
            raise ValueError("weights must be nonnegative")
        for members in self.sets:
            if any(not (0 <= e < self.n_elements) for e in members):
                raise ValueError("element index out of range")

    def weight_array(self) -> np.ndarray:
        return np.asarray(self.weights)

    def member_arrays(self) -> list[np.ndarray]:
        return [np.asarray(m, dtype=np.int64) for m in self.sets]

    def to_json(self) -> str:
        return json.dumps(
            {
                "n_sets": self.n_sets,
                "n_elements": self.n_elements,
                "weights": list(self.weights),
                "sets": [list(m) for m in self.sets],
            },
            separators=(",", ":"),
        )

    @classmethod
    def from_json(cls, text: str) -> "CoverageInstance":
        obj = json.loads(text)
        return cls(
            n_sets=int(obj["n_sets"]),
            n_elements=int(obj["n_elements"]),
            weights=tuple(float(w) for w in obj["weights"]),
            sets=tuple(tuple(int(e) for e in m) for m in obj["sets"]),
        )


def coverage_value(inst: CoverageInstance, selected) -> float:
    """Total weight of elements adjacent to at least one selected set."""
    marked = np.zeros(inst.n_elements, dtype=bool)
    for i in selected:
        if not (0 <= i < inst.n_sets):
            raise IndexError(f"set index {i} out of range")
        marked[list(inst.sets[i])] = True
    return float(np.asarray(inst.weights)[marked].sum())


class CoverageObjective(SetObjective):
    def __init__(self, inst: CoverageInstance):
        self.inst = inst
        self._weights = inst.weight_array()
        self._members = inst.member_arrays()

    def value_of(self, indices):
        marked = np.zeros(self.inst.n_elements, dtype=bool)
        for i in indices:
            marked[self._members[i]] = True
        return float(self._weights[marked].sum())


def cut_value(g: Graph, selected) -> float:
    """Weight of edges with exactly one endpoint in the selected node set."""
    s = set(selected)
    w = g.weight_array()
    return float(sum(w[e] for e, (u, v) in enumerate(g.edges) if (u in s) != (v in s)))


class CutObjective(SetObjective):
    def __init__(self, g: Graph):
        self.graph = g
        self._w = g.weight_array()

    def value_of(self, indices):
        s = set(indices)
        return float(
            sum(
                self._w[e]
                for e, (u, v) in enumerate(self.graph.edges)
                if (u in s) != (v in s)
            )
        )


ENUMERATION_CAP = 10**6


def _feasible_sets(c: ConstraintSpec):
    if isinstance(c, PartitionMatroid):
        import math

        count = 1
        for blk, k in zip(c.blocks, c.budgets):
            count *= math.comb(len(blk), k)
            if count > ENUMERATION_CAP:
                raise ValueError("enumeration cap exceeded")
        blocks = [(sorted(blk), k) for blk, k in zip(c.blocks, c.budgets)]

        # Lazily, in itertools.product order over the blocks' combinations.
        def extend(bi, chosen):
            if bi == len(blocks):
                yield tuple(sorted(chosen))
                return
            for comb in combinations(*blocks[bi]):
                yield from extend(bi + 1, chosen + comb)

        yield from extend(0, ())
        return
    if isinstance(c, GraphicMatroid):
        g = c.graph
        size = g.n_nodes - g.n_components()
        import math

        if math.comb(g.m, size) > ENUMERATION_CAP:
            raise ValueError("enumeration cap exceeded")
        for combo in combinations(range(g.m), size):
            uf = UnionFind(g.n_nodes)
            if all(uf.union(*g.edges[e]) for e in combo):
                yield combo
        return
    if isinstance(c, FractionalStableSet):
        g = c.graph
        n = g.n_nodes
        if 2**n > ENUMERATION_CAP:
            raise ValueError("enumeration cap exceeded")
        adj = [set() for _ in range(n)]
        for u, v in g.edges:
            adj[u].add(v)
            adj[v].add(u)

        def extend(prefix, start):
            yield tuple(prefix)
            for v in range(start, n):
                if not any(u in adj[v] for u in prefix):
                    prefix.append(v)
                    yield from extend(prefix, v + 1)
                    prefix.pop()

        yield from extend([], 0)
        return
    raise TypeError(f"unsupported constraint {type(c).__name__}")


def brute_force_optimum(f: SetObjective, c: ConstraintSpec) -> tuple[VertexSet, float]:
    """Exact maximizer over the feasible sets (desk scale only); ties go to
    the lexicographically smallest set."""
    best_set_, best_val = None, -np.inf
    for s in _feasible_sets(c):
        val = f.value_of(s)
        if val > best_val + 1e-12:
            best_set_, best_val = s, val
    n = c.dim
    return VertexSet.integral(best_set_, n), float(best_val)
