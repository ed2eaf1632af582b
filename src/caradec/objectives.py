"""Concrete set objectives (weighted max coverage, max cut, linear) and a
brute-force optimum oracle for desk-scale instances."""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import chain, combinations, islice

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


# Rows per block of a batched evaluation: a block's dense (rows, n) matrix
# stays near 1 MB at n = 1000, whatever the batch size.
CHUNK = 128


def _by_blocks(block_values, sets) -> np.ndarray:
    """Values of a batch of index sets, CHUNK rows at a time:
    block_values(rows, row id of every member, the members) gives one
    block's values.  Its arrays are freed before the next block starts."""
    out = np.empty(len(sets))
    for lo in range(0, len(sets), CHUNK):
        rows = sets[lo:lo + CHUNK]
        lens = np.fromiter(map(len, rows), np.intp, len(rows))
        members = np.fromiter(chain.from_iterable(rows), np.intp, int(lens.sum()))
        out[lo:lo + len(rows)] = block_values(len(rows), np.repeat(np.arange(len(rows)), lens), members)
    return out


def coverage_value(inst: CoverageInstance, selected) -> float:
    """Total weight of elements adjacent to at least one selected set."""
    selected = tuple(selected)
    for i in selected:
        if not (0 <= i < inst.n_sets):
            raise IndexError(f"set index {i} out of range")
    return CoverageObjective(inst).value_of(selected)


class CoverageObjective(SetObjective):
    """Weighted coverage.  The set->element incidence is held in CSR form;
    a batch marks each row's covered elements in a 0/1 mask and sums the
    weights with one mat-vec (einsum on a C-order mask, so a row's sum does
    not depend on the other rows of the batch, as BLAS gemv's may)."""

    def __init__(self, inst: CoverageInstance):
        self.inst = inst
        self._weights = inst.weight_array()
        lens = [len(m) for m in inst.sets]
        self._indptr = np.concatenate(([0], np.cumsum(lens, dtype=np.intp)))
        self._elements = np.fromiter(chain.from_iterable(inst.sets), np.intp, int(self._indptr[-1]))

    def value_of(self, indices):
        return float(self.values_of([indices])[0])

    def values_of(self, sets):
        return _by_blocks(self._block_values, sets)

    def _block_values(self, rows, row, picked):
        n_el = self.inst.n_elements
        start = self._indptr[picked]
        deg = self._indptr[picked + 1] - start
        # Position in _elements of every member element of every picked set,
        # then its cell in the flat (rows, n_el) mask; in place, as these
        # are the largest arrays after the mask.
        cell = np.repeat(start - np.cumsum(deg) + deg, deg)
        cell += np.arange(cell.shape[0])
        cell = self._elements[cell]
        cell += np.repeat(row * n_el, deg)
        mask = np.zeros((rows, n_el))
        mask.ravel()[cell] = 1.0
        return np.einsum("ij,j->i", mask, self._weights)


def cut_value(g: Graph, selected) -> float:
    """Weight of edges with exactly one endpoint in the selected node set."""
    return CutObjective(g).value_of(tuple(selected))


class CutObjective(SetObjective):
    """Weighted cut.  A batch marks each row's side of every node in a
    (rows, n) matrix, compares the two endpoints of every edge, and sums the
    cut edges' weights with one mat-vec (einsum, as for coverage)."""

    def __init__(self, g: Graph):
        self.graph = g
        self._w = g.weight_array()
        self._u, self._v = np.array(g.edges, dtype=np.intp).reshape(-1, 2).T

    def value_of(self, indices):
        return float(self.values_of([indices])[0])

    def values_of(self, sets):
        return _by_blocks(self._block_values, sets)

    def _block_values(self, rows, row, picked):
        side = np.zeros((rows, self.graph.n_nodes), dtype=bool)
        side[row, picked] = True
        # C order, like the coverage mask (a[:, idx] need not be).
        cut = np.not_equal(side[:, self._u], side[:, self._v], order="C")
        return np.einsum("ij,j->i", cut.astype(np.float64), self._w)


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
    the lexicographically smallest set.  The sets are scored by values_of,
    1024 at a time, and scanned in enumeration order."""
    best_set_, best_val = None, -np.inf
    feasible = _feasible_sets(c)
    while block := list(islice(feasible, 1024)):
        for s, val in zip(block, f.values_of(block).tolist()):
            if val > best_val + 1e-12:
                best_set_, best_val = s, val
    n = c.dim
    return VertexSet.integral(best_set_, n), float(best_val)
