"""Concrete set objectives (weighted max coverage, max cut, linear) and a
brute-force optimum oracle for desk-scale instances."""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import chain, islice

import numpy as np

from . import kernels
from .core import ConstraintSpec, VertexSet
from .extension import SetObjective
from .graphs import Graph


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
        # NaN fails the comparison.
        if not all(0 <= w < np.inf for w in self.weights):
            raise ValueError("weights must be nonnegative and finite")
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
    return CoverageObjective(inst).value_of(tuple(selected))


class CoverageObjective(SetObjective):
    """Weighted coverage.  The set->element incidence is held in CSR form;
    a batch goes to ``kernels.coverage_values``, which adds each row's
    covered weights in ascending element order."""

    def __init__(self, inst: CoverageInstance):
        self.inst = inst
        self._weights = np.array(inst.weights, dtype=np.float64)
        lens = [len(m) for m in inst.sets]
        self._indptr = np.concatenate(([0], np.cumsum(lens, dtype=np.int64)))
        self._elements = np.fromiter(chain.from_iterable(inst.sets), np.int64, int(self._indptr[-1]))

    def value_of(self, indices):
        return float(self.values_of([indices])[0])

    def values_of_rows(self, indptr, indices):
        return kernels.coverage_values(self._indptr, self._elements, self._weights, indptr, indices)


def cut_value(g: Graph, selected) -> float:
    """Weight of edges with exactly one endpoint in the selected node set."""
    return CutObjective(g).value_of(tuple(selected))


class CutObjective(SetObjective):
    """Weighted cut.  A batch goes to ``kernels.cut_values``, which adds the
    weights of each row's cut edges in edge order."""

    def __init__(self, g: Graph):
        self.graph = g
        self._w = g.weight_array()
        # Writable copies: the C wrapper takes a writable buffer's address
        # faster than a read-only one's.
        self._u, self._v = g.edge_u.copy(), g.edge_v.copy()

    def value_of(self, indices):
        return float(self.values_of([indices])[0])

    def values_of_rows(self, indptr, indices):
        return kernels.cut_values(self.graph.n_nodes, self._u, self._v, self._w, indptr, indices)


def brute_force_optimum(f: SetObjective, c: ConstraintSpec) -> tuple[VertexSet, float]:
    """Exact maximizer over the feasible sets (desk scale only); ties go to
    the lexicographically smallest set.  The sets are scored by values_of,
    1024 at a time, and scanned in enumeration order."""
    best_set_, best_val = None, -np.inf
    feasible = c.feasible_sets()
    while block := list(islice(feasible, 1024)):
        for s, val in zip(block, f.values_of(block).tolist()):
            if val > best_val + 1e-12:
                best_set_, best_val = s, val
    return VertexSet.integral(best_set_, c.dim), float(best_val)
