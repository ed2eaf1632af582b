"""Concrete set objectives (weighted max coverage, max cut, linear) and a
brute-force optimum oracle for desk-scale instances."""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
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
    """Weighted coverage.  The set->element incidence is held in CSR form,
    each set's elements once and ascending; a batch goes to
    ``kernels.score_rows``, which adds each row's covered weights in
    ascending element order."""

    def __init__(self, inst: CoverageInstance):
        self.inst = inst
        n_el = max(inst.n_elements, 1)
        # (set, element) pairs as keys, sorted and without repeats.
        keys = np.repeat(np.arange(inst.n_sets, dtype=np.int64) * n_el, [len(m) for m in inst.sets])
        keys += np.fromiter(chain.from_iterable(inst.sets), np.int64, keys.shape[0])
        keys.sort()
        owner, elements = np.divmod(keys[np.diff(keys, prepend=-1) != 0], n_el)
        indptr = np.zeros(inst.n_sets + 1, dtype=np.int64)
        np.cumsum(np.bincount(owner, minlength=inst.n_sets), out=indptr[1:])
        self._layout = kernels.ScoreLayout.coverage(indptr, elements, inst.weights)

    def value_of(self, indices):
        return float(self.values_of([indices])[0])

    def values_of_rows(self, indptr, indices):
        return kernels.score_rows(self._layout, indptr, indices)

    def _elements_of(self, ids):
        """(position in ids, element) of every element of every set of ids."""
        at, deg = kernels.row_positions(self._layout.a, ids)
        return np.repeat(np.arange(ids.shape[0]), deg), self._layout.b[at]

    def swap_values(self, value, members, candidates, drop, add):
        """f(S) - loss_i + gain_j + w(j & U_i), where U_i holds the elements
        that member i alone covers, loss_i = w(U_i) and gain_j the weight of
        j's elements that S leaves uncovered.  The change is summed before
        f(S) is added, so that a swap of two sets of the same elements
        scores f(S) exactly."""
        w, k, nc = self._layout.w, members.shape[0], candidates.shape[0]
        m_pos, m_el = self._elements_of(members)
        c_pos, c_el = self._elements_of(candidates)
        count = np.bincount(m_el, minlength=self._layout.m)
        loss = np.bincount(m_pos, w[m_el] * (count[m_el] == 1), k)
        # owner[e] is the member that covers e when only one does.
        owner = np.zeros(self._layout.m, dtype=np.int64)
        owner[m_el] = m_pos
        w_c, c_count = w[c_el], count[c_el]
        gain = np.bincount(c_pos, w_c * (c_count == 0), nc)
        cross = np.bincount(owner[c_el] * nc + c_pos, w_c * (c_count == 1), k * nc)
        return value + (gain[add] + cross[drop * nc + add] - loss[drop])


def cut_value(g: Graph, selected) -> float:
    """Weight of edges with exactly one endpoint in the selected node set."""
    return CutObjective(g).value_of(tuple(selected))


class CutObjective(SetObjective):
    """Weighted cut.  A batch goes to ``kernels.score_rows``, which adds the
    weights of each row's cut edges in edge order."""

    def __init__(self, g: Graph):
        self.graph = g
        self._layout = kernels.ScoreLayout.cut(g.n_nodes, g.edge_u, g.edge_v, g.weight_array())

    def value_of(self, indices):
        return float(self.values_of([indices])[0])

    def values_of_rows(self, indptr, indices):
        return kernels.score_rows(self._layout, indptr, indices)

    @cached_property
    def _swap_tables(self):
        """The weighted degrees; the edges' keys u * n + v (u < v) in
        ascending order and their weights, for the weight between two
        nodes; the last key, n * n, lies above every pair's."""
        n, u, v, w = self.graph.n_nodes, self._layout.a, self._layout.b, self._layout.w
        key = u * n + v
        order = np.argsort(key)
        return np.bincount(u, w, n) + np.bincount(v, w, n), np.append(key[order], n * n), np.append(w[order], 0.0)

    def swap_values(self, value, members, candidates, drop, add):
        """f(S) + 2w(i, S) - d_i + d_j - 2w(j, S) + 2w_ij (Kernighan & Lin,
        1970), where d is the weighted degree and w(x, S) the weight from x
        into S; the change is summed before f(S) is added."""
        n, u, v, w = self.graph.n_nodes, self._layout.a, self._layout.b, self._layout.w
        inside = np.zeros(n, dtype=bool)
        inside[members] = True
        to_s = np.bincount(u, w * inside[v], n) + np.bincount(v, w * inside[u], n)
        degree, keys, key_w = self._swap_tables
        i, j = members[drop], candidates[add]
        key = np.minimum(i, j) * n + np.maximum(i, j)
        at = np.searchsorted(keys, key)
        w_ij = np.where(keys[at] == key, key_w[at], 0.0)
        return value + (2 * (to_s[i] - to_s[j] + w_ij) + (degree[j] - degree[i]))


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
