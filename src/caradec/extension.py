"""The continuous extension of a set objective induced by a decomposition:
evaluation, guarantee-preserving rounding, and exact reverse-mode gradients
through the recorded piecewise-linear tape."""

from __future__ import annotations

from functools import reduce
from itertools import chain
from operator import add

import numpy as np

from . import kernels
from .core import (
    EXACT,
    ConstraintSpec,
    Decomposition,
    DecompositionConfig,
    GradientTape,
    VertexSet,
)


class SetObjective:
    """A deterministic set function; half-integral vertices score via the
    policy hook (default 0, the penalizing option).

    Two batch hooks score many sets at once, and a subclass with a
    vectorised formula overrides them: values_of_rows scores CSR rows, and
    every solver's batch goes through it; swap_values scores the single
    swaps of local search, by default as rows of values_of_rows."""

    def value_of(self, indices: tuple[int, ...]) -> float:
        raise NotImplementedError

    def values_of_rows(self, indptr: np.ndarray, indices: np.ndarray) -> np.ndarray:
        """f at each row of a CSR batch (row r is the index set
        indices[indptr[r]:indptr[r + 1]]), as a float array in order.  The
        default passes each row to value_of as a sorted tuple."""
        ptr, idx = np.asarray(indptr).tolist(), np.asarray(indices).tolist()
        return np.array([float(self.value_of(tuple(sorted(idx[lo:hi])))) for lo, hi in zip(ptr, ptr[1:])],
                        dtype=np.float64)

    def swap_values(self, value: float, members: np.ndarray, candidates: np.ndarray, drop: np.ndarray,
                    add: np.ndarray) -> np.ndarray:
        """f(S - members[drop[r]] + candidates[add[r]]) for each r, as a float
        array in order, where S is the set of members (int64 ids, ascending)
        and value is f(S); candidates (int64 ids) lie outside S.  The default
        scores each swapped set as a sorted row of values_of_rows and does
        not read value."""
        k = members.shape[0]
        # Row r of `rest` is the members without member r.
        rest = np.broadcast_to(members, (k, k))[~np.eye(k, dtype=bool)].reshape(k, max(k - 1, 0))
        batch = np.sort(np.concatenate((rest[drop], candidates[add, None]), axis=1), axis=1)
        return self.values_of_rows(np.arange(drop.shape[0] + 1) * k, batch.ravel())

    def values_of(self, sets) -> np.ndarray:
        """f at each index set of a sequence, as a float array in order:
        values_of_rows of the sets packed into CSR rows."""
        indptr = np.zeros(len(sets) + 1, dtype=np.int64)
        np.cumsum([len(s) for s in sets], out=indptr[1:])
        return self.values_of_rows(indptr, np.fromiter(chain.from_iterable(sets), np.int64, int(indptr[-1])))

    def half_integral_value(self, v: VertexSet) -> float:
        return 0.0

    def half_integral_values(self, rows: np.ndarray) -> np.ndarray:
        """half_integral_value of each row of a dense (k, n) array of
        half-integral vertices, as a float array in order.  The default
        wraps each row in a VertexSet."""
        return np.array([self.half_integral_value(VertexSet.half_integral(row)) for row in rows],
                        dtype=np.float64)

    def __call__(self, v: VertexSet) -> float:
        if v.is_integral:
            return float(self.value_of(v.indices))
        return float(self.half_integral_value(v))


class LinearObjective(SetObjective):
    """Modular objective c.1_S; half-integral vertices score c.v (the
    natural linear extension), so F(x) = c.x for every exact decomposition
    in every family."""

    def __init__(self, weights):
        self.weights = np.asarray(weights, dtype=float)

    def _checked(self, ids) -> np.ndarray:
        """ids as an int64 array; IndexError for an id outside [0, n), as the
        coverage and cut scorers raise (numpy would wrap a negative one)."""
        ids = np.asarray(ids, dtype=np.int64)
        n = self.weights.shape[0]
        if ids.size and not (ids.min() >= 0 and ids.max() < n):
            raise IndexError(f"an index lies outside [0, {n})")
        return ids

    def value_of(self, indices):
        return float(self.weights[self._checked(list(indices))].sum())

    def values_of_rows(self, indptr, indices):
        """value_of of each row sorted, byte for byte: the rows are sorted and
        the weights gathered once.  numpy sums each row as a 1-D slice of
        the gather or, from 3D + 8 rows with D distinct lengths on (about
        where it starts to win), each group of rows of one length along its
        contiguous last axis, which adds every row as the 1-D sum does."""
        indptr, indices = np.asarray(indptr, dtype=np.int64), self._checked(indices)
        lens = np.diff(indptr)
        if lens.shape[0] < 3 * len(set(lens.tolist())) + 8:
            idx, ptr = indices.copy(), indptr.tolist()
            for lo, hi in zip(ptr, ptr[1:]):
                idx[lo:hi].sort()
            w = self.weights[idx]
            return np.array([w[lo:hi].sum() for lo, hi in zip(ptr, ptr[1:])], dtype=np.float64)
        order = np.argsort(lens, kind="stable")
        size = lens[order]
        first = [0] + (np.flatnonzero(size[1:] != size[:-1]) + 1).tolist() + [lens.shape[0]]
        # The rows in order of length: group g is rows order[r0:r1] of
        # length L, at idx[s:s + (r1 - r0) * L].
        end = np.cumsum(size)
        idx = indices[kernels.row_positions(indptr, order)[0]]
        groups = [(r0, r1, int(end[r0] - size[r0]), int(size[r0])) for r0, r1 in zip(first, first[1:])]
        for r0, r1, s, L in groups:
            idx[s : s + (r1 - r0) * L].reshape(r1 - r0, L).sort(axis=1)
        w = self.weights[idx]
        out = np.empty(lens.shape[0])
        for r0, r1, s, L in groups:
            out[order[r0:r1]] = w[s : s + (r1 - r0) * L].reshape(r1 - r0, L).sum(axis=1)
        return out

    def half_integral_value(self, v):
        return float(self.weights @ v.to_vector())

    def half_integral_values(self, rows):
        """The dot product of half_integral_value, row by row, with no
        VertexSet."""
        return np.array([self.weights @ row for row in rows], dtype=np.float64)


class CallableObjective(SetObjective):
    """Adapter for a plain function of a frozenset of indices."""

    def __init__(self, fn, half_integral=None):
        self.fn = fn
        self._half = half_integral

    def value_of(self, indices):
        return float(self.fn(frozenset(indices)))

    def half_integral_value(self, v):
        if self._half is None:
            return 0.0
        return float(self._half(v))


def decompose(x, c: ConstraintSpec, cfg: DecompositionConfig = EXACT) -> Decomposition:
    """The decomposition of x under c."""
    return c.decompose(np.asarray(x, dtype=float), cfg)


def decompose_with_tape(
    x, c: ConstraintSpec, cfg: DecompositionConfig = EXACT
) -> tuple[Decomposition, GradientTape]:
    """The decomposition of x under c and its gradient tape."""
    return c.decompose_with_tape(np.asarray(x, dtype=float), cfg)


def vertex_values(d: Decomposition, f: SetObjective) -> np.ndarray:
    """f at every vertex of d, in pair order: one values_of_rows call on d's
    integral rows, and one f.half_integral_values call on the others as
    dense rows.  evaluate_extension, best_set and backprop_extension (on the
    tape of d) can share the result."""
    indptr, indices, data = d.vertex_rows
    if d.all_integral:
        return f.values_of_rows(indptr, indices)
    integral = d.integral
    lens = np.diff(indptr)[integral]
    out = np.zeros(len(integral))
    out[integral] = f.values_of_rows(np.concatenate(([0], np.cumsum(lens))),
                                     indices[np.repeat(integral, np.diff(indptr))])
    half = np.flatnonzero(~integral)
    at, deg = kernels.row_positions(indptr, half)
    rows = np.zeros((half.shape[0], d.n))
    rows[np.repeat(np.arange(half.shape[0]), deg), indices[at]] = data[at]
    out[half] = f.half_integral_values(rows)
    return out


def evaluate_extension(d: Decomposition, f: SetObjective, fvals=None) -> float:
    """F = sum p_t f(S_t), added in pair order from 0.0; half-integral
    vertices contribute per policy.  fvals, when given, are the vertex
    values of d (see vertex_values)."""
    if fvals is None:
        fvals = vertex_values(d, f)
    return reduce(add, (d.p * np.asarray(fvals, dtype=np.float64)).tolist(), 0.0)


def best_row(d: Decomposition, fvals) -> int:
    """The pair of d's best integral vertex under its vertex values fvals,
    the earliest of equal values, or -1 when no vertex is integral."""
    fvals = np.asarray(fvals)
    if d.all_integral:
        # argmax keeps the first of equal values.
        return int(fvals.argmax()) if fvals.size else -1
    rows = np.flatnonzero(d.integral)
    return int(rows[fvals[rows].argmax()]) if rows.size else -1


def best_set(d: Decomposition, f: SetObjective, fvals=None) -> tuple[VertexSet, float]:
    """Best integral vertex in the support; ties keep the earliest pair.
    With the zero half-integral policy and f >= 0 the returned value is
    >= evaluate_extension(d, f).  fvals as in evaluate_extension."""
    if fvals is None:
        fvals = vertex_values(d, f)
    best = best_row(d, fvals)
    if best < 0:
        raise ValueError("decomposition has no integral vertex")
    return d.vertex(best), float(fvals[best])


def backprop_extension(tape: GradientTape, f: SetObjective, fvals=None) -> np.ndarray:
    """Exact gradient of F = sum p_t f(S_t) treating vertex choices and
    binding constraints as locally constant (valid almost everywhere).
    fvals, when given, are f at the tape's vertices in order."""
    d = tape.d
    if fvals is None:
        fvals = vertex_values(d, f)
    return kernels.backprop_blocks(d.n, d.p, tape.q, tape.a, d.vertex_rows,
                                   tape.functional_rows, tape.wx, fvals, tape.terminal)
