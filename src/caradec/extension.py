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
    Point,
    VertexSet,
)


class SetObjective:
    """A deterministic set function; half-integral vertices score via the
    policy hook (default 0, the penalizing option).

    values_of_rows is the one batch hook: a subclass with a vectorised
    formula overrides it, and every solver scores through it."""

    def value_of(self, indices: tuple[int, ...]) -> float:
        raise NotImplementedError

    def values_of_rows(self, indptr: np.ndarray, indices: np.ndarray) -> np.ndarray:
        """f at each row of a CSR batch (row r is the index set
        indices[indptr[r]:indptr[r + 1]]), as a float array in order.  The
        default passes each row to value_of as a sorted tuple."""
        ptr, idx = np.asarray(indptr).tolist(), np.asarray(indices).tolist()
        return np.array([float(self.value_of(tuple(sorted(idx[lo:hi])))) for lo, hi in zip(ptr, ptr[1:])],
                        dtype=np.float64)

    def values_of(self, sets) -> np.ndarray:
        """f at each index set of a sequence, as a float array in order:
        values_of_rows of the sets packed into CSR rows."""
        indptr = np.zeros(len(sets) + 1, dtype=np.int64)
        np.cumsum([len(s) for s in sets], out=indptr[1:])
        return self.values_of_rows(indptr, np.fromiter(chain.from_iterable(sets), np.int64, int(indptr[-1])))

    def half_integral_value(self, v: VertexSet) -> float:
        return 0.0

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

    def value_of(self, indices):
        return float(self.weights[list(indices)].sum())

    def half_integral_value(self, v):
        return float(self.weights @ v.to_vector())


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
    """The decomposition of x (an array or a Point) under c."""
    return c.decompose(x.values if isinstance(x, Point) else np.asarray(x, dtype=float), cfg)


def decompose_with_tape(
    x, c: ConstraintSpec, cfg: DecompositionConfig = EXACT
) -> tuple[Decomposition, GradientTape]:
    """The decomposition of x under c and its gradient tape."""
    return c.decompose_with_tape(x.values if isinstance(x, Point) else np.asarray(x, dtype=float), cfg)


def vertex_values(d: Decomposition, f: SetObjective) -> np.ndarray:
    """f at every vertex of d, in pair order: one values_of_rows call on d's
    integral rows, and f.half_integral_value for the others.
    evaluate_extension, best_set and backprop_extension (on the tape of d)
    can share the result."""
    indptr, indices, _ = d.vertex_rows
    integral = d.integral
    if integral.all():
        return f.values_of_rows(indptr, indices)
    lens = np.diff(indptr)[integral]
    out = np.zeros(len(integral))
    out[integral] = f.values_of_rows(np.concatenate(([0], np.cumsum(lens))),
                                     indices[np.repeat(integral, np.diff(indptr))])
    for t in np.flatnonzero(~integral).tolist():
        out[t] = f.half_integral_value(d.vertex(t))
    return out


def evaluate_extension(d: Decomposition, f: SetObjective, fvals=None) -> float:
    """F = sum p_t f(S_t), added in pair order from 0.0; half-integral
    vertices contribute per policy.  fvals, when given, are the vertex
    values of d (see vertex_values)."""
    if fvals is None:
        fvals = vertex_values(d, f)
    return reduce(add, (d.p * np.asarray(fvals, dtype=np.float64)).tolist(), 0.0)


def best_set(d: Decomposition, f: SetObjective, fvals=None) -> tuple[VertexSet, float]:
    """Best integral vertex in the support; ties keep the earliest pair.
    With the zero half-integral policy and f >= 0 the returned value is
    >= evaluate_extension(d, f).  fvals as in evaluate_extension."""
    if fvals is None:
        fvals = vertex_values(d, f)
    rows = np.flatnonzero(d.integral)
    if not rows.size:
        raise ValueError("decomposition has no integral vertex")
    # argmax keeps the first of equal values.
    best = int(rows[np.argmax(np.asarray(fvals)[rows])])
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
