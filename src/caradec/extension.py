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
    FractionalStableSet,
    GradientTape,
    GraphicMatroid,
    PartitionMatroid,
    Point,
    VertexSet,
    peel,
)
from .fstab import check_fstab_membership, decompose_fstab, fstab_step
from .hypersimplex import decompose_partition, kernel_decompose
from .matroids import check_graphic_membership, decompose_graphic, graphic_step


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
    """Family dispatcher; cardinality is the one-block partition matroid."""
    xv = x.values if isinstance(x, Point) else np.asarray(x, dtype=float)
    if isinstance(c, PartitionMatroid):
        return decompose_partition(xv, c, cfg)
    if isinstance(c, GraphicMatroid):
        return decompose_graphic(xv, c.graph, cfg)
    if isinstance(c, FractionalStableSet):
        return decompose_fstab(xv, c.graph, cfg)
    raise TypeError(f"unsupported constraint {type(c).__name__}")


def decompose_with_tape(
    x, c: ConstraintSpec, cfg: DecompositionConfig = EXACT
) -> tuple[Decomposition, GradientTape]:
    xv = x.values if isinstance(x, Point) else np.asarray(x, dtype=float)
    if isinstance(c, PartitionMatroid):
        return kernel_decompose(xv, c, cfg)
    if isinstance(c, GraphicMatroid):
        if c.graph.n_components() != 1:
            raise ValueError("gradient tape for graphic constraints needs a connected graph")
        return peel(check_graphic_membership(xv, c.graph), cfg, graphic_step(c.graph))
    if isinstance(c, FractionalStableSet):
        return peel(check_fstab_membership(xv, c.graph), cfg, fstab_step(c.graph))
    raise TypeError(f"unsupported constraint {type(c).__name__}")


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


# ---------------------------------------------------------------------------
# Finite differences and tangent-space helpers


def _blocks_of(c: ConstraintSpec) -> list[list[int]] | None:
    """Coordinate blocks whose sums the polytope fixes; None when the
    polytope is full-dimensional (fstab)."""
    if isinstance(c, PartitionMatroid):
        return [list(b) for b in c.blocks]
    if isinstance(c, GraphicMatroid):
        return [list(range(c.graph.m))]
    return None


def project_to_tangent(vec: np.ndarray, c: ConstraintSpec) -> np.ndarray:
    """Project onto the directions that stay inside the polytope's affine
    hull (remove per-block means); gradients are only comparable there."""
    blocks = _blocks_of(c)
    if blocks is None:
        return np.asarray(vec, dtype=float).copy()
    out = np.asarray(vec, dtype=float).copy()
    for blk in blocks:
        out[blk] -= out[blk].mean()
    return out


def tie_margin(x, c: ConstraintSpec) -> float:
    """Distance of x from the nearest selection/branch tie the decomposition
    could kink on: pairwise value gaps, complement gaps, and boundary gaps
    within each comparison pool."""
    xv = np.asarray(x.values if isinstance(x, Point) else x, dtype=float)
    blocks = _blocks_of(c)
    margin = np.inf
    pools = blocks if blocks is not None else [list(range(xv.shape[0]))]
    for blk in pools:
        vals = xv[blk]
        margin = min(margin, float(vals.min(initial=np.inf)),
                     float((1.0 - vals).min(initial=np.inf)))
        for i in range(len(vals)):
            for j in range(i + 1, len(vals)):
                margin = min(margin, abs(vals[i] - vals[j]),
                             abs(vals[i] + vals[j] - 1.0))
    if isinstance(c, FractionalStableSet):
        for u, v in c.graph.edges:
            margin = min(margin, abs(xv[u] + xv[v] - 1.0))
    if isinstance(c, GraphicMatroid):
        from .matroids import _rank_table, _subset_sums

        rank = _rank_table(c.graph.n_nodes, c.graph.edges).astype(float)
        slack = rank - _subset_sums(xv)
        pos = slack[slack > 1e-12]
        if pos.size:
            margin = min(margin, float(pos.min()))
    return margin


def finite_diff_gradient(x, c: ConstraintSpec, f: SetObjective, h: float = 1e-6):
    """Central differences of F = evaluate(decompose(.)) along affine-hull
    preserving directions.

    For sum-constrained families each coordinate is paired with its block's
    last coordinate and the result is re-centered per block, so the output
    is the tangent-space representative of the gradient.  Returns
    (gradient, reliable) where reliable is False for coordinates within
    10h of a tie."""
    xv = np.asarray(x.values if isinstance(x, Point) else x, dtype=float)
    n = xv.shape[0]

    def F(vec):
        return evaluate_extension(decompose(vec, c), f)

    grad = np.zeros(n)
    reliable = np.ones(n, dtype=bool)
    pool_margin = tie_margin(xv, c)
    blocks = _blocks_of(c)
    if blocks is None:
        for i in range(n):
            up, dn = xv.copy(), xv.copy()
            up[i] += h
            dn[i] -= h
            grad[i] = (F(up) - F(dn)) / (2 * h)
        if pool_margin <= 10 * h:
            reliable[:] = False
        return grad, reliable
    for blk in blocks:
        ref = blk[-1]
        for i in blk[:-1]:
            up, dn = xv.copy(), xv.copy()
            up[i] += h
            up[ref] -= h
            dn[i] -= h
            dn[ref] += h
            grad[i] = (F(up) - F(dn)) / (2 * h)
        grad[ref] = 0.0
        grad[blk] -= grad[blk].mean()
    if pool_margin <= 10 * h:
        reliable[:] = False
    return grad, reliable
