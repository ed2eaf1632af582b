"""Validation helpers of the gradient and matroid tests: finite
differences of the extension along the polytope's affine hull, the
tangent projection that makes gradients comparable there, the distance of
a point from the nearest tie the decomposition could kink on, and the
graphic rank function."""

import numpy as np

from caradec.core import ConstraintSpec, FractionalStableSet, GraphicMatroid, PartitionMatroid
from caradec.extension import SetObjective, decompose, evaluate_extension
from caradec.graphs import Graph
from reference_loops import _rank_table, _subset_sums


def graphic_rank(g: Graph, edge_subset) -> int:
    """r(F) = n - c(F), isolated nodes counting as components."""
    return g.n_nodes - g.n_components(edge_subset)


def blocks_of(c: ConstraintSpec) -> list[list[int]] | None:
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
    blocks = blocks_of(c)
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
    xv = np.asarray(x, dtype=float)
    blocks = blocks_of(c)
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
    xv = np.asarray(x, dtype=float)
    n = xv.shape[0]

    def F(vec):
        return evaluate_extension(decompose(vec, c), f)

    grad = np.zeros(n)
    reliable = np.ones(n, dtype=bool)
    pool_margin = tie_margin(xv, c)
    blocks = blocks_of(c)
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
