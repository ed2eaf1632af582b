"""Box-plus-sum polytopes: partition-matroid bases, with exact cardinality
(the hypersimplex) as the one-block case.  Mean-centred projection and its
VJP, the membership check, and exact / rescaled decomposition of their
points into feasible sets through the block kernel."""

from __future__ import annotations

import numpy as np

from . import kernels
from .core import (
    EXACT,
    SUM_TOL,
    Cardinality,
    Decomposition,
    DecompositionConfig,
    DimensionError,
    GradientTape,
    MembershipError,
    PartitionMatroid,
    Point,
    check_box,
)
from .kernels._purepy import BRANCH_MIN_IN


def _project_block(z, idx, k, gx=None):
    """Mean-centred scaling of z[idx] onto the block sum k:
    x = s*(z - mean) + k/ni with s = min(k/(ni*mu), (ni-k)/(ni*(1-mu))); the
    degenerate all-zero / all-one blocks map to the uniform center.  Returns
    the projected values and, when gx is given, the pulled-back gradient."""
    ni = len(idx)
    zb = z[idx]
    u = k / ni
    if k == 0 or k == ni:
        return np.full(ni, u), (np.zeros(ni) if gx is not None else None)
    m = float(zb.mean())
    if m <= 0.0 or m >= 1.0:
        return np.full(ni, u), (np.zeros(ni) if gx is not None else None)
    s1 = (k / ni) / m
    s2 = ((ni - k) / ni) / (1.0 - m)
    if s1 <= s2:
        s, ds = s1, -(k / ni) / (m * m)
    else:
        s, ds = s2, ((ni - k) / ni) / ((1.0 - m) ** 2)
    xb = s * (zb - m) + u
    if gx is None:
        return xb, None
    gb = gx[idx]
    pulled = s * (gb - gb.mean()) + (ds / ni) * float(gb @ (zb - m))
    return xb, pulled


def project_blocks(z: np.ndarray, spec: PartitionMatroid, gx=None):
    """Block-wise projection of z (unchecked); returns x and, when gx is
    given, dF/dz for dF/dx = gx."""
    x = np.empty_like(z)
    pulled = None if gx is None else np.zeros_like(z)
    for idx, k in zip(spec.block_indices, spec.budgets):
        x[idx], pb = _project_block(z, idx, k, gx)
        if gx is not None:
            pulled[idx] = pb
    return x, pulled


def project_to_partition_polytope(z, spec: PartitionMatroid) -> Point:
    """Block-wise mean-centered scaling into the partition base polytope;
    each block lands on sum k_i, degenerate blocks on their centers."""
    z = np.asarray(z, dtype=float)
    if z.shape[0] != spec.n:
        raise ValueError("dimension mismatch with partition spec")
    # NaN fails both comparisons.
    if not (z.min(initial=0.0) >= 0.0 and z.max(initial=0.0) <= 1.0):
        raise ValueError("projection input must be finite and lie in [0, 1]^n")
    return Point(project_blocks(z, spec)[0], spec.family)


def project_to_hypersimplex(z, k: int) -> Point:
    """Mean-centred scaling of z into the exact-k polytope."""
    return project_to_partition_polytope(z, Cardinality(np.shape(z)[0], k))


def check_partition_membership(x, spec: PartitionMatroid) -> np.ndarray:
    x = check_box(x)
    if x.shape != (spec.n,):
        raise DimensionError(f"point of shape {x.shape} for a spec of dimension {spec.n}")
    for idx, k in zip(spec.block_indices, spec.budgets):
        s = float(x[idx].sum())
        if abs(s - k) > SUM_TOL:
            raise MembershipError(f"block sum {s:.9f} != k_i={k}")
    return np.clip(x, 0.0, 1.0)


def kernel_decompose(x, spec: PartitionMatroid, cfg: DecompositionConfig):
    """Membership-checked run of the block kernel on x; returns its
    decomposition and tape."""
    xv = check_partition_membership(x.values if isinstance(x, Point) else x, spec)
    res = kernels.decompose_blocks(
        xv,
        spec.block_of(),
        spec.budget_array,
        cfg.scale,
        cfg.floor,
        0.0 if cfg.is_exact else cfg.tolerance,
        cfg.iteration_cap(spec.n),
        cfg.guard,
    )
    return kernel_tape(res, xv)


def kernel_tape(res, x0: np.ndarray) -> tuple[Decomposition, GradientTape]:
    """The decomposition and tape of a raw block-kernel result on x0: one
    vertex per row of the kernel's (T, K) index matrix.  Step t binds one
    coordinate, so w_t is +-r e_bind with r = a_t/a_exact on rescaled
    steps: +r when the smallest in-set value x_t[bind] = a_exact binds,
    -r when the largest out-of-set value x_t[bind] = 1 - a_exact does."""
    probs, qs, avals, verts, branch, bind, aex, residual, terminal = res
    T, K = verts.shape
    d = Decomposition.from_rows(
        probs, (np.arange(T + 1) * K, verts.ravel().astype(np.int64), np.ones(T * K)),
        x0.shape[0], residual,
    )
    live = np.arange(T) < T - bool(terminal)
    r = np.divide(avals, aex, out=np.ones(T), where=(aex > 0.0) & (avals != aex))
    min_in = branch == BRANCH_MIN_IN
    w = np.where(min_in, r, -r)
    return d, GradientTape(
        d, q=qs, a=avals, terminal=bool(terminal), x0=x0,
        functional_rows=(np.concatenate(([0], np.cumsum(live))), bind[live], w[live]),
        wx=np.where(live, w * np.where(min_in, aex, 1.0 - aex), 0.0),
    )


def decompose_partition(
    x, spec: PartitionMatroid, cfg: DecompositionConfig = EXACT
) -> Decomposition:
    """Decompose x into feasible sets with |S ∩ V_i| = k_i for every block.
    Exact configs give at most n pairs that reconstruct x to float accuracy;
    rescaled ones take b*a_t per step (a_t when b*a_t falls below the
    floor), stop at l2 residual <= tolerance or the iteration cap, and
    leave the leftover mass unreported in the pair list."""
    return kernel_decompose(x, spec, cfg)[0]


def decompose_hypersimplex(
    x, k: int, cfg: DecompositionConfig = EXACT
) -> Decomposition:
    """decompose_partition of x in the k-hypersimplex: every set of size
    exactly k."""
    xv = x.values if isinstance(x, Point) else np.asarray(x, dtype=float)
    return decompose_partition(xv, Cardinality(xv.shape[0], k), cfg)
