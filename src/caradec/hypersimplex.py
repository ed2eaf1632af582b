"""Projection into the hypersimplex (exact-cardinality polytope) and
exact / rescaled decomposition of its points into size-k vertex sets."""

from __future__ import annotations

import numpy as np

from . import kernels
from .core import (
    SUM_TOL,
    Cardinality,
    Decomposition,
    DecompositionConfig,
    MembershipError,
    Point,
    VertexSet,
    check_box,
)

EXACT = DecompositionConfig()


def project_to_hypersimplex(z, k: int) -> Point:
    """Scale the mean-centered z into the exact-k polytope.

    x = s*(z - mean) + k/n with s = min(k/(n*mu), (n-k)/(n*(1-mu))); the
    degenerate all-zero / all-one inputs map to the uniform center.
    """
    z = np.asarray(z, dtype=float)
    n = z.shape[0]
    if not (0 <= k <= n):
        raise ValueError(f"k={k} out of range for n={n}")
    if z.min(initial=0.0) < 0.0 or z.max(initial=0.0) > 1.0:
        raise ValueError("projection input must lie in [0, 1]^n")
    u = np.full(n, k / n)
    if k == 0 or k == n:
        return Point(u, "cardinality")
    mu = float(z.mean())
    if mu <= 0.0 or mu >= 1.0:
        return Point(u, "cardinality")
    s = min((k / n) / mu, ((n - k) / n) / (1.0 - mu))
    return Point(s * (z - mu) + u, "cardinality")


def top_k_vertex(x, k: int) -> VertexSet:
    """Indices of the k largest entries; ties go to the smaller index."""
    x = np.asarray(x, dtype=float)
    n = x.shape[0]
    if k > n:
        raise ValueError(f"k={k} exceeds dimension {n}")
    order = np.argsort(-x, kind="stable")
    return VertexSet.integral(order[:k], n)


def max_step_coefficient(x, s: VertexSet) -> float:
    """Largest a with (x - a*1_S)/(1-a) still in the box: the smaller of the
    least in-set entry and one minus the largest out-of-set entry."""
    x = np.asarray(x, dtype=float)
    if not s.is_integral:
        raise ValueError("integral vertex required")
    idx = list(s.indices)
    mask = np.zeros(x.shape[0], dtype=bool)
    mask[idx] = True
    a_in = float(x[mask].min()) if idx else np.inf
    out = x[~mask]
    a_out = 1.0 - float(out.max()) if out.size else np.inf
    return float(min(a_in, a_out, 1.0))


def _check_membership(x: np.ndarray, k: int) -> np.ndarray:
    x = check_box(x)
    if abs(float(x.sum()) - k) > SUM_TOL:
        raise MembershipError(
            f"sum {x.sum():.9f} != k={k}; refusing to renormalize silently"
        )
    return np.clip(x, 0.0, 1.0)


def _run_kernel(x: np.ndarray, k: int, cfg: DecompositionConfig, want_tape: bool):
    n = x.shape[0]
    eps = 0.0 if cfg.is_exact else cfg.tolerance
    return kernels.decompose_blocks(
        x,
        np.zeros(n, dtype=np.int32),
        np.array([k], dtype=np.int64),
        cfg.scale,
        cfg.floor,
        eps,
        cfg.iteration_cap(n),
        cfg.guard,
        want_tape,
    )


def _kernel_vertices(verts: np.ndarray, n: int) -> list[VertexSet]:
    """One vertex per row of the kernel's (T, K) index matrix.  Rows come
    sorted; the constructor still checks order and range."""
    return [VertexSet(n, tuple(row)) for row in verts.tolist()]


def _to_decomposition(result, n: int) -> Decomposition:
    probs, _, _, verts, _, _, _, _, residual_inf, _ = result
    pairs = tuple(zip(probs.tolist(), _kernel_vertices(verts, n)))
    return Decomposition(pairs, residual=float(residual_inf), iterations=len(pairs))


def decompose_hypersimplex(
    x, k: int, cfg: DecompositionConfig = EXACT
) -> Decomposition:
    """Exact decomposition of x in the k-hypersimplex: at most n pairs, every
    set of size exactly k, reconstruction to float accuracy."""
    if not cfg.is_exact:
        raise ValueError("decompose_hypersimplex needs scale=1, floor=0; "
                         "use decompose_rescaled")
    xv = x.values if isinstance(x, Point) else x
    xv = _check_membership(xv, k)
    return _to_decomposition(_run_kernel(xv, k, cfg, False), xv.shape[0])


def decompose_rescaled(x, k: int, cfg: DecompositionConfig) -> Decomposition:
    """Decomposition with per-step coefficient b*a_t (or a_t when b*a_t falls
    below the floor), stopped at l2 residual <= tolerance or the iteration
    cap; the leftover mass stays unreported in the pair list."""
    xv = x.values if isinstance(x, Point) else x
    xv = _check_membership(xv, k)
    return _to_decomposition(_run_kernel(xv, k, cfg, False), xv.shape[0])


def _kernel_decompose_for_tape(x, spec, cfg: DecompositionConfig):
    """Shared fast path for cardinality/partition tapes; returns the raw
    kernel result (used by the extension module)."""
    if isinstance(spec, Cardinality):
        xv = _check_membership(x, spec.k)
        res = _run_kernel(xv, spec.k, cfg, True)
        return res, xv
    # partition matroid
    from .matroids import check_partition_membership

    xv = check_partition_membership(x, spec)
    eps = 0.0 if cfg.is_exact else cfg.tolerance
    res = kernels.decompose_blocks(
        xv,
        spec.block_of(),
        np.array(spec.budgets, dtype=np.int64),
        cfg.scale,
        cfg.floor,
        eps,
        cfg.iteration_cap(spec.n),
        cfg.guard,
        True,
    )
    return res, xv
