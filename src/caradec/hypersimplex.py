"""Box-plus-sum polytopes: partition-matroid bases, with exact cardinality
(the hypersimplex) as the one-block case.  The family classes, the
mean-centred projection and its VJP, the membership check, and exact /
rescaled decomposition of their points into feasible sets through the
block kernel."""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain, combinations, product

import numpy as np

from . import kernels
from .core import (
    ENUMERATION_CAP,
    EXACT,
    SUM_TOL,
    Decomposition,
    DecompositionConfig,
    GradientTape,
    MembershipError,
    Point,
    VertexSet,
    check_box,
)
from .kernels._purepy import BRANCH_MIN_IN


@dataclass(frozen=True)
class PartitionMatroid:
    """Per-block exact budgets over a partitioned ground set.

    The per-element block array and the per-block index arrays are built
    once here (read-only, outside the compared fields) for the kernel, the
    projection and swap checks."""

    blocks: tuple[tuple[int, ...], ...]
    budgets: tuple[int, ...]

    def __init__(self, blocks, budgets):
        object.__setattr__(self, "blocks", tuple(tuple(int(i) for i in b) for b in blocks))
        object.__setattr__(self, "budgets", tuple(int(k) for k in budgets))
        if len(self.blocks) != len(self.budgets):
            raise ValueError("one budget per block required")
        flat = [i for b in self.blocks for i in b]
        n = len(flat)
        if sorted(flat) != list(range(n)):
            raise ValueError("blocks must partition {0..n-1}")
        for b, k in zip(self.blocks, self.budgets):
            if not (0 <= k <= len(b)):
                raise ValueError(f"budget {k} out of range for block of size {len(b)}")
        block_of = np.empty(n, dtype=np.int32)
        block_indices = tuple(np.array(b, dtype=np.int64) for b in self.blocks)
        for bi, idx in enumerate(block_indices):
            block_of[idx] = bi
            idx.setflags(write=False)
        block_of.setflags(write=False)
        budget_array = np.array(self.budgets, dtype=np.int64)
        budget_array.setflags(write=False)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "block_indices", block_indices)
        object.__setattr__(self, "budget_array", budget_array)
        object.__setattr__(self, "_block_of", block_of)

    family = "partition"

    @property
    def dim(self) -> int:
        return self.n

    def iteration_bound(self) -> int:
        return self.n

    def block_of(self) -> np.ndarray:
        """Block number of every element (read-only)."""
        return self._block_of

    def vertex_feasible(self, v: VertexSet) -> bool:
        if not v.is_integral or v.n != self.n:
            return False
        counts = np.bincount(self._block_of[list(v.indices)], minlength=len(self.budgets))
        return bool((counts == self.budget_array).all())

    def project(self, z):
        x, _ = project_blocks(z, self)
        return x, lambda gx: project_blocks(z, self, gx)[1]

    def decompose(self, x, cfg):
        return decompose_partition(x, self, cfg)

    def decompose_with_tape(self, x, cfg):
        xv, res = run_kernel(x, self, cfg)
        return kernel_tape(res, xv)

    def swap_mask(self, members, candidates):
        return self._block_of[members][:, None] == self._block_of[candidates][None, :]

    def jitter(self, x, noise):
        return project_to_partition_polytope(np.clip(x + noise, 0.0, 1.0), self).values

    def sample_feasible(self, rng):
        out = []
        for idx, k in zip(self.block_indices, self.budgets):
            out.extend(rng.choice(idx, size=k, replace=False).tolist())
        return tuple(sorted(out))

    def random_point(self, rng):
        return project_to_partition_polytope(rng.random(self.n), self).values

    def feasible_sets(self):
        if math.prod(math.comb(len(b), k) for b, k in zip(self.blocks, self.budgets)) > ENUMERATION_CAP:
            raise ValueError("enumeration cap exceeded")
        # The order decides ties in brute_force_optimum.
        per_block = [combinations(sorted(b), k) for b, k in zip(self.blocks, self.budgets)]
        for chosen in product(*per_block):
            yield tuple(sorted(chain.from_iterable(chosen)))


class Cardinality(PartitionMatroid):
    """Exactly-k subsets of an n-element ground set (hypersimplex): the
    partition matroid with the single block {0..n-1} of budget k."""

    family = "cardinality"

    def __init__(self, n: int, k: int):
        if not (0 <= k <= n):
            raise ValueError(f"need 0 <= k <= n, got k={k}, n={n}")
        super().__init__((range(n),), (k,))
        object.__setattr__(self, "k", int(k))

    def __repr__(self) -> str:
        return f"Cardinality(n={self.n}, k={self.k})"


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
    x = check_box(x, spec.n)
    for idx, k in zip(spec.block_indices, spec.budgets):
        s = float(x[idx].sum())
        if abs(s - k) > SUM_TOL:
            raise MembershipError(f"block sum {s:.9f} != k_i={k}")
    return np.clip(x, 0.0, 1.0)


def run_kernel(x, spec: PartitionMatroid, cfg: DecompositionConfig):
    """The membership-checked point x and the block kernel's raw result on
    it."""
    xv = check_partition_membership(x.values if isinstance(x, Point) else x, spec)
    return xv, kernels.decompose_blocks(
        xv,
        spec.block_of(),
        spec.budget_array,
        cfg.scale,
        cfg.floor,
        0.0 if cfg.is_exact else cfg.tolerance,
        cfg.iteration_cap(spec.n),
        cfg.guard,
    )


def kernel_decomposition(res, n: int) -> Decomposition:
    """The decomposition of a raw block-kernel result on n coordinates: one
    vertex per row of the kernel's (T, K) index matrix."""
    probs, verts, residual = res[0], res[3], res[7]
    T, K = verts.shape
    return Decomposition.from_rows(
        probs, (np.arange(T + 1) * K, verts.ravel().astype(np.int64), np.ones(T * K)), n, residual,
    )


def kernel_tape(res, x0: np.ndarray) -> tuple[Decomposition, GradientTape]:
    """The decomposition and tape of a raw block-kernel result on x0.  Step
    t binds one coordinate, so w_t is +-r e_bind with r = a_t/a_exact on
    rescaled steps: +r when the smallest in-set value x_t[bind] = a_exact
    binds, -r when the largest out-of-set value x_t[bind] = 1 - a_exact
    does."""
    _, qs, avals, _, branch, bind, aex, _, terminal = res
    d = kernel_decomposition(res, x0.shape[0])
    T = len(qs)
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
    leave the leftover mass unreported in the pair list.  Builds no tape."""
    return kernel_decomposition(run_kernel(x, spec, cfg)[1], spec.n)


def decompose_hypersimplex(
    x, k: int, cfg: DecompositionConfig = EXACT
) -> Decomposition:
    """decompose_partition of x in the k-hypersimplex: every set of size
    exactly k."""
    xv = x.values if isinstance(x, Point) else np.asarray(x, dtype=float)
    return decompose_partition(xv, Cardinality(xv.shape[0], k), cfg)
