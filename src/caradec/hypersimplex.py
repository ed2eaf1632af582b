"""Box-plus-sum polytopes: partition-matroid bases, with exact cardinality
(the hypersimplex) as the one-block case.  The family classes, and through
the block kernels the mean-centred projection and its VJP, the membership
check, and exact / rescaled decomposition of their points into feasible
sets with the gradient tape."""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain, combinations, product

import numpy as np

from . import kernels
from .core import (
    ENUMERATION_CAP,
    EXACT,
    Decomposition,
    DecompositionConfig,
    GradientTape,
    VertexSet,
)


@dataclass(frozen=True)
class PartitionMatroid:
    """Per-block exact budgets over a partitioned ground set.

    The per-element block array, the per-block index arrays and the block
    kernels' ``kernels.BlockLayout`` are built once here (read-only,
    outside the compared fields) for the kernels and swap checks."""

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
        object.__setattr__(self, "layout", kernels.BlockLayout(block_of, budget_array))

    family = "partition"

    @property
    def dim(self) -> int:
        return self.n

    def iteration_bound(self) -> int:
        # n = 0 still takes one pair: the empty set, with mass 1.
        return max(self.n, 1)

    def block_of(self) -> np.ndarray:
        """Block number of every element (read-only)."""
        return self._block_of

    def vertex_feasible(self, v: VertexSet) -> bool:
        if not v.is_integral or v.n != self.n:
            return False
        counts = np.bincount(self._block_of[list(v.indices)], minlength=len(self.budgets))
        return bool((counts == self.budget_array).all())

    def project(self, z):
        x = kernels.project_blocks(z, self.layout)
        return x, lambda gx: kernels.project_blocks_vjp(z, self.layout, gx)

    def sigmoid_project(self, state):
        """The point of a step of direct_optimize: z = sigmoid(theta) into
        state.z and its projection x, from a kernels.AdamState whose e holds
        exp(-|theta|), in one kernel call."""
        return kernels.sigmoid_project(state, self.layout)

    def ascend(self, state, tape, fvals, t):
        """Adam step t of direct_optimize from a step's tape and vertex values,
        in place on state (a kernels.AdamState whose z is the step's
        sigmoid): the reverse pass, the projection's VJP, the sigmoid's chain
        rule and Adam, in one kernel call, which leaves -|theta| in state.e."""
        kernels.ascend_blocks(state, self.layout, tape, fvals, t)

    def decompose(self, x, cfg):
        return decompose_partition(x, self, cfg)

    def decompose_with_tape(self, x, cfg):
        return kernel_tape(run_kernel(x, self, cfg))

    def swap_mask(self, members, candidates):
        return self._block_of[members][:, None] == self._block_of[candidates][None, :]

    def jitter(self, x, noise):
        return project_to_partition_polytope(np.clip(x + noise, 0.0, 1.0), self)

    def sample_feasible(self, rng):
        out = []
        for idx, k in zip(self.block_indices, self.budgets):
            out.extend(rng.choice(idx, size=k, replace=False).tolist())
        return tuple(sorted(out))

    def random_point(self, rng):
        return project_to_partition_polytope(rng.random(self.n), self)

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


def project_to_partition_polytope(z, spec: PartitionMatroid) -> np.ndarray:
    """Block-wise mean-centered scaling into the partition base polytope;
    each block lands on sum k_i, degenerate blocks on their centers."""
    z = np.asarray(z, dtype=float)
    if z.shape[0] != spec.n:
        raise ValueError("dimension mismatch with partition spec")
    # NaN fails both comparisons.
    if not (z.min(initial=0.0) >= 0.0 and z.max(initial=0.0) <= 1.0):
        raise ValueError("projection input must be finite and lie in [0, 1]^n")
    return kernels.project_blocks(z, spec.layout)


class _ProjectedPoint(np.ndarray):
    """A projected point that also answers ``.values`` (itself, as a plain
    array), the attribute of the point type that projections returned
    before they returned arrays; ``perfbench/test_smoke.py`` still reads
    it."""

    @property
    def values(self) -> np.ndarray:
        return self.view(np.ndarray)


def project_to_hypersimplex(z, k: int) -> np.ndarray:
    """Mean-centred scaling of z into the exact-k polytope."""
    return project_to_partition_polytope(z, Cardinality(np.shape(z)[0], k)).view(_ProjectedPoint)


def check_partition_membership(x, spec: PartitionMatroid) -> np.ndarray:
    """x clipped to [0, 1], once it is a point of spec's polytope: the block
    kernel's entry check (DimensionError, MembershipError), run for no
    step."""
    return kernels.decompose_blocks(x, spec.layout, 1.0, 0.0, 0.0, 0, 1.0)[6]


def run_kernel(x, spec: PartitionMatroid, cfg: DecompositionConfig):
    """The block kernel's raw result on x, which it checks first."""
    return kernels.decompose_blocks(
        x,
        spec.layout,
        cfg.scale,
        cfg.floor,
        0.0 if cfg.is_exact else cfg.tolerance,
        cfg.iteration_cap(spec.n),
        cfg.guard,
    )


def kernel_decomposition(res) -> Decomposition:
    """The decomposition of a raw block-kernel result: its vertex rows, all
    of them index sets."""
    return Decomposition.from_rows(res[0], res[3], res[6].shape[0], res[7], all_integral=True)


def kernel_tape(res) -> tuple[Decomposition, GradientTape]:
    """The decomposition and tape of a raw block-kernel result, which holds
    the tape's rows already, and the C kernel's record of where, if any."""
    d = kernel_decomposition(res)
    _, q, a, _, functional_rows, wx, x0, _, terminal = res[:9]
    return d, GradientTape(d, q, a, terminal, x0, functional_rows, wx, getattr(res, "kernel", None))


def decompose_partition(
    x, spec: PartitionMatroid, cfg: DecompositionConfig = EXACT
) -> Decomposition:
    """Decompose x into feasible sets with |S ∩ V_i| = k_i for every block.
    Exact configs give at most n pairs that reconstruct x to float accuracy;
    rescaled ones take b*a_t per step (a_t when b*a_t falls below the
    floor), stop at l2 residual <= tolerance or the iteration cap, and
    leave the leftover mass unreported in the pair list."""
    return kernel_decomposition(run_kernel(x, spec, cfg))


def decompose_hypersimplex(
    x, k: int, cfg: DecompositionConfig = EXACT
) -> Decomposition:
    """decompose_partition of x in the k-hypersimplex: every set of size
    exactly k."""
    return decompose_partition(x, Cardinality(np.shape(x)[0], k), cfg)
