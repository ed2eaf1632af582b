"""Shared domain types for convex decompositions of feasible-set polytopes.

A point x in the polytope of a constraint family is decomposed into an
ordered list of (probability, vertex) pairs such that sum(p_t * v_t)
reconstructs x.  Constraint families supported: exact cardinality
(hypersimplex), partition matroid bases, graphical matroid bases
(spanning forests), and the fractional stable set polytope.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .graphs import Graph

MEMBERSHIP_TOL = 1e-9
SUM_TOL = 1e-7


class MembershipError(ValueError):
    """Input point is not in the constraint family's polytope."""


class DimensionError(ValueError):
    pass


class SizeLimitError(ValueError):
    """The instance is larger than a family's exact oracle accepts."""


def check_box(x, space: str = "[0,1]^n") -> np.ndarray:
    """x as a float array, refusing NaN, infinities and entries outside
    [0, 1] by more than MEMBERSHIP_TOL (MembershipError)."""
    x = np.asarray(x, dtype=float)
    # NaN fails both comparisons, so in-box input pays for no extra pass.
    if not (x.min(initial=0.0) >= -MEMBERSHIP_TOL and x.max(initial=0.0) <= 1 + MEMBERSHIP_TOL):
        if not np.isfinite(x).all():
            raise MembershipError("point has non-finite entries")
        raise MembershipError(f"point leaves {space}")
    return x


@dataclass(frozen=True)
class VertexSet:
    """A vertex of a feasible-set polytope.

    Integral vertices are index sets (strictly increasing, 0-based).
    Half-integral vertices (fractional stable set polytope only) store a
    per-coordinate value in {0, 1/2, 1}.
    """

    n: int
    indices: tuple[int, ...] | None = None
    halves: tuple[float, ...] | None = None

    def __post_init__(self):
        if (self.indices is None) == (self.halves is None):
            raise ValueError("exactly one of indices/halves must be given")
        if self.indices is not None:
            if any(b <= a for a, b in zip(self.indices, self.indices[1:])):
                raise ValueError("indices must be strictly increasing")
            if self.indices and not (0 <= self.indices[0] and self.indices[-1] < self.n):
                raise ValueError("index out of range")
        else:
            if len(self.halves) != self.n:
                raise ValueError("halves must have length n")
            if any(v not in (0.0, 0.5, 1.0) for v in self.halves):
                raise ValueError("halves entries must be in {0, 1/2, 1}")

    @classmethod
    def integral(cls, indices, n: int) -> "VertexSet":
        return cls(n=n, indices=tuple(sorted(int(i) for i in indices)))

    @classmethod
    def half_integral(cls, values) -> "VertexSet":
        vals = tuple(float(v) for v in values)
        if all(v in (0.0, 1.0) for v in vals):
            return cls.integral([i for i, v in enumerate(vals) if v == 1.0], len(vals))
        return cls(n=len(vals), halves=vals)

    @property
    def is_integral(self) -> bool:
        return self.indices is not None

    def to_vector(self) -> np.ndarray:
        out = np.zeros(self.n)
        if self.indices is not None:
            out[list(self.indices)] = 1.0
        else:
            out[:] = self.halves
        return out

    def as_set(self) -> frozenset:
        if self.indices is None:
            raise ValueError("half-integral vertex has no index-set form")
        return frozenset(self.indices)

    def __len__(self) -> int:
        if self.indices is not None:
            return len(self.indices)
        return self.n


@dataclass(frozen=True)
class Point:
    """A vector in [0,1]^n tagged with its constraint family."""

    values: np.ndarray
    family: str

    def __post_init__(self):
        vals = np.array(self.values, dtype=float)
        if vals.ndim != 1:
            raise DimensionError("point must be a 1-d vector")
        check_box(vals)
        np.clip(vals, 0.0, 1.0, out=vals)
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)

    @property
    def n(self) -> int:
        return self.values.shape[0]


@dataclass(frozen=True)
class Decomposition:
    """Ordered (probability, vertex) pairs plus the residual left at
    termination (inf-norm reconstruction error) and the iteration count."""

    pairs: tuple[tuple[float, VertexSet], ...]
    residual: float = 0.0
    iterations: int = 0

    def probability_sum(self) -> float:
        return float(sum(p for p, _ in self.pairs))

    def reconstruct(self, n: int | None = None) -> np.ndarray:
        if n is None:
            if not self.pairs:
                raise DimensionError("empty decomposition needs explicit n")
            n = self.pairs[0][1].n
        return reconstruct(self.pairs, n)

    def support(self):
        return [v for _, v in self.pairs]

    def to_json(self) -> str:
        items = []
        for p, v in self.pairs:
            if v.is_integral:
                items.append({"p": p, "set": list(v.indices)})
            else:
                items.append({"p": p, "set": {"half": list(v.halves)}})
        return json.dumps(
            {"pairs": items, "residual": self.residual, "iterations": self.iterations},
            separators=(",", ":"),
        )

    @classmethod
    def from_json(cls, text: str, n: int) -> "Decomposition":
        obj = json.loads(text)
        pairs = []
        for item in obj["pairs"]:
            s = item["set"]
            if isinstance(s, dict):
                v = VertexSet.half_integral(s["half"])
            else:
                v = VertexSet.integral(s, n)
            pairs.append((float(item["p"]), v))
        return cls(tuple(pairs), float(obj["residual"]), int(obj["iterations"]))


@dataclass(frozen=True)
class DecompositionConfig:
    """Knobs for the iterative decomposition.

    scale=1 and floor=0 reproduce the exact decomposition.  With scale b < 1
    each step applies b*a_t unless that falls below the floor, in which case
    the full (exact) step is taken.  tolerance is the l2 residual at which a
    rescaled run stops; guard protects the division by 1 - a_t.
    """

    scale: float = 1.0
    floor: float = 0.0
    tolerance: float = 1e-9
    max_iterations: int | None = None
    guard: float = 1e-12

    def __post_init__(self):
        if not (0.0 < self.scale <= 1.0):
            raise ValueError("scale must be in (0, 1]")
        if not (0.0 <= self.floor < 1.0):
            raise ValueError("floor must be in [0, 1)")
        if self.tolerance < 0:
            raise ValueError("tolerance must be >= 0")
        if self.guard <= 0:
            raise ValueError("guard must be > 0")

    @property
    def is_exact(self) -> bool:
        return self.scale == 1.0 and self.floor == 0.0

    def iteration_cap(self, dim: int) -> int:
        if self.max_iterations is not None:
            return self.max_iterations
        if self.is_exact:
            return dim + 1
        return max(4 * dim, 256)


# ---------------------------------------------------------------------------
# Constraint specifications


@dataclass(frozen=True)
class Cardinality:
    """Exactly-k subsets of an n-element ground set (hypersimplex)."""

    n: int
    k: int

    def __post_init__(self):
        if not (0 <= self.k <= self.n):
            raise ValueError(f"need 0 <= k <= n, got k={self.k}, n={self.n}")

    family = "cardinality"

    @property
    def dim(self) -> int:
        return self.n

    def iteration_bound(self) -> int:
        return self.n

    def vertex_feasible(self, v: VertexSet) -> bool:
        return v.is_integral and len(v.indices) == self.k

    def membership_error(self, x: np.ndarray) -> float:
        box = max(0.0, float(np.max(-x, initial=0.0)), float(np.max(x - 1, initial=0.0)))
        return max(box, abs(float(x.sum()) - self.k))


@dataclass(frozen=True)
class PartitionMatroid:
    """Per-block exact budgets over a partitioned ground set."""

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

    family = "partition"

    @property
    def n(self) -> int:
        return sum(len(b) for b in self.blocks)

    @property
    def dim(self) -> int:
        return self.n

    def iteration_bound(self) -> int:
        return self.n

    def block_of(self) -> np.ndarray:
        out = np.empty(self.n, dtype=np.int32)
        for bi, blk in enumerate(self.blocks):
            out[list(blk)] = bi
        return out

    def vertex_feasible(self, v: VertexSet) -> bool:
        if not v.is_integral:
            return False
        s = set(v.indices)
        return all(len(s.intersection(b)) == k for b, k in zip(self.blocks, self.budgets))

    def membership_error(self, x: np.ndarray) -> float:
        box = max(0.0, float(np.max(-x, initial=0.0)), float(np.max(x - 1, initial=0.0)))
        sums = max(abs(float(x[list(b)].sum()) - k) for b, k in zip(self.blocks, self.budgets))
        return max(box, sums)


@dataclass(frozen=True)
class GraphicMatroid:
    """Full spanning forests of a graph (graphical matroid base polytope),
    over edge-indexed vectors."""

    graph: Graph

    family = "graphic"

    @property
    def dim(self) -> int:
        return self.graph.m

    def iteration_bound(self) -> int:
        return self.graph.m + 1

    def forest_size(self) -> int:
        return self.graph.n_nodes - self.graph.n_components()

    def vertex_feasible(self, v: VertexSet) -> bool:
        if not v.is_integral:
            return False
        if len(v.indices) != self.forest_size():
            return False
        return self.graph.is_forest(v.indices)

    def membership_error(self, x: np.ndarray) -> float:
        box = max(0.0, float(np.max(-x, initial=0.0)), float(np.max(x - 1, initial=0.0)))
        return max(box, abs(float(x.sum()) - self.forest_size()))


@dataclass(frozen=True)
class FractionalStableSet:
    """Box plus per-edge x_u + x_v <= 1 constraints; integral vertices are
    independent sets, other vertices are half-integral."""

    graph: Graph
    slack: float = 0.0

    def __post_init__(self):
        if self.slack < 0:
            raise ValueError("slack must be >= 0")

    family = "fstab"

    @property
    def dim(self) -> int:
        return self.graph.n_nodes

    def iteration_bound(self) -> int:
        return self.graph.n_nodes + 1

    def vertex_feasible(self, v: VertexSet) -> bool:
        if v.is_integral:
            return self.graph.is_independent_set(v.indices)
        vec = v.to_vector()
        return all(vec[u] + vec[w] <= 1.0 for u, w in self.graph.edges)

    def membership_error(self, x: np.ndarray) -> float:
        box = max(0.0, float(np.max(-x, initial=0.0)), float(np.max(x - 1, initial=0.0)))
        edge = 0.0
        for u, w in self.graph.edges:
            edge = max(edge, float(x[u] + x[w] - 1.0))
        return max(box, edge)


ConstraintSpec = Cardinality | PartitionMatroid | GraphicMatroid | FractionalStableSet


# ---------------------------------------------------------------------------
# Operations


def reconstruct(pairs, n: int) -> np.ndarray:
    """Weighted sum of vertex indicator vectors, sum(p_t * v_t)."""
    out = np.zeros(n)
    for p, v in pairs:
        if v.n != n:
            raise DimensionError(f"vertex dimension {v.n} != {n}")
        if v.is_integral:
            out[list(v.indices)] += p
        else:
            out += p * np.asarray(v.halves)
    return out


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of checking a decomposition against its input point and
    constraint family; report-only, never raises."""

    probability_sum_error: float
    reconstruction_error: float
    vertex_feasible: tuple[bool, ...]
    iterations: int
    iteration_bound: int
    messages: tuple[str, ...] = field(default=())

    @property
    def all_feasible(self) -> bool:
        return all(self.vertex_feasible)

    @property
    def within_iteration_bound(self) -> bool:
        return self.iterations <= self.iteration_bound

    def ok(self, tol: float = MEMBERSHIP_TOL) -> bool:
        return (
            self.probability_sum_error <= tol
            and self.reconstruction_error <= tol
            and self.all_feasible
            and self.within_iteration_bound
        )


def validate_decomposition(
    d: Decomposition, c: ConstraintSpec, x, tol: float = MEMBERSHIP_TOL
) -> ValidationReport:
    """Check probability mass, reconstruction, per-vertex feasibility, and
    the iteration bound of a decomposition of x under constraint c."""
    xv = x.values if isinstance(x, Point) else np.asarray(x, dtype=float)
    recon = reconstruct(d.pairs, xv.shape[0])
    recon_err = float(np.max(np.abs(recon - xv), initial=0.0))
    # In exact mode the masses telescope to 1; a rescaled run leaves
    # 1 - sum(p) unreported mass, which the stored residual accounts for.
    mass_gap = 1.0 - d.probability_sum()
    prob_err = abs(mass_gap) if d.residual <= tol else max(0.0, -mass_gap)
    feas = tuple(c.vertex_feasible(v) for _, v in d.pairs)
    msgs = []
    if recon_err > max(tol, d.residual + tol):
        msgs.append(f"reconstruction error {recon_err:.3g} exceeds residual {d.residual:.3g}")
    for i, okv in enumerate(feas):
        if not okv:
            msgs.append(f"pair {i} is not a feasible vertex")
    if any(not math.isfinite(p) or p < -tol or p > 1 + tol for p, _ in d.pairs):
        msgs.append("probability outside [0, 1]")
    return ValidationReport(
        probability_sum_error=prob_err,
        reconstruction_error=recon_err,
        vertex_feasible=feas,
        iterations=d.iterations,
        iteration_bound=c.iteration_bound(),
        messages=tuple(msgs),
    )
