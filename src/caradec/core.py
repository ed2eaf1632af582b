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
import operator
from dataclasses import dataclass, field
from functools import cached_property, reduce

import numpy as np

MEMBERSHIP_TOL = 1e-9
SUM_TOL = 1e-7
NONFINITE_VALUE = "the objective returned a non-finite value at a vertex"
# A graphic iterate whose lam = 0 scan finds a rank face that its forest
# does not span (matroids.graphic_step_coefficient).
RANK_AT_ZERO = "iterate violates a rank constraint at lambda=0"
# The most feasible sets a family's feasible_sets() enumerates.
ENUMERATION_CAP = 10**6


class MembershipError(ValueError):
    """Input point is not in the constraint family's polytope."""


class DimensionError(ValueError):
    pass


def check_shape(x, dim: int) -> np.ndarray:
    """x as a float array, once its shape is (dim,) (DimensionError)."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (dim,):
        raise DimensionError(f"point of shape {x.shape} for a spec of dimension {dim}")
    return x


def check_box(x, dim: int | None = None, space: str = "[0,1]^n") -> np.ndarray:
    """x as a float array, refusing a shape other than (dim,) when dim is
    given (DimensionError), and NaN, infinities and entries outside [0, 1]
    by more than MEMBERSHIP_TOL (MembershipError)."""
    x = np.asarray(x, dtype=float) if dim is None else check_shape(x, dim)
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
            if not all(map(operator.lt, self.indices, self.indices[1:])):
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
        vals = np.asarray(values, dtype=float)
        if ((vals == 0.0) | (vals == 1.0)).all():
            return cls.integral(np.flatnonzero(vals == 1.0).tolist(), vals.shape[0])
        return cls(n=vals.shape[0], halves=tuple(vals.tolist()))

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

    def __len__(self) -> int:
        if self.indices is not None:
            return len(self.indices)
        return self.n


_ONES: dict = {}


def ones(size: int, dtype=np.float64) -> np.ndarray:
    """A read-only array of size ones: a view of one array kept per dtype,
    which grows as needed."""
    base = _ONES.get(dtype)
    if base is None or base.shape[0] < size:
        base = np.ones(max(size, 1024, 2 * (0 if base is None else base.shape[0])), dtype=dtype)
        base.setflags(write=False)
        _ONES[dtype] = base
    return base[:size]


def csr_rows(matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The nonzero entries of a (T, n) matrix as a CSR (indptr, indices,
    data) triple, row by row in index order."""
    vrow, vcol = np.nonzero(matrix)
    return np.searchsorted(vrow, np.arange(matrix.shape[0] + 1)), vcol, matrix[vrow, vcol]


@dataclass(frozen=True, eq=False, init=False)
class Decomposition:
    """Ordered (probability, vertex) pairs plus the residual left at
    termination (inf-norm reconstruction error) and the iteration count.

    Stored as arrays: p[t] is pair t's probability and row t of the CSR
    triple vertex_rows its vertex over n coordinates (data 1, or 1/2 on a
    half-integral vertex).  Decomposition(pairs, residual, iterations)
    converts a pair list; producers call from_rows.  pairs is built on
    first use."""

    p: np.ndarray
    vertex_rows: tuple[np.ndarray, np.ndarray, np.ndarray]
    n: int | None
    residual: float = 0.0
    iterations: int = 0

    def __init__(self, pairs=(), residual: float = 0.0, iterations: int = 0):
        pairs = tuple(pairs)
        n = pairs[0][1].n if pairs else None
        rows = np.zeros((len(pairs), n or 0))
        for t, (_, v) in enumerate(pairs):
            rows[t] = v.to_vector()
        probs = np.array([p for p, _ in pairs], dtype=float)
        self.__dict__.update(p=probs, vertex_rows=csr_rows(rows), n=n,
                             residual=residual, iterations=iterations)

    @classmethod
    def from_rows(cls, p, vertex_rows, n: int, residual: float,
                  all_integral: bool = False) -> "Decomposition":
        """The decomposition of a producer's len(p) steps; a producer whose
        rows are all index sets says so, and then nothing scans them."""
        d = cls.__new__(cls)
        d.__dict__.update(p=p, vertex_rows=vertex_rows, n=n,
                          residual=float(residual), iterations=len(p))
        if all_integral:
            d.__dict__["all_integral"] = True
        return d

    @cached_property
    def integral(self) -> np.ndarray:
        """Whether row t is an index set (every entry 1) rather than a
        half-integral vertex, as a read-only bool array."""
        if self.__dict__.get("all_integral"):
            return ones(len(self.p), bool)
        indptr, _, data = self.vertex_rows
        out = np.ones(len(self.p), dtype=bool)
        out[np.searchsorted(indptr, np.flatnonzero(data != 1.0), "right") - 1] = False
        out.setflags(write=False)
        return out

    @cached_property
    def all_integral(self) -> bool:
        """Whether every row is an index set."""
        return bool(self.integral.all())

    @cached_property
    def sets(self) -> tuple[tuple[int, ...] | None, ...]:
        """Row t's sorted index tuple, or None where the vertex is
        half-integral."""
        indptr, indices, _ = self.vertex_rows
        ptr, idx = indptr.tolist(), indices.tolist()
        return tuple(tuple(idx[lo:hi]) if ok else None
                     for lo, hi, ok in zip(ptr, ptr[1:], self.integral.tolist()))

    def vertex(self, t: int) -> VertexSet:
        """Row t as a VertexSet."""
        indptr, indices, data = self.vertex_rows
        lo, hi = indptr[t], indptr[t + 1]
        if self.integral[t]:
            return VertexSet(self.n, tuple(indices[lo:hi].tolist()))
        row = np.zeros(self.n)
        row[indices[lo:hi]] = data[lo:hi]
        return VertexSet.half_integral(row)

    @cached_property
    def pairs(self) -> tuple[tuple[float, VertexSet], ...]:
        return tuple(zip(self.p.tolist(), map(self.vertex, range(len(self.p)))))

    def probability_sum(self) -> float:
        """sum(p), added in pair order from 0.0."""
        return reduce(operator.add, self.p.tolist(), 0.0)

    def reconstruct(self, n: int | None = None) -> np.ndarray:
        n = self.n if n is None else n
        if n is None:
            raise DimensionError("empty decomposition needs explicit n")
        return reconstruct(self.pairs, n)

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


@dataclass(frozen=True, eq=False, init=False)
class GradientTape:
    """What the reverse pass needs of a recorded decomposition d of x0 that
    d does not hold.  Row t belongs to step t of T: q (the mass left before
    it) and a (its applied coefficient, 1 on a terminal last step), with
    p_t = a_t * q_t exactly and q_{t+1} = q_t * (1 - a_t) up to rounding.

    Row t of the CSR triple functional_rows is step t's binding constraint
    as a linear functional of its iterate, a_t = const + w_t.x_t (a
    terminal row is empty), and wx[t] = w_t.x_t.  No iterate is kept.
    kernel is None, or the record of the C block kernel's call that wrote
    the tape (``kernels._compiled.Recorded``), where
    ``kernels.ascend_blocks`` reads it.  A tape is immutable."""

    d: Decomposition
    q: np.ndarray
    a: np.ndarray
    terminal: bool
    x0: np.ndarray
    functional_rows: tuple[np.ndarray, np.ndarray, np.ndarray]
    wx: np.ndarray
    # Not an init field, so that dataclasses.replace drops it with the
    # rows it describes.
    kernel: tuple | None = field(default=None, init=False)

    def __init__(self, d, q, a, terminal, x0, functional_rows, wx, kernel=None):
        self.__dict__.update(d=d, q=q, a=a, terminal=terminal, x0=x0, functional_rows=functional_rows, wx=wx,
                             kernel=kernel)

    def __getstate__(self):
        # A copy or an unpickled tape has its own arrays, at other
        # addresses than the record's, and is packed on use.
        return {k: v for k, v in self.__dict__.items() if k != "kernel"}


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

    @cached_property
    def is_exact(self) -> bool:
        return self.scale == 1.0 and self.floor == 0.0

    def iteration_cap(self, dim: int) -> int:
        if self.max_iterations is not None:
            return self.max_iterations
        if self.is_exact:
            return dim + 1
        return max(4 * dim, 256)


EXACT = DecompositionConfig()


# ---------------------------------------------------------------------------
# Vertex peeling


@dataclass(frozen=True)
class ActiveConstraintRecord:
    """Binding inequality z.y <= b of a step (z on indices, b = offset),
    stored with z.v so the coefficient is recoverable as
    (b - z.x_t)/(b - z.v)."""

    kind: str
    indices: tuple[int, ...]
    coeffs: tuple[float, ...]
    offset: float
    vertex_value: float

    def denominator(self) -> float:
        return self.offset - self.vertex_value


def peel(x: np.ndarray, cfg: DecompositionConfig, step) -> tuple[Decomposition, GradientTape]:
    """Caratheodory peeling of a checked point x, with its tape.  step(x_t)
    returns the vertex v_t, the largest coefficient a_exact keeping the rest
    in the polytope, its binding inequality and an optional (index, value)
    pin.  Each step applies a = scale * a_exact (a_exact when that falls
    below the floor), sets x_{t+1} = (x_t - a v_t)/(1 - a), pins the binding
    coordinate on exact steps and clips to the box.  The run ends on a
    terminal step (a within the guard of 1, or the mass left below it), at
    l2 residual <= tolerance (rescaled configs) or at the cap."""
    x0, n = x, x.shape[0]
    q = 1.0
    eps = 0.0 if cfg.is_exact else cfg.tolerance
    rows, vecs, lens, w_idx, w_rows, wx = [], [], [], [], [], []
    terminal = False
    for _ in range(cfg.iteration_cap(n)):
        v, a_exact, record, pin = step(x)
        vvec = v.to_vector()
        vecs.append(vvec)
        a_scaled = cfg.scale * a_exact
        a = a_scaled if a_scaled >= cfg.floor else a_exact
        terminal = a > 1.0 - cfg.guard or q * (1.0 - a) < cfg.guard
        if terminal:
            rows.append((q, q, 1.0))
            break
        # a_t = r (b - z.x_t)/(b - z.v_t) with r = a_t/a_exact, so w_t = -r z/(b - z.v_t).
        r = a / a_exact if a_exact > 0 else 1.0
        den = record.denominator()
        zx = reduce(operator.add, np.multiply(record.coeffs, x[list(record.indices)]).tolist(), 0.0)
        lens.append(len(record.indices))
        w_idx.extend(record.indices)
        w_rows.append(-r * np.asarray(record.coeffs) / den)
        wx.append(-r * zx / den)
        x = (x - a * vvec) / (1.0 - a)
        if pin is not None and a == a_exact:
            # The binding coordinate is algebraically exactly 0 or 1.
            x[pin[0]] = pin[1]
        np.clip(x, 0.0, 1.0, out=x)
        rows.append((a * q, q, a))
        q *= 1.0 - a
        # The l2 norm with its squares added in index order, which a C loop
        # repeats (np.linalg.norm's BLAS dot adds in blocks).
        if eps > 0.0 and q * math.sqrt(reduce(operator.add, (x * x).tolist(), 0.0)) <= eps:
            break
    p, qs, avals = (np.array(col, dtype=float) for col in (zip(*rows) if rows else [()] * 3))
    left = np.abs(x - vvec) if terminal else x
    d = Decomposition.from_rows(p, csr_rows(np.array(vecs).reshape(len(rows), n)), n,
                                q * float(np.max(left, initial=0.0)))
    return d, GradientTape(
        d, q=qs, a=avals, terminal=terminal, x0=x0,
        functional_rows=(np.concatenate(([0], np.cumsum(lens + [0] * terminal, dtype=np.int64))),
                         np.array(w_idx, dtype=np.int64),
                         np.concatenate([np.zeros(0), *w_rows])),
        wx=np.array(wx + [0.0] * terminal),
    )


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
    xv = np.asarray(x, dtype=float)
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


# The family classes live next to their oracles.  Each one supplies the
# family protocol that the solvers, the extension and the objectives call:
# project, decompose, decompose_with_tape, vertex_feasible, swap_mask,
# jitter, sample_feasible, random_point and feasible_sets.
from .fstab import FractionalStableSet  # noqa: E402
from .hypersimplex import Cardinality, PartitionMatroid  # noqa: E402
from .matroids import GraphicMatroid  # noqa: E402

ConstraintSpec = Cardinality | PartitionMatroid | GraphicMatroid | FractionalStableSet
