"""The continuous extension of a set objective induced by a decomposition:
evaluation, guarantee-preserving rounding, and exact reverse-mode gradients
through the recorded piecewise-linear tape."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import kernels
from .core import (
    EXACT,
    ConstraintSpec,
    Decomposition,
    DecompositionConfig,
    FractionalStableSet,
    GraphicMatroid,
    PartitionMatroid,
    Point,
    VertexSet,
)
from .fstab import check_fstab_membership, decompose_fstab
from .hypersimplex import _kernel_vertices, decompose_partition, kernel_decompose
from .matroids import (
    _decompose_graphic_component,
    check_graphic_membership,
    decompose_graphic,
)


class SetObjective:
    """A deterministic set function; half-integral vertices score via the
    policy hook (default 0, the penalizing option)."""

    def value_of(self, indices: tuple[int, ...]) -> float:
        raise NotImplementedError

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


@dataclass
class GradientTape:
    """Per-step records sufficient to differentiate the decomposition:
    vertex, applied coefficient, the binding constraint as a linear
    functional of the iterate (a_t = const + w.x_t), and the next iterate.

    Replaying the coefficients reproduces the probabilities exactly:
    p_t = a_t * prod_{i<t}(1 - a_i)."""

    family: str
    n: int
    p: np.ndarray
    q: np.ndarray
    a: np.ndarray
    vertices: list[VertexSet]
    w_idx: list[np.ndarray | None]
    w_coef: list[np.ndarray | None]
    x_next: list[np.ndarray | None]
    terminal: bool
    x0: np.ndarray
    kernel_raw: tuple | None = field(default=None, repr=False)

    def decomposition(self, residual: float = 0.0) -> Decomposition:
        pairs = tuple((float(p), v) for p, v in zip(self.p, self.vertices))
        return Decomposition(pairs, residual=residual, iterations=len(pairs))

    def replay_probabilities(self) -> np.ndarray:
        out = np.empty_like(self.a)
        mass = 1.0
        for t, at in enumerate(self.a):
            is_last_terminal = self.terminal and t == len(self.a) - 1
            out[t] = mass if is_last_terminal else at * mass
            mass *= 1.0 - (1.0 if is_last_terminal else at)
        return out


def decompose_with_tape(
    x, c: ConstraintSpec, cfg: DecompositionConfig = EXACT
) -> tuple[Decomposition, GradientTape]:
    xv = x.values if isinstance(x, Point) else np.asarray(x, dtype=float)
    if isinstance(c, PartitionMatroid):
        return _tape_from_kernel(xv, c, cfg)
    if isinstance(c, GraphicMatroid):
        return _tape_graphic(xv, c, cfg)
    if isinstance(c, FractionalStableSet):
        return _tape_fstab(xv, c, cfg)
    raise TypeError(f"unsupported constraint {type(c).__name__}")


def _tape_from_kernel(xv, c, cfg):
    res, x0 = kernel_decompose(xv, c, cfg, True)
    probs, qs, avals, verts, branch, bind, snaps, aex, residual_inf, terminal = res
    n = x0.shape[0]
    vertices = _kernel_vertices(verts, n)
    w_idx, w_coef, x_next = [], [], []
    for t, (br, bi) in enumerate(zip(branch.tolist(), bind.tolist())):
        if br == 2:
            w_idx.append(None)
            w_coef.append(None)
            x_next.append(None)
        else:
            w_idx.append(np.array([bi], dtype=np.int64))
            w_coef.append(np.array([1.0 if br == 0 else -1.0]))
            x_next.append(snaps[t])
    tape = GradientTape(
        family=c.family, n=n, p=probs, q=qs, a=avals, vertices=vertices,
        w_idx=w_idx, w_coef=w_coef, x_next=x_next, terminal=bool(terminal),
        x0=x0, kernel_raw=res,
    )
    d = Decomposition(
        tuple(zip(probs.tolist(), vertices)),
        residual=float(residual_inf),
        iterations=len(probs),
    )
    return d, tape


def _tape_graphic(xv, c, cfg):
    g = c.graph
    if g.n_components() != 1:
        raise ValueError("gradient tape for graphic constraints needs a connected graph")
    x0 = check_graphic_membership(xv, g)
    steps, residual_inf = _decompose_graphic_component(x0.copy(), g, cfg)
    p, q, a, vertices, w_idx, w_coef, x_next = [], [], [], [], [], [], []
    terminal = False
    for pt, qt, at, aext, vidx, trace, xn in steps:
        p.append(pt)
        q.append(qt)
        a.append(at)
        vertices.append(VertexSet.integral(vidx, g.m))
        # rescaled steps apply at = b * aext; the functional scales with b
        ratio = at / aext if aext > 0 else 1.0
        if trace.kind == "terminal":
            terminal = True
            w_idx.append(None)
            w_coef.append(None)
            x_next.append(None)
        elif trace.kind == "min_in_forest":
            w_idx.append(np.array([trace.edge], dtype=np.int64))
            w_coef.append(np.array([ratio]))
            x_next.append(xn)
        elif trace.kind == "one_minus_max_outside":
            w_idx.append(np.array([trace.edge], dtype=np.int64))
            w_coef.append(np.array([-ratio]))
            x_next.append(xn)
        else:  # rank face: a = (r(F) - x(F)) / (r(F) - |S cap F|)
            den = trace.face_rank - trace.face_inter
            w_idx.append(np.asarray(trace.face, dtype=np.int64))
            w_coef.append(np.full(len(trace.face), -ratio / den))
            x_next.append(xn)
    tape = GradientTape(
        family=c.family, n=g.m, p=np.asarray(p), q=np.asarray(q), a=np.asarray(a),
        vertices=vertices, w_idx=w_idx, w_coef=w_coef, x_next=x_next,
        terminal=terminal, x0=x0,
    )
    return tape.decomposition(residual=float(residual_inf)), tape


def _tape_fstab(xv, c, cfg):
    g = c.graph
    x0 = check_fstab_membership(xv, g)
    collect: list = []
    d = decompose_fstab(x0, g, cfg, _collect=collect)
    p, q, a, vertices, w_idx, w_coef, x_next = [], [], [], [], [], [], []
    terminal = False
    for pt, qt, at, aext, v, record, xn in collect:
        p.append(pt)
        q.append(qt)
        a.append(at)
        vertices.append(v)
        ratio = at / aext if aext > 0 else 1.0
        if record is None:
            terminal = True
            w_idx.append(None)
            w_coef.append(None)
            x_next.append(None)
        else:
            den = record.denominator()
            w_idx.append(np.asarray(record.indices, dtype=np.int64))
            w_coef.append(-ratio * np.asarray(record.coeffs) / den)
            x_next.append(xn)
    tape = GradientTape(
        family=c.family, n=g.n_nodes, p=np.asarray(p), q=np.asarray(q),
        a=np.asarray(a), vertices=vertices, w_idx=w_idx, w_coef=w_coef,
        x_next=x_next, terminal=terminal, x0=x0,
    )
    return d, tape


def vertex_values(d: Decomposition, f: SetObjective) -> list[float]:
    """f at every vertex of d, in pair order: one evaluation per vertex that
    evaluate_extension, best_set and backprop_extension (on the tape that
    produced d) can share."""
    return [f(v) for _, v in d.pairs]


def evaluate_extension(d: Decomposition, f: SetObjective, fvals=None) -> float:
    """F = sum p_t f(S_t); half-integral vertices contribute per policy.
    fvals, when given, are the vertex values of d (see vertex_values)."""
    if fvals is None:
        fvals = vertex_values(d, f)
    return float(sum(p * fv for (p, _), fv in zip(d.pairs, fvals)))


def best_set(d: Decomposition, f: SetObjective, fvals=None) -> tuple[VertexSet, float]:
    """Best integral vertex in the support; ties keep the earliest pair.
    With the zero half-integral policy and f >= 0 the returned value is
    >= evaluate_extension(d, f).  fvals as in evaluate_extension."""
    best = None
    for t, (_, v) in enumerate(d.pairs):
        if not v.is_integral:
            continue
        val = f(v) if fvals is None else fvals[t]
        if best is None or val > best[1]:
            best = (v, val)
    if best is None:
        raise ValueError("decomposition has no integral vertex")
    return best


def backprop_extension(tape: GradientTape, f: SetObjective, fvals=None) -> np.ndarray:
    """Exact gradient of F = sum p_t f(S_t) treating vertex choices and
    binding constraints as locally constant (valid almost everywhere).
    fvals, when given, are f at tape.vertices in order."""
    if fvals is None:
        fvals = [f(v) for v in tape.vertices]
    fvals = np.array(fvals, dtype=np.float64)
    if tape.kernel_raw is not None:
        probs, qs, avals, verts, branch, bind, snaps, aex, _, _ = tape.kernel_raw
        return kernels.backprop_blocks(
            tape.n, probs, qs, avals, verts, branch, bind, snaps, aex, fvals
        )
    g = np.zeros(tape.n)
    rest = 0.0
    for t in range(len(fvals) - 1, -1, -1):
        if tape.w_idx[t] is None:
            rest += tape.p[t] * fvals[t]
            continue
        om = 1.0 - tape.a[t]
        s = tape.q[t] * fvals[t] - rest / om
        vvec = tape.vertices[t].to_vector()
        dot = float(g @ tape.x_next[t]) - float(g @ vvec)
        coeff = dot / om + s
        g /= om
        g[tape.w_idx[t]] += coeff * tape.w_coef[t]
        rest += tape.p[t] * fvals[t]
    return g


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
