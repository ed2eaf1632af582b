"""Optimization drivers on top of the decomposition machinery: direct
gradient ascent on the extension, multi-scaling-factor inference with
rounding, local improvement, greedy coverage, and random baselines."""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .core import (
    Cardinality,
    ConstraintSpec,
    Decomposition,
    DecompositionConfig,
    FractionalStableSet,
    GraphicMatroid,
    PartitionMatroid,
    VertexSet,
)
from .extension import (
    SetObjective,
    backprop_extension,
    best_set,
    decompose,
    decompose_with_tape,
    evaluate_extension,
    vertex_values,
)
from .fstab import project_to_fstab
from .graphs import UnionFind
from .hypersimplex import project_to_hypersimplex
from .matroids import max_spanning_forest, project_to_partition_polytope, spanning_tree_marginals
from .objectives import CoverageInstance
from .rng import stream

DEFAULT_SCALES = (1.0, 0.8, 0.6, 0.4, 0.2, 0.1, 0.05, 0.02, 0.01)


@dataclass(frozen=True)
class OptimizeConfig:
    steps: int = 150
    lr: float = 0.015
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    seed: int = 0
    init: str = "center"  # "center" (theta = 0) or "random"
    init_scale: float = 1.0
    round_every: int = 10
    decomposition: DecompositionConfig = field(default_factory=DecompositionConfig)

    def __post_init__(self):
        if self.steps < 0 or self.lr <= 0:
            raise ValueError("steps must be >= 0 and lr > 0")
        if self.init not in ("center", "random"):
            raise ValueError("init must be 'center' or 'random'")


@dataclass(frozen=True)
class ScaleSchedule:
    factors: tuple[float, ...] = DEFAULT_SCALES
    floor: float = 0.0
    tolerance: float = 1e-4
    max_iterations: int | None = None
    repeats: int = 1
    jitter: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if any(not (0 < b <= 1) for b in self.factors):
            raise ValueError("factors must be in (0, 1]")


@dataclass
class SolveResult:
    best: VertexSet | None
    objective: float
    extension_value: float
    time_ms: float
    iterations: int
    method: str
    seed: int
    final_point: np.ndarray | None = None

    def best_indices(self) -> tuple[int, ...]:
        return self.best.indices if self.best is not None else ()

    def csv_row(self, instance_id: str = "-", k: int | None = None) -> str:
        kk = k if k is not None else len(self.best_indices())
        return (
            f"{instance_id},{self.method},{kk},{self.objective:.6f},"
            f"{self.extension_value:.6f},{self.time_ms:.3f},{self.seed},"
            f"{self.iterations}"
        )


class Adam:
    """Plain Adam over one parameter vector (ascent via +lr steps)."""

    def __init__(self, shape, lr, beta1=0.9, beta2=0.999, eps=1e-8):
        self.lr, self.beta1, self.beta2, self.eps = lr, beta1, beta2, eps
        self.m = np.zeros(shape)
        self.v = np.zeros(shape)
        self.t = 0

    def ascend(self, theta: np.ndarray, grad: np.ndarray) -> np.ndarray:
        self.t += 1
        self.m = self.beta1 * self.m + (1 - self.beta1) * grad
        self.v = self.beta2 * self.v + (1 - self.beta2) * grad * grad
        mhat = self.m / (1 - self.beta1**self.t)
        vhat = self.v / (1 - self.beta2**self.t)
        return theta + self.lr * mhat / (np.sqrt(vhat) + self.eps)


def _sigmoid(t: np.ndarray) -> np.ndarray:
    out = np.empty_like(t)
    pos = t >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-t[pos]))
    e = np.exp(t[~pos])
    out[~pos] = e / (1.0 + e)
    return out


def _project_block(z, idx, k, gx=None):
    """Shared cardinality/partition projection on one block; returns the
    projected values and, when gx is given, the pulled-back gradient."""
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


def project_point(z: np.ndarray, c: ConstraintSpec):
    """Differentiable map from the unit cube into the constraint polytope.

    Returns (x, vjp) with vjp pulling dF/dx back to dF/dz; vertex/branch
    selections are treated as locally constant, graphic marginals are
    differentiated by central differences on the edge weights."""
    z = np.asarray(z, dtype=float)
    if isinstance(c, Cardinality):
        idx = np.arange(c.n)

        def vjp(gx):
            _, pulled = _project_block(z, idx, c.k, gx)
            out = np.zeros_like(z)
            out[idx] = pulled
            return out

        x, _ = _project_block(z, idx, c.k)
        return x, vjp
    if isinstance(c, PartitionMatroid):
        def vjp(gx):
            out = np.zeros_like(z)
            for blk, k in zip(c.blocks, c.budgets):
                bidx = np.fromiter(blk, dtype=np.int64)
                _, pulled = _project_block(z, bidx, k, gx)
                out[bidx] = pulled
            return out

        x = np.empty_like(z)
        for blk, k in zip(c.blocks, c.budgets):
            bidx = np.fromiter(blk, dtype=np.int64)
            x[bidx], _ = _project_block(z, bidx, k)
        return x, vjp
    if isinstance(c, GraphicMatroid):
        g = c.graph
        w = np.maximum(z, 1e-6)
        x = spanning_tree_marginals(g, w).values.copy()

        def vjp(gx, h=1e-6):
            out = np.zeros(g.m)
            for j in range(g.m):
                up, dn = w.copy(), w.copy()
                up[j] += h
                dn[j] = max(dn[j] - h, 1e-9)
                col = (
                    spanning_tree_marginals(g, up).values
                    - spanning_tree_marginals(g, dn).values
                ) / (up[j] - dn[j])
                out[j] = float(gx @ col)
            return out

        return x, vjp
    if isinstance(c, FractionalStableSet):
        from .fstab import fstab_projection_vjp, project_to_fstab_trace

        x, trace = project_to_fstab_trace(z, c.graph, c.slack)
        return x, lambda gx: fstab_projection_vjp(trace, gx)
    raise TypeError(f"unsupported constraint {type(c).__name__}")


def center_start(c: ConstraintSpec) -> np.ndarray:
    return np.zeros(c.dim)


def direct_optimize(f: SetObjective, c: ConstraintSpec, cfg: OptimizeConfig) -> SolveResult:
    """Adam ascent on F(project(sigmoid(theta))) with periodic rounding;
    returns the best integral set seen (incumbent) and the extension value
    at the final iterate."""
    t0 = time.perf_counter()
    rng = stream(cfg.seed, "direct-optimize")
    theta = center_start(c)
    if cfg.init == "random":
        theta = cfg.init_scale * rng.standard_normal(c.dim)
    adam = Adam(c.dim, cfg.lr, cfg.beta1, cfg.beta2, cfg.eps)
    incumbent: tuple[VertexSet, float] | None = None

    def consider(d: Decomposition, fvals):
        nonlocal incumbent
        try:
            v, val = best_set(d, f, fvals)
        except ValueError:
            return
        if incumbent is None or val > incumbent[1]:
            incumbent = (v, val)

    F = 0.0
    x = None
    for step in range(cfg.steps + 1):
        z = _sigmoid(theta)
        x, vjp = project_point(z, c)
        d, tape = decompose_with_tape(x, c, cfg.decomposition)
        # One objective call per vertex, shared by F, rounding and backprop.
        fvals = vertex_values(d, f)
        F = evaluate_extension(d, f, fvals)
        if step % max(cfg.round_every, 1) == 0 or step == cfg.steps:
            consider(d, fvals)
        if step == cfg.steps:
            break
        gx = backprop_extension(tape, f, fvals)
        gz = vjp(gx)
        theta = adam.ascend(theta, gz * z * (1.0 - z))
    ms = (time.perf_counter() - t0) * 1e3
    if incumbent is None:
        raise ValueError("no integral vertex was ever produced")
    return SolveResult(
        best=incumbent[0], objective=incumbent[1], extension_value=F,
        time_ms=ms, iterations=cfg.steps, method="direct", seed=cfg.seed,
        final_point=x,
    )


def multi_scale_solve(
    x, sched: ScaleSchedule, f: SetObjective, c: ConstraintSpec
) -> tuple[SolveResult, list[int]]:
    """Decompose x once per scaling factor (optionally re-jittered), round
    to the best integral vertex across all supports, and return the ordered
    union of support elements as the local-improvement candidate pool."""
    t0 = time.perf_counter()
    xv = np.asarray(x.values if hasattr(x, "values") else x, dtype=float)
    rng = stream(sched.seed, "multi-scale")
    best_pair: tuple[VertexSet, float] | None = None
    pool: list[int] = []
    seen_pool = set()
    extension_value = None
    total_iters = 0
    for b in sched.factors:
        for rep in range(max(sched.repeats, 1)):
            xx = xv
            if sched.jitter > 0 and rep > 0:
                xx = _rejitter(xv, c, sched.jitter, rng)
            cfg = DecompositionConfig(
                scale=b,
                floor=sched.floor if b < 1.0 else 0.0,
                tolerance=sched.tolerance,
                max_iterations=sched.max_iterations,
            )
            d = decompose(xx, c, cfg)
            total_iters += d.iterations
            fvals = None
            if b == 1.0 and rep == 0:
                fvals = vertex_values(d, f)
                extension_value = evaluate_extension(d, f, fvals)
            for _, v in d.pairs:
                if not v.is_integral:
                    continue
                for i in v.indices:
                    if i not in seen_pool:
                        seen_pool.add(i)
                        pool.append(i)
            try:
                v, val = best_set(d, f, fvals)
            except ValueError:
                continue
            if best_pair is None or val > best_pair[1]:
                best_pair = (v, val)
    if best_pair is None:
        raise ValueError("no integral vertex across any scaling factor")
    if extension_value is None:
        extension_value = evaluate_extension(decompose(xv, c), f)
    ms = (time.perf_counter() - t0) * 1e3
    result = SolveResult(
        best=best_pair[0], objective=best_pair[1], extension_value=extension_value,
        time_ms=ms, iterations=total_iters, method="multiscale", seed=sched.seed,
    )
    return result, pool


def _rejitter(xv, c, scale, rng):
    noise = rng.uniform(-scale, scale, size=xv.shape[0])
    z = np.clip(xv + noise, 0.0, 1.0)
    if isinstance(c, Cardinality):
        return project_to_hypersimplex(z, c.k).values
    if isinstance(c, PartitionMatroid):
        return project_to_partition_polytope(z, c).values
    if isinstance(c, FractionalStableSet):
        return project_to_fstab(z, c.graph, c.slack).values
    return xv  # graphic points are not jittered; marginals stay valid


def _swap_feasible(c: ConstraintSpec, current: set, out_i: int, in_j: int) -> bool:
    if isinstance(c, Cardinality):
        return True
    if isinstance(c, PartitionMatroid):
        blocks = c.block_of()
        return blocks[out_i] == blocks[in_j]
    if isinstance(c, GraphicMatroid):
        g = c.graph
        uf = UnionFind(g.n_nodes)
        for e in current:
            if e == out_i:
                continue
            if not uf.union(*g.edges[e]):
                return False
        return uf.union(*g.edges[in_j])
    if isinstance(c, FractionalStableSet):
        adj = {v for u, v in c.graph.edges if u == in_j}
        adj |= {u for u, v in c.graph.edges if v == in_j}
        return not any(m in adj for m in current if m != out_i)
    raise TypeError(f"unsupported constraint {type(c).__name__}")


def local_improve(
    s: VertexSet, pool, f: SetObjective, c: ConstraintSpec, max_iter: int = 10
) -> tuple[VertexSet, float]:
    """Best-improvement single swaps (drop one member, add one candidate)
    preserving feasibility; stops at a local optimum or after max_iter."""
    current = set(s.indices)
    value = f.value_of(tuple(sorted(current)))
    n = s.n
    candidates = [j for j in pool if j not in current]
    for _ in range(max_iter):
        best_swap, best_val = None, value
        for i in sorted(current):
            for j in candidates:
                if j in current or not _swap_feasible(c, current, i, j):
                    continue
                trial = tuple(sorted(current - {i} | {j}))
                val = f.value_of(trial)
                if val > best_val + 1e-12:
                    best_swap, best_val = (i, j), val
        if best_swap is None:
            break
        i, j = best_swap
        current.remove(i)
        current.add(j)
        candidates = [cnd for cnd in candidates if cnd != j] + [i]
        value = best_val
    return VertexSet.integral(sorted(current), n), value


def greedy_coverage(inst: CoverageInstance, k: int) -> tuple[VertexSet, float]:
    """Lazy greedy max-marginal-gain selection; valid since coverage is
    submodular.  Ties go to the smaller set index."""
    import heapq

    if k > inst.n_sets:
        raise ValueError("k exceeds the number of sets")
    weights = inst.weight_array()
    members = inst.member_arrays()
    covered = np.zeros(inst.n_elements, dtype=bool)
    heap = [(-float(weights[m].sum()), i, 0) for i, m in enumerate(members)]
    heapq.heapify(heap)
    chosen: list[int] = []
    total = 0.0
    round_no = 0
    while heap and len(chosen) < k:
        round_no += 1
        while True:
            neg_gain, i, stamp = heapq.heappop(heap)
            if stamp == round_no:
                break
            gain = float(weights[members[i]][~covered[members[i]]].sum())
            heapq.heappush(heap, (-gain, i, round_no))
        chosen.append(i)
        total += -neg_gain
        covered[members[i]] = True
    return VertexSet.integral(sorted(chosen), inst.n_sets), total


def _sample_feasible(c: ConstraintSpec, rng) -> tuple[int, ...]:
    if isinstance(c, Cardinality):
        return tuple(sorted(rng.choice(c.n, size=c.k, replace=False).tolist()))
    if isinstance(c, PartitionMatroid):
        out = []
        for blk, k in zip(c.blocks, c.budgets):
            out.extend(rng.choice(list(blk), size=k, replace=False).tolist())
        return tuple(sorted(out))
    if isinstance(c, GraphicMatroid):
        forest = max_spanning_forest(0.5 + 0.5 * rng.random(c.graph.m), c.graph)
        return forest.indices
    if isinstance(c, FractionalStableSet):
        g = c.graph
        order = rng.permutation(g.n_nodes)
        chosen: set = set()
        for v in order:
            v = int(v)
            if all((min(u, v), max(u, v)) not in _edge_set(g) for u in chosen):
                chosen.add(v)
        return tuple(sorted(chosen))
    raise TypeError(f"unsupported constraint {type(c).__name__}")


def _edge_set(g):
    cached = getattr(g, "_edge_lookup", None)
    if cached is None:
        cached = set(g.edges)
        object.__setattr__(g, "_edge_lookup", cached)
    return cached


def random_baseline(
    f: SetObjective,
    c: ConstraintSpec,
    trials: int | None = None,
    seconds: float | None = None,
    seed: int = 0,
) -> SolveResult:
    """Best of uniformly sampled feasible sets within a trial or wall-time
    budget (time is checked once per batch of 64 trials)."""
    if trials is None and seconds is None:
        raise ValueError("either a trial or a time budget is required")
    rng = stream(seed, "random-baseline")
    t0 = time.perf_counter()
    best = None
    done = 0
    while True:
        for _ in range(64):
            if trials is not None and done >= trials:
                break
            s = _sample_feasible(c, rng)
            val = f.value_of(s)
            if best is None or val > best[1]:
                best = (s, val)
            done += 1
        if trials is not None and done >= trials:
            break
        if seconds is not None and time.perf_counter() - t0 >= seconds:
            break
    ms = (time.perf_counter() - t0) * 1e3
    return SolveResult(
        best=VertexSet.integral(best[0], c.dim), objective=best[1],
        extension_value=best[1], time_ms=ms, iterations=done,
        method="random", seed=seed,
    )


def random_point_in_polytope(c: ConstraintSpec, rng) -> np.ndarray:
    z = rng.random(c.dim)
    if isinstance(c, Cardinality):
        return project_to_hypersimplex(z, c.k).values
    if isinstance(c, PartitionMatroid):
        return project_to_partition_polytope(z, c).values
    if isinstance(c, GraphicMatroid):
        return spanning_tree_marginals(c.graph, 0.05 + z).values
    if isinstance(c, FractionalStableSet):
        return project_to_fstab(z, c.graph, c.slack).values
    raise TypeError(f"unsupported constraint {type(c).__name__}")


def random_decomp_baseline(f: SetObjective, c: ConstraintSpec, seed: int = 0) -> SolveResult:
    """Decompose a single random polytope point and keep the best set in
    its support (the one-shot sampling ablation baseline)."""
    t0 = time.perf_counter()
    rng = stream(seed, "random-decomp")
    x = random_point_in_polytope(c, rng)
    d = decompose(x, c)
    v, val = best_set(d, f)
    F = evaluate_extension(d, f)
    ms = (time.perf_counter() - t0) * 1e3
    return SolveResult(
        best=v, objective=val, extension_value=F, time_ms=ms,
        iterations=d.iterations, method="random-decomp", seed=seed,
    )
