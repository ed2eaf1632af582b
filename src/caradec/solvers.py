"""Optimization drivers on top of the decomposition machinery: direct
gradient ascent on the extension, multi-scaling-factor inference with
rounding, local improvement, greedy coverage, and random baselines."""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from . import kernels
from .core import ConstraintSpec, Decomposition, DecompositionConfig, VertexSet
from .extension import (
    SetObjective,
    backprop_extension,
    best_row,
    best_set,
    decompose,
    decompose_with_tape,
    evaluate_extension,
    vertex_values,
)
# Kept as a module attribute: the graphic projection calls it through
# caradec.matroids, and tracing wraps it in both places.
from .matroids import spanning_tree_marginals  # noqa: F401
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
        """One step, in place on theta (a writable float array), which it
        returns."""
        self.t += 1
        return kernels.adam_ascend(theta, self.m, self.v, grad, self.lr, self.beta1, self.beta2,
                                   self.eps, self.t)


def _sigmoid(t: np.ndarray) -> np.ndarray:
    """1/(1 + exp(-t)) for t >= 0 and exp(t)/(1 + exp(t)) below, so that
    exp never overflows."""
    e = np.exp(np.copysign(t, -1.0))  # exp(-|t|)
    return np.where(t >= 0, 1.0, e) / (1.0 + e)


def project_point(z: np.ndarray, c: ConstraintSpec):
    """Differentiable map from the unit cube into the constraint polytope.

    Returns (x, vjp) with vjp pulling dF/dx back to dF/dz; vertex/branch
    selections are treated as locally constant, graphic marginals are
    differentiated by central differences on the edge weights."""
    return c.project(np.asarray(z, dtype=float))


def direct_optimize(f: SetObjective, c: ConstraintSpec, cfg: OptimizeConfig) -> SolveResult:
    """Adam ascent on F(project(sigmoid(theta))) with periodic rounding;
    returns the best integral set seen (incumbent) and the extension value
    at the final iterate."""
    t0 = time.perf_counter()
    rng = stream(cfg.seed, "direct-optimize")
    theta = np.zeros(c.dim)
    if cfg.init == "random":
        theta = cfg.init_scale * rng.standard_normal(c.dim)
    adam = Adam(c.dim, cfg.lr, cfg.beta1, cfg.beta2, cfg.eps)
    incumbent: tuple[VertexSet, float] | None = None

    def consider(d: Decomposition, fvals):
        # best_set, with the VertexSet built only for a new incumbent.
        nonlocal incumbent
        t = best_row(d, fvals)
        if t >= 0 and (incumbent is None or fvals[t] > incumbent[1]):
            incumbent = (d.vertex(t), float(fvals[t]))

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
    xv = np.asarray(x, dtype=float)
    rng = stream(sched.seed, "multi-scale")
    best_pair: tuple[VertexSet, float] | None = None
    pool: list[int] = []
    seen_pool = np.zeros(c.dim, dtype=bool)
    extension_value = None
    total_iters = 0
    for b in sched.factors:
        for rep in range(max(sched.repeats, 1)):
            xx = xv
            if sched.jitter > 0 and rep > 0:
                xx = c.jitter(xv, rng.uniform(-sched.jitter, sched.jitter, size=xv.shape[0]))
            cfg = DecompositionConfig(
                scale=b,
                floor=sched.floor if b < 1.0 else 0.0,
                tolerance=sched.tolerance,
                max_iterations=sched.max_iterations,
            )
            d = decompose(xx, c, cfg)
            total_iters += d.iterations
            fvals = vertex_values(d, f)
            if b == 1.0 and rep == 0:
                extension_value = evaluate_extension(d, f, fvals)
            # The support's elements in order of first appearance (rows in
            # order, each in index order), integral rows only.
            indptr, indices, _ = d.vertex_rows
            members = indices[np.repeat(d.integral, np.diff(indptr))]
            members = members[np.sort(np.unique(members, return_index=True)[1])]
            members = members[~seen_pool[members]]
            seen_pool[members] = True
            pool += members.tolist()
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


def solve_pipeline(
    f: SetObjective, c: ConstraintSpec, opt_cfg: OptimizeConfig, sched: ScaleSchedule,
    local_iters: int = 10,
) -> SolveResult:
    """Direct ascent, multi-scale rounding of its final point, then local
    search from the multi-scale set when that is strictly better and from
    the direct incumbent otherwise.  iterations counts the direct steps plus
    the multi-scale decomposition steps; time_ms covers all three stages."""
    t0 = time.perf_counter()
    res = direct_optimize(f, c, opt_cfg)
    ms, pool = multi_scale_solve(res.final_point, sched, f, c)
    start = ms.best if ms.objective > res.objective else res.best
    v, val = local_improve(start, pool, f, c, max_iter=local_iters)
    return SolveResult(
        best=v, objective=val, extension_value=res.extension_value,
        time_ms=(time.perf_counter() - t0) * 1e3, iterations=res.iterations + ms.iterations,
        method="direct+local", seed=opt_cfg.seed, final_point=res.final_point,
    )


def local_improve(
    s: VertexSet, pool, f: SetObjective, c: ConstraintSpec, max_iter: int = 10
) -> tuple[VertexSet, float]:
    """Best-improvement single swaps (drop one member, add one candidate)
    preserving feasibility; stops at a local optimum or after max_iter.
    Each sweep scores all its feasible swaps with one values_of_rows call
    and scans the values in (member, candidate) order: a swap wins only if
    it beats the best so far by more than 1e-12."""
    members = np.array(s.indices, dtype=np.int64)
    value = f.value_of(s.indices)
    start = set(s.indices)
    candidates = np.array([j for j in pool if j not in start], dtype=np.int64)
    k = len(members)
    for _ in range(max_iter):
        drop, add = np.nonzero(c.swap_mask(members, candidates))
        if not drop.size:
            break
        # Row r of `rest` is the members without member r.
        rest = np.broadcast_to(members, (k, k))[~np.eye(k, dtype=bool)].reshape(k, k - 1)
        batch = np.sort(np.concatenate((rest[drop], candidates[add, None]), axis=1), axis=1)
        vals = f.values_of_rows(np.arange(drop.size + 1) * k, batch.ravel())
        # The scan: the first swap that beats the start by more than 1e-12,
        # then the first after it that beats that one, and so on.
        best, best_val, pos = None, value, 0
        while (hits := np.flatnonzero(vals[pos:] > best_val + 1e-12)).size:
            best = pos + int(hits[0])
            best_val, pos = float(vals[best]), best + 1
        if best is None:
            break
        i, j = members[drop[best]], candidates[add[best]]
        members[drop[best]] = j
        members.sort()
        candidates = np.append(candidates[candidates != j], i)
        value = best_val
    return VertexSet.integral(members.tolist(), s.n), value


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


def random_baseline(
    f: SetObjective,
    c: ConstraintSpec,
    trials: int | None = None,
    seconds: float | None = None,
    seed: int = 0,
) -> SolveResult:
    """Best of uniformly sampled feasible sets within a trial or wall-time
    budget (time is checked once per batch of 64 trials, and each batch is
    scored by one values_of call)."""
    if trials is None and seconds is None:
        raise ValueError("either a trial or a time budget is required")
    if trials is not None and trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    rng = stream(seed, "random-baseline")
    t0 = time.perf_counter()
    best = None
    done = 0
    while True:
        batch = 64 if trials is None else min(64, trials - done)
        sets = [c.sample_feasible(rng) for _ in range(batch)]
        for s, val in zip(sets, f.values_of(sets).tolist()):
            if best is None or val > best[1]:
                best = (s, val)
        done += batch
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
    return c.random_point(rng)


def random_decomp_baseline(f: SetObjective, c: ConstraintSpec, seed: int = 0) -> SolveResult:
    """Decompose a single random polytope point and keep the best set in
    its support (the one-shot sampling ablation baseline)."""
    t0 = time.perf_counter()
    rng = stream(seed, "random-decomp")
    x = random_point_in_polytope(c, rng)
    d = decompose(x, c)
    fvals = vertex_values(d, f)
    v, val = best_set(d, f, fvals)
    F = evaluate_extension(d, f, fvals)
    ms = (time.perf_counter() - t0) * 1e3
    return SolveResult(
        best=v, objective=val, extension_value=F, time_ms=ms,
        iterations=d.iterations, method="random-decomp", seed=seed,
    )
