"""The benchmark's workloads and the checks on their outputs.

Each workload builds its inputs from the seed in ``setup`` (timed as
set-up), runs numbered operations in ``op`` (timed), and checks and
fingerprints each operation's outputs afterwards (not timed).  Solvers
are called through module attributes (``solvers.direct_optimize``,
``extension.decompose_with_tape``, ...) so that the traced run's wrappers
see every call.
"""

from __future__ import annotations

import hashlib
import time
from itertools import chain

import numpy as np

from caradec import extension, solvers
from caradec.core import (
    Cardinality,
    DecompositionConfig,
    FractionalStableSet,
    GraphicMatroid,
    PartitionMatroid,
)
from caradec.extension import LinearObjective
from caradec.fstab import check_fstab_membership
from caradec.generators import gen_er_graph, gen_random_uniform
from caradec.graphs import Graph, UnionFind
from caradec.matroids import check_graphic_membership
from caradec.objectives import CoverageObjective, CutObjective, brute_force_optimum
from caradec.rng import stream

from tracer import CHECK_SPAN

EXACT = DecompositionConfig()
TOL = 1e-9
GRAPHIC_TOL = 1e-8


# ---------------------------------------------------------------------------
# Checks


class Pairs:
    """A decomposition's pair list as arrays: probabilities, and either the
    concatenated index sets with their lengths (all vertices integral) or
    a dense (T, n) vertex matrix (some vertex half-integral)."""

    def __init__(self, d, n: int):
        self.n = n
        self.probs = np.fromiter((p for p, _ in d.pairs), dtype=float, count=len(d.pairs))
        self.integral = all(v.is_integral for _, v in d.pairs)
        if self.integral:
            self.lens = np.fromiter((len(v.indices) for _, v in d.pairs), dtype=np.int64, count=len(d.pairs))
            self.idx = np.fromiter(chain.from_iterable(v.indices for _, v in d.pairs),
                                   dtype=np.int64, count=int(self.lens.sum()))
        else:
            self.verts = np.zeros((len(d.pairs), n))
            for t, (_, v) in enumerate(d.pairs):
                self.verts[t] = v.to_vector()

    def reconstruct(self) -> np.ndarray:
        if self.integral:
            return np.bincount(self.idx, weights=np.repeat(self.probs, self.lens), minlength=self.n)
        return self.probs @ self.verts

    def sets(self):
        return np.split(self.idx, np.cumsum(self.lens)[:-1]) if len(self.lens) else []

    def hash_into(self, h) -> None:
        h.update(self.probs.tobytes())
        if self.integral:
            h.update(self.lens.tobytes())
            h.update(self.idx.tobytes())
        else:
            h.update(self.verts.tobytes())


def _infeasible(c, pairs: Pairs) -> int:
    """Number of vertices that are not feasible sets of ``c``."""
    T = len(pairs.probs)
    if isinstance(c, FractionalStableSet):
        verts = np.zeros((T, pairs.n))
        if pairs.integral:
            verts[np.repeat(np.arange(T), pairs.lens), pairs.idx] = 1.0
        else:
            verts = pairs.verts
        if c.graph.m == 0:
            return 0
        u, v = np.asarray(c.graph.edges).T
        return int((verts[:, u] + verts[:, v] > 1.0).any(axis=1).sum())
    if not pairs.integral:
        return T
    if isinstance(c, Cardinality):
        return int((pairs.lens != c.k).sum())
    if isinstance(c, PartitionMatroid):
        nb = len(c.budgets)
        cell = np.repeat(np.arange(T), pairs.lens) * nb + c.block_of()[pairs.idx]
        counts = np.bincount(cell, minlength=T * nb).reshape(T, nb)
        return int((counts != np.asarray(c.budgets)).any(axis=1).sum())
    if isinstance(c, GraphicMatroid):
        g = c.graph
        size = g.n_nodes - g.n_components()
        bad = 0
        for idx in pairs.sets():
            uf = UnionFind(g.n_nodes)
            if len(idx) != size or not all(uf.union(*g.edges[e]) for e in idx):
                bad += 1
        return bad
    raise TypeError(f"unsupported constraint {type(c).__name__}")


def decomposition_errors(d, x, c, cfg=EXACT, pairs=None) -> list[str]:
    """Contract of one decomposition of x: exact runs reconstruct x to 1e-9
    (1e-8 graphic) with masses summing to 1 in at most n+1 steps; rescaled
    runs leave at most their stated residual and mass at most 1.  Every
    vertex must be feasible."""
    xv = np.asarray(getattr(x, "values", x), dtype=float)
    n = xv.shape[0]
    pairs = pairs or Pairs(d, n)
    probs = pairs.probs
    tol = GRAPHIC_TOL if isinstance(c, GraphicMatroid) else TOL
    errors = []
    if not np.all(np.isfinite(probs)) or probs.min(initial=0.0) < -TOL or probs.max(initial=0.0) > 1 + TOL:
        errors.append("probability outside [0, 1]")
    recon_err = float(np.max(np.abs(pairs.reconstruct() - xv), initial=0.0))
    mass = float(probs.sum())
    if cfg.is_exact:
        if recon_err > tol:
            errors.append(f"reconstruction error {recon_err:.3g} > {tol:g}")
        if abs(mass - 1.0) > TOL:
            errors.append(f"mass {mass!r} != 1")
        if len(probs) > n + 1:
            errors.append(f"{len(probs)} steps > n+1 = {n + 1}")
    else:
        if recon_err > d.residual + tol:
            errors.append(f"reconstruction error {recon_err:.3g} > residual {d.residual:.3g}")
        if mass > 1.0 + TOL:
            errors.append(f"mass {mass!r} > 1")
        if len(probs) > cfg.iteration_cap(n):
            errors.append(f"{len(probs)} steps > cap {cfg.iteration_cap(n)}")
    bad = _infeasible(c, pairs)
    if bad:
        errors.append(f"{bad} infeasible vertices")
    return errors


def close(a: float, b: float) -> bool:
    return abs(a - b) <= TOL * max(1.0, abs(a), abs(b))


class Checker:
    """Checks and hashes every decomposition the solvers make.  It wraps
    ``caradec.solvers.decompose_with_tape`` and ``decompose``; the time it
    spends is summed in ``check_s`` (callers subtract it from their timings)
    and, when a tracer is set, recorded as a check span."""

    def __init__(self):
        self.tracer = None
        self._saved = None
        self.begin_op()

    def begin_op(self) -> None:
        self.check_s = 0.0
        self.errors: list[str] = []
        self.hasher = hashlib.sha256()

    def decomposition(self, d, x, c, cfg) -> None:
        t0 = time.perf_counter()
        pairs = Pairs(d, c.dim)
        self.errors.extend(decomposition_errors(d, x, c, cfg, pairs))
        pairs.hash_into(self.hasher)
        t1 = time.perf_counter()
        self.check_s += t1 - t0
        if self.tracer is not None:
            self.tracer.record(CHECK_SPAN, t0, t1)

    def install(self) -> None:
        tape_fn, plain_fn = solvers.decompose_with_tape, solvers.decompose
        self._saved = (tape_fn, plain_fn)

        def decompose_with_tape(x, c, cfg=EXACT):
            d, tape = tape_fn(x, c, cfg)
            self.decomposition(d, x, c, cfg)
            return d, tape

        def decompose(x, c, cfg=EXACT):
            d = plain_fn(x, c, cfg)
            self.decomposition(d, x, c, cfg)
            return d

        solvers.decompose_with_tape = decompose_with_tape
        solvers.decompose = decompose

    def uninstall(self) -> None:
        if self._saved is not None:
            solvers.decompose_with_tape, solvers.decompose = self._saved
            self._saved = None


def _solve_errors(label, value, extension_value, fresh, feasible) -> list[str]:
    """A returned set is feasible, its reported value is its true value,
    and that value is at least the extension value F it was rounded from."""
    errors = []
    if not feasible:
        errors.append(f"{label}: infeasible set")
    if not close(value, fresh):
        errors.append(f"{label}: reported {value!r} != recomputed {fresh!r}")
    if value < extension_value - TOL * max(1.0, abs(extension_value)):
        errors.append(f"{label}: f(S*) = {value!r} < F = {extension_value!r}")
    return errors


def _coverage_value(inst, indices) -> float:
    marked = np.zeros(inst.n_elements, dtype=bool)
    for i in indices:
        marked[list(inst.sets[i])] = True
    return float(np.asarray(inst.weights)[marked].sum())


def _cut_value(g: Graph, indices) -> float:
    side = np.zeros(g.n_nodes, dtype=bool)
    side[list(indices)] = True
    if g.m == 0:
        return 0.0
    u, v = np.asarray(g.edges).T
    return float(g.weight_array()[side[u] != side[v]].sum())


# ---------------------------------------------------------------------------
# Workloads


class Rand500:
    """Random500 max coverage, k=10: direct_optimize (150 Adam steps, random
    init), multi_scale_solve over DEFAULT_SCALES (at most 2000 iterations),
    then local_improve (10 iterations), as in acceptance criterion 10."""

    name = "rand500-pipeline"
    default_seed = 42
    solves = True

    def __init__(self, seed: int, tiny: bool = False):
        self.seed = seed
        if tiny:
            self.n_sets, self.n_elements, self.k, self.steps, self.max_iter, self.pool = 60, 120, 4, 10, 200, 2
        else:
            self.n_sets, self.n_elements, self.k, self.steps, self.max_iter, self.pool = 500, 1000, 10, 150, 2000, 3
        self.cycle = self.pool

    def setup(self) -> None:
        self.instances = [
            gen_random_uniform(self.n_sets, self.n_elements, seed=self.seed, instance_id=i)
            for i in range(self.pool)
        ]
        self.objectives = [CoverageObjective(inst) for inst in self.instances]
        self.c = Cardinality(self.n_sets, self.k)
        self.refs = {}

    def key(self, j: int) -> int:
        return j % self.pool

    def op(self, j: int):
        i = self.key(j)
        f, c = self.objectives[i], self.c
        cfg = solvers.OptimizeConfig(steps=self.steps, lr=0.015, seed=i, init="random")
        res = solvers.direct_optimize(f, c, cfg)
        sched = solvers.ScaleSchedule(max_iterations=self.max_iter, seed=i)
        ms, pool = solvers.multi_scale_solve(res.final_point, sched, f, c)
        start = (ms.best, ms.objective) if ms.objective > res.objective else (res.best, res.objective)
        final = solvers.local_improve(start[0], pool, f, c, max_iter=10)
        return {"instance": i, "direct": res, "multiscale": ms, "start": start, "final": final}

    def check(self, out) -> list[str]:
        inst = self.instances[out["instance"]]
        errors = []
        for label in ("direct", "multiscale"):
            r = out[label]
            errors += _solve_errors(label, r.objective, r.extension_value,
                                    _coverage_value(inst, r.best.indices),
                                    self.c.vertex_feasible(r.best))
        (_, start_val), (best, val) = out["start"], out["final"]
        errors += _solve_errors("local", val, start_val, _coverage_value(inst, best.indices),
                                self.c.vertex_feasible(best))
        return errors

    def fingerprint(self, out) -> dict:
        return {
            "direct": out["direct"].objective,
            "direct_F": out["direct"].extension_value,
            "multiscale": out["multiscale"].objective,
            "final": out["final"][1],
            "final_set": list(out["final"][0].indices),
        }

    def objective(self, out) -> float:
        return out["final"][1]

    def reference(self, out) -> float:
        """Lazy greedy value of the instance (a check, computed after timing)."""
        i = out["instance"]
        if i not in self.refs:
            self.refs[i] = solvers.greedy_coverage(self.instances[i], self.k)[1]
        return self.refs[i]

    def traced_objectives(self):
        return self.objectives


class MaxCut:
    """Cardinality-constrained max cut on ER graphs, n in [12, 20], p in
    [0.15, 0.3], k = max(3, round(n/4)); direct_optimize rounding at every
    step, as in acceptance criterion 9.

    Criterion 9 draws n; here n cycles through 12..20, seven instances of
    each size, so that every seed has the same size mix.  A solve at n=20
    takes about twice as long as one at n=12, so a drawn mix would move the
    median and the tail across seeds.  p and the graph are drawn per seed."""

    name = "maxcut-small"
    default_seed = 123
    solves = True

    def __init__(self, seed: int, tiny: bool = False):
        self.seed = seed
        self.sizes, self.steps, self.pool = (range(6, 10), 20, 4) if tiny else (range(12, 21), 150, 63)
        self.cycle = self.pool

    def setup(self) -> None:
        self.graphs, self.objectives, self.constraints, self.refs = [], [], [], {}
        for i in range(self.pool):
            n = self.sizes[i % len(self.sizes)]
            p = float(stream(self.seed, "crit9-params", i).uniform(0.15, 0.3))
            g = gen_er_graph(n, p, seed=self.seed, instance_id=i)
            self.graphs.append(g)
            self.objectives.append(CutObjective(g))
            self.constraints.append(Cardinality(n, max(3, round(0.25 * n))))

    def key(self, j: int) -> int:
        return j % self.pool

    def op(self, j: int):
        i = self.key(j)
        cfg = solvers.OptimizeConfig(steps=self.steps, lr=0.015, seed=i, init="random", round_every=1)
        return {"instance": i, "direct": solvers.direct_optimize(self.objectives[i], self.constraints[i], cfg)}

    def check(self, out) -> list[str]:
        i, r = out["instance"], out["direct"]
        return _solve_errors("direct", r.objective, r.extension_value,
                             _cut_value(self.graphs[i], r.best.indices),
                             self.constraints[i].vertex_feasible(r.best))

    def fingerprint(self, out) -> dict:
        r = out["direct"]
        return {"objective": r.objective, "F": r.extension_value, "set": list(r.best.indices)}

    def objective(self, out) -> float:
        return out["direct"].objective

    def reference(self, out) -> float:
        """Brute-force optimum of the instance (a check, computed after timing)."""
        i = out["instance"]
        if i not in self.refs:
            self.refs[i] = brute_force_optimum(self.objectives[i], self.constraints[i])[1]
        return self.refs[i]

    def traced_objectives(self):
        return self.objectives


def connected_graph(n: int, m: int, rng) -> Graph:
    """Random spanning tree on n nodes plus random extra edges up to m."""
    perm = rng.permutation(n)
    edges = set()
    for i in range(1, n):
        u, v = int(perm[i]), int(perm[rng.integers(0, i)])
        edges.add((min(u, v), max(u, v)))
    while len(edges) < m:
        u, v = (int(a) for a in rng.choice(n, 2, replace=False))
        edges.add((min(u, v), max(u, v)))
    return Graph(n, tuple(sorted(edges)))


class FamilyLadder:
    """One forward/backward pass (project_point, decompose_with_tape,
    evaluate_extension, backprop_extension, the projection's VJP) with a
    LinearObjective, per family at growing sizes.

    The graphs and points are drawn once from ``INPUT_SEED`` and are the
    same in every run: a stable-set pass at n=120 takes anywhere from 3 s to
    13 s depending on the point, so points drawn per seed would make the
    ladder's spread across seeds wider than any bound.  ``--seed`` draws the
    objective weights, which change F, the gradient and the fingerprints
    but not the decompositions; ``objective`` also scores each
    decomposition under further weight draws."""

    name = "family-ladder"
    default_seed = 7
    solves = False
    INPUT_SEED = 0
    WEIGHT_DRAWS = 16

    def __init__(self, seed: int, tiny: bool = False):
        self.seed = seed
        if tiny:
            self.rungs = [("graphic", 6), ("graphic", 8), ("fstab", 8), ("fstab", 12), ("partition", 200)]
        else:
            self.rungs = [("graphic", 14), ("graphic", 18), ("graphic", 20),
                          ("fstab", 30), ("fstab", 60), ("fstab", 120), ("partition", 2000)]
        self.cycle = len(self.rungs)

    def setup(self) -> None:
        """Inputs of every rung, then the projection and membership check of
        each rung's point; for graphic rungs the check fills the rank table."""
        self.inputs, self.weights = [], []
        for family, size in self.rungs:
            rng = stream(self.INPUT_SEED, "family-ladder", family, size)
            if family == "graphic":
                g = connected_graph(size // 2 + 1, size, rng)
                c = GraphicMatroid(g)
            elif family == "fstab":
                g = gen_er_graph(size, 0.15, seed=self.INPUT_SEED, instance_id=size)
                c = FractionalStableSet(g)
            else:
                blocks = np.arange(size).reshape(-1, 100).tolist()
                c = PartitionMatroid(blocks, [10] * len(blocks))
            z = 0.2 + 0.8 * rng.random(c.dim)
            w = stream(self.seed, "family-ladder-weights", family, size).random((self.WEIGHT_DRAWS, c.dim))
            self.inputs.append((c, z, LinearObjective(w[0])))
            self.weights.append(w)
            x, _ = solvers.project_point(z, c)
            if family == "graphic":
                check_graphic_membership(x, c.graph)
            elif family == "fstab":
                check_fstab_membership(x, c.graph)

    def key(self, j: int) -> str:
        family, size = self.rungs[j % len(self.rungs)]
        return f"{family}-{size}"

    def op(self, j: int):
        c, z, f = self.inputs[j % len(self.rungs)]
        x, vjp = solvers.project_point(z, c)
        d, tape = extension.decompose_with_tape(x, c)
        F = extension.evaluate_extension(d, f)
        gx = extension.backprop_extension(tape, f)
        gz = vjp(gx)
        return {"rung": j % len(self.rungs), "x": x, "d": d, "F": F, "gz": gz}

    def check(self, out) -> list[str]:
        c, _, f = self.inputs[out["rung"]]
        errors = decomposition_errors(out["d"], out["x"], c)
        linear = float(f.weights @ out["x"])
        if not close(out["F"], linear):
            errors.append(f"F = {out['F']!r} != c.x = {linear!r}")
        if not np.all(np.isfinite(out["gz"])):
            errors.append("non-finite gradient")
        return errors

    def fingerprint(self, out) -> dict:
        h = hashlib.sha256()
        Pairs(out["d"], len(out["x"])).hash_into(h)
        return {"F": out["F"], "pairs_sha": h.hexdigest(),
                "grad_sha": hashlib.sha256(np.asarray(out["gz"], dtype=np.float64).tobytes()).hexdigest()}

    def objective(self, out) -> float:
        """Value of the best vertex in the decomposition's support (what
        rounding would return), averaged over the rung's weight draws; the
        pass itself uses the first draw.  It depends on which vertices the
        decomposition picks, and is at least the reference."""
        w = self.weights[out["rung"]]
        pairs = Pairs(out["d"], w.shape[1])
        if pairs.integral:
            rows = np.repeat(np.arange(len(pairs.lens)), pairs.lens)
            values = np.stack([np.bincount(rows, weights=wk[pairs.idx], minlength=len(pairs.lens)) for wk in w])
        else:
            values = w @ pairs.verts.T
        return float(values.max(axis=1).mean())

    def reference(self, out) -> float:
        """c.x averaged over the weight draws; F equals it for the first."""
        return float((self.weights[out["rung"]] @ out["x"]).mean())

    def traced_objectives(self):
        return [f for _, _, f in self.inputs]


WORKLOADS = {w.name: w for w in (Rand500, MaxCut, FamilyLadder)}
