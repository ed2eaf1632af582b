"""Reference loops the production code is checked against: the block
kernel as a per-element selection loop (and its former divided form, the
contract reference), the per-family graph loops with their list tapes,
the two reverse loops that read the iterate after every step (the
kernel's snapshot loop and the graph list loop), the stable-set vertex
oracle as one LP re-solve per coordinate (the contract reference) and by
enumeration, the stable-set per-edge loops, the graphic rank oracle,
step coefficient and forest by enumeration of all 2^m edge subsets, and
local search with one value_of call and one edge scan per swap.

The references record the iterates that production tapes no longer keep,
so tests that inspect iterates take them from here, after checking that
the reference ran the same steps as the production tape."""

import math
from functools import lru_cache

import numpy as np

from caradec.core import (
    ActiveConstraintRecord,
    DecompositionConfig,
    FractionalStableSet,
    GraphicMatroid,
    MembershipError,
    PartitionMatroid,
    VertexSet,
)
from caradec.extension import decompose_with_tape
from caradec.fstab import (
    TIGHT_TOL,
    ZERO_TOL,
    Dinic,
    check_fstab_membership,
    fstab_step_coefficient,
    fstab_vertex,
)
from caradec.graphs import UnionFind
from caradec.matroids import (
    ZERO_WEIGHT,
    GraphicCoefficientTrace,
    _face_respecting_forest,
    check_graphic_membership,
    graphic_step_coefficient,
)

BRANCH_MIN_IN, BRANCH_TERMINAL = 0, 2


# ---------------------------------------------------------------------------
# Block kernel


def _select(y, block_of, budgets, K):
    """Each block's top budget coordinates of y under (value descending,
    index ascending): walk the stable descending order and take an index
    while its block has budget left.  Sorted ascending."""
    cnt, chosen = [0] * len(budgets), []
    for i in np.argsort(-y, kind="stable").tolist():
        b = block_of[i]
        if cnt[b] < budgets[b] and len(chosen) < K:
            cnt[b] += 1
            chosen.append(i)
    return sorted(chosen)


def _squares(y):
    """sum(y * y), added in index order from 0.0."""
    s = 0.0
    for yi in y:
        s += yi * yi
    return s


def reference_decompose_blocks(x0, block_of, budgets, scale, floor, eps, max_iter, guard):
    """The pure kernel as a per-element loop on y = q x: select as
    _select does, then change one coordinate at a time: each member loses
    a q, is pinned and clipped to [0, q'] (q' = q - a q), and a coordinate
    outside the vertex changes only when it lies above q' or is the pinned
    max-out coordinate.  Returns the kernel's outputs and the (T, n)
    iterates x = y/q: row t is the iterate after step t (a terminal step's
    row is the iterate it ends on)."""
    y = [float(v) for v in np.asarray(x0, dtype=np.float64)]
    n, K = len(y), int(np.sum(budgets))
    block_of, budgets = [int(b) for b in block_of], [int(k) for k in budgets]
    rec = {key: [] for key in ("p", "q", "a", "v", "br", "bi", "snap", "aex")}
    q, terminal, residual = 1.0, False, 0.0
    ss = ss_ref = _squares(y) if eps > 0.0 else 0.0
    for _ in range(max_iter):
        v = _select(np.array(y), block_of, budgets, K)
        members = set(v)
        outside = [i for i in range(n) if i not in members]
        # min() and max() keep the first of equal values.
        i_in = min(v, key=y.__getitem__) if v else -1
        i_out = max(outside, key=y.__getitem__) if outside else -1
        a_in = y[i_in] / q if v else np.inf
        a_out = 1.0 - y[i_out] / q if outside else np.inf
        a_exact, br, bi = (a_in, 0, i_in) if a_in <= a_out else (a_out, 1, i_out)
        a_exact = max(a_exact, 0.0)
        a, exact_step = (scale * a_exact, scale == 1.0) if scale * a_exact >= floor else (a_exact, True)
        terminal = a > 1.0 - guard or q * (1.0 - a) < guard
        if terminal:
            step = (q, q, 1.0, v, 2, -1, np.array(y) / q, 1.0)
        else:
            step = (a * q, q, a, v, br, bi, None, a_exact)
        for key, val in zip(rec, step):
            rec[key].append(val)
        if terminal:
            residual = max((abs(y[i] - q) if i in members else abs(y[i]) for i in range(n)), default=0.0)
            break
        aq = a * q
        qn = q - aq
        for i in v:
            new = 0.0 if exact_step and i == bi else y[i] - aq
            new = 0.0 if new < 0.0 else qn if new > qn else new
            if eps > 0.0:
                ss += new * new - y[i] * y[i]
            y[i] = new
        for i in outside:
            if y[i] > qn or (exact_step and br == 1 and i == bi):
                if eps > 0.0:
                    ss += qn * qn - y[i] * y[i]
                y[i] = qn
        q = qn
        rec["snap"][-1] = np.array(y) / q
        if eps > 0.0:
            if ss < 0.25 * ss_ref:
                ss = ss_ref = _squares(y)
            if math.sqrt(ss) <= eps:
                break
    T = len(rec["p"])
    if T and not terminal:
        residual = max(map(abs, y), default=0.0)
    out = (
        np.asarray(rec["p"], dtype=np.float64),
        np.asarray(rec["q"], dtype=np.float64),
        np.asarray(rec["a"], dtype=np.float64),
        np.asarray(rec["v"], dtype=np.int32).reshape(T, K),
        np.asarray(rec["br"], dtype=np.int8),
        np.asarray(rec["bi"], dtype=np.int32),
        np.asarray(rec["aex"], dtype=np.float64),
        residual,
        terminal,
    )
    return out, np.asarray(rec["snap"], dtype=np.float64).reshape(T, n)


def as_kernel_outputs(out, x0):
    """The block kernel's outputs (probs, qs, avals, vertex_rows,
    functional_rows, wx, x0, residual, terminal, branch, aex) of a
    reference run's columns (probs, qs, avals, verts, branch, bind, aex,
    residual, terminal) on x0, a point in [0, 1]^n.  The tape rows are
    formed one step at a time: step t's functional row is +-r at its
    binding coordinate, r = a_t/a_exact on a rescaled step (1 otherwise), +
    on a min-in step, and wx[t] is +-r times a_exact (min-in) or 1 - a_exact
    (max-out); a terminal step has no row and wx 0."""
    probs, qs, avals, verts, branch, bind, aex, residual, terminal = out
    T, K = verts.shape
    w, wx = [], []
    for t in range(T):
        if branch[t] == BRANCH_TERMINAL:
            wx.append(0.0)
            continue
        a, a_exact = float(avals[t]), float(aex[t])
        r = a / a_exact if a_exact > 0.0 and a != a_exact else 1.0
        min_in = branch[t] == BRANCH_MIN_IN
        w.append(r if min_in else -r)
        wx.append(w[-1] * (a_exact if min_in else 1.0 - a_exact))
    live = len(w)
    return (probs, qs, avals,
            (np.arange(T + 1, dtype=np.int64) * K, verts.astype(np.int64).ravel(), np.ones(T * K)),
            (np.minimum(np.arange(T + 1, dtype=np.int64), live), bind[:live].astype(np.int64),
             np.array(w, dtype=np.float64)),
            np.array(wx, dtype=np.float64), np.array(x0, dtype=np.float64), residual, terminal,
            branch.astype(np.int64), aex)


def reference_divided_blocks(x0, block_of, budgets, scale, floor, eps, max_iter, guard):
    """The block kernel as it was before it kept y = q x: a per-element
    selection loop that divides the whole iterate by 1 - a at every step.
    It is the contract reference: where no near-tie decides a step, it
    gives the kernel's supports and probabilities to rounding.  Returns
    the kernel's outputs and the (T, n) snapshots: row t is the iterate
    after step t (a terminal step's row is the iterate it ends on)."""
    x = np.array(x0, dtype=np.float64)
    n, K = x.shape[0], int(np.sum(budgets))
    rec = {key: [] for key in ("p", "q", "a", "v", "br", "bi", "snap", "aex")}
    q, terminal, residual = 1.0, False, 0.0
    for _ in range(max_iter):
        v = np.array(_select(x, block_of, budgets, K), dtype=np.int32)
        comp = np.setdiff1d(np.arange(n), v)
        a_in, i_in = (float(x[v].min()), int(v[np.argmin(x[v])])) if K else (np.inf, -1)
        a_out, i_out = (1.0 - float(x[comp].max()), int(comp[np.argmax(x[comp])])) if comp.size else (np.inf, -1)
        a_exact, br, bi = (a_in, 0, i_in) if a_in <= a_out else (a_out, 1, i_out)
        a_exact = max(a_exact, 0.0)
        a, exact_step = (scale * a_exact, scale == 1.0) if scale * a_exact >= floor else (a_exact, True)
        terminal = a > 1.0 - guard or q * (1.0 - a) < guard
        step = (q, q, 1.0, v, 2, -1, x.copy(), 1.0) if terminal else (a * q, q, a, v, br, bi, None, a_exact)
        for key, val in zip(rec, step):
            rec[key].append(val)
        if terminal:
            diff = x.copy()
            diff[v] -= 1.0
            residual = q * float(np.max(np.abs(diff), initial=0.0))
            break
        x[v] -= a
        x /= 1.0 - a
        if exact_step:
            x[bi] = 0.0 if br == 0 else 1.0
        np.clip(x, 0.0, 1.0, out=x)
        q *= 1.0 - a
        rec["snap"][-1] = x.copy()
        residual = q * float(np.max(np.abs(x), initial=0.0))
        if eps > 0.0 and q * float(np.sqrt(np.cumsum(x * x)[-1])) <= eps:
            break
    T = len(rec["p"])
    out = (
        np.asarray(rec["p"], dtype=np.float64),
        np.asarray(rec["q"], dtype=np.float64),
        np.asarray(rec["a"], dtype=np.float64),
        np.asarray(rec["v"], dtype=np.int32).reshape(T, K),
        np.asarray(rec["br"], dtype=np.int8),
        np.asarray(rec["bi"], dtype=np.int32),
        np.asarray(rec["aex"], dtype=np.float64),
        residual,
        terminal,
    )
    return out, np.asarray(rec["snap"], dtype=np.float64).reshape(T, n)


def reference_backprop_blocks(n, probs, qs, avals, verts, branch, bind, snaps, aex, fvals):
    """The kernel's former reverse loop, which reads the iterate after each
    step from the snapshots: each applied coefficient is
    (avals/aex) * (+-x_t[bind] + shift), and x_{t+1} = (x_t - a_t v_t)/(1 - a_t)."""
    g = np.zeros(n)
    R = 0.0  # sum over later steps of p_i * f_i
    for t in range(len(probs) - 1, -1, -1):
        if branch[t] == BRANCH_TERMINAL:
            R += probs[t] * fvals[t]
            continue
        om = 1.0 - avals[t]
        s = qs[t] * fvals[t] - R / om
        vsum = float(g[verts[t]].sum())
        dot = float(g @ snaps[t]) - vsum
        coeff = dot / om + s
        if aex[t] > 0.0 and avals[t] != aex[t]:
            coeff *= avals[t] / aex[t]
        g /= om
        if branch[t] == BRANCH_MIN_IN:
            g[bind[t]] += coeff
        else:
            g[bind[t]] -= coeff
        R += probs[t] * fvals[t]
    return g


def reference_kernel_run(x0, spec: PartitionMatroid, cfg: DecompositionConfig):
    """reference_decompose_blocks on a checked point of spec under cfg."""
    eps = 0.0 if cfg.is_exact else cfg.tolerance
    return reference_decompose_blocks(
        x0, spec.block_of(), spec.budget_array, cfg.scale, cfg.floor, eps,
        cfg.iteration_cap(spec.n), cfg.guard,
    )


# ---------------------------------------------------------------------------
# Graph families: the per-family loops, list tapes and list backprop


def reference_graphic_steps(x, g, cfg):
    """Steps (p, q, a, a_exact, vertex indices, trace, x_next) and the
    residual of the former graphic loop."""
    x = x.copy()
    q, steps, terminal = 1.0, [], False
    eps = 0.0 if cfg.is_exact else cfg.tolerance
    for _ in range(cfg.iteration_cap(g.m)):
        s_t = _face_respecting_forest(x, g)
        a_exact, trace = graphic_step_coefficient(g, x, s_t)
        a = cfg.scale * a_exact if cfg.scale * a_exact >= cfg.floor else a_exact
        if a > 1.0 - cfg.guard or q * (1.0 - a) < cfg.guard:
            steps.append((q, q, 1.0, 1.0, s_t.indices, None, None))
            terminal = True
            break
        om = 1.0 - a
        x[list(s_t.indices)] -= a
        x /= om
        if a == a_exact:
            if trace.kind == "min_in_forest":
                x[trace.edge] = 0.0
            elif trace.kind == "one_minus_max_outside":
                x[trace.edge] = 1.0
        np.clip(x, 0.0, 1.0, out=x)
        steps.append((a * q, q, a, a_exact, s_t.indices, trace, x.copy()))
        q = q * om
        if eps > 0.0 and q * float(np.linalg.norm(x)) <= eps:
            break
    residual = q * float(np.max(x, initial=0.0))
    if terminal:
        diff = x.copy()
        diff[list(steps[-1][4])] -= 1.0
        residual = q * float(np.max(np.abs(diff), initial=0.0))
    return steps, residual


def reference_graphic_tape(x, g, cfg):
    x0 = check_graphic_membership(x, g)
    steps, residual = reference_graphic_steps(x0.copy(), g, cfg)
    tape = {key: [] for key in ("p", "q", "a", "vertices", "w_idx", "w_coef", "x_next")}
    for pt, qt, at, aext, vidx, trace, xn in steps:
        ratio = at / aext if aext > 0 else 1.0
        if trace is None:
            idx = coef = None
        elif trace.kind == "min_in_forest":
            idx, coef = np.array([trace.edge]), np.array([ratio])
        elif trace.kind == "one_minus_max_outside":
            idx, coef = np.array([trace.edge]), np.array([-ratio])
        else:
            den = trace.face_rank - trace.face_inter
            idx, coef = np.asarray(trace.face), np.full(len(trace.face), -ratio / den)
        row = (pt, qt, at, VertexSet.integral(vidx, g.m), idx, coef, xn)
        for key, val in zip(tape, row):
            tape[key].append(val)
    return tape, residual, steps[-1][5] is None


def reference_fstab_tape(x, g, cfg):
    xv = check_fstab_membership(x, g).copy()
    tape = {key: [] for key in ("p", "q", "a", "vertices", "w_idx", "w_coef", "x_next")}
    q, residual, terminal = 1.0, 0.0, False
    eps = 0.0 if cfg.is_exact else cfg.tolerance
    for _ in range(cfg.iteration_cap(xv.shape[0])):
        v = fstab_vertex(xv, g)
        a_exact, record = fstab_step_coefficient(xv, v, g)
        a = cfg.scale * a_exact if cfg.scale * a_exact >= cfg.floor else a_exact
        if a > 1.0 - cfg.guard or q * (1.0 - a) < cfg.guard:
            row = (q, q, 1.0, v, None, None, None)
            residual = q * float(np.max(np.abs(xv - v.to_vector()), initial=0.0))
            terminal = True
        else:
            om = 1.0 - a
            xv = (xv - a * v.to_vector()) / om
            if a == a_exact and record.kind in ("lower", "upper"):
                xv[record.indices[0]] = 0.0 if record.kind == "lower" else 1.0
            np.clip(xv, 0.0, 1.0, out=xv)
            ratio = a / a_exact if a_exact > 0 else 1.0
            coef = -ratio * np.asarray(record.coeffs) / record.denominator()
            row = (a * q, q, a, v, np.asarray(record.indices), coef, xv.copy())
            q *= om
            residual = q * float(np.max(xv, initial=0.0))
        for key, val in zip(tape, row):
            tape[key].append(val)
        if terminal or (eps > 0.0 and q * float(np.linalg.norm(xv)) <= eps):
            break
    return tape, residual, terminal


def reference_backprop(tape, n, fvals):
    """The graph families' former reverse loop over a list tape."""
    g = np.zeros(n)
    rest = 0.0
    for t in range(len(fvals) - 1, -1, -1):
        if tape["w_idx"][t] is None:
            rest += tape["p"][t] * fvals[t]
            continue
        om = 1.0 - tape["a"][t]
        s = tape["q"][t] * fvals[t] - rest / om
        dot = float(g @ tape["x_next"][t]) - float(g @ tape["vertices"][t].to_vector())
        coeff = dot / om + s
        g /= om
        g[tape["w_idx"][t]] += coeff * tape["w_coef"][t]
        rest += tape["p"][t] * fvals[t]
    return g


# ---------------------------------------------------------------------------
# Stable-set loops: the vertex oracle as one LP solve per coordinate and
# value (the contract reference), its brute-force enumeration, and the
# per-edge loops that fstab now runs as array operations.

ENUM_LIMIT = 12


def _lp_value(c: np.ndarray, caps: np.ndarray, edges) -> float:
    """max c.y over y_u + y_v <= 1 per edge, 0 <= y_u <= caps_u, caps in
    {1, 1/2}, c >= 0; solved as bipartite max-weight independent set on the
    double cover via min cut."""
    n = c.shape[0]
    src, snk = 2 * n, 2 * n + 1
    net = Dinic(2 * n + 2)
    total = 0.0
    for u in range(n):
        if c[u] > 0:
            net.add_edge(src, u, c[u] / 2.0)
            net.add_edge(n + u, snk, c[u] / 2.0)
            total += c[u]
    inf = float(c.sum()) + 1.0
    for u, v in edges:
        net.add_edge(u, n + v, inf)
        net.add_edge(v, n + u, inf)
    for u in range(n):
        if caps[u] < 1.0:
            net.add_edge(u, n + u, inf)
    return total - net.max_flow(src, snk)


def reference_augmented_weights(x: np.ndarray, g):
    """Support restriction plus tight-edge preservation, one edge at a time."""
    n = x.shape[0]
    alive = x > ZERO_TOL
    big = 4.0 * (n + 1)
    c = np.where(alive, x, 0.0)
    tight = []
    for u, v in g.edges:
        if x[u] + x[v] >= 1.0 - TIGHT_TOL:
            tight.append((u, v))
            if alive[u]:
                c[u] += big
            if alive[v]:
                c[v] += big
    live_edges = [(u, v) for u, v in g.edges if alive[u] and alive[v]]
    return c, alive, live_edges


def reference_fstab_vertex(x_t, g) -> VertexSet:
    """The former vertex oracle: fix the coordinates in order, each to the
    first of 1, 1/2 whose LP re-solve stays within 1e-9 |best| of the
    optimum, else to 0; n max-flows on fresh networks per call."""
    x = np.asarray(x_t, dtype=float)
    n = x.shape[0]
    c, alive, live_edges = reference_augmented_weights(x, g)

    caps = np.ones(n)
    fixed = np.full(n, -1.0)
    fixed[~alive] = 0.0

    def solve(fx: np.ndarray) -> float:
        free = fx < 0
        base = float(np.where(fx > 0, c * fx, 0.0).sum())
        sub_caps = caps.copy()
        for u, v in live_edges:
            if fx[u] >= 0:
                sub_caps[v] = min(sub_caps[v], 1.0 - fx[u])
            if fx[v] >= 0:
                sub_caps[u] = min(sub_caps[u], 1.0 - fx[v])
        idx = np.flatnonzero(free & (sub_caps > 0))
        relabel = {int(u): i for i, u in enumerate(idx)}
        sub_edges = [
            (relabel[u], relabel[v])
            for u, v in live_edges
            if u in relabel and v in relabel
        ]
        return base + _lp_value(c[idx], sub_caps[idx], sub_edges)

    def compatible(i: int, beta: float, fx: np.ndarray) -> bool:
        for u, v in live_edges:
            if u == i and fx[v] >= 0 and beta + fx[v] > 1.0 + 1e-12:
                return False
            if v == i and fx[u] >= 0 and beta + fx[u] > 1.0 + 1e-12:
                return False
        return True

    best = solve(fixed)
    tol = 1e-9 * max(1.0, abs(best))
    for i in range(n):
        if fixed[i] >= 0:
            continue
        accepted = 0.0
        for beta in (1.0, 0.5):
            trial = fixed.copy()
            trial[i] = beta
            if compatible(i, beta, fixed) and solve(trial) >= best - tol:
                accepted = beta
                break
        fixed[i] = accepted
    return VertexSet.half_integral(fixed)


@lru_cache(maxsize=None)
def _half_integral_grid(n: int) -> np.ndarray:
    """Every point of {1, 1/2, 0}^n, one per row, in the order of
    itertools.product((1.0, 0.5, 0.0), repeat=n): lexicographically
    descending."""
    codes = np.indices((3,) * n).reshape(n, 3**n).T
    grid = np.array([1.0, 0.5, 0.0])[codes]
    grid.setflags(write=False)
    return grid


def fstab_vertex_enumerate(x_t, g) -> VertexSet:
    """Validation oracle: brute force over feasible {0, 1/2, 1}^n points with
    the same augmented objective and lexicographic preference.  Of the
    points within the 1e-9 tie band of the best value it returns the first
    in grid order, which is the lexicographically greatest."""
    x = np.asarray(x_t, dtype=float)
    n = x.shape[0]
    if n > ENUM_LIMIT:
        raise ValueError(f"enumeration limited to n <= {ENUM_LIMIT}")
    c, alive, live_edges = reference_augmented_weights(x, g)
    grid = _half_integral_grid(n)
    ok = ~(grid[:, ~alive] > 0).any(axis=1)
    if live_edges:
        u, v = np.array(live_edges).T
        ok &= ~(grid[:, u] + grid[:, v] > 1.0 + 1e-12).any(axis=1)
    feasible = grid[ok]
    vals = feasible @ c
    vmax = vals.max()
    tol = 1e-9 * max(1.0, abs(vmax))
    return VertexSet.half_integral(feasible[np.argmax(vals >= vmax - tol)])


def reference_fstab_step_coefficient(x_t, v: VertexSet, g):
    """Step coefficient and binding inequality, one constraint at a time in
    the order lower_i, upper_i per i, then the edges; the first minimum wins."""
    x = np.asarray(x_t, dtype=float)
    vv = v.to_vector()
    best, record = np.inf, None
    for i in range(x.shape[0]):
        den = vv[i]  # constraint -x_i <= 0
        if den > 1e-15:
            ratio = x[i] / den
            if ratio < best:
                best = ratio
                record = ActiveConstraintRecord("lower", (i,), (-1.0,), 0.0, -float(vv[i]))
        den = 1.0 - vv[i]  # constraint x_i <= 1
        if den > 1e-15:
            ratio = (1.0 - x[i]) / den
            if ratio < best:
                best = ratio
                record = ActiveConstraintRecord("upper", (i,), (1.0,), 1.0, float(vv[i]))
    for u, w in g.edges:
        den = 1.0 - vv[u] - vv[w]
        if den > 1e-15:
            ratio = (1.0 - x[u] - x[w]) / den
            if ratio < best:
                best = ratio
                record = ActiveConstraintRecord(
                    "edge", (u, w), (1.0, 1.0), 1.0, float(vv[u] + vv[w])
                )
    if record is None:
        raise ValueError("no constraint with positive denominator: x_t equals v")
    return float(max(min(best, 1.0), 0.0)), record


def reference_project_to_fstab_trace(x, g, slack: float = 0.0):
    """The projection with its excess, degree and ratio sums edge by edge;
    the largest ratio wins, ties to the larger edge index."""
    x_in = np.asarray(x, dtype=float)
    entry_active = (x_in > 0.0) & (x_in < 1.0)
    x = np.clip(x_in, 0.0, 1.0)
    steps = []
    for _ in range(200):
        excess = np.array([x[u] + x[v] + slack - 1.0 for u, v in g.edges])
        violated = excess > 0
        if not violated.any():
            break
        d = np.zeros_like(x)
        for e, (u, v) in enumerate(g.edges):
            if violated[e]:
                d[u] += 1.0
                d[v] += 1.0
        ratios = [
            (excess[e] / (d[u] + d[v]), e)
            for e, (u, v) in enumerate(g.edges)
            if violated[e]
        ]
        eta, ebest = max(ratios)
        ub, vb = g.edges[ebest]
        raw = x - eta * d
        steps.append((d, ub, vb, raw > 0.0))
        x = np.clip(np.maximum(raw, 0.0), 0.0, 1.0)
    finishers = []
    for u, v in g.edges:
        over = x[u] + x[v] + slack - 1.0
        if over > 0:
            i = u if x[u] >= x[v] else v
            finishers.append((i, u, v))
            x[i] = max(x[i] - over, 0.0)
    return x, (entry_active, steps, finishers)


# ---------------------------------------------------------------------------
# Local search


def reference_swap_feasible(c, current: set, out_i: int, in_j: int) -> bool:
    """The former swap test: a union-find over the kept members per pair
    (graphic), and a scan of every edge per pair (stable set)."""
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


def reference_local_improve(s, pool, f, c, max_iter=10):
    """The former local_improve: one value_of call per feasible swap."""
    current = set(s.indices)
    value = f.value_of(tuple(sorted(current)))
    candidates = [j for j in pool if j not in current]
    for _ in range(max_iter):
        best_swap, best_val = None, value
        for i in sorted(current):
            for j in candidates:
                if j in current or not reference_swap_feasible(c, current, i, j):
                    continue
                val = f.value_of(tuple(sorted(current - {i} | {j})))
                if val > best_val + 1e-12:
                    best_swap, best_val = (i, j), val
        if best_swap is None:
            break
        i, j = best_swap
        current.remove(i)
        current.add(j)
        candidates = [cnd for cnd in candidates if cnd != j] + [i]
        value = best_val
    return VertexSet.integral(sorted(current), s.n), value


# ---------------------------------------------------------------------------
# Graphic matroid by enumeration of all 2^m edge subsets


@lru_cache(maxsize=64)
def _rank_table(n_nodes: int, edges: tuple) -> np.ndarray:
    """Rank of every edge subset, indexed by bitmask; partitions are
    interned so the table builds in O(2^m) dictionary steps."""
    m = len(edges)
    full = 1 << m
    rank = np.zeros(full, dtype=np.int8)
    parts: list = [None] * full
    parts[0] = tuple(range(n_nodes))
    merge_memo: dict = {}
    for mask in range(1, full):
        low = mask & -mask
        e = low.bit_length() - 1
        prev = mask ^ low
        base = parts[prev]
        key = (base, e)
        hit = merge_memo.get(key)
        if hit is None:
            u, v = edges[e]
            ru, rv = base[u], base[v]
            if ru == rv:
                hit = (base, 0)
            else:
                a, b = (ru, rv) if ru < rv else (rv, ru)
                hit = (tuple(a if lbl == b else lbl for lbl in base), 1)
            merge_memo[key] = hit
        parts[mask] = hit[0]
        rank[mask] = rank[prev] + hit[1]
    return rank


def _subset_sums(values: np.ndarray) -> np.ndarray:
    """sums[mask] = sum of values over the bits of mask, for all masks."""
    m = values.shape[0]
    out = np.zeros(1 << m)
    for b in range(m):
        step = 1 << b
        out[step : 2 * step] = out[:step] + values[b]
    return out


def reference_min_g_lambda(g, x_t, s_t, lam: float):
    """Exact minimum of (1-lam)*r(F) - x_t(F) + lam*|F ∩ S_t| over all edge
    subsets; ties go to the smallest bitmask.  Returns (value, subset)."""
    x_t = np.asarray(x_t, dtype=float)
    indicator = np.zeros(g.m)
    s_idx = s_t.indices if isinstance(s_t, VertexSet) else tuple(s_t)
    indicator[list(s_idx)] = 1.0
    rank = _rank_table(g.n_nodes, g.edges).astype(np.float64)
    vals = (1.0 - lam) * rank - _subset_sums(x_t) + lam * _subset_sums(indicator)
    best = int(np.argmin(vals))
    face = tuple(e for e in range(g.m) if best >> e & 1)
    return float(vals[best]), face


def reference_graphic_step_coefficient(g, x_t, s_t: VertexSet, tol: float = 1e-10):
    """The step coefficient by bisection over the enumeration: lambda* to
    within tol, then the closed form from the face of a probe 10 tol past
    it.  Returns (a, trace) like ``graphic_step_coefficient``."""
    x = np.asarray(x_t, dtype=float)
    s_idx = list(s_t.indices)
    in_set = np.zeros(g.m, dtype=bool)
    in_set[s_idx] = True
    if s_idx:
        rel = int(np.argmin(x[s_idx]))
        a_in, e_in = float(x[s_idx][rel]), int(s_idx[rel])
    else:
        a_in, e_in = np.inf, -1
    comp = np.flatnonzero(~in_set)
    if comp.size:
        rel = int(np.argmax(x[comp]))
        a_out, e_out = 1.0 - float(x[comp][rel]), int(comp[rel])
    else:
        a_out, e_out = np.inf, -1
    upper = min(a_in, a_out, 1.0)

    def feasible(lam: float) -> bool:
        return reference_min_g_lambda(g, x, s_t, lam)[0] >= -1e-9

    if not feasible(0.0):
        raise MembershipError("iterate violates a rank constraint at lambda=0")
    iters, lam_star = 0, upper
    if not feasible(upper):
        lo, hi = 0.0, upper
        for iters in range(1, 61):
            mid = 0.5 * (lo + hi)
            if feasible(mid):
                lo = mid
            else:
                hi = mid
            if hi - lo <= tol:
                break
        lam_star = lo
    a_rank, face, face_rank, face_inter = np.inf, None, None, None
    val, probe_face = reference_min_g_lambda(g, x, s_t, min(lam_star + 10 * tol, 1.0))
    if val < -1e-15 and probe_face:
        rF = float(_rank_table(g.n_nodes, g.edges)[sum(1 << e for e in probe_face)])
        inter = sum(1 for e in probe_face if in_set[e])
        if rF - inter > 0:
            a_rank = (rF - float(x[list(probe_face)].sum())) / (rF - inter)
            face, face_rank, face_inter = probe_face, int(rF), int(inter)
    candidates = [(a_rank, "rank_face"), (a_in, "min_in_forest"), (a_out, "one_minus_max_outside")]
    a = min(c for c, _ in candidates)
    kind = next(name for c, name in candidates if c == a)
    edge = {"min_in_forest": e_in, "one_minus_max_outside": e_out}.get(kind)
    trace = GraphicCoefficientTrace(kind, edge=edge, face=face if kind == "rank_face" else None,
                                    face_rank=face_rank if kind == "rank_face" else None,
                                    face_inter=face_inter if kind == "rank_face" else None,
                                    lambda_star=lam_star, search_iterations=iters)
    return float(max(min(a, 1.0), 0.0)), trace


def reference_face_respecting_forest(x, g, zero_tol: float = ZERO_WEIGHT) -> VertexSet:
    """Kruskal with edges ordered by (# tight edge subsets containing them
    desc, weight desc, index asc), a subset being tight at slack <= 1e-9."""
    rank = _rank_table(g.n_nodes, g.edges).astype(np.float64)
    slack = rank - _subset_sums(np.asarray(x, dtype=float))
    tight = np.flatnonzero(slack <= 1e-9)
    t = np.array([np.count_nonzero(tight & (1 << b)) for b in range(g.m)], dtype=float)
    order = np.lexsort((np.arange(g.m), -np.asarray(x), -t))
    uf = UnionFind(g.n_nodes)
    chosen = []
    for e in order:
        if x[e] <= zero_tol:
            continue
        u, v = g.edges[e]
        if uf.union(u, v):
            chosen.append(int(e))
    return VertexSet.integral(chosen, g.m)


# ---------------------------------------------------------------------------
# Checks against the production tape


def assert_bytes(got, want, what):
    got, want = np.asarray(got, dtype=np.float64), np.asarray(want, dtype=np.float64)
    assert got.shape == want.shape, what
    assert got.tobytes() == want.tobytes(), what


def dense_vertices(tape):
    """The tape's CSR vertex rows as a (T, n) matrix."""
    T = len(tape.d.p)
    indptr, indices, data = tape.d.vertex_rows
    out = np.zeros((T, tape.d.n))
    out[np.repeat(np.arange(T), np.diff(indptr)), indices] = data
    return out


def reference_iterates(x, c, cfg=DecompositionConfig()):
    """The production decomposition and tape of x under c and cfg, and the
    iterate after each of the tape's non-terminal steps as the reference
    loop records it.  Asserts first that the reference ran the same steps:
    p, q, a and the vertices equal the tape's byte for byte."""
    d, tape = decompose_with_tape(x, c, cfg)
    if isinstance(c, PartitionMatroid):
        out, snaps = reference_kernel_run(tape.x0, c, cfg)
        p, q, a, verts = out[:4]
        vertices = np.zeros((len(p), c.n))
        np.put_along_axis(vertices, verts.astype(np.intp), 1.0, axis=1)
        iterates = list(snaps[: len(p) - out[-1]])
    else:
        reference = reference_graphic_tape if isinstance(c, GraphicMatroid) else reference_fstab_tape
        want, _, _ = reference(tape.x0, c.graph, cfg)
        p, q, a = want["p"], want["q"], want["a"]
        vertices = np.reshape([v.to_vector() for v in want["vertices"]], (len(p), c.dim))
        iterates = [xn for xn in want["x_next"] if xn is not None]
    for key, got, ref in (("p", tape.d.p, p), ("q", tape.q, q), ("a", tape.a, a)):
        assert_bytes(got, ref, key)
    assert_bytes(dense_vertices(tape), vertices, "vertices")
    return d, tape, iterates
