"""Reference loops the production code is checked against: the block
kernel as a per-element selection loop, the per-family graph loops with
their list tapes, and the two reverse loops that read the iterate after
every step (the kernel's snapshot loop and the graph list loop).

The references record the iterates that production tapes no longer keep,
so tests that inspect iterates take them from here, after checking that
the reference ran the same steps as the production tape."""

import numpy as np

from caradec.core import (
    DecompositionConfig,
    GraphicMatroid,
    PartitionMatroid,
    VertexSet,
)
from caradec.extension import decompose_with_tape
from caradec.fstab import check_fstab_membership, fstab_step_coefficient, fstab_vertex
from caradec.matroids import (
    _face_respecting_forest,
    check_graphic_membership,
    graphic_step_coefficient,
)

BRANCH_MIN_IN, BRANCH_TERMINAL = 0, 2


# ---------------------------------------------------------------------------
# Block kernel


def reference_decompose_blocks(x0, block_of, budgets, scale, floor, eps, max_iter, guard):
    """The pure kernel as a per-element selection loop: walk the stable
    descending order and take an index while its block has budget left.
    Returns the kernel's outputs and the (T, n) snapshots: row t is the
    iterate after step t (a terminal step's row is the iterate it ends on)."""
    x = np.array(x0, dtype=np.float64)
    n, K = x.shape[0], int(np.sum(budgets))
    rec = {key: [] for key in ("p", "q", "a", "v", "br", "bi", "snap", "aex")}
    q, terminal, residual = 1.0, False, 0.0
    for _ in range(max_iter):
        cnt, chosen = [0] * len(budgets), []
        for i in np.argsort(-x, kind="stable"):
            b = block_of[i]
            if cnt[b] < budgets[b] and len(chosen) < K:
                cnt[b] += 1
                chosen.append(int(i))
        v = np.array(sorted(chosen), dtype=np.int32)
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
        residual = q * float(np.max(x, initial=0.0))
        if eps > 0.0 and q * float(np.linalg.norm(x)) <= eps:
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
