"""Pure-numpy decomposition kernels; the reference the Cython extension
must match.

``decompose_blocks`` runs the iterative vertex-peeling loop for box +
per-block-sum polytopes: at each step the vertex is the per-block top-k
of the iterate (value descending, index ascending on ties), the step
coefficient is min(min-in-set, 1 - max-out-of-set) optionally rescaled,
and the iterate is renormalized.  ``backprop_blocks`` accumulates the
reverse-mode gradient of sum(p_t * f_t) through the recorded tape.
"""

from __future__ import annotations

import math

import numpy as np

BRANCH_MIN_IN = 0
BRANCH_MAX_OUT = 1
BRANCH_TERMINAL = 2


def decompose_blocks(
    x0: np.ndarray,
    block_of: np.ndarray,
    budgets: np.ndarray,
    scale: float,
    floor: float,
    eps: float,
    max_iter: int,
    guard: float,
    want_tape: bool,
):
    """Decompose x0 into per-block top-k vertices.

    Returns (probs, qs, avals, verts, branch, bind, snaps, aex,
    residual_inf, terminal); snaps is None unless want_tape.  qs[t] is the
    mass left before step t; avals[t] the applied coefficient and aex[t]
    the unscaled one (they differ only on rescaled steps, where the
    gradient of the applied coefficient carries the extra factor).
    """
    x = np.array(x0, dtype=np.float64)
    n = x.shape[0]
    block_of = np.asarray(block_of, dtype=np.int32)
    budgets = np.asarray(budgets, dtype=np.int64)
    K = int(budgets.sum())
    # The vertex is each block's first budget entries in one stable sort by
    # (block, value desc, index); the block sizes fix their positions.
    sizes = np.bincount(block_of, minlength=budgets.shape[0])
    take = np.concatenate([s + np.arange(k) for s, k in zip(np.cumsum(sizes) - sizes, budgets)])

    probs, qs, avals, verts, branch, bind, aexs = [], [], [], [], [], [], []
    snaps = [] if want_tape else None
    q = 1.0
    terminal = False
    residual_inf = 0.0

    for _ in range(max_iter):
        in_set = np.zeros(n, dtype=bool)
        in_set[np.lexsort((-x, block_of))[take]] = True
        v = in_set.nonzero()[0]

        if K > 0:
            xv = x[v]
            rel = int(np.argmin(xv))
            a_in, idx_in = float(xv[rel]), int(v[rel])
        else:
            a_in, idx_in = np.inf, -1
        if K < n:
            idx_out = int(np.where(in_set, -np.inf, x).argmax())
            a_out = 1.0 - float(x[idx_out])
        else:
            a_out, idx_out = np.inf, -1

        if a_in <= a_out:
            a_exact, br, bi = a_in, BRANCH_MIN_IN, idx_in
        else:
            a_exact, br, bi = a_out, BRANCH_MAX_OUT, idx_out
        a_exact = max(a_exact, 0.0)

        a_scaled = scale * a_exact
        if a_scaled >= floor:
            a, exact_step = a_scaled, scale == 1.0
        else:
            a, exact_step = a_exact, True

        # Terminal when the coefficient reaches 1, or when the mass that a
        # further recursion could redistribute is below the guard (drift in
        # late iterates otherwise costs spurious extra steps).
        if a > 1.0 - guard or q * (1.0 - a) < guard:
            probs.append(q)
            qs.append(q)
            avals.append(1.0)
            aexs.append(1.0)
            verts.append(v)
            branch.append(BRANCH_TERMINAL)
            bind.append(-1)
            if want_tape:
                snaps.append(x.copy())
            diff = x.copy()
            diff[v] -= 1.0
            residual_inf = q * float(np.max(np.abs(diff), initial=0.0))
            terminal = True
            break

        probs.append(a * q)
        qs.append(q)
        avals.append(a)
        aexs.append(a_exact)
        verts.append(v)
        branch.append(br)
        bind.append(bi)

        om = 1.0 - a
        x[v] -= a
        x /= om
        if exact_step:
            # The binding coordinate is algebraically exactly 0 or 1; pin it
            # so float drift cannot resurrect it in later top-k selections.
            x[bi] = 0.0 if br == BRANCH_MIN_IN else 1.0
        np.clip(x, 0.0, 1.0, out=x)
        q *= om
        if want_tape:
            snaps.append(x.copy())
        if eps > 0.0 and q * math.sqrt(x.dot(x)) <= eps:
            break

    T = len(probs)
    if T and not terminal:
        residual_inf = q * float(np.max(x, initial=0.0))
    out_snaps = np.asarray(snaps, dtype=np.float64) if want_tape else None
    if want_tape and T == 0:
        out_snaps = np.zeros((0, n))
    return (
        np.asarray(probs, dtype=np.float64),
        np.asarray(qs, dtype=np.float64),
        np.asarray(avals, dtype=np.float64),
        np.asarray(verts, dtype=np.int32).reshape(T, K),
        np.asarray(branch, dtype=np.int8),
        np.asarray(bind, dtype=np.int32),
        out_snaps,
        np.asarray(aexs, dtype=np.float64),
        residual_inf,
        terminal,
    )


def backprop_blocks(
    n: int,
    probs: np.ndarray,
    qs: np.ndarray,
    avals: np.ndarray,
    verts: np.ndarray,
    branch: np.ndarray,
    bind: np.ndarray,
    snaps: np.ndarray,
    aex: np.ndarray,
    fvals: np.ndarray,
):
    """Reverse-mode gradient of F = sum(p_t * f_t) w.r.t. the input point.

    Vertex choice and binding constraint are locally constant; each applied
    coefficient is (avals/aex) * (+-x_t[bind] + shift), and
    x_{t+1} = (x_t - a_t v_t)/(1 - a_t).
    """
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
