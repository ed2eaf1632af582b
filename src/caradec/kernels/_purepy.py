"""Pure-numpy decomposition kernel: the reference that the C kernel
(``_blocks.c``) must match byte for byte, and the fallback when it cannot
be built.

``decompose_blocks`` runs the iterative vertex-peeling loop for box +
per-block-sum polytopes: at each step the vertex is the per-block top-k
of the iterate (value descending, index ascending on ties), the step
coefficient is min(min-in-set, 1 - max-out-of-set) optionally rescaled,
and the iterate is renormalized.
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
):
    """Decompose x0 into per-block top-k vertices.

    Returns (probs, qs, avals, verts, branch, bind, aex, residual_inf,
    terminal).  qs[t] is the mass left before step t; avals[t] the applied
    coefficient and aex[t] the unscaled one (they differ only on rescaled
    steps, where the gradient of the applied coefficient carries the extra
    factor).
    """
    x = np.array(x0, dtype=np.float64)
    n = x.shape[0]
    block_of = np.asarray(block_of, dtype=np.int32)
    budgets = np.asarray(budgets, dtype=np.int64)
    # `order` lists the coordinates by (block, value descending); each
    # block's first budget entries form the vertex.  A step maps in-set and
    # out-of-set values through two increasing maps and the pin and clip
    # keep their order, so x[order] is at most two descending runs per block
    # and one stable re-sort of the previous order is cheap.  Equal values
    # then keep the previous order rather than the index order.  That can
    # change the vertex only when a block's entries at positions k-1 and k
    # tie, and on such a step the full stable sort by (block, value
    # descending, index) picks it instead.
    order = np.argsort(block_of, kind="stable")
    # The smallest unsigned type of the block ids: numpy's stable sort of 8-
    # and 16-bit keys is a radix sort.
    blocks = block_of[order].astype(np.min_scalar_type(budgets.shape[0]))
    # Positions of the vertex in `order`, and positions k-1 and k of each
    # block that has entries on both sides of its budget.
    sizes = np.bincount(block_of, minlength=budgets.shape[0]).tolist()
    take, before, after, start = [], [], [], 0
    for size, k in zip(sizes, budgets.tolist()):
        take += range(start, start + k)
        if 0 < k < size:
            before.append(start + k - 1)
            after.append(start + k)
        start += size
    K = len(take)
    take = np.array(take, dtype=np.intp)
    edges = np.array([before, after], dtype=np.intp)

    probs, qs, avals, verts, branch, bind, aexs = [], [], [], [], [], [], []
    q = 1.0
    terminal = False
    residual_inf = 0.0

    for _ in range(max_iter):
        order = order[np.lexsort((-x[order], blocks))]
        ends = x[order[edges]]
        if np.count_nonzero(ends[0] == ends[1]):
            order = np.lexsort((-x, block_of))
        v = np.sort(order[take])

        if K > 0:
            xv = x[v]
            rel = int(xv.argmin())
            a_in, idx_in = float(xv[rel]), int(v[rel])
        else:
            a_in, idx_in = np.inf, -1
        if K < n:
            x_out = x.copy()
            x_out[v] = -np.inf
            idx_out = int(x_out.argmax())
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
        x.clip(0.0, 1.0, out=x)
        q *= om
        # x.x as a sequential sum, which the C kernel repeats exactly (BLAS
        # dot adds in an order of its own); cumsum adds left to right.
        if eps > 0.0 and q * math.sqrt(np.cumsum(x * x)[-1]) <= eps:
            break

    T = len(probs)
    if T and not terminal:
        # max|x|, not max(x): numpy's max of +0.0 and -0.0 may be either.
        residual_inf = q * float(np.max(np.abs(x), initial=0.0))
    return (
        np.asarray(probs, dtype=np.float64),
        np.asarray(qs, dtype=np.float64),
        np.asarray(avals, dtype=np.float64),
        np.asarray(verts, dtype=np.int32).reshape(T, K),
        np.asarray(branch, dtype=np.int8),
        np.asarray(bind, dtype=np.int32),
        np.asarray(aexs, dtype=np.float64),
        residual_inf,
        terminal,
    )

