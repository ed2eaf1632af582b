"""Pure-Python kernels: the references that the C kernels (``_blocks.c``)
must match byte for byte, and the fallback when they cannot be built.

``block_layout`` packs a box + per-block-sum polytope's blocks as the
block kernels read them.  ``project_blocks`` and ``project_blocks_vjp``
are the mean-centred projection onto such a polytope and its pull-back.
``decompose_blocks`` checks a point of such a polytope and runs the
iterative vertex-peeling loop on y = q x, where q is the mass left: at each
step the vertex is the per-block top-k of y (value descending, index
ascending on ties), the step coefficient is min(min-in-set,
1 - max-out-of-set) of x = y/q, optionally rescaled, and only the vertex's
members change; it returns the decomposition's rows and the gradient
tape's.  ``coverage_values`` and ``cut_values`` score batches of index sets
given as CSR rows, ``backprop_blocks`` is the reverse pass of every
family's gradient tape, and ``adam_ascend`` is one Adam step.
"""

from __future__ import annotations

import math
from functools import reduce
from operator import add, mul

import numpy as np

from ..core import SUM_TOL, DimensionError, MembershipError, check_box, ones

BRANCH_MIN_IN = 0
BRANCH_MAX_OUT = 1
BRANCH_TERMINAL = 2
BAD_BLOCKS = "block id or budget out of range"


def sequential_sum(v) -> float:
    """sum(v), added in order from 0.0, as a C loop adds it.  numpy's cumsum
    adds in order; the + 0.0 turns its -0.0 into the 0.0 that a sum from
    0.0 gives."""
    return float(np.cumsum(v)[-1]) + 0.0 if len(v) else 0.0


def check_shape(x, n: int) -> np.ndarray:
    """x as a float array, once its shape is (n,) (DimensionError)."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (n,):
        raise DimensionError(f"point of shape {x.shape} for a spec of dimension {n}")
    return x


def block_sum_error(s: float, k: int) -> MembershipError:
    return MembershipError(f"block sum {s:.9f} != k_i={k}")


def block_members(block_of, budgets):
    """Each block's coordinates in index order, once every block id lies in
    [0, nb) and every budget in [0, block size] (ValueError otherwise)."""
    block_of = np.asarray(block_of)
    budgets = np.asarray(budgets, dtype=np.int64)
    nb = budgets.shape[0]
    if block_of.ndim != 1 or block_of.size and (block_of.min() < 0 or block_of.max() >= nb):
        raise ValueError(BAD_BLOCKS)
    sizes = np.bincount(block_of, minlength=nb)
    if ((budgets < 0) | (budgets > sizes)).any():
        raise ValueError(BAD_BLOCKS)
    return np.split(np.argsort(block_of, kind="stable"), np.cumsum(sizes)[:-1])


def block_layout(block_of, budgets) -> np.ndarray:
    """The blocks as every block kernel reads them, built once per spec:
    the int64 array [n, nb, K, block_of[n], budgets[nb]], K the sum of the
    budgets, once every block id lies in [0, nb) and every budget in [0,
    block size] (ValueError otherwise)."""
    block_members(block_of, budgets)
    budgets = np.asarray(budgets, dtype=np.int64)
    return np.concatenate(([len(block_of), budgets.shape[0], budgets.sum()], block_of, budgets), dtype=np.int64)


def layout_header(blocks):
    """(blocks, n, nb, K) of a block layout, blocks as an int64 array, once
    its length is that of its header (ValueError otherwise).  The kernels
    check the ids, the budgets and K."""
    blocks = np.asarray(blocks, dtype=np.int64)
    if blocks.ndim != 1 or blocks.shape[0] < 3:
        raise ValueError(BAD_BLOCKS)
    n, nb, K = blocks[:3].tolist()
    if not (0 <= n and 0 <= nb and blocks.shape[0] == 3 + n + nb):
        raise ValueError(BAD_BLOCKS)
    return blocks, n, nb, K


def _read_layout(blocks):
    """(n, block_of, budgets, members) of a block layout, checked."""
    blocks, n, nb, K = layout_header(blocks)
    block_of, budgets = blocks[3 : 3 + n], blocks[3 + n :]
    members = block_members(block_of, budgets)
    if K != sum(budgets.tolist()):
        raise ValueError(BAD_BLOCKS)
    return n, block_of, budgets, members


def _block_scales(zb, k):
    """The projection's (m, s, ds) of a block's z values zb with budget k
    (m its mean, added in order), or None when the block is degenerate: k
    is 0 or the block size, or the mean is not inside (0, 1)."""
    ni = len(zb)
    if k == 0 or k == ni:
        return None
    m = sequential_sum(zb) / ni
    if m <= 0.0 or m >= 1.0:
        return None
    u = k / ni
    s1 = u / m
    s2 = ((ni - k) / ni) / (1.0 - m)
    if s1 <= s2:
        return m, s1, -u / (m * m)
    return m, s2, ((ni - k) / ni) / ((1.0 - m) * (1.0 - m))


def project_blocks(z, blocks) -> np.ndarray:
    """Mean-centred scaling of each block of z onto its budget k: x = s (z -
    m) + k/ni with m the block mean and s = min(k/(ni m), (ni - k)/(ni (1 -
    m))); a degenerate block (budget 0 or full, or mean outside (0, 1)) maps
    to its centre k/ni, and an empty block is skipped.  The mean adds the
    block's z in index order from 0.0.  blocks is a block_layout; z's
    entries are not checked."""
    n, _, budgets, members = _read_layout(blocks)
    z = check_shape(z, n)
    x = np.empty_like(z)
    for idx, k in zip(members, budgets.tolist()):
        if not idx.size:
            continue
        zb = z[idx]
        scales = _block_scales(zb, k)
        if scales is None:
            x[idx] = k / idx.size
        else:
            m, s, _ = scales
            x[idx] = s * (zb - m) + k / idx.size
    return x


def project_blocks_vjp(z, blocks, gx) -> np.ndarray:
    """dF/dz for dF/dx = gx at x = project_blocks(z, blocks): on a block,
    s (g - mean g) + (ds/ni) g.(z - m), with ds the derivative of s in m;
    0.0 on a degenerate block.  Both the mean of g and the dot product add
    in index order from 0.0."""
    n, _, budgets, members = _read_layout(blocks)
    z = check_shape(z, n)
    gx = check_shape(gx, n)
    out = np.zeros_like(z)
    for idx, k in zip(members, budgets.tolist()):
        if not idx.size:
            continue
        zb = z[idx]
        scales = _block_scales(zb, k)
        if scales is not None:
            m, s, ds = scales
            gb = gx[idx]
            ni = idx.size
            out[idx] = s * (gb - sequential_sum(gb) / ni) + (ds / ni) * sequential_sum(gb * (zb - m))
    return out


def check_adam_arrays(theta, m, v, grad):
    """n and grad as a float array, once theta, m and v are writable
    contiguous float arrays of one shape (n,) and grad has that shape
    (ValueError otherwise)."""
    n = np.shape(theta)[0]
    for a in (theta, m, v):
        # carray: C-contiguous, aligned and writable.
        if not (isinstance(a, np.ndarray) and a.dtype == np.float64 and a.shape == (n,) and a.flags.carray):
            raise ValueError("Adam needs writable contiguous float arrays theta, m and v of one shape (n,)")
    return n, check_shape(grad, n)


def adam_ascend(theta, m, v, grad, lr, beta1, beta2, eps, t):
    """One Adam ascent step, in place on theta and the moments m and v:
    m = b1 m + (1 - b1) g, v = b2 v + (1 - b2) g g, and theta += lr mhat /
    (sqrt(vhat) + eps) with mhat = m/(1 - b1^t) and vhat = v/(1 - b2^t).
    Returns theta."""
    _, grad = check_adam_arrays(theta, m, v, grad)
    m *= beta1
    m += (1 - beta1) * grad
    v *= beta2
    v += (1 - beta2) * grad * grad
    theta += lr * (m / (1 - beta1**t)) / (np.sqrt(v / (1 - beta2**t)) + eps)
    return theta


def decompose_blocks(
    x0: np.ndarray,
    blocks: np.ndarray,
    scale: float,
    floor: float,
    eps: float,
    max_iter: int,
    guard: float,
):
    """Decompose a point x0 of the box + per-block-sum polytope of the block
    layout blocks into per-block top-k vertices, with the rows of its
    gradient tape.

    x0 is checked first: DimensionError for a shape other than (n,),
    MembershipError for NaN, infinities, entries outside [0, 1] by more
    than MEMBERSHIP_TOL, or a block sum (added in index order from 0.0)
    off its budget by more than SUM_TOL.  The run starts from x0 clipped to
    [0, 1].

    Returns (probs, qs, avals, vertex_rows, functional_rows, wx, x0,
    residual_inf, terminal, branch, aex).  qs[t] is the mass left before
    step t; avals[t] the applied coefficient and aex[t] the unscaled one
    (they differ only on rescaled steps, where the gradient of the applied
    coefficient carries the extra factor).  vertex_rows is the CSR triple of
    the vertices.  Step t binds one coordinate, so its functional row is
    +-r e_bind with r = a_t/a_exact on rescaled steps (1 otherwise): +r
    when the smallest in-set value x_t[bind] = a_exact binds, -r when the
    largest out-of-set value x_t[bind] = 1 - a_exact does; a terminal row
    is empty, and wx[t] = w_t.x_t (0 on a terminal row).  x0 is the
    clipped point.

    The loop keeps y = q x rather than the iterate x.  A step with
    coefficient a takes a q from each member's y (x' = (x - a v)/(1 - a)
    makes y' = y - a q v), pins the binding coordinate, clips y to [0, q']
    with q' = q - a q, and leaves every other y alone.  The eps test reads
    a running sum of squares of y, summed afresh whenever it falls below a
    quarter of its last exact value; the C kernel repeats every operation.
    """
    n, block_of, budgets, members = _read_layout(blocks)
    x = check_shape(x0, n)
    check_box(x)
    for idx, k in zip(members, budgets.tolist()):
        s = sequential_sum(x[idx])
        if abs(s - k) > SUM_TOL:
            raise block_sum_error(s, k)
    # The clip to [0, 1], written so that it keeps -0.0, as C's does.
    x0 = x.copy()
    x0[x0 < 0.0] = 0.0
    np.minimum(x0, 1.0, out=x0)
    y = x0.copy()
    # `order` lists the coordinates by (block, y descending); each block's
    # first budget entries form the vertex.  A step moves the members down
    # by one amount and leaves the rest (the pin and the clip keep the
    # order), so y[order] is at most two descending runs per block and one
    # stable re-sort of the previous order is cheap.  Equal values then keep
    # the previous order rather than the index order.  That can change the
    # vertex only when a block's entries at positions k-1 and k tie, and on
    # such a step the full stable sort by (block, y descending, index)
    # picks it instead.
    order = np.argsort(block_of, kind="stable")
    # The smallest unsigned type of the block ids: numpy's stable sort of 8-
    # and 16-bit keys is a radix sort.
    block_keys = block_of[order].astype(np.min_scalar_type(budgets.shape[0]))
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
    ss = ss_ref = reduce(add, (y * y).tolist(), 0.0) if eps > 0.0 else 0.0

    for _ in range(max_iter):
        order = order[np.lexsort((-y[order], block_keys))]
        ends = y[order[edges]]
        if np.count_nonzero(ends[0] == ends[1]):
            order = np.lexsort((-y, block_of))
        v = np.sort(order[take])

        y_in = y[v]
        if K > 0:
            rel = int(y_in.argmin())
            a_in, idx_in = float(y_in[rel]) / q, int(v[rel])
        else:
            a_in, idx_in = np.inf, -1
        if K < n:
            y_out = y.copy()
            y_out[v] = -np.inf
            idx_out = int(y_out.argmax())
            a_out = 1.0 - float(y[idx_out]) / q
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
            diff = y.copy()
            diff[v] -= q
            residual_inf = float(np.max(np.abs(diff), initial=0.0))
            terminal = True
            break

        aq = a * q
        qn = q - aq
        probs.append(aq)
        qs.append(q)
        avals.append(a)
        aexs.append(a_exact)
        verts.append(v)
        branch.append(br)
        bind.append(bi)

        new_in = y_in - aq
        if exact_step and br == BRANCH_MIN_IN:
            # The binding member is algebraically exactly 0; pin it so float
            # drift cannot resurrect it in later top-k selections.
            new_in[rel] = 0.0
        # The clip to [0, q'], written so that it keeps -0.0, as C's does.
        new_in[new_in < 0.0] = 0.0
        np.minimum(new_in, qn, out=new_in)
        y[v] = new_in
        # Outside the vertex (no member lies above q' now) the clip lowers
        # what lies above q', and an exact max-out step pins its binding
        # coordinate to q'.
        above = y > qn
        if exact_step and br == BRANCH_MAX_OUT:
            above[bi] = True
        y_moved = y[above]
        y[above] = qn
        q = qn
        if eps > 0.0:
            # Members first, then the coordinates outside, in index order.
            terms = (new_in * new_in - y_in * y_in).tolist() + (qn * qn - y_moved * y_moved).tolist()
            ss = reduce(add, terms, ss)
            if ss < 0.25 * ss_ref:
                ss = ss_ref = reduce(add, (y * y).tolist(), 0.0)
            if math.sqrt(ss) <= eps:
                break

    T = len(probs)
    if T and not terminal:
        # max|y|, not max(y): numpy's max of +0.0 and -0.0 may be either.
        residual_inf = float(np.max(np.abs(y), initial=0.0))
    probs, qs, avals, aexs = (np.asarray(col, dtype=np.float64) for col in (probs, qs, avals, aexs))
    branch = np.asarray(branch, dtype=np.int64)
    live = T - terminal
    r = np.divide(avals, aexs, out=np.ones(T), where=(aexs > 0.0) & (avals != aexs))
    min_in = branch == BRANCH_MIN_IN
    w = np.where(min_in, r, -r)
    wx = w * np.where(min_in, aexs, 1.0 - aexs)
    wx[live:] = 0.0
    vertex_rows = (np.arange(T + 1, dtype=np.int64) * K, np.asarray(verts, dtype=np.int64).reshape(T * K),
                   ones(T * K))
    functional_rows = (np.minimum(np.arange(T + 1, dtype=np.int64), live),
                       np.asarray(bind[:live], dtype=np.int64), w[:live])
    return probs, qs, avals, vertex_rows, functional_rows, wx, x0, residual_inf, terminal, branch, aexs


# Rows per block of a batch score: a block's (rows, m) arrays stay near
# 0.5 MB at m = 1000, whatever the batch size.
CHUNK = 64


def check_rows(indptr, indices, n: int):
    """indptr and indices as int64 arrays, once indptr is a CSR row pointer
    over the indices (ValueError) and every index lies in [0, n)
    (IndexError); the C kernels check the same, in the same order."""
    indptr = np.asarray(indptr, dtype=np.int64)
    indices = np.asarray(indices, dtype=np.int64)
    if (indptr.ndim != 1 or indices.ndim != 1 or indptr.shape[0] == 0 or indptr[0] != 0
            or indptr[-1] != indices.shape[0] or (indptr[1:] < indptr[:-1]).any()):
        raise ValueError("rows must be a CSR row pointer over the indices")
    if indices.shape[0] and not (indices.min() >= 0 and indices.max() < n):
        raise IndexError(f"an index lies outside [0, {n})")
    return indptr, indices


def _sums_in_order(indptr, indices, weights, mark) -> np.ndarray:
    """Each row's sum of weights[e] over the columns e that mark(rows, row
    of every member, the members) sets in its (rows, m) bool block, CHUNK
    rows at a time.  A block's terms are packed to the left of a matrix
    whose column 0 is 0.0, in column order, and its cumulative sum along
    each row adds 0.0 and then the terms one after another; the zeros to
    their right change no partial sum, because a sum that starts from +0.0
    is never -0.0."""
    rows, m = indptr.shape[0] - 1, weights.shape[0]
    out = np.empty(rows)
    for lo in range(0, rows, CHUNK):
        hi = min(lo + CHUNK, rows)
        ptr = indptr[lo:hi + 1]
        counted = mark(hi - lo, np.repeat(np.arange(hi - lo), np.diff(ptr)), indices[ptr[0]:ptr[-1]])
        # The counted cells in row-major order, each row's from bounds[r].
        cell = np.flatnonzero(counted)
        bounds = np.searchsorted(cell, np.arange(hi - lo + 1) * m)
        width = int(np.diff(bounds).max(initial=0)) + 1
        row = cell // m
        terms = np.zeros((hi - lo, width))
        terms.ravel()[np.arange(1, cell.shape[0] + 1) - bounds[row] + row * width] = weights[cell - row * m]
        out[lo:hi] = np.cumsum(terms, axis=1, out=terms)[:, -1]
    return out


def coverage_values(set_ptr, elements, weights, indptr, indices) -> np.ndarray:
    """Weighted coverage of each CSR row of set ids: set s covers
    elements[set_ptr[s]:set_ptr[s + 1]], and a row's value adds the weights
    of the elements it covers in ascending element order from 0.0."""
    indptr, indices = check_rows(indptr, indices, set_ptr.shape[0] - 1)
    m = weights.shape[0]

    def mark(rows, row, picked):
        start = set_ptr[picked]
        deg = set_ptr[picked + 1] - start
        # Position in elements of every member element of every picked set,
        # then its cell in the flat (rows, m) block; in place, as these are
        # the largest arrays.
        cell = np.repeat(start - np.cumsum(deg) + deg, deg)
        cell += np.arange(cell.shape[0])
        cell = elements[cell]
        cell += np.repeat(row * m, deg)
        covered = np.zeros((rows, m), dtype=bool)
        covered.ravel()[cell] = True
        return covered

    return _sums_in_order(indptr, indices, weights, mark)


def cut_values(n: int, edge_u, edge_v, weights, indptr, indices) -> np.ndarray:
    """Weighted cut of each CSR row of node ids on n nodes: a row's value
    adds weights[e] in edge order from 0.0 over the edges (edge_u[e],
    edge_v[e]) with exactly one endpoint in the row."""
    indptr, indices = check_rows(indptr, indices, n)

    def mark(rows, row, picked):
        side = np.zeros((rows, n), dtype=bool)
        side[row, picked] = True
        return side[:, edge_u] != side[:, edge_v]

    return _sums_in_order(indptr, indices, weights, mark)


def backprop_blocks(n, p, q, a, vertex_rows, functional_rows, wx, fvals, terminal):
    """Gradient of F = sum(p_t * f_t) w.r.t. the decomposed point, with
    vertex v_t (row t of the CSR triple vertex_rows) and binding functional
    w_t (of functional_rows; a_t = const + w_t.x_t, wx[t] = w_t.x_t) locally
    constant and x_{t+1} = (x_t - a_t v_t)/(1 - a_t).  With g = dF/dx_{t+1},
    D = g.x_{t+1} and R the later sum of p f: dF/da_t = c_t =
    (D - g.v_t + q_t f_t (1 - a_t) - R)/(1 - a_t), g <- g/(1 - a_t) + c_t w_t,
    and D <- D + a_t (g.v_t)/(1 - a_t) + c_t wx_t.  No iterate is needed, and
    g = S*h under a lazy scale S <= 1/guard makes a step O(|v_t| + |w_t|).

    Each g.v_t is added left to right from 0.0 by reduce(add, ...), as the
    C twin's loop adds it.  sum() would not do: from Python 3.12 it
    compensates the rounding of float sums (Neumaier), so its bytes would
    differ from the C loop's and from its own on Python 3.11.
    """
    vptr, vidx, vval = vertex_rows
    wptr, widx, wval = functional_rows
    vptr, vidx = check_rows(vptr, vidx, n)
    wptr, widx = check_rows(wptr, widx, n)
    fvals = np.asarray(fvals, dtype=np.float64)
    pf = (p * fvals).tolist()
    qf = (q * fvals).tolist()
    om = (1.0 - a).tolist()
    a = a.tolist()
    # Integral vertices (all but some stable-set ones) need no products.
    vval = None if (vval == 1.0).all() else vval.tolist()
    vptr, vidx = vptr.tolist(), vidx.tolist()
    wptr, widx, wval = wptr.tolist(), widx.tolist(), wval.tolist()
    wx = wx.tolist()
    h = [0.0] * n
    get = h.__getitem__
    scale, D, R = 1.0, 0.0, 0.0
    T = len(pf)
    if terminal:
        T -= 1
        R = pf[T]
    for t in range(T - 1, -1, -1):
        o = om[t]
        lo, hi = vptr[t], vptr[t + 1]
        if vval is None:
            gv = scale * reduce(add, map(get, vidx[lo:hi]), 0.0)
        else:
            gv = scale * reduce(add, map(mul, map(get, vidx[lo:hi]), vval[lo:hi]), 0.0)
        c = (D - gv) / o + (qf[t] - R / o)
        scale /= o
        cs = c / scale
        lo, hi = wptr[t], wptr[t + 1]
        for i, w in zip(widx[lo:hi], wval[lo:hi]):
            h[i] += cs * w
        D += a[t] * gv / o + c * wx[t]
        R += pf[t]
    return scale * np.array(h)
