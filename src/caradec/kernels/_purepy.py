"""Pure-Python kernels: the references that the C kernels (``_blocks.c``)
must match byte for byte, and the fallback when they cannot be built.

``BlockLayout`` holds a box + per-block-sum polytope's blocks as the
block kernels read them.  ``project_blocks`` and ``project_blocks_vjp``
are the mean-centred projection onto such a polytope and its pull-back.
``decompose_blocks`` checks a point of such a polytope and runs the
iterative vertex-peeling loop on y = q x, where q is the mass left: at each
step the vertex is the per-block top-k of y (value descending, index
ascending on ties), the step coefficient is min(min-in-set,
1 - max-out-of-set) of x = y/q, optionally rescaled, and only the vertex's
members change; it returns the decomposition's rows and the gradient
tape's.  ``score_rows`` scores batches of index sets, given as CSR rows,
under a coverage or cut ``ScoreLayout``; ``backprop_blocks`` is the
reverse pass of every family's gradient tape, ``adam_ascend`` is one
Adam step, and ``ascend_blocks`` is the two of them with the projection's
VJP in between, on an ``AdamState``: the reverse half of a block-family
Adam step, whose forward half starts with ``sigmoid_project``.
``max_flow`` is the max-flow of both graph oracles over a ``FlowLayout``,
and ``label_stable_set`` reads the stable-set vertex off the residual
graph of its double cover; ``block_scan`` and ``tight_blocks`` run the
graphic oracle's flows, one per start node, in one call.  These four
oracle stages serve both backends; their C twins are stages of the two
graph kernels.  ``decompose_fstab`` and ``decompose_graphic`` are whole
stable-set and graphic decompositions: ``core.peel`` with the oracle of
``fstab`` or ``matroids``, which the C kernels repeat in one call.
"""

from __future__ import annotations

import math
from functools import cached_property, reduce
from operator import add, mul
from struct import pack_into

import numpy as np

from ..core import NONFINITE_VALUE, SUM_TOL, DecompositionConfig, MembershipError, check_box, check_shape, ones, peel

BRANCH_MIN_IN = 0
BRANCH_MAX_OUT = 1
BRANCH_TERMINAL = 2
BAD_BLOCKS = "block id or budget out of range"
NOT_FINITE = "projection input must be finite"
BAD_TAPE = "backprop_blocks needs T steps in every argument and one value per index"


def sequential_sum(v) -> float:
    """sum(v), added in order from 0.0, as a C loop adds it.  numpy's cumsum
    adds in order; the + 0.0 turns its -0.0 into the 0.0 that a sum from
    0.0 gives."""
    return float(np.cumsum(v)[-1]) + 0.0 if len(v) else 0.0


def block_sum_error(s: float, k: int) -> MembershipError:
    return MembershipError(f"block sum {s:.9f} != k_i={k}")


def edge_sum_error(u: int, v: int, s: float) -> MembershipError:
    return MembershipError(f"edge ({u},{v}) sum {s:.9f} > 1")


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


class BlockLayout:
    """The blocks of a box + per-block-sum polytope as every block kernel
    reads them, built and checked once per spec: coordinate i lies in
    block block_of[i], and block b has the budget budgets[b].  ``array`` is
    the read-only int64 array [n, nb, K, block_of[n], budgets[nb]], K the
    sum of the budgets, which the C kernels read at ``address`` and check
    again; the pure kernels read ``members``.  ValueError unless every
    block id lies in [0, nb) and every budget in [0, block size]."""

    def __init__(self, block_of, budgets):
        members = block_members(block_of, budgets)
        budgets = np.asarray(budgets, dtype=np.int64)
        self.__setstate__({"array": np.concatenate(([len(block_of), budgets.shape[0], budgets.sum()], block_of,
                                                    budgets), dtype=np.int64)})
        self.members = members

    @cached_property
    def members(self) -> list:
        """Each block's coordinates in index order (ValueError as for the
        constructor)."""
        return block_members(self.block_of, self.budgets)

    @cached_property
    def address(self) -> int:
        """The address of ``array``'s data."""
        return self.array.ctypes.data

    def __getstate__(self):
        # A copy or an unpickled layout has its own array, at another
        # address, and is checked on first use.
        return {"array": self.array}

    def __setstate__(self, state):
        """Takes an array as the layout without the constructor's checks of
        the ids and budgets, once its length is that of its header and K,
        in [0, n], is the sum of the budgets (ValueError otherwise)."""
        array = state["array"]
        ok = array.ndim == 1 and array.dtype == np.int64 and array.shape[0] >= 3
        n, nb, K = array[:3].tolist() if ok else (-1, -1, -1)
        if not (ok and 0 <= K <= n and nb >= 0 and array.shape[0] == 3 + n + nb and K == array[3 + n :].sum()):
            raise ValueError(BAD_BLOCKS)
        array.flags.writeable = False
        self.__dict__.update(array=array, n=n, nb=nb, K=K, block_of=array[3 : 3 + n], budgets=array[3 + n :])


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


def _read_z(z, layout: BlockLayout):
    """layout's members and z as a float array, once z has its n entries
    (DimensionError) and each is finite (ValueError)."""
    z = check_shape(z, layout.n)
    members = layout.members
    if not np.isfinite(z).all():
        raise ValueError(NOT_FINITE)
    return members, z


def project_blocks(z, layout: BlockLayout) -> np.ndarray:
    """Mean-centred scaling of each block of z onto its budget k: x = s (z -
    m) + k/ni with m the block mean and s = min(k/(ni m), (ni - k)/(ni (1 -
    m))); a degenerate block (budget 0 or full, or mean outside (0, 1)) maps
    to its centre k/ni, and an empty block is skipped.  The mean adds the
    block's z in index order from 0.0.  ValueError for an entry of z that
    is not finite; other entries are not checked."""
    members, z = _read_z(z, layout)
    x = np.empty_like(z)
    for idx, k in zip(members, layout.budgets.tolist()):
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


def project_blocks_vjp(z, layout: BlockLayout, gx) -> np.ndarray:
    """dF/dz for dF/dx = gx at x = project_blocks(z, layout): on a block,
    s (g - mean g) + (ds/ni) g.(z - m), with ds the derivative of s in m;
    0.0 on a degenerate block.  Both the mean of g and the dot product add
    in index order from 0.0."""
    members, z = _read_z(z, layout)
    gx = check_shape(gx, layout.n)
    out = np.zeros_like(z)
    for idx, k in zip(members, layout.budgets.tolist()):
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


class AdamState:
    """theta and the two Adam moments of one run, with the step's z and e, in
    one float64 buffer made once per run, which the C kernels read at
    ``address``: lr, beta1, beta2, eps, c1, c2, n and seven more words of
    a step's header, then theta[n], m[n], v[n], z[n] and e[n].  ``theta``,
    ``m``, ``v``, ``z`` and ``e`` are views of the buffer, theta and the
    moments start at 0, and the head keeps the buffer non-empty at n = 0.
    ``ascend_blocks`` leaves -|theta| in e, for the exp of ``sigmoid_project``."""

    HEAD = 14

    def __init__(self, n: int, lr: float, beta1: float, beta2: float, eps: float):
        self.n, self.lr, self.beta1, self.beta2, self.eps = n, lr, beta1, beta2, eps
        self.buffer = np.zeros(self.HEAD + 5 * n)
        pack_into("6dq", self.buffer, 0, lr, beta1, beta2, eps, 0.0, 0.0, n)
        self.__setstate__(self.__getstate__())

    @cached_property
    def address(self) -> int:
        """The address of ``buffer``'s data."""
        return self.buffer.ctypes.data

    def __getstate__(self):
        # A copy or an unpickled state has its own buffer, at another
        # address, and views of that buffer.
        return {k: self.__dict__[k] for k in ("n", "lr", "beta1", "beta2", "eps", "buffer")}

    def __setstate__(self, state):
        self.__dict__.update(state)
        self.theta, self.m, self.v, self.z, self.e = np.split(self.buffer[self.HEAD :], 5)


def sigmoid_project(state: AdamState, layout: BlockLayout) -> np.ndarray:
    """The step's z = sigmoid(theta), written to state.z, and a fresh
    x = project_blocks(z, layout), where state.e holds exp(-|theta|):
    z = (theta >= 0 ? 1 : e)/(1 + e), the expressions of ``solvers._sigmoid``."""
    np.divide(np.where(state.theta >= 0, 1.0, state.e), 1.0 + state.e, out=state.z)
    return project_blocks(state.z, layout)


def ascend_blocks(state: AdamState, layout: BlockLayout, tape, fvals, t):
    """The reverse half of Adam step t of ``direct_optimize`` on a box-plus-sum
    spec, in place on state's theta and moments: the reverse pass of
    ``backprop_blocks`` over the ``core.GradientTape`` tape with vertex
    values fvals, then ``project_blocks_vjp`` at state.z, the sigmoid's
    chain rule g = (gz z) (1 - z), and ``adam_ascend`` with the state's lr,
    betas and eps; then -|theta| into state.e."""
    d = tape.d
    gx = backprop_blocks(state.n, d.p, tape.q, tape.a, d.vertex_rows, tape.functional_rows, tape.wx, fvals,
                         tape.terminal)
    z = state.z
    gz = project_blocks_vjp(z, layout, gx)
    adam_ascend(state.theta, state.m, state.v, gz * z * (1.0 - z), state.lr, state.beta1, state.beta2, state.eps,
                t)
    np.copysign(state.theta, -1.0, out=state.e)


def decompose_blocks(
    x0: np.ndarray,
    layout: BlockLayout,
    scale: float,
    floor: float,
    eps: float,
    max_iter: int,
    guard: float,
):
    """Decompose a point x0 of the box + per-block-sum polytope of layout
    into per-block top-k vertices, with the rows of its gradient tape.

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
    n, block_of, budgets = layout.n, layout.block_of, layout.budgets
    x = check_shape(x0, n)
    members = layout.members
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
    if not terminal:
        # max|y|, not max(y): numpy's max of +0.0 and -0.0 may be either.
        # With no step, y is the clipped x0.
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


def row_positions(indptr, ids):
    """Where the entries of CSR rows ids lie in the entry array, row after
    row in the order of ids, and each of those rows' length."""
    start = indptr[ids]
    deg = indptr[ids + 1] - start
    at = np.repeat(start - np.cumsum(deg) + deg, deg)
    at += np.arange(at.shape[0])
    return at, deg


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


COVERAGE, CUT = 0, 1  # the kinds of a ScoreLayout


class ScoreLayout:
    """The arrays of a coverage or cut objective as the batch scorers read
    them, built and checked once per objective.  Rows hold ids in [0, n).
    Coverage: id s covers the elements b[a[s]:a[s + 1]] of m = len(w)
    weighted elements.  Cut: the ids are nodes, and edge e of m = len(w)
    joins a[e] and b[e].  a, b and w are read-only int64, int64 and float64
    copies, which the C scorer reads at ``addresses``.  ValueError unless a
    coverage pointer runs from 0 to len(b) without falling with every
    element in [0, m), or every cut endpoint lies in [0, n) with one weight
    per edge."""

    def __init__(self, kind: int, n: int, a, b, w):
        a, b = np.array(a, dtype=np.int64), np.array(b, dtype=np.int64)
        w = np.array(w, dtype=np.float64)
        if kind == COVERAGE:
            ok = (a.ndim == b.ndim == 1 and n >= 0 and a.shape[0] == n + 1 and a[0] == 0
                  and a[-1] == b.shape[0] and (a[1:] >= a[:-1]).all()
                  and (not b.size or 0 <= b.min() and b.max() < w.shape[0]))
        else:
            ok = (kind == CUT and a.ndim == b.ndim == 1 and a.shape == b.shape == w.shape
                  and (not a.size or 0 <= min(a.min(), b.min()) and max(a.max(), b.max()) < n))
        if not (ok and w.ndim == 1):
            raise ValueError("a score layout needs a CSR incidence over the weights, or edges over n nodes")
        for arr in (a, b, w):
            arr.flags.writeable = False
        self.kind, self.n, self.m, self.a, self.b, self.w = kind, n, w.shape[0], a, b, w

    @classmethod
    def coverage(cls, set_ptr, elements, weights) -> "ScoreLayout":
        return cls(COVERAGE, len(set_ptr) - 1, set_ptr, elements, weights)

    @classmethod
    def cut(cls, n: int, edge_u, edge_v, weights) -> "ScoreLayout":
        return cls(CUT, n, edge_u, edge_v, weights)

    @cached_property
    def addresses(self) -> tuple[int, int, int]:
        """The addresses of a's, b's and w's data."""
        return self.a.ctypes.data, self.b.ctypes.data, self.w.ctypes.data

    def __getstate__(self):
        # A copy or an unpickled layout has its own arrays, at other
        # addresses.
        return {k: v for k, v in self.__dict__.items() if k != "addresses"}


def score_rows(layout: ScoreLayout, indptr, indices) -> np.ndarray:
    """The objective's value at each CSR row of ids.  Coverage adds the
    weights of the elements that a row covers in ascending element order
    from 0.0; cut adds w[e] in edge order from 0.0 over the edges with
    exactly one endpoint in the row."""
    indptr, indices = check_rows(indptr, indices, layout.n)
    a, b, m = layout.a, layout.b, layout.m

    def mark_coverage(rows, row, picked):
        # Every member element of every picked set, then its cell in the
        # flat (rows, m) block; in place, as these are the largest arrays.
        cell, deg = row_positions(a, picked)
        cell = b[cell]
        cell += np.repeat(row * m, deg)
        covered = np.zeros((rows, m), dtype=bool)
        covered.ravel()[cell] = True
        return covered

    def mark_cut(rows, row, picked):
        side = np.zeros((rows, layout.n), dtype=bool)
        side[row, picked] = True
        return side[:, a] != side[:, b]

    return _sums_in_order(indptr, indices, layout.w, mark_coverage if layout.kind == COVERAGE else mark_cut)


def backprop_blocks(n, p, q, a, vertex_rows, functional_rows, wx, fvals, terminal):
    """Gradient of F = sum(p_t * f_t) w.r.t. the decomposed point, with
    vertex v_t (row t of the CSR triple vertex_rows) and binding functional
    w_t (of functional_rows; a_t = const + w_t.x_t, wx[t] = w_t.x_t) locally
    constant and x_{t+1} = (x_t - a_t v_t)/(1 - a_t).  With g = dF/dx_{t+1},
    D = g.x_{t+1} and R the later sum of p f: dF/da_t = c_t =
    (D - g.v_t + q_t f_t (1 - a_t) - R)/(1 - a_t), g <- g/(1 - a_t) + c_t w_t,
    and D <- D + a_t (g.v_t)/(1 - a_t) + c_t wx_t.  No iterate is needed, and
    g = S*h under a lazy scale S <= 1/guard makes a step O(|v_t| + |w_t|).
    ValueError for a vertex value that is not finite, after the rows'
    checks.

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
    if fvals.shape != p.shape:
        raise ValueError(BAD_TAPE)
    if not np.isfinite(fvals).all():
        raise ValueError(NONFINITE_VALUE)
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


FLOW_EPS = 1e-12  # residual capacities at most this count as saturated
BAD_CAPACITIES = "max_flow needs writable, contiguous float64 capacity arrays of n, n and A entries"
F64 = np.dtype(np.float64)
UNBOUNDED = "max_flow needs a bounded source or sink capacity at every node"


class FlowLayout:
    """The arcs of a flow network as the flow kernels read them, built and
    checked once per network.  Node u's slots are ptr[u] .. ptr[u + 1], and
    slot s holds the arc arc[s] from u to head[s].  ``array`` is the
    read-only int64 array [n, A, ptr[n + 1], head[A], arc[A]], which the C
    kernels read at ``address``; the pure kernels read ``adj``.
    ValueError unless ptr runs from 0 to A without falling, every head lies
    in [0, n), every arc id of [0, A) sits in one slot, and arc a ^ 1 runs
    from the head of arc a back to its tail."""

    def __init__(self, ptr, head, arc):
        ptr, head, arc = (np.asarray(v, dtype=np.int64) for v in (ptr, head, arc))
        if not (ptr.ndim == head.ndim == arc.ndim == 1 and ptr.shape[0] >= 1 and ptr[0] == 0
                and ptr[-1] == head.shape[0] == arc.shape[0] and (ptr[1:] >= ptr[:-1]).all()):
            raise ValueError("a flow layout needs a pointer from 0 to the slot count that never falls")
        n, A = ptr.shape[0] - 1, arc.shape[0]
        if A and not (head.min() >= 0 and head.max() < n and arc.min() >= 0 and arc.max() < A
                      and np.bincount(arc, minlength=A).max() == 1):
            raise ValueError("a flow layout needs heads in [0, n) and each arc id of [0, A) in one slot")
        tail = np.repeat(np.arange(n), np.diff(ptr))
        slot = np.empty(A, dtype=np.int64)
        slot[arc] = np.arange(A)
        back = arc ^ 1
        if (back >= A).any() or (tail[slot[back % max(A, 1)]] != head).any():
            raise ValueError("a flow layout needs arc a ^ 1 to be the reverse of arc a")
        self.n, self.n_arcs = n, A
        self.array = np.concatenate(([n, A], ptr, head, arc), dtype=np.int64)
        self.array.flags.writeable = False
        self.ptr, self.head, self.arc = np.split(self.array[2:], [n + 1, n + 1 + A])

    @cached_property
    def address(self) -> int:
        """The address of ``array``'s data."""
        return self.array.ctypes.data

    def __getstate__(self):
        # A copy or an unpickled layout has its own array, at another
        # address.
        return {k: v for k, v in self.__dict__.items() if k != "address"}

    @cached_property
    def arc_ends(self) -> tuple[np.ndarray, np.ndarray]:
        """Per arc id, its tail and its head, as int64 arrays."""
        tail, head = np.empty(self.n_arcs, dtype=np.int64), np.empty(self.n_arcs, dtype=np.int64)
        tail[self.arc] = np.repeat(np.arange(self.n), np.diff(self.ptr))
        head[self.arc] = self.head
        return tail, head

    @cached_property
    def edge_ends(self) -> tuple[np.ndarray, np.ndarray]:
        """Per edge e of an edge network (arcs 2e and 2e + 1), the tail and
        the head of arc 2e."""
        tail, head = self.arc_ends
        return tail[::2], head[::2]

    @cached_property
    def adj(self) -> list:
        """Per node u, the list of its slots' (head, arc) pairs."""
        pairs = list(zip(self.head.tolist(), self.arc.tolist()))
        ptr = self.ptr.tolist()
        return [pairs[ptr[u] : ptr[u + 1]] for u in range(self.n)]


def check_capacities(net: FlowLayout, rs, rt, r) -> None:
    """ValueError unless rs, rt and r are writable, C-contiguous float64
    arrays of the n, n and A entries of the flow layout net."""
    for cap, size in ((rs, net.n), (rt, net.n), (r, net.n_arcs)):
        if type(cap) is not np.ndarray or cap.dtype != F64 or cap.shape != (size,) or not cap.flags.carray:
            raise ValueError(BAD_CAPACITIES)


def _open_arcs(net, r):
    """The arcs that a flow through the capacities r can use, as (adj,
    ids): ids lists ascending the arcs of the pairs (a, a ^ 1) with r above
    FLOW_EPS on either arc, each pair side by side, and adj lists per node
    its (head, index into ids) pairs in slot order.  A closed pair never
    carries flow: either arc would first need a push along the other.

    In Python each slot that a search looks at costs, and late stable-set
    steps leave most pairs closed (at the dead nodes and non-live edges).
    Renumbering costs a dozen numpy passes, so it is skipped (adj is
    ``net.adj`` and ids None) while at least half the arcs lie above
    FLOW_EPS."""
    over = r > FLOW_EPS
    if 2 * np.count_nonzero(over) >= over.shape[0]:
        return net.adj, None
    arc_open = np.repeat(over[::2] | over[1::2], 2)
    local = np.cumsum(arc_open) - 1
    keep = arc_open[net.arc]
    at = np.concatenate(([0], np.cumsum(keep)))[net.ptr].tolist()
    pairs = list(zip(net.head[keep].tolist(), local[net.arc[keep]].tolist()))
    return [pairs[at[u] : at[u + 1]] for u in range(net.n)], np.flatnonzero(arc_open)


def _push(adj, n, cs, ct, cr):
    """The flow of ``max_flow`` on lists: the source, sink and arc
    capacities cs, ct and cr (arc ids as adj numbers them) become the
    residual ones.  Returns the flow value and the last level search's
    levels, non-negative exactly on the source side."""
    eps, flow = FLOW_EPS, 0.0
    for v in range(n):
        p = cs[v] if cs[v] < ct[v] else ct[v]
        if p == math.inf and cs[v] == ct[v]:  # both +inf; no array written yet
            raise ValueError(UNBOUNDED)
        cs[v] -= p
        ct[v] -= p
        flow += p
    while True:
        level = [-1] * n
        queue = [v for v in range(n) if cs[v] > eps]
        roots = list(queue)
        for v in roots:
            level[v] = 0
        found = False
        for u in queue:
            if ct[u] > eps:
                found = True
                continue
            nxt = level[u] + 1
            for w, a in adj[u]:
                if level[w] < 0 and cr[a] > eps:
                    level[w] = nxt
                    queue.append(w)
        if not found:
            break
        it = [0] * n
        for v in roots:
            while cs[v] > eps:
                nodes, arcs = [v], []
                while nodes and ct[nodes[-1]] <= eps:
                    u = nodes[-1]
                    nbrs, k, nxt = adj[u], it[u], level[u] + 1
                    while k < len(nbrs):
                        w, a = nbrs[k]
                        if level[w] == nxt and cr[a] > eps:
                            break
                        k += 1
                    it[u] = k
                    if k < len(nbrs):
                        nodes.append(w)
                        arcs.append(a)
                    else:  # a dead end: back past the arc into it
                        nodes.pop()
                        if arcs:
                            arcs.pop()
                            it[nodes[-1]] += 1
                if not nodes:
                    break
                d = cs[v]
                for a in arcs:
                    if cr[a] < d:
                        d = cr[a]
                t = nodes[-1]
                if ct[t] < d:
                    d = ct[t]
                ct[t] -= d
                for a in arcs:
                    cr[a] -= d
                    cr[a ^ 1] += d
                cs[v] -= d
                flow += d
    # The last level search found no sink: it reached exactly the source side.
    return flow, level


def max_flow(net, rs, rt, r):
    """Push a maximum flow through the FlowLayout net from the source
    capacities rs to the sink capacities rt through the arc capacities r,
    float64 arrays that it changes in place into the residual ones.
    Returns the flow value and the source side of the smallest minimum cut,
    as a bool array: the nodes that the nodes with source capacity left
    reach through residual capacities above FLOW_EPS.

    Each node's direct path to the sink is filled first (ValueError when a
    node has both capacities +inf).  Then come Dinic's phases: levels from
    the nodes with source capacity left, stopping at nodes with sink
    capacity left, and one augmenting path at a time, by depth-first search
    with a current-arc pointer per node."""
    check_capacities(net, rs, rt, r)
    cs, ct = rs.tolist(), rt.tolist()
    adj, ids = _open_arcs(net, r)
    cr = r.tolist() if ids is None else r[ids].tolist()
    flow, level = _push(adj, net.n, cs, ct, cr)
    rs[:], rt[:] = cs, ct
    if ids is None:
        r[:] = cr
    else:
        r[ids] = cr
    return flow, np.array(level) >= 0


BAD_START = "block_scan needs starts in [0, n)"


def check_edge_weights(net, w, what: str) -> None:
    """ValueError unless net is a FlowLayout and w a contiguous float64
    array of one weight per edge, A/2 entries."""
    if not isinstance(net, FlowLayout):
        raise ValueError(f"{what} needs the FlowLayout of an edge network")
    if type(w) is not np.ndarray or w.dtype != F64 or w.shape != (net.n_arcs // 2,) or not w.flags.c_contiguous:
        raise ValueError(f"{what} needs a contiguous float64 array of A/2 edge weights")


def check_starts(starts) -> np.ndarray:
    """starts as a contiguous int64 array (ValueError unless it is a 1-D
    integer array, or empty)."""
    starts = np.asarray(starts)
    if starts.ndim != 1 or (starts.dtype.kind not in "iu" and starts.size):
        raise ValueError("block_scan needs a 1-D integer array of starts")
    return np.ascontiguousarray(starts, dtype=np.int64)


def pairwise_sum(v: list) -> float:
    """sum(v) in the order of numpy's float64 sum: below 8 entries in order
    from 0.0; up to 128 in eight partial sums (entry j goes to sum j mod 8)
    joined as ((s0 + s1) + (s2 + s3)) + ((s4 + s5) + (s6 + s7)), the n mod 8
    last entries added after; beyond that, the sums of the two parts split
    at the multiple of 8 at or below n/2.  Written out, so that the C twin
    can repeat it."""
    n = len(v)
    if n < 8:
        total = 0.0
        for w in v:
            total += w
        return total
    if n > 128:
        half = n // 2 - n // 2 % 8
        return pairwise_sum(v[:half]) + pairwise_sum(v[half:])
    s = v[:8]
    for i in range(8, n - n % 8, 8):
        for j in range(8):
            s[j] += v[i + j]
    total = ((s[0] + s[1]) + (s[2] + s[3])) + ((s[4] + s[5]) + (s[6] + s[7]))
    for w in v[n - n % 8 :]:
        total += w
    return total


def block_capacities(net, y) -> np.ndarray:
    """The capacities of the block networks of an edge network (edge e has
    arc 2e and arc 2e + 1 back, as in Graph.edge_network) with the edge
    weights y, in one float64 buffer: the source capacities d_v/2 (d_v the
    y-degree of v, added as np.bincount adds the edges' first ends and
    then their second ends), n places for the sink capacities, and y_e/2
    on both arcs of each edge."""
    n, half = net.n, y / 2.0
    eu, ev = net.edge_ends
    caps = np.zeros(2 * n + net.n_arcs)
    caps[:n] = np.bincount(np.concatenate((eu, ev)), weights=np.tile(half, 2), minlength=n)
    caps[2 * n :].reshape(-1, 2)[:] = half[:, None]
    return caps


class _Blocks:
    """An edge network with its weights y, read once for ``block_scan`` and
    ``tight_blocks``: the edges' ends and y as lists, which nodes lead, and
    the arcs that a flow can use (``_open_arcs``) with their capacities."""

    def __init__(self, net, y):
        n = self.n = net.n
        self.eu, self.ev = (ends.tolist() for ends in net.edge_ends)
        self.y = y.tolist()
        self.lead = [False] * n
        for u, v, w in zip(self.eu, self.ev, self.y):
            if w > 0:
                self.lead[u if u < v else v] = True
        caps = self.caps = block_capacities(net, y)
        self.adj, self.ids = _open_arcs(net, caps[2 * n :])
        self.rs = caps[:n].tolist()
        self.r = (caps[2 * n :] if self.ids is None else caps[2 * n :][self.ids]).tolist()

    def flow(self, cost, i):
        """Node i's block flow: (its value, its source side as a list, and
        the residual source, sink and arc capacities as lists, the arcs
        numbered as ``adj`` numbers them)."""
        n = self.n
        cs, ct, cr = list(self.rs), [math.inf] * i + [cost] * (n - i), list(self.r)
        cs[i] = math.inf
        side = [level >= 0 for level in _push(self.adj, n, cs, ct, cr)[1]]
        size = side.count(True)
        if size <= 1:
            return 0.0, side, cs, ct, cr
        inside = [w for u, v, w in zip(self.eu, self.ev, self.y) if w > 0 and side[u] and side[v]]
        return cost * (size - 1) - pairwise_sum(inside), side, cs, ct, cr


def block_scan(net, y, cost, starts):
    """The graphic oracle's scan of the node blocks at one lam, in one call.
    net is the FlowLayout of an edge network (Graph.edge_network), y its
    edge weights and cost = 1 - lam.  For each start i, in order, node i's
    flow runs on the capacities of ``block_capacities`` with source
    capacity +inf at i, sink capacity +inf below i and cost from i on.
    Returns per start its block value cost (|U| - 1) - y(E(U)), with U the
    source side of the smallest minimum cut and y(E(U)) the
    ``pairwise_sum`` of the y_e > 0 of the edges inside U in edge order (0
    when |U| <= 1), and U as a row of a bool array.  A start with no edge
    of y_e > 0 to a later node runs no flow and gets 0 and an empty side.

    ValueError for a net that is not a FlowLayout, for y of the wrong
    length, dtype or memory layout, for starts that are not integers and,
    from a flow, for a node with both capacities +inf; IndexError, before
    any flow, for a start outside [0, n)."""
    check_edge_weights(net, y, "block_scan")
    starts = check_starts(starts).tolist()
    n = net.n
    if not all(0 <= i < n for i in starts):
        raise IndexError(BAD_START)
    b = _Blocks(net, y)
    values, sides = np.zeros(len(starts)), np.zeros((len(starts), n), dtype=bool)
    for j, i in enumerate(starts):
        if b.lead[i]:
            values[j], sides[j] = b.flow(cost, i)[:2]
    return values, sides


def tight_blocks(net, x, tol):
    """The node blocks of the point x at lam = 0, as ``matroids._tight_blocks``
    reads them, in one call: ``block_scan``'s flows on the edge network net
    with the weights y, y_e = x_e where x_e > 0 and 0 elsewhere, for every
    leading node at cost 1.  The lowest block value below 0 (ties to the
    smaller start) is value, with its side (empty when no value is below
    0); drift = -value and limit = tol + 8 drift.  Then per flow of start i, with tau = limit -
    its value, the residual arcs above tau whose tail is at least i give
    closures: a node is doomed when its residual sink capacity exceeds tau
    or such an arc leads from it to a doomed node, and a flow with a doomed
    source node (at least i, residual source capacity above tau) is skipped.
    Otherwise each edge e = (u, v) with u >= i and neither end doomed has
    the closure of {u, v} and the source nodes under those arcs, and
    sizes[e] (n at first) drops to the closure's size when that is
    smaller and the closure's slack, (size - 1) - x(E(closure)) added in
    edge order from 0.0, is at most limit.  Returns (value, side, drift,
    limit, sizes), sizes as an int64 array of one entry per edge.
    ValueError as for ``block_scan``."""
    check_edge_weights(net, x, "tight_blocks")
    b = _Blocks(net, np.where(x > 0, x, 0.0))
    n, eu, ev, xl = net.n, b.eu, b.ev, x.tolist()
    tails, heads = (ends.tolist() for ends in net.arc_ends)
    full = b.caps[2 * n :].tolist()
    ids = None if b.ids is None else b.ids.tolist()
    value, side, flows = 0.0, [False] * n, []
    for i in range(n):
        if not b.lead[i]:
            continue
        val, s, cs, ct, cr = b.flow(1.0, i)
        if val < value:
            value, side = val, s
        if ids is not None:  # back to the layout's arc ids
            r, cr = cr, list(full)
            for k, a in enumerate(ids):
                cr[a] = r[k]
        flows.append((i, val, cs, ct, cr))
    drift = -value
    limit = tol + 8 * drift
    sizes, slack_of = [n] * len(eu), {}
    for i, val, rs, rt, r in flows:
        tau = limit - val
        # A node that reaches a sink arc lies in no closed set, and the rest
        # are closed under the arcs, so only the rest need closures.
        pred: list[list[int]] = [[] for _ in range(n)]
        arcs = [a for a, c in enumerate(r) if c > tau and tails[a] >= i]
        for a in arcs:
            pred[heads[a]].append(tails[a])
        doomed = [rt[v] > tau for v in range(n)]
        queue = [v for v in range(n) if doomed[v]]
        for w in queue:
            for u in pred[w]:
                if not doomed[u]:
                    doomed[u] = True
                    queue.append(u)
        sources = [v for v in range(i, n) if rs[v] > tau]
        if any(doomed[v] for v in sources):
            continue
        live = [u for u in range(i, n) if not doomed[u]]
        reach = [1 << u for u in range(n)]
        for a in arcs:
            reach[tails[a]] |= 1 << heads[a]
        for k in live:  # transitive closure (Warshall)
            bit, rk = 1 << k, reach[k]
            for u in live:
                if reach[u] & bit:
                    reach[u] |= rk
        base = 0
        for v in sources:
            base |= reach[v]
        for e, (u, v) in enumerate(zip(eu, ev)):
            if u < i or doomed[u] or doomed[v]:
                continue
            closed = base | reach[u] | reach[v]
            size = closed.bit_count()
            if size >= sizes[e]:
                continue
            if closed not in slack_of:
                inner = 0.0
                for f, (a, c) in enumerate(zip(eu, ev)):
                    if closed >> a & 1 and closed >> c & 1:
                        inner += xl[f]
                slack_of[closed] = size - 1 - inner
            if slack_of[closed] <= limit:
                sizes[e] = size
    return value, np.array(side, dtype=bool), drift, limit, np.array(sizes, dtype=np.int64)


# The patterns of a node's two ends (u_L, u_R) in the stable-set labelling,
# in the order of the lexicographic preference: (y, forced in, forced out),
# with 0 standing for u_L and 1 for u_R.
_TRIALS = ((1.0, (0,), (1,)), (0.5, (0, 1), ()), (0.0, (1,), (0,)), (0.5, (), (0, 1)))


def check_labelling(net, rt, r, alive, side):
    """(alive, side) as bool arrays, once rt and r are float64 arrays of the
    2n and A entries of the flow layout net and alive and side have n and 2n
    entries (ValueError otherwise)."""
    n2 = net.n
    alive = np.ascontiguousarray(alive, dtype=bool)
    side = np.ascontiguousarray(side, dtype=bool)
    if n2 % 2 or alive.shape != (n2 // 2,) or side.shape != (n2,):
        raise ValueError("label_stable_set needs a double cover of 2n nodes and n alive flags")
    check_capacities(net, rt, rt, r)  # rt in place of rs, which has its length
    return alive, side


def label_stable_set(net, rt, r, alive, side) -> np.ndarray:
    """The half-integral vertex that a stable-set double cover's minimum
    cuts give, after its max-flow.  The cover has 2n nodes, u_L = u and u_R
    = n + u; net is its flow layout, rt and r its residual sink and arc
    capacities and side the flow's source side.  IN starts as the source
    side, and OUT as what reaches the nodes with sink capacity left.  Then
    each node u with alive[u], in index order, takes the first y of the
    patterns (y, forced in, forced out) of _TRIALS whose forced-in closure
    (along the residual arcs above FLOW_EPS, not entering IN) reaches no
    OUT node and whose forced-out closure (against them, not entering OUT)
    reaches neither an IN node nor that closure; the two closures join IN
    and OUT.  Returns y, 0 at every other node."""
    alive, side = check_labelling(net, rt, r, alive, side)
    adj, n, eps, cr = net.adj, net.n // 2, FLOW_EPS, r.tolist()
    IN, OUT = 1, 2
    label = [IN if b else 0 for b in side.tolist()]
    # Per direction, each node's residual neighbours, listed on first use.
    nbrs = ([None] * (2 * n), [None] * (2 * n))

    def closure(starts, back, lab, blocked):
        """The nodes reachable from starts along the residual arcs above
        eps (against them if back is 1), not entering nodes labelled lab;
        None if that reaches a node with the other label or in blocked."""
        seen, stack, known = set(), list(starts), nbrs[back]
        while stack:
            u = stack.pop()
            if label[u] == lab or u in seen:
                continue
            if label[u] or u in blocked:
                return None
            seen.add(u)
            if known[u] is None:
                known[u] = [w for w, a in adj[u] if cr[a ^ back] > eps]
            stack.extend(known[u])
        return seen

    def mark(nodes, lab):
        for w in nodes:
            label[w] = lab

    out = closure([w for w, c in enumerate(rt.tolist()) if c > eps], 1, OUT, ())
    if out is not None:
        mark(out, OUT)
    fixed = [0.0] * n
    for u in np.flatnonzero(alive).tolist():
        ends = (u, n + u)
        for y, forced_in, forced_out in _TRIALS:
            grow_in = closure([ends[j] for j in forced_in], 0, IN, ())
            if grow_in is None:
                continue
            grow_out = closure([ends[j] for j in forced_out], 1, OUT, grow_in)
            if grow_out is None:
                continue
            mark(grow_in, IN)
            mark(grow_out, OUT)
            fixed[u] = y
            break
    return np.array(fixed)


def decompose_fstab(x0, g, scale, floor, eps, max_iter, guard):
    """Decompose a point x0 of the fractional stable set polytope of the
    graph g into its vertices, with the rows of the gradient tape:
    ``core.peel`` with ``fstab.FractionalStableSet.peel_step``, that is one
    ``fstab.fstab_vertex`` (one ``Dinic.max_flow`` on ``g.double_cover``)
    and one ``fstab.fstab_step_coefficient`` per step, each looked up at
    call time.  The C kernel runs the same steps in one call.

    x0 is checked first, by ``fstab.check_fstab_membership``:
    DimensionError for a shape other than (n,), MembershipError for NaN,
    infinities, entries outside [0, 1] by more than MEMBERSHIP_TOL, or an
    edge whose ends add up to more than 1 + MEMBERSHIP_TOL.  The run starts
    from x0 clipped to [0, 1].  scale, floor and guard are those of a
    DecompositionConfig, eps the residual of the stop test of a rescaled run
    (0 for none) and max_iter the step cap.

    Returns (probs, qs, avals, vertex_rows, functional_rows, wx, x0,
    residual, terminal): the decomposition's masses, the mass left before
    each step and its applied coefficient, the CSR triples of the vertices
    (data 1 or 1/2) and of the functional rows, wx, the clipped point, the
    residual and whether the last step was terminal."""
    from .. import fstab  # which imports this package

    x = fstab.check_fstab_membership(x0, g)
    cfg = DecompositionConfig(scale, floor, eps, max_iter, guard)
    d, tape = peel(x, cfg, fstab.FractionalStableSet(g).peel_step)
    return d.p, tape.q, tape.a, d.vertex_rows, tape.functional_rows, tape.wx, x, d.residual, tape.terminal


def decompose_graphic(x0, g, scale, floor, eps, max_iter, guard):
    """Decompose a point x0 of the base polytope of the graphic matroid of
    the graph g into full spanning forests, with the rows of the gradient
    tape: ``core.peel`` with ``matroids.GraphicMatroid.peel_step``, that is
    per step ``matroids._tight_blocks``, ``matroids._face_respecting_forest``
    and ``matroids.graphic_step_coefficient`` (which calls
    ``matroids.min_g_lambda`` for its probe), each looked up at call time.
    A disconnected graph is peeled whole.  The C kernel runs the same steps
    in one call.

    x0 is checked first, by ``matroids.check_graphic_membership``:
    DimensionError for a shape other than (m,), MembershipError for NaN,
    infinities, entries outside [0, 1] by more than MEMBERSHIP_TOL, a sum
    off n - c(G) by more than SUM_TOL or a node block below -1e-9 at
    lam = 0.  The run starts from x0 clipped to [0, 1].  A later iterate
    whose lam = 0 scan finds a rank face that its forest does not span
    raises MembershipError (``core.RANK_AT_ZERO``).  scale, floor and guard
    are those of a DecompositionConfig, eps the residual of the stop test
    of a rescaled run (0 for none) and max_iter the step cap.

    Returns (probs, qs, avals, vertex_rows, functional_rows, wx, x0,
    residual, terminal), as ``decompose_fstab`` does; a rank face's
    functional row has one entry per edge of the face."""
    from .. import matroids  # which imports this package

    x = matroids.check_graphic_membership(x0, g)
    cfg = DecompositionConfig(scale, floor, eps, max_iter, guard)
    d, tape = peel(x, cfg, matroids.GraphicMatroid(g).peel_step)
    return d.p, tape.q, tape.a, d.vertex_rows, tape.functional_rows, tape.wx, x, d.residual, tape.terminal
