"""Hot decomposition kernels for the box-plus-sum constraint families
(cardinality and partition matroid), and the one reverse pass that every
family's gradient tape shares (``backprop_blocks``).

Two interchangeable forward kernels exist: plain C (``_blocks.c``, built
and loaded by ``_compiled`` on first import) and pure numpy (``_purepy``),
the reference and the fallback.  The C kernel is the default; without a
working C compiler or a writable cache the package warns once and uses the
pure one, and ``CARADEC_PURE=1`` forces it.  Both give byte-identical
outputs: each block takes its k largest coordinates, ties to the smaller
index, and every later floating-point operation is the same in both, in
the same order.  The pure kernel re-sorts the previous step's order by
(block, value descending) with one stable sort, and falls back to the full
stable sort on (block, value descending, index) when a block's entries at
positions k-1 and k tie; the C kernel restores each block's order with one
merge of its two descending runs and sorts afresh on such ties.
The one reduction, the eps test's x.x, is a sequential sum in both kernels
(BLAS dot would add in an order of its own).  Timings: ``perfbench/``.
"""

import os
import warnings
from operator import mul

import numpy as np

from . import _purepy

decompose_blocks, BACKEND = _purepy.decompose_blocks, "pure"
if os.environ.get("CARADEC_PURE", "") in ("", "0"):
    from . import _compiled

    try:
        decompose_blocks, BACKEND = _compiled.load(), "compiled"
    except (OSError, RuntimeError) as exc:  # RuntimeError: no home directory for the cache
        warnings.warn(f"caradec: the C kernel is unavailable ({exc}); using the pure-numpy kernel",
                      RuntimeWarning, stacklevel=2)


def backprop_blocks(n, p, q, a, vertex_rows, functional_rows, wx, fvals, terminal):
    """Gradient of F = sum(p_t * f_t) w.r.t. the decomposed point, with
    vertex v_t (row t of the CSR triple vertex_rows) and binding functional
    w_t (of functional_rows; a_t = const + w_t.x_t, wx[t] = w_t.x_t) locally
    constant and x_{t+1} = (x_t - a_t v_t)/(1 - a_t).  With g = dF/dx_{t+1},
    D = g.x_{t+1} and R the later sum of p f: dF/da_t = c_t =
    (D - g.v_t + q_t f_t (1 - a_t) - R)/(1 - a_t), g <- g/(1 - a_t) + c_t w_t,
    and D <- D + a_t (g.v_t)/(1 - a_t) + c_t wx_t.  No iterate is needed, and
    g = S*h under a lazy scale S <= 1/guard makes a step O(|v_t| + |w_t|).
    """
    fvals = np.asarray(fvals, dtype=np.float64)
    pf = (p * fvals).tolist()
    qf = (q * fvals).tolist()
    om = (1.0 - a).tolist()
    a = a.tolist()
    vptr, vidx, vval = vertex_rows
    # Integral vertices (all but some stable-set ones) need no products.
    vval = None if (vval == 1.0).all() else vval.tolist()
    vptr, vidx = vptr.tolist(), vidx.tolist()
    wptr, widx, wval = (r.tolist() for r in functional_rows)
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
            gv = scale * sum(map(get, vidx[lo:hi]))
        else:
            gv = scale * sum(map(mul, map(get, vidx[lo:hi]), vval[lo:hi]))
        c = (D - gv) / o + (qf[t] - R / o)
        scale /= o
        cs = c / scale
        lo, hi = wptr[t], wptr[t + 1]
        for i, w in zip(widx[lo:hi], wval[lo:hi]):
            h[i] += cs * w
        D += a[t] * gv / o + c * wx[t]
        R += pf[t]
    return scale * np.array(h)


def backend() -> str:
    """Name of the active kernel implementation."""
    return BACKEND
