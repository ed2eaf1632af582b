"""Hot kernels: the projection, its VJP and the decomposition kernel of the
box-plus-sum constraint families (cardinality and partition matroid), the
batch scorers of the coverage and cut objectives, the one reverse pass
that every family's gradient tape shares (``backprop_blocks``) and the
Adam step.  Together they make an Adam step of ``direct_optimize`` on a
box-plus-sum spec one numpy sigmoid and six C calls.

Each kernel exists twice: in plain C (``_blocks.c``, built and loaded by
``_compiled`` on first import) and in pure Python and numpy (``_purepy``),
the reference and the fallback.  The C kernels are the default; without a
working C compiler or a writable cache, or when the cached library lacks an
entry point of ``_compiled.SIGNATURES``, the package warns once and uses the pure ones, and
``CARADEC_PURE=1`` forces them.  Both give byte-identical outputs, because
every floating-point operation is the same in both, in the same order:

- ``block_layout``: the blocks as every block kernel reads them, one int64
  array [n, nb, K, block_of, budgets] that a spec builds and checks once,
  so that a call packs no block arrays; the kernels check it again.
- ``project_blocks`` and ``project_blocks_vjp``: the mean-centred scaling
  of each block onto its budget and its pull-back.  The block mean, and
  the VJP's mean of g and dot product g.(z - m), add in index order from
  0.0 (the pure twin reads the last entry of numpy's cumsum, which adds in
  order).  numpy's mean sums pairwise and BLAS's dot in blocks, which a C
  loop cannot repeat cheaply; switching to sequential sums moved the
  projection in the last bits, and with it the fingerprints of the
  cardinality and partition workloads, once.  Degenerate blocks (budget 0
  or full, mean outside (0, 1)) map to their centre with a zero gradient;
  empty blocks are skipped.
- ``decompose_blocks`` first checks its point: DimensionError for a wrong
  shape, MembershipError (with ``check_box``'s messages, or the block sum,
  added in index order, that is off its budget) for NaN, infinities,
  entries off the box or off-sum blocks; then it clips the point to [0, 1]
  (keeping -0.0).  Each block takes its k largest coordinates, ties to
  the smaller index.  Both kernels keep y = q x, where q is the mass left,
  so a step changes only the k members' y (each loses a q) and q (which
  becomes q - a q); the coordinates outside the vertex keep theirs, which
  also keeps their order.  The C kernel holds them in one heap per block,
  so a step costs O(k log n) plus a look at each block, not O(n): an exact
  k=10 decomposition takes about 6 ms at n=10,000 instead of 300 ms.  The
  pure kernel re-sorts the previous step's order by (block, y descending)
  with one stable sort, and falls back to the full stable sort on (block,
  y descending, index) when a block's entries at positions k-1 and k tie.
  The residual is taken once at the end, and the eps test reads a running
  sum of squares of y, added in the same order in both.  Because a step
  no longer divides every coordinate by 1 - a, the iterates differ in the
  last bits from those of the kernel that did, and near-ties can pick
  other vertices than it picked.  Both write the gradient tape's rows as
  the reverse pass reads them: step t's functional row is +-r at its
  binding coordinate (r = a_t/a_exact on a rescaled step, else 1), and
  wx[t] = +-r times a_exact (min-in step) or 1 - a_exact (max-out step).
- ``coverage_values`` and ``cut_values`` score a batch of index sets given
  as CSR rows (indptr, indices).  A row's value adds its covered elements'
  (or cut edges') weights in ascending element (edge) order from 0.0: a
  bitmap walk in C, a cumulative sum along each row of a dense block in
  numpy.  So a row's value depends only on its set, not on the order of its
  members or on the rows beside it.  An id outside [0, n) raises
  IndexError.
- ``backprop_blocks`` adds each dot product left to right and forms every
  other quantity by the same expression in both.
- ``adam_ascend`` updates theta and the two moments in place, element by
  element, with the expressions of the numpy Adam step it replaced; the
  bias corrections 1 - beta^t are formed in Python for both.

Timings: ``perfbench/``.
"""

import os
import warnings

from . import _purepy

impl, BACKEND = _purepy, "pure"
if os.environ.get("CARADEC_PURE", "") in ("", "0"):
    from . import _compiled

    try:
        impl, BACKEND = _compiled.load(), "compiled"
    except (OSError, RuntimeError) as exc:  # RuntimeError: no home directory for the cache
        warnings.warn(f"caradec: the C kernels are unavailable ({exc}); using the pure-numpy kernels",
                      RuntimeWarning, stacklevel=2)

# The block layout is one format for both backends.
block_layout = _purepy.block_layout
# Callers look these up on this module at call time, so that a test or a
# tracer can replace them.
decompose_blocks = impl.decompose_blocks
project_blocks = impl.project_blocks
project_blocks_vjp = impl.project_blocks_vjp
coverage_values = impl.coverage_values
cut_values = impl.cut_values
backprop_blocks = impl.backprop_blocks
adam_ascend = impl.adam_ascend
del impl


def backend() -> str:
    """Name of the active kernel implementation."""
    return BACKEND
