"""Hot kernels: the projection, its VJP and the decomposition kernel of the
box-plus-sum constraint families (cardinality and partition matroid), the
batch scorers of the coverage and cut objectives, the one reverse pass
that every family's gradient tape shares (``backprop_blocks``), the Adam
step, the two halves of a block-family Adam step (``sigmoid_project`` and
``ascend_blocks``), the whole stable-set decomposition
(``decompose_fstab``) and the whole graphic decomposition
(``decompose_graphic``); and the stages of the two graph oracles: the
max-flow and stable-set labelling of the stable-set oracle (``max_flow``
and ``label_stable_set``) and the graphic oracle's two node-block scans
(``block_scan`` and ``tight_blocks``).

An Adam step of ``direct_optimize`` on a box-plus-sum spec is one
``np.exp`` on the state's e = -|theta|, ``sigmoid_project`` (z and x in
one C call), ``decompose_blocks``, the scorer, an argmax and
``ascend_blocks`` (the reverse pass, the projection's VJP, the sigmoid's
chain rule and Adam, which leaves the next e).  Per step of 63
maxcut-small solves (n = 12..20, 150 steps; each stage timed in the loop;
one core of a 2-vCPU Xeon VM, Python 3.11, numpy 2.4, gcc 12), in us:

    stage                  numpy sigmoid, layout checked per call   now
    sigmoid, projection                  5.0 + 4.8                  0.7 + 1.7
    decompose_with_tape                    14.6                     12.5
    scoring, argmax                      6.7 + 0.8                  5.8 + 0.7
    reverse half                            7.2                      3.2
    whole step                             42.8                     28.2

Each kernel exists twice: in plain C (``_blocks.c``, built and loaded by
``_compiled`` on first import) and in pure Python and numpy (``_purepy``),
the reference and the fallback.  The C kernels are the default; without a
working C compiler or a writable cache, or when the cached library lacks
an entry point of ``_compiled.SIGNATURES``, the package warns once and
uses the pure ones, and ``CARADEC_PURE=1`` forces them.  The four oracle
stages are the exception: in C they are static functions of the two
graph kernels (``push_flow``, ``label_cover``, ``scan_blocks`` and
``tight_scan``) with no entry point of their own, so this module takes
``_purepy``'s on both backends.  Their callers are the per-step Python
path that is the graph kernels' pure twin (``fstab.fstab_vertex``,
``matroids.min_g_lambda``, ``matroids._tight_blocks``) and
``matroids.check_graphic_membership``.  Both twins give byte-identical
outputs, because every floating-point operation is the same in both, in
the same order:

- ``BlockLayout``: the blocks as every block kernel reads them, one
  read-only int64 array [n, nb, K, block_of, budgets] that a spec builds
  and checks once, with its address taken once, so that a call packs no
  block arrays; the C kernels check it again.
- ``project_blocks`` and ``project_blocks_vjp``: the mean-centred scaling
  of each block onto its budget and its pull-back.  The block mean, and
  the VJP's mean of g and dot product g.(z - m), add in index order from
  0.0 (the pure twin reads the last entry of numpy's cumsum, which adds in
  order).  numpy's mean sums pairwise and BLAS's dot in blocks, which a C
  loop cannot repeat cheaply; switching to sequential sums moved the
  projection in the last bits, and with it the fingerprints of the
  cardinality and partition workloads, once.  Degenerate blocks (budget 0
  or full, mean outside (0, 1)) map to their centre with a zero gradient;
  empty blocks are skipped.  A non-finite z is refused (ValueError).
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
  A run of one C call also returns the record of its two buffers, which
  hold the tape (``_compiled.Recorded``).
- ``score_rows`` scores a batch of index sets given as CSR rows (indptr,
  indices) under a ``ScoreLayout``: a coverage or cut objective's arrays,
  which the objective builds and checks once, so that a call converts and
  checks only the rows.  A row's value adds its covered elements' (or cut
  edges') weights in ascending element (edge) order from 0.0: a bitmap
  walk in C, a cumulative sum along each row of a dense block in numpy.
  So a row's value depends only on its set, not on the order of its
  members or on the rows beside it.  An id outside [0, n) raises
  IndexError.
- ``backprop_blocks`` adds each dot product left to right and forms every
  other quantity by the same expression in both.  It refuses a non-finite
  vertex value (ValueError, "the objective returned a non-finite value").
- ``adam_ascend`` updates theta and the two moments in place, element by
  element, with the expressions of the numpy Adam step it replaced; the
  bias corrections 1 - beta^t are formed in Python for both.
- ``sigmoid_project`` forms z = (theta >= 0 ? 1 : e)/(1 + e) into the
  ``AdamState``'s z, from the e that ``np.exp`` turned into exp(-|theta|)
  in place, with the expressions of ``solvers._sigmoid``, and returns a
  fresh ``project_blocks(z)``.  numpy's exp stays the only exp, so no bit
  moves.
- ``ascend_blocks`` is ``backprop_blocks``, ``project_blocks_vjp`` at z,
  g = (gz z) (1 - z) and ``adam_ascend`` in one call, on an ``AdamState``:
  one float64 buffer per run that holds theta, the moments, z and e, so
  its address is taken once (its head of scalars keeps it non-empty at
  n = 0); it then writes e = copysign(theta, -1) = -|theta|, which is
  exact.  The pure twin composes the three pure kernels; the C kernel
  calls the static functions that the three C entry points call, so every
  stage's operations are the same, in the same order.  A tape that
  carries the record of the one ``decompose_blocks`` call that wrote it
  is read where that call wrote it; any other (joined over several calls,
  from the pure backend, built by hand, copied, unpickled or made by
  ``dataclasses.replace``) is packed first.  A non-finite vertex value is
  refused before any update, as in ``backprop_blocks``.
- ``max_flow`` is the one max-flow of ``graphs.Dinic``, over a CSR arc
  layout (``FlowLayout``, built and checked once per network; the kernels
  trust it).  It and its C twin ``push_flow``, a stage of both graph
  kernels, run the same algorithm step for step: the direct-path fill,
  levels from the nodes with source capacity left, one augmenting path at
  a time with a current-arc pointer per node.  Every minimum is taken
  with ``a < b ? a : b`` (never ``fmin``, so NaN and inf take Python's
  branch), and every += and -= comes in the same order, so the twins
  leave the same residual bytes and the same source side.  When
  fewer than half the arcs have capacity above FLOW_EPS (1e-12), the pure
  twin runs on the arc pairs with capacity above it either way,
  renumbered; no flow enters the other pairs, so this changes no byte.
  It refuses capacity arrays of the wrong length, dtype or memory layout,
  and a node with both capacities +inf (ValueError), before changing any.
- ``block_scan`` and ``tight_blocks`` run the graphic oracle's flows, one
  per start node, on the layout of ``Graph.edge_network`` (edge e has arc
  2e and arc 2e + 1 back); their C twins are ``scan_blocks`` and
  ``tight_scan``, stages of ``decompose_graphic``.  Each builds the block
  networks' capacities from the edge weights once per call (the source
  capacities added as ``np.bincount`` adds them), copies them per start,
  and runs ``max_flow``'s algorithm on the copy; a block's value adds
  y(E(U)) in the order of numpy's pairwise float64 sum, written out in
  both twins (``_purepy.pairwise_sum``), so it equals numpy's sum of the
  same entries to the bit.  ``tight_blocks`` then reads the residual graphs
  for each edge's smallest tight node set with Warshall closures: bitmask
  integers in Python, 64-bit words in C, the same sets either way.  The
  Python functions check and convert their arrays once per call, not once
  per flow.  They refuse a start outside [0, n) (IndexError), and weights
  of the wrong length, dtype or memory layout or a network that is not a
  ``FlowLayout`` (ValueError), before any flow.
- ``label_stable_set`` turns the residual graph of a stable-set double
  cover into the oracle's vertex; its C twin is ``label_cover``, a stage
  of ``decompose_fstab``.  It makes no floating-point operation: it only
  compares residual capacities with FLOW_EPS and writes 0, 1/2 or 1.
  Which nodes a closure reaches does not depend on the order of its
  search, so the C stack and the Python set give the same labels.
- ``decompose_fstab`` runs a whole stable-set decomposition, with its
  membership check and its tape rows, on a graph's double cover.  The pure
  twin is ``core.peel`` over ``fstab.FractionalStableSet.peel_step``: one
  ``fstab.fstab_vertex`` (augmented weights, capacity reset, ``max_flow``,
  ``label_stable_set``) and one ``fstab.fstab_step_coefficient`` per step.
  The C kernel repeats each step's operations in their order in one call:
  the sum of the alive weights in numpy's pairwise order, the flow and the
  labelling (``push_flow`` and ``label_cover``, on the live edges' arcs
  alone, which no flow or closure leaves; the step before's layout of
  them serves again when no edge changed and is filtered when edges only
  died), the first minimum of the ratios, Python's max(min(r, 1), 0), the
  functional row and the update, pin and clip of ``core.peel``.  The
  rescaled stop test adds the squares of x in index order in both (not
  ``np.linalg.norm``, whose BLAS dot adds in blocks that a C loop would
  not repeat).  A run with n vertex
  entries per step continues over calls when one call's room runs out.
  Both refuse a wrong shape (DimensionError) and NaN, infinities, entries
  off the box or an over-full edge (MembershipError, with
  ``fstab.check_fstab_membership``'s messages).
- ``decompose_graphic`` runs a whole graphic decomposition, with its
  membership check and its tape rows, on a graph's edge network; a
  disconnected graph is peeled whole.  The pure twin is ``core.peel`` over
  ``matroids.GraphicMatroid.peel_step``: ``matroids._tight_blocks``,
  ``matroids._face_respecting_forest`` and
  ``matroids.graphic_step_coefficient`` per step.  The C kernel repeats
  each step's operations in their order in one call, with one static
  function per stage: ``tight_scan`` at TIGHT_TOL; Kruskal in
  ``np.lexsort``'s order (x at or below the tight limit last, then |M_e|,
  x descending with -0.0 equal to 0.0, and index); the box terms, the
  Newton loop (``scan_blocks`` on the starts still below -tol,
  ``_rank``'s union-find for r(F) and D, x(F) as ``pairwise_sum``), the
  probe at min(lambda* + tol, 1) and Python's min and max with their
  first-wins ties; then ``core.peel``'s update, pin, clip and eps stop.
  A rank face's functional row has one entry per edge of the face.  The
  residual of a run that ends short of a terminal step is taken in
  Python, with numpy's max, as ``core.peel`` takes it.  A run continues
  over calls when one call's room runs out.  Both refuse a wrong shape
  (DimensionError) and NaN, infinities, entries off the box, a sum off
  n - c(G), a node block below -1e-9 at lambda = 0 (MembershipError, with
  ``matroids.check_graphic_membership``'s messages) and an iterate whose
  lambda = 0 scan finds a rank face that its forest does not span
  (MembershipError, ``core.RANK_AT_ZERO``).

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

# The block, score and flow layouts and the Adam state are one format for
# both backends.
BlockLayout = _purepy.BlockLayout
ScoreLayout = _purepy.ScoreLayout
FlowLayout = _purepy.FlowLayout
AdamState = _purepy.AdamState
row_positions = _purepy.row_positions
edge_sum_error = _purepy.edge_sum_error
# Callers look these up on this module at call time, so that a test or a
# tracer can replace them.
decompose_blocks = impl.decompose_blocks
project_blocks = impl.project_blocks
project_blocks_vjp = impl.project_blocks_vjp
score_rows = impl.score_rows
backprop_blocks = impl.backprop_blocks
adam_ascend = impl.adam_ascend
decompose_fstab = impl.decompose_fstab
ascend_blocks = impl.ascend_blocks
sigmoid_project = impl.sigmoid_project
decompose_graphic = impl.decompose_graphic
del impl
# The graph oracles' stages, pure on both backends: the per-step path that
# is the whole-peel kernels' twin, and check_graphic_membership, call them.
max_flow = _purepy.max_flow
label_stable_set = _purepy.label_stable_set
block_scan = _purepy.block_scan
tight_blocks = _purepy.tight_blocks


def backend() -> str:
    """Name of the active kernel implementation."""
    return BACKEND
