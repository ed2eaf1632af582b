"""Hot decomposition kernels for the box-plus-sum constraint families
(cardinality and partition matroid).

Two interchangeable implementations exist: a Cython extension
(``_speedups``) and a pure-numpy fallback (``_purepy``).  The compiled one
is picked at import time when available; set ``CARADEC_PURE=1`` to force
the fallback.  Both follow the same arithmetic step for step, so results
agree to the last few ulps and all tie-breaking is identical: each block
takes its k largest coordinates, ties to the smaller index.  The pure
kernel finds them without a per-element loop: each step re-sorts the
previous step's order by (block, value descending) with one stable sort,
and falls back to the full stable sort on (block, value descending, index)
when a block's entries at positions k-1 and k tie.
Timings of both backends come from the benchmark in ``perfbench/``.
"""

import os

if os.environ.get("CARADEC_PURE", "") not in ("", "0"):
    from . import _purepy as _impl

    BACKEND = "pure"
else:
    try:
        from . import _speedups as _impl

        BACKEND = "compiled"
    except ImportError:
        from . import _purepy as _impl

        BACKEND = "pure"

decompose_blocks = _impl.decompose_blocks
backprop_blocks = _impl.backprop_blocks


def backend() -> str:
    """Name of the active kernel implementation."""
    return BACKEND
