"""The two kernel implementations, for tests that run on both: the pure
one always, the C one only where a C compiler exists."""

import functools
import os
import shlex
import shutil

import numpy as np
import pytest

from caradec import kernels
from caradec.kernels import _compiled, _purepy

HAVE_CC = shutil.which(shlex.split(os.environ.get("CC") or "cc")[0]) is not None
needs_cc = pytest.mark.skipif(not HAVE_CC, reason="no C compiler")
# The kernels that each backend has its own of: a C entry point each, but
# the VJP, which shares the projection's.
C_KERNELS = ("decompose_blocks", "project_blocks", "project_blocks_vjp", "score_rows", "backprop_blocks",
             "adam_ascend", "decompose_fstab", "ascend_blocks", "sigmoid_project", "decompose_graphic")
# The graph oracles' stages: ``_purepy``'s on both backends (in C they run
# inside decompose_fstab and decompose_graphic).
PURE_STAGES = ("max_flow", "label_stable_set", "block_scan", "tight_blocks")
BACKENDS = (pytest.param("pure"), pytest.param("compiled", marks=needs_cc))


@functools.cache
def compiled():
    """The C kernels, built into the user's cache (not the repository) on
    first use; a build that fails fails the test that asked for it."""
    return _compiled.load()


def implementation(backend: str):
    return _purepy if backend == "pure" else compiled()


def available() -> list[str]:
    return ["pure", "compiled"] if HAVE_CC else ["pure"]


def use(monkeypatch, backend: str) -> None:
    """Make every kernel of the package that each backend has its own of
    the given backend's."""
    impl = implementation(backend)
    for name in C_KERNELS:
        monkeypatch.setattr(kernels, name, getattr(impl, name))


def flat(out):
    """A kernel's outputs with the CSR triples spread out."""
    return [a for item in out for a in (item if isinstance(item, tuple) else (item,))]


def peel_args(x, g, dim: int, cfg):
    """The arguments with which a graph family calls its whole-peel kernel
    (``decompose_fstab`` or ``decompose_graphic``) on x under cfg."""
    return x, g, cfg.scale, cfg.floor, 0.0 if cfg.is_exact else cfg.tolerance, cfg.iteration_cap(dim), cfg.guard


def twins_agree(name: str, *args):
    """Kernel name run on args by every available backend: the same bytes
    (dtype, shape and data of each output, CSR triples spread out), or the
    same exception with the same message.  Returns the pure backend's flat
    outputs, or its (exception type, message)."""
    outs = []
    for backend in available():
        try:
            outs.append(flat(getattr(implementation(backend), name)(*args)))
        except Exception as exc:  # the exception is the output
            outs.append((type(exc), str(exc)))
    want = outs[0]
    for got in outs[1:]:
        if isinstance(want, tuple) or isinstance(got, tuple):
            assert got == want
            continue
        assert len(got) == len(want)
        for k, (a, b) in enumerate(zip(got, want)):
            a, b = np.asarray(a), np.asarray(b)
            assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes(), (name, k)
    return want
