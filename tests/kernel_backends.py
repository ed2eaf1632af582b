"""The two kernel implementations, for tests that run on both: the pure
one always, the C one only where a C compiler exists."""

import functools
import os
import shlex
import shutil

import pytest

from caradec import kernels
from caradec.kernels import _compiled, _purepy

HAVE_CC = shutil.which(shlex.split(os.environ.get("CC") or "cc")[0]) is not None
needs_cc = pytest.mark.skipif(not HAVE_CC, reason="no C compiler")
KERNELS = ("decompose_blocks", "project_blocks", "project_blocks_vjp", "coverage_values", "cut_values",
           "backprop_blocks", "adam_ascend")
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
    """Make every kernel of the package the given backend's."""
    impl = implementation(backend)
    for name in KERNELS:
        monkeypatch.setattr(kernels, name, getattr(impl, name))


def flat(out):
    """A kernel's outputs with the CSR triples spread out."""
    return [a for item in out for a in (item if isinstance(item, tuple) else (item,))]
