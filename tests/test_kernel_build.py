"""How the C kernel is built, cached and given up: each case imports the
package in a fresh interpreter whose cache directory is a temporary one."""

import hashlib
import json
import os
import shlex
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"
HAVE_CC = shutil.which(shlex.split(os.environ.get("CC") or "cc")[0]) is not None
needs_cc = pytest.mark.skipif(not HAVE_CC, reason="no C compiler")

# Imports the package, decomposes one point, and prints what happened.
PROBE = """
import json, warnings
import numpy as np
with warnings.catch_warnings(record=True) as caught:
    warnings.simplefilter("always")
    import caradec
from caradec.core import Cardinality, validate_decomposition
from caradec.hypersimplex import decompose_hypersimplex
from caradec import kernels
from caradec.kernels import _compiled, _purepy
x = np.array([0.9, 0.6, 0.3, 0.2, 0.0])
d = decompose_hypersimplex(x, 2)
print(json.dumps({
    "backend": caradec.kernel_backend(),
    "warnings": [str(w.message) for w in caught if issubclass(w.category, RuntimeWarning)],
    "ok": validate_decomposition(d, Cardinality(5, 2), x).ok(),
    "library": str(_compiled.library_path()),
    "pure": sorted(name for name, f in vars(kernels).items() if callable(f) and f is getattr(_purepy, name, None)),
}))
"""


def probe(cache: Path, **env) -> dict:
    full = {k: v for k, v in os.environ.items() if k != "CARADEC_PURE"}
    full.update(XDG_CACHE_HOME=str(cache), PYTHONPATH=str(SRC), **env)
    done = subprocess.run([sys.executable, "-c", PROBE], env=full, capture_output=True, text=True,
                          timeout=300)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


@needs_cc
def test_second_import_reuses_the_cached_library(tmp_path):
    first = probe(tmp_path)
    assert first == {**first, "backend": "compiled", "warnings": [], "ok": True}
    lib = Path(first["library"])
    assert lib.parent == tmp_path / "caradec"
    mtime = lib.stat().st_mtime_ns
    # A compiler that fails shows any attempt to build again.
    second = probe(tmp_path, CC="/bin/false")
    assert second == first
    assert lib.stat().st_mtime_ns == mtime


def test_failing_compiler_falls_back_to_pure_with_one_warning(tmp_path):
    res = probe(tmp_path, CC="/bin/false")
    assert res["backend"] == "pure" and res["ok"]
    assert len(res["warnings"]) == 1 and "pure-numpy kernel" in res["warnings"][0]
    assert not Path(res["library"]).exists()


@needs_cc
def test_truncated_library_is_rebuilt(tmp_path):
    lib = Path(probe(tmp_path)["library"])
    size = lib.stat().st_size
    for keep in (size // 2, 100, 0):
        lib.write_bytes(lib.read_bytes()[:keep])
        res = probe(tmp_path)
        assert res == {**res, "backend": "compiled", "warnings": [], "ok": True}
        assert lib.stat().st_size == size


def test_truncated_library_without_compiler_falls_back(tmp_path):
    lib = Path(probe(tmp_path, CC="/bin/false")["library"])
    lib.write_bytes(b"\x7fELF" + bytes(60))
    res = probe(tmp_path, CC="/bin/false")
    assert res["backend"] == "pure" and res["ok"] and len(res["warnings"]) == 1


@needs_cc
def test_library_missing_a_symbol_falls_back(tmp_path):
    """An intact library that lacks any one of the C entry points gives the
    pure kernels with one warning that names it (and is not rebuilt)."""
    from caradec.kernels._compiled import SIGNATURES

    lib = Path(probe(tmp_path, CC="/bin/false")["library"])
    stub = tmp_path / "stub.c"
    cc = shlex.split(os.environ.get("CC") or "cc")
    for missing in SIGNATURES:
        stub.write_text("".join(f"int caradec_{name}(void) {{ return 0; }}\n"
                                for name in SIGNATURES if name != missing))
        subprocess.run([*cc, "-shared", "-fPIC", "-o", str(lib), str(stub)], check=True, timeout=120)
        lib.write_bytes(lib.read_bytes() + hashlib.sha256(lib.read_bytes()).digest())
        data = lib.read_bytes()
        res = probe(tmp_path)
        assert res["backend"] == "pure" and res["ok"] and len(res["warnings"]) == 1
        assert f"caradec_{missing}" in res["warnings"][0]
        assert lib.read_bytes() == data


def test_c_backed_kernels_are_the_entry_points():
    """Every kernel that each backend has its own of has a C entry point
    (the VJP shares the projection's), and every entry point is such a
    kernel; the graph oracles' stages have none."""
    from kernel_backends import C_KERNELS, PURE_STAGES

    from caradec.kernels._compiled import SIGNATURES

    assert set(C_KERNELS) == {*SIGNATURES, "project_blocks_vjp"}
    assert not set(PURE_STAGES) & set(SIGNATURES)


@pytest.mark.parametrize("env", [pytest.param({}, marks=needs_cc, id="compiled"),
                                 pytest.param({"CARADEC_PURE": "1"}, id="pure")])
def test_oracle_stages_are_pure_on_both_backends(tmp_path, env):
    """The package's graph-oracle stages are _purepy's functions on either
    backend, and on the compiled one every other kernel is C's."""
    from kernel_backends import C_KERNELS, PURE_STAGES

    res = probe(tmp_path, **env)
    assert res["backend"] == ("pure" if env else "compiled") and res["warnings"] == []
    pure = set(res["pure"]) & {*C_KERNELS, *PURE_STAGES}
    assert pure == ({*C_KERNELS, *PURE_STAGES} if env else set(PURE_STAGES))


@needs_cc
def test_kernel_source_builds_without_warnings(tmp_path):
    """The kernel compiles cleanly with the package's flags plus -Wall
    -Wextra -Werror."""
    from caradec.kernels._compiled import CFLAGS, SOURCE

    cc = shlex.split(os.environ.get("CC") or "cc")
    cmd = [*cc, *CFLAGS, "-Wall", "-Wextra", "-Werror", "-o", str(tmp_path / "k.so"), str(SOURCE), "-lm"]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr


def test_signatures_match_the_c_definitions():
    """SIGNATURES lists exactly the non-static caradec_* functions that
    _blocks.c defines, each with its number of arguments, all of them
    pointers (ctypes passes each as a void pointer), and an int or void
    return: a wrong arity would otherwise pass silently."""
    import ctypes
    import re

    from caradec.kernels._compiled import SIGNATURES, SOURCE

    text = re.sub(r"/\*.*?\*/", "", SOURCE.read_text(), flags=re.S)
    defined = {}
    for ret, name, params in re.findall(r"^(\w[\w ]*?)\s+caradec_(\w+)\(([^)]*)\)\s*\{", text, flags=re.M):
        assert "static" not in ret.split(), name
        args = [p.strip() for p in params.split(",") if p.strip() not in ("", "void")]
        assert all("*" in a for a in args), (name, args)
        defined[name] = ({"int": ctypes.c_int, "void": None}[ret], len(args))
    assert defined == SIGNATURES
    # No static function takes the prefix, which names the entry points.
    assert not re.search(r"^static\b[^(]*\bcaradec_", text, flags=re.M)
