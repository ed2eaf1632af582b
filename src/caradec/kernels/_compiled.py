"""Build, cache and call the plain-C kernels of ``_blocks.c``.

``load()`` compiles the C file with the system compiler (``$CC``, else
``cc``) into the user's cache directory (``$XDG_CACHE_HOME/caradec``, else
``~/.cache/caradec``) and loads it through ctypes.  The library is named by
the SHA-256 of the source and the compiler flags, so an edited source gets
a new build and an unchanged one is compiled once per cache.  A build is
written under a temporary name and renamed into place, so concurrent
imports never see half a file, and it carries the SHA-256 of its own bytes
at its end: a library cut short or damaged in the cache fails that check
and is built again instead of being handed to the loader.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shlex
import subprocess
import tempfile
from pathlib import Path
from types import SimpleNamespace

import numpy as np

SOURCE = Path(__file__).with_name("_blocks.c")
# Contracting a*b+c into a fused multiply-add, or any -ffast-math
# reassociation, would break bit-identity with the pure kernel.
CFLAGS = ("-O3", "-ffp-contract=off", "-fPIC", "-shared")
DIGEST_BYTES = 32
# The 4-byte words of output that a run's first kernel call makes room for
# (K + 10 per step: a vertex row, its branch and binding coordinate, and
# four doubles), 256 KB in all: a run with k=10 usually fits in one call.
FIRST_CALL_WORDS = 1 << 16


def first_call_steps(K: int) -> int:
    """The steps that a run's first kernel call makes room for, K being the
    sum of the budgets; each later call makes room for twice the steps of
    the one before."""
    return max(64, FIRST_CALL_WORDS // (K + 10))


def library_path() -> Path:
    cache = Path(os.environ.get("XDG_CACHE_HOME") or Path.home() / ".cache") / "caradec"
    tag = hashlib.sha256(SOURCE.read_bytes() + " ".join(CFLAGS).encode()).hexdigest()
    return cache / f"_blocks-{tag}.so"


def intact(path: Path) -> bool:
    """The library ends with the SHA-256 of the bytes before it."""
    data = path.read_bytes()
    return hashlib.sha256(data[:-DIGEST_BYTES]).digest() == data[-DIGEST_BYTES:]


def build(path: Path) -> None:
    """Compile the kernel to ``path`` (via a temporary file in its directory);
    raises OSError with the compiler's last words when the build fails."""
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=".build-", suffix=".so")
    os.close(fd)
    try:
        cmd = [*shlex.split(os.environ.get("CC") or "cc"), *CFLAGS, "-o", tmp, str(SOURCE), "-lm"]
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=120)
        if done.returncode != 0:
            last = (done.stderr.strip().splitlines() or [f"exit status {done.returncode}"])[-1]
            raise OSError(f"{shlex.join(cmd)} failed: {last}")
        digest = hashlib.sha256(Path(tmp).read_bytes()).digest()
        with open(tmp, "ab") as f:
            f.write(digest)
        os.replace(tmp, path)
    except subprocess.TimeoutExpired as exc:
        raise OSError(f"the C compiler took longer than {exc.timeout} s") from exc
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def address(arr: np.ndarray) -> int:
    """Address of a C-contiguous array's data.  A writable array's costs a
    third of what ``arr.ctypes.data`` costs; read-only and empty arrays
    take that slower path."""
    try:
        return ctypes.addressof(ctypes.c_char.from_buffer(arr))
    except (TypeError, ValueError):
        return arr.ctypes.data


def raise_for(code: int, what: str) -> None:
    """The exception for a kernel's negative return code."""
    if code == -1:
        raise MemoryError(f"{what}: no scratch memory")
    if code == -2:
        raise IndexError(f"{what}: an index lies outside its range")
    raise ValueError(f"{what}: a row pointer is not a CSR row pointer over its indices")


def load() -> SimpleNamespace:
    """The C kernels, with ``_purepy``'s names, signatures and outputs:
    ``decompose_blocks``, ``coverage_values``, ``cut_values`` and
    ``backprop_blocks``.  The library is built first when the cache lacks
    it.  Raises OSError when it can be neither found nor built, or when it
    lacks one of its three symbols."""
    path = library_path()
    if not (path.is_file() and intact(path)):
        build(path)
    lib = ctypes.CDLL(str(path))
    try:
        run, score, back = (getattr(lib, f"caradec_{name}")
                            for name in ("decompose_blocks", "score_rows", "backprop_blocks"))
    except AttributeError as exc:
        raise OSError(f"the kernel library is incomplete: {exc}") from exc
    i, i64, d, p = ctypes.c_int, ctypes.c_int64, ctypes.c_double, ctypes.c_void_p
    run.argtypes = (i, i, i, d, d, d, d, p, p)
    run.restype = i
    score.argtypes = (i, i64, i64, p, p, p, i64, i64, p, p, p)
    score.restype = i
    back.argtypes = (i64, i64, i, i64, i64, p, p, p)
    back.restype = i

    def decompose_blocks(x0, block_of, budgets, scale, floor, eps, max_iter, guard):
        """The C twin of ``_purepy.decompose_blocks``: same arguments, same
        outputs, byte for byte."""
        x0 = np.asarray(x0, dtype=np.float64)
        block_of = np.asarray(block_of, dtype=np.int32)
        bl = np.asarray(budgets, dtype=np.int64).tolist()
        if x0.ndim != 1 or block_of.shape != x0.shape or max(bl, default=0) > x0.shape[0]:
            raise ValueError("decompose_blocks needs x0 and block_of of one length, and budgets <= n")
        n, nb, K = x0.shape[0], len(bl), sum(bl)
        # A run continues over calls, each with room for twice the steps of
        # the one before.  y and the state (q, residual, stop, and the sum
        # of squares with its last exact value, -1 for none yet) pass from
        # call to call.
        parts, done, y, state = [], 0, x0, [1.0, 0.0, 0.0, 0.0, -1.0]
        chunk = first_call_steps(K)
        while True:
            cap = max(0, min(max_iter - done, chunk))
            # The two buffers of the C function, laid out as _blocks.c says.
            f = np.empty(n + 5 + 4 * cap)
            f[:n] = y
            f[n : n + 5] = state
            iw = np.empty(n + nb + cap * (K + 2), dtype=np.int32)
            iw[:n] = block_of
            iw[n : n + nb] = bl
            T = run(n, nb, cap, scale, floor, eps, guard, address(f), address(iw))
            if T == -1:
                raise MemoryError("decompose_blocks: no scratch memory")
            if T == -2:
                raise ValueError("decompose_blocks: block id or budget out of range")
            state = f[n : n + 5].tolist()
            p, o = n + 5, n + nb
            w = o + cap * K
            parts.append((f[p : p + T], f[p + cap : p + cap + T], f[p + 2 * cap : p + 2 * cap + T],
                          iw[o : o + T * K].reshape(T, K), iw[w + cap : w + cap + T],
                          iw[w : w + T], f[p + 3 * cap : p + 3 * cap + T]))
            done += T
            if state[2] or done >= max_iter:
                break
            y, chunk = f[:n], 2 * chunk
        # The outputs are views of the buffers of a run that took one call.
        out = parts[0] if len(parts) == 1 else [np.concatenate(col) for col in zip(*parts)]
        return (*out[:4], out[4].astype(np.int8), *out[5:], state[1], state[2] == 2.0)

    def score_rows(kind, n, a, b, w, indptr, indices):
        """Runs caradec_score_rows; the C function trusts a, b and w (the
        objective's own arrays, which it built and checked) and checks the
        rows."""
        a, b = np.ascontiguousarray(a, dtype=np.int64), np.ascontiguousarray(b, dtype=np.int64)
        w = np.ascontiguousarray(w, dtype=np.float64)
        indptr = np.ascontiguousarray(indptr, dtype=np.int64)
        indices = np.ascontiguousarray(indices, dtype=np.int64)
        if indptr.ndim != 1 or indices.ndim != 1 or indptr.shape[0] == 0:
            raise ValueError("rows must be a CSR row pointer over the indices")
        rows = indptr.shape[0] - 1
        out = np.empty(rows)
        code = score(kind, n, w.shape[0], address(a), address(b), address(w), rows, indices.shape[0],
                     address(indptr), address(indices), address(out))
        if code:
            raise_for(code, "score_rows")
        return out

    def coverage_values(set_ptr, elements, weights, indptr, indices):
        """The C twin of ``_purepy.coverage_values``."""
        return score_rows(0, set_ptr.shape[0] - 1, set_ptr, elements, weights, indptr, indices)

    def cut_values(n, edge_u, edge_v, weights, indptr, indices):
        """The C twin of ``_purepy.cut_values``."""
        return score_rows(1, n, edge_u, edge_v, weights, indptr, indices)

    def backprop_blocks(n, p, q, a, vertex_rows, functional_rows, wx, fvals, terminal):
        """The C twin of ``_purepy.backprop_blocks``: same arguments, same
        gradient, byte for byte."""
        vptr, vidx, vval = vertex_rows
        wptr, widx, wval = functional_rows
        T = len(p)
        if not (len(q) == len(a) == len(wx) == len(fvals) == T == len(vptr) - 1 == len(wptr) - 1
                and len(vval) == len(vidx) and len(wval) == len(widx)):
            raise ValueError("backprop_blocks needs T steps in every argument and one value per index")
        # The two buffers of the C function, laid out as _blocks.c says.
        f = np.concatenate((p, q, a, fvals, wx, vval, wval), dtype=np.float64)
        iw = np.concatenate((vptr, vidx, wptr, widx), dtype=np.int64)
        h = np.empty(n)
        code = back(n, T, bool(terminal), len(vidx), len(widx), address(f), address(iw), address(h))
        if code:
            raise_for(code, "backprop_blocks")
        return h

    return SimpleNamespace(decompose_blocks=decompose_blocks, coverage_values=coverage_values,
                           cut_values=cut_values, backprop_blocks=backprop_blocks)
