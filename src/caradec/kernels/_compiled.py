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
from struct import pack_into
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from ..core import MEMBERSHIP_TOL, SUM_TOL, check_box, ones
from ._purepy import BAD_BLOCKS, block_sum_error, check_adam_arrays, check_shape, layout_header

SOURCE = Path(__file__).with_name("_blocks.c")
# Contracting a*b+c into a fused multiply-add, or any -ffast-math
# reassociation, would break bit-identity with the pure kernel.
CFLAGS = ("-O3", "-ffp-contract=off", "-fPIC", "-shared")
DIGEST_BYTES = 32
# The 8-byte words of output that a run's first kernel call makes room for
# (K + 10 per step: a vertex row, its pointer, the functional row's index
# and pointer, the branch and six doubles), 512 KB in all: a run with k=10
# usually fits in one call.
FIRST_CALL_WORDS = 1 << 16

# Each C entry point, ``caradec_<name>``, with its return type and its
# number of arguments, all of them pointers.  ``load`` declares them from
# here, and refuses a library that lacks one of them.  Scalars travel in the
# head of a buffer, packed by ``pack_into``: ctypes converts a scalar
# argument at about 0.25 us, several times what a pointer costs.
SIGNATURES = {
    "decompose_blocks": (ctypes.c_int, 2),
    "score_rows": (ctypes.c_int, 6),
    "backprop_blocks": (ctypes.c_int, 3),
    "project_blocks": (ctypes.c_int, 4),
    "adam_ascend": (None, 4),
}


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


def buffer_address(arr: np.ndarray) -> int:
    """Address of a writable, C-contiguous, non-empty array's data, at a
    third of what ``arr.ctypes.data`` costs."""
    return ctypes.addressof(ctypes.c_char.from_buffer(arr))


def address(arr: np.ndarray) -> int:
    """Address of a C-contiguous array's data; read-only and empty arrays
    take the slower path of ``arr.ctypes.data``."""
    try:
        return buffer_address(arr)
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
    ``decompose_blocks``, ``project_blocks``, ``project_blocks_vjp``,
    ``coverage_values``, ``cut_values``, ``backprop_blocks`` and
    ``adam_ascend``.  The library is built first when the cache lacks it.
    Raises OSError when it can be neither found nor built, or when it lacks
    one of the entry points of SIGNATURES."""
    path = library_path()
    if not (path.is_file() and intact(path)):
        build(path)
    lib = ctypes.CDLL(str(path))
    c = {}
    for name, (restype, arity) in SIGNATURES.items():
        try:
            c[name] = getattr(lib, f"caradec_{name}")
        except AttributeError as exc:
            raise OSError(f"the kernel library is incomplete: {exc}") from exc
        c[name].argtypes, c[name].restype = (ctypes.c_void_p,) * arity, restype
    run, score, back, project, adam = (c[name] for name in SIGNATURES)

    def decompose_blocks(x0, blocks, scale, floor, eps, max_iter, guard):
        """The C twin of ``_purepy.decompose_blocks``: same arguments, same
        outputs and exceptions, byte for byte."""
        blocks, n, nb, K = layout_header(blocks)
        x0 = check_shape(x0, n)
        if not 0 <= K <= n:
            raise ValueError(BAD_BLOCKS)
        # A run continues over calls, each with room for twice the steps of
        # the one before; y and the state (q and the sum of squares with its
        # last exact value) pass from call to call.
        # A negative q asks for a first call, which checks x0.
        parts, done, chunk, state = [], 0, first_call_steps(K), (-1.0, 0.0, 0.0)
        while True:
            cap = max(0, min(max_iter - done, chunk))
            # The two buffers of the C function, laid out as _blocks.c says.
            f = np.empty(12 + 2 * n + 6 * cap)
            pack_into("6dq5d", f, 0, scale, floor, eps, guard, MEMBERSHIP_TOL, SUM_TOL, cap, 0.0, 0.0, *state)
            if parts:
                f[12 + n : 12 + 2 * n] = y
            else:
                f[12 : 12 + n] = x0
                checked = f[12 : 12 + n]
            iw = np.empty(5 + n + nb + (K + 4) * cap, dtype=np.int64)
            iw[: 3 + n + nb] = blocks
            T = run(buffer_address(f), buffer_address(iw))
            if T < 0:
                if T == -1:
                    raise MemoryError("decompose_blocks: no scratch memory")
                if T == -2:
                    raise ValueError(BAD_BLOCKS)
                if T == -4:
                    check_box(x0)  # raises
                raise block_sum_error(float(f[7]), int(blocks[3 + n + int(f[8])]))
            residual, stop = f[7:9].tolist()
            live = T - (stop == 2.0)
            o, v = 12 + 2 * n, 3 + n + nb
            w = v + cap + 1 + cap * K
            parts.append((f[o : o + T], f[o + cap : o + cap + T], f[o + 2 * cap : o + 2 * cap + T],
                          iw[v : v + T + 1], iw[v + cap + 1 : v + cap + 1 + T * K],
                          iw[w : w + T + 1], iw[w + cap + 1 : w + cap + 1 + live],
                          f[o + 5 * cap : o + 5 * cap + live], f[o + 4 * cap : o + 4 * cap + T],
                          iw[w + 2 * cap + 1 : w + 2 * cap + 1 + T], f[o + 3 * cap : o + 3 * cap + T]))
            done += T
            if stop or done >= max_iter:
                break
            state, y, chunk = f[9:12].tolist(), f[12 + n : 12 + 2 * n], 2 * chunk
        if len(parts) == 1:
            probs, qs, avals, vptr, vidx, wptr, widx, wval, wx, branch, aex = parts[0]
        else:
            probs, qs, avals, _, vidx, _, widx, wval, wx, branch, aex = map(np.concatenate, zip(*parts))
            vptr = np.arange(done + 1, dtype=np.int64) * K
            wptr = np.minimum(np.arange(done + 1, dtype=np.int64), len(widx))
        return (probs, qs, avals, (vptr, vidx, ones(done * K)), (wptr, widx, wval), wx,
                checked, residual, stop == 2.0, branch, aex)

    def project_call(z, blocks, gx):
        blocks, n, _, _ = layout_header(blocks)
        z = np.ascontiguousarray(check_shape(z, n))
        if gx is not None:
            gx = np.ascontiguousarray(check_shape(gx, n))
        out = np.empty(n)
        code = project(address(blocks), address(z), None if gx is None else address(gx), address(out))
        if code == -1:
            raise MemoryError("project_blocks: no scratch memory")
        if code:
            raise ValueError(BAD_BLOCKS)
        return out

    def project_blocks(z, blocks):
        """The C twin of ``_purepy.project_blocks``."""
        return project_call(z, blocks, None)

    def project_blocks_vjp(z, blocks, gx):
        """The C twin of ``_purepy.project_blocks_vjp``."""
        return project_call(z, blocks, gx)

    def adam_ascend(theta, m, v, grad, lr, beta1, beta2, eps, t):
        """The C twin of ``_purepy.adam_ascend``: in place, byte for byte."""
        n, grad = check_adam_arrays(theta, m, v, grad)
        g = np.empty(7 + n)
        pack_into("6dq", g, 0, lr, beta1, beta2, eps, 1 - beta1**t, 1 - beta2**t, n)
        g[7:] = grad
        adam(address(theta), address(m), address(v), buffer_address(g))
        return theta

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
        out = np.empty(5 + rows)
        pack_into("5q", out, 0, kind, n, w.shape[0], rows, indices.shape[0])
        code = score(address(a), address(b), address(w), address(indptr), address(indices), buffer_address(out))
        if code:
            raise_for(code, "score_rows")
        return out[5:]

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
        h = np.empty(5 + n)
        pack_into("5q", h, 0, n, T, bool(terminal), len(vidx), len(widx))
        code = back(address(f), address(iw), buffer_address(h))
        if code:
            raise_for(code, "backprop_blocks")
        return h[5:]

    return SimpleNamespace(decompose_blocks=decompose_blocks, project_blocks=project_blocks,
                           project_blocks_vjp=project_blocks_vjp, coverage_values=coverage_values,
                           cut_values=cut_values, backprop_blocks=backprop_blocks, adam_ascend=adam_ascend)
