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

from ..core import (MEMBERSHIP_TOL, NONFINITE_VALUE, RANK_AT_ZERO, SUM_TOL, MembershipError, check_box,
                    check_shape, ones)
from ._purepy import BAD_BLOCKS, BAD_TAPE, NOT_FINITE, block_sum_error, check_adam_arrays, edge_sum_error

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
# The vertex entries (n per step) that a call of the stable-set kernel makes
# room for, 2 MB of indices and 2 MB of values: an exact run with n below
# 512 fits in one call.
FSTAB_CALL_WORDS = 1 << 18
# The entries (n of a forest and m of a face per step) that a call of the
# graphic kernel makes room for: an exact run with n + m below 512 fits in
# one call.
GRAPHIC_CALL_WORDS = 1 << 18
I64 = np.dtype(np.int64)

# Each C entry point, ``caradec_<name>``, with its return type and its
# number of arguments, all of them pointers.  ``load`` declares them from
# here as prototypes (whose calls convert their arguments faster than a
# function with argtypes does), and refuses a library that lacks one.
# Scalars travel in the head of a buffer, packed by ``pack_into``: ctypes
# converts a scalar argument at about 0.25 us, several times what a pointer
# costs.  The three whole-run kernels (``decompose_blocks``,
# ``decompose_fstab`` and ``decompose_graphic``) take a layout and two such
# buffers, and a run whose steps outgrow one call's room continues over
# calls.  The graph oracles' stages (the max-flow, the stable-set labelling
# and the two node-block scans) have no entry point: they run inside the
# two graph kernels, and ``kernels`` takes them from ``_purepy`` on either
# backend.
SIGNATURES = {
    "decompose_blocks": (ctypes.c_int, 3),
    "score_rows": (ctypes.c_int, 6),
    "backprop_blocks": (ctypes.c_int, 3),
    "project_blocks": (ctypes.c_int, 4),
    "adam_ascend": (None, 4),
    "decompose_fstab": (ctypes.c_int, 3),
    "ascend_blocks": (ctypes.c_int, 5),
    "sigmoid_project": (ctypes.c_int, 3),
    "decompose_graphic": (ctypes.c_int, 3),
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


_addressof, _char_at = ctypes.addressof, ctypes.c_char.from_buffer


def buffer_address(arr: np.ndarray) -> int:
    """Address of a writable, C-contiguous, non-empty array's data, at a
    third of what ``arr.ctypes.data`` costs."""
    return _addressof(_char_at(arr))


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
    if code == -5:
        raise ValueError(BAD_BLOCKS)
    if code == -7:
        raise ValueError(NONFINITE_VALUE)
    if code == -8:
        raise ValueError(NOT_FINITE)
    raise ValueError(f"{what}: a row pointer is not a CSR row pointer over its indices")


class Recorded(tuple):
    """A ``decompose_blocks`` result that one C call wrote.  Its ``kernel``
    record is (f, iw, f's address, iw's address, words): the call's two
    buffers, which hold the tape, and the tape's words T, terminal, nv, nw,
    len(f), len(iw) and 1 of the head of ``caradec_ascend_blocks``'s
    state, so that the reverse half reads the tape where it lies."""


def load() -> SimpleNamespace:
    """The C kernels, with ``_purepy``'s names, signatures and outputs:
    ``decompose_blocks``, ``project_blocks``, ``project_blocks_vjp``,
    ``score_rows``, ``backprop_blocks``, ``adam_ascend``,
    ``decompose_fstab``, ``ascend_blocks``, ``sigmoid_project`` and
    ``decompose_graphic``; the graph oracles' stages are no entry points
    of their own (see SIGNATURES).  The library is built first when the
    cache lacks it.  Raises OSError when it can be neither found nor built,
    or when it lacks one of the entry points of SIGNATURES."""
    path = library_path()
    if not (path.is_file() and intact(path)):
        build(path)
    lib = ctypes.CDLL(str(path))
    c = {}
    for name, (restype, arity) in SIGNATURES.items():
        try:
            c[name] = ctypes.CFUNCTYPE(restype, *(ctypes.c_void_p,) * arity)((f"caradec_{name}", lib))
        except AttributeError as exc:
            raise OSError(f"the kernel library is incomplete: {exc}") from exc
    run, score, back, project, adam, fstab, ascend, sigmoid, graphic = (c[name] for name in SIGNATURES)

    def decompose_blocks(x0, layout, scale, floor, eps, max_iter, guard):
        """The C twin of ``_purepy.decompose_blocks``: same arguments, same
        outputs and exceptions, byte for byte.  The result of a run of one
        C call is ``Recorded``."""
        n, K = layout.n, layout.K
        x0 = check_shape(x0, n)
        o = 12 + 2 * n  # where the outputs start in f
        # A run continues over calls, each with room for twice the steps of
        # the one before; y and the state (q and the sum of squares with its
        # last exact value) pass from call to call.
        # A negative q asks for a first call, which checks x0.
        parts, done, chunk, state = [], 0, first_call_steps(K), (-1.0, 0.0, 0.0)
        while True:
            cap = chunk if max_iter - done >= chunk else max(max_iter - done, 0)
            nf, ni = o + 6 * cap, 2 + (K + 4) * cap
            f = np.empty(nf)  # with iw, the buffers of the C function, laid out as _blocks.c says
            pack_into("6dq5d", f, 0, scale, floor, eps, guard, MEMBERSHIP_TOL, SUM_TOL, cap, 0.0, 0.0, *state)
            if parts:
                f[o - n : o] = y
            else:
                f[12 : 12 + n] = x0
                checked = f[12 : 12 + n]
            iw = np.empty(ni, I64)
            fa, ia = buffer_address(f), buffer_address(iw)
            T = run(layout.address, fa, ia)
            if T < 0:
                if T == -1:
                    raise MemoryError("decompose_blocks: no scratch memory")
                if T == -2:
                    raise ValueError(BAD_BLOCKS)
                if T == -4:
                    check_box(x0)  # raises
                raise block_sum_error(float(f[7]), int(layout.budgets[int(f[8])]))
            residual, stop = f[7:9].tolist()
            terminal = stop == 2.0
            live = T - terminal
            w = cap + 1 + cap * K
            parts.append((f[o : o + T], f[o + cap : o + cap + T], f[o + 2 * cap : o + 2 * cap + T],
                          iw[: T + 1], iw[cap + 1 : cap + 1 + T * K],
                          iw[w : w + T + 1], iw[w + cap + 1 : w + cap + 1 + live],
                          f[o + 5 * cap : o + 5 * cap + live], f[o + 4 * cap : o + 4 * cap + T],
                          iw[w + 2 * cap + 1 : w + 2 * cap + 1 + T], f[o + 3 * cap : o + 3 * cap + T]))
            done += T
            if stop or done >= max_iter:
                break
            state, y, chunk = f[9:12].tolist(), f[o - n : o], 2 * chunk
        if len(parts) == 1:
            probs, qs, avals, vptr, vidx, wptr, widx, wval, wx, branch, aex = parts[0]
        else:
            probs, qs, avals, _, vidx, _, widx, wval, wx, branch, aex = map(np.concatenate, zip(*parts))
            vptr = np.arange(done + 1, dtype=np.int64) * K
            wptr = np.minimum(np.arange(done + 1, dtype=np.int64), len(widx))
        out = (probs, qs, avals, (vptr, vidx, ones(done * K)), (wptr, widx, wval), wx, checked, residual,
               terminal, branch, aex)
        if len(parts) > 1:
            return out
        out = Recorded(out)
        out.kernel = (f, iw, fa, ia, (T, terminal, T * K, live, nf, ni, 1))
        return out

    def project_call(z, layout, gx):
        z = np.ascontiguousarray(check_shape(z, layout.n))
        if gx is not None:
            gx = np.ascontiguousarray(check_shape(gx, layout.n))
        out = np.empty(layout.n)
        code = project(layout.address, address(z), None if gx is None else address(gx), address(out))
        if code:
            raise_for(code, "project_blocks")
        return out

    def project_blocks(z, layout):
        """The C twin of ``_purepy.project_blocks``."""
        return project_call(z, layout, None)

    def project_blocks_vjp(z, layout, gx):
        """The C twin of ``_purepy.project_blocks_vjp``."""
        return project_call(z, layout, gx)

    def sigmoid_project(state, layout):
        """The C twin of ``_purepy.sigmoid_project``."""
        if layout.n != state.n:
            check_shape(state.z, layout.n)  # raises
        x = np.empty(layout.n)
        code = sigmoid(layout.address, state.address, address(x))
        if code:
            raise_for(code, "sigmoid_project")
        return x

    def adam_ascend(theta, m, v, grad, lr, beta1, beta2, eps, t):
        """The C twin of ``_purepy.adam_ascend``: in place, byte for byte."""
        n, grad = check_adam_arrays(theta, m, v, grad)
        g = np.empty(7 + n)
        pack_into("6dq", g, 0, lr, beta1, beta2, eps, 1 - beta1**t, 1 - beta2**t, n)
        g[7:] = grad
        adam(address(theta), address(m), address(v), buffer_address(g))
        return theta

    def score_rows(layout, indptr, indices):
        """The C twin of ``_purepy.score_rows``.  The C function trusts the
        layout's arrays, built and checked once, and checks the rows."""
        indptr = np.ascontiguousarray(indptr, dtype=np.int64)
        indices = np.ascontiguousarray(indices, dtype=np.int64)
        if indptr.ndim != 1 or indices.ndim != 1 or indptr.shape[0] == 0:
            raise ValueError("rows must be a CSR row pointer over the indices")
        rows = indptr.shape[0] - 1
        out = np.empty(5 + rows)
        pack_into("5q", out, 0, layout.kind, layout.n, layout.m, rows, indices.shape[0])
        code = score(*layout.addresses, address(indptr), address(indices), buffer_address(out))
        if code:
            raise_for(code, "score_rows")
        return out[5:]

    def backprop_blocks(n, p, q, a, vertex_rows, functional_rows, wx, fvals, terminal):
        """The C twin of ``_purepy.backprop_blocks``: same arguments, same
        gradient, byte for byte."""
        vptr, vidx, vval = vertex_rows
        wptr, widx, wval = functional_rows
        T = tape_steps(p, q, a, vertex_rows, functional_rows, wx)
        if len(fvals) != T:
            raise ValueError(BAD_TAPE)
        # The two buffers of the C function, laid out as _blocks.c says.
        f = np.concatenate((p, q, a, fvals, wx, vval, wval), dtype=np.float64)
        iw = np.concatenate((vptr, vidx, wptr, widx), dtype=np.int64)
        h = np.empty(5 + n)
        pack_into("5q", h, 0, n, T, bool(terminal), len(vidx), len(widx))
        code = back(address(f), address(iw), buffer_address(h))
        if code:
            raise_for(code, "backprop_blocks")
        return h[5:]

    def ascend_blocks(state, layout, tape, fvals, t):
        """The C twin of ``_purepy.ascend_blocks``: in place, byte for byte.
        A tape that one ``decompose_blocks`` call recorded is read where
        that call wrote it; any other tape is packed first."""
        if layout.n != state.n:
            check_shape(state.z, layout.n)  # raises
        f, iw, fa, ia, words = tape.kernel or packed(tape)
        fvals = np.ascontiguousarray(fvals, dtype=np.float64)
        if fvals.shape != (words[0],):
            raise ValueError(BAD_TAPE)
        # The step's words of the state's head, laid out as _blocks.c says.
        pack_into("2d8q", state.buffer, 32, 1 - state.beta1**t, 1 - state.beta2**t, state.n, *words)
        code = ascend(layout.address, fa, ia, address(fvals), state.address)
        if code == -4:
            raise ValueError("ascend_blocks: the tape's buffers do not fit their layout")
        if code:
            raise_for(code, "ascend_blocks")

    def decompose_fstab(x0, g, scale, floor, eps, max_iter, guard):
        """The C twin of ``_purepy.decompose_fstab``: same arguments, same
        outputs and exceptions, byte for byte."""
        net, n = g.double_cover.layout, g.n_nodes
        x0 = check_shape(x0, n)
        # A run continues over calls, each with room for n vertex entries per
        # step; x and q pass from call to call.  A negative q asks for a first
        # call, which checks x0.
        parts, done, chunk, q = [], 0, max(1, FSTAB_CALL_WORDS // max(n, 1)), -1.0
        while True:
            cap = max(0, min(max_iter - done, chunk))
            # The two buffers of the C function, laid out as _blocks.c says.
            f = np.empty(9 + 2 * n + (6 + n) * cap)
            pack_into("5dq3d", f, 0, scale, floor, eps, guard, MEMBERSHIP_TOL, cap, 0.0, 0.0, q)
            if parts:
                f[9 + n : 9 + 2 * n] = x
            else:
                f[9 : 9 + n] = x0
                checked = f[9 : 9 + n]
            iw = np.empty(2 + (4 + n) * cap, dtype=np.int64)
            T = fstab(net.address, buffer_address(f), buffer_address(iw))
            if T < 0:
                if T == -1:
                    raise MemoryError("decompose_fstab: no scratch memory")
                if T == -4:
                    check_box(x0)  # raises
                u, v = g.edges[int(f[7])]
                raise edge_sum_error(u, v, x0[u] + x0[v])
            residual, stop, q = f[6:9].tolist()
            o, w = 9 + 2 * n, cap + 1 + cap * n
            vptr, wptr = iw[: T + 1], iw[w : w + T + 1]
            nz, nw = int(vptr[-1]), int(wptr[-1])
            parts.append((f[o : o + T], f[o + cap : o + cap + T], f[o + 2 * cap : o + 2 * cap + T],
                          vptr, iw[cap + 1 : cap + 1 + nz], f[o + 6 * cap : o + 6 * cap + nz],
                          wptr, iw[w + cap + 1 : w + cap + 1 + nw], f[o + 4 * cap : o + 4 * cap + nw],
                          f[o + 3 * cap : o + 3 * cap + T]))
            done += T
            x = f[9 + n : 9 + 2 * n]
            if stop or done >= max_iter:
                break
        if len(parts) == 1:
            probs, qs, avals, vptr, vidx, vval, wptr, widx, wval, wx = parts[0]
        else:
            probs, qs, avals, _, vidx, vval, _, widx, wval, wx = map(np.concatenate, zip(*parts))
            vptr, wptr = (joined_pointer([part[k] for part in parts]) for k in (3, 6))
        if stop != 2.0:
            residual = nonterminal_residual(q, x)
        return (probs, qs, avals, (vptr, vidx, vval), (wptr, widx, wval), wx, checked, residual,
                stop == 2.0)

    def decompose_graphic(x0, g, scale, floor, eps, max_iter, guard):
        """The C twin of ``_purepy.decompose_graphic``: same arguments, same
        outputs and exceptions, byte for byte."""
        net, n, m = g.edge_network.layout, g.n_nodes, g.m
        x0 = check_shape(x0, m)
        # A run continues over calls, each with room for a forest of n edges
        # and a face of m per step; x and q pass from call to call.  A
        # negative q asks for a first call, which checks x0.
        parts, done, chunk, q = [], 0, max(1, GRAPHIC_CALL_WORDS // (n + m + 1)), -1.0
        while True:
            cap = max(0, min(max_iter - done, chunk))
            # The two buffers of the C function, laid out as _blocks.c says.
            f = np.empty(10 + 2 * m + (4 + m) * cap)
            pack_into("6dq3d", f, 0, scale, floor, eps, guard, MEMBERSHIP_TOL, SUM_TOL, cap, 0.0, 0.0, q)
            if parts:
                f[10 + m : 10 + 2 * m] = x
            else:
                f[10 : 10 + m] = x0
                checked = f[10 : 10 + m]
            iw = np.empty(2 + (2 + n + m) * cap, dtype=np.int64)
            T = graphic(net.address, buffer_address(f), buffer_address(iw))
            if T < 0:
                if T == -1:
                    raise MemoryError("decompose_graphic: no scratch memory")
                if T == -10:
                    raise MembershipError(RANK_AT_ZERO)
                from ..matroids import check_graphic_membership  # which imports this package

                check_graphic_membership(x0, g)  # raises, with the check's message
                raise RuntimeError("decompose_graphic: the C check refused a point that the Python check accepts")
            residual, stop, q = f[7:10].tolist()
            o, w = 10 + 2 * m, cap + 1 + cap * n
            vptr, wptr = iw[: T + 1], iw[w : w + T + 1]
            nz, nw = int(vptr[-1]), int(wptr[-1])
            parts.append((f[o : o + T], f[o + cap : o + cap + T], f[o + 2 * cap : o + 2 * cap + T],
                          vptr, iw[cap + 1 : cap + 1 + nz], wptr, iw[w + cap + 1 : w + cap + 1 + nw],
                          f[o + 4 * cap : o + 4 * cap + nw], f[o + 3 * cap : o + 3 * cap + T]))
            done += T
            x = f[10 + m : 10 + 2 * m]
            if stop or done >= max_iter:
                break
        if len(parts) == 1:
            probs, qs, avals, vptr, vidx, wptr, widx, wval, wx = parts[0]
        else:
            probs, qs, avals, _, vidx, _, widx, wval, wx = map(np.concatenate, zip(*parts))
            vptr, wptr = (joined_pointer([part[k] for part in parts]) for k in (3, 5))
        if stop != 2.0:
            residual = nonterminal_residual(q, x)
        return (probs, qs, avals, (vptr, vidx, ones(len(vidx))), (wptr, widx, wval), wx, checked, residual,
                stop == 2.0)

    return SimpleNamespace(decompose_blocks=decompose_blocks, project_blocks=project_blocks,
                           project_blocks_vjp=project_blocks_vjp, score_rows=score_rows,
                           backprop_blocks=backprop_blocks, adam_ascend=adam_ascend,
                           decompose_fstab=decompose_fstab, ascend_blocks=ascend_blocks,
                           sigmoid_project=sigmoid_project, decompose_graphic=decompose_graphic)


def packed(tape):
    """A tape that no single ``decompose_blocks`` call recorded, packed as
    ``caradec_ascend_blocks`` reads it: the record of ``Recorded``, with
    layout word 0."""
    d, (wptr, widx, wval) = tape.d, tape.functional_rows
    vptr, vidx, vval = d.vertex_rows
    T = tape_steps(d.p, tape.q, tape.a, d.vertex_rows, tape.functional_rows, tape.wx)
    f = np.concatenate((d.p, tape.q, tape.a, tape.wx, vval, wval), dtype=np.float64)
    iw = np.concatenate((vptr, vidx, wptr, widx), dtype=np.int64)
    return f, iw, address(f), address(iw), (T, bool(tape.terminal), len(vidx), len(widx), len(f), len(iw), 0)


def tape_steps(p, q, a, vertex_rows, functional_rows, wx) -> int:
    """The steps T of a tape for the reverse pass, once every argument has T
    entries (T + 1 for the row pointers) and each row index its value
    (ValueError otherwise)."""
    T = len(p)
    if not (len(q) == len(a) == len(wx) == T == len(vertex_rows[0]) - 1 == len(functional_rows[0]) - 1
            and len(vertex_rows[2]) == len(vertex_rows[1]) and len(functional_rows[2]) == len(functional_rows[1])):
        raise ValueError(BAD_TAPE)
    return T


def nonterminal_residual(q: float, x: np.ndarray) -> float:
    """core.peel's residual q max(x) after a run that ends short of a
    terminal step, taken with numpy's max, as the pure twins take it: it
    returns -0.0 where every entry is +-0, which a C loop from 0.0 would
    not."""
    return q * float(np.max(x, initial=0.0))


def joined_pointer(ptrs) -> np.ndarray:
    """The row pointer of the rows of several CSR pointers, one after the
    other."""
    ends = np.cumsum([0] + [int(ptr[-1]) for ptr in ptrs[:-1]])
    return np.concatenate([ptrs[0][:1]] + [ptr[1:] + end for ptr, end in zip(ptrs, ends.tolist())])
