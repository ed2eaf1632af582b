"""Build, cache and call the plain-C forward kernel ``_blocks.c``.

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

import numpy as np

SOURCE = Path(__file__).with_name("_blocks.c")
# Contracting a*b+c into a fused multiply-add, or any -ffast-math
# reassociation, would break bit-identity with the pure kernel.
CFLAGS = ("-O3", "-ffp-contract=off", "-fPIC", "-shared")
DIGEST_BYTES = 32
# Steps per kernel call: every default iteration cap (n + 1 exact,
# max(4n, 256) rescaled) fits in one call; larger caps take several.
CHUNK_EXTRA = 256


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


def load():
    """The C kernel as a function with ``_purepy.decompose_blocks``'s
    signature and outputs; built first when the cache lacks it.  Raises
    OSError when it can be neither found nor built."""
    path = library_path()
    if not (path.is_file() and intact(path)):
        build(path)
    run = ctypes.CDLL(str(path)).caradec_decompose_blocks
    i, d, p = ctypes.c_int, ctypes.c_double, ctypes.c_void_p
    run.argtypes = (i, i, i, d, d, d, d, p, p)
    run.restype = i

    def decompose_blocks(x0, block_of, budgets, scale, floor, eps, max_iter, guard):
        """The C twin of ``_purepy.decompose_blocks``: same arguments, same
        outputs, byte for byte."""
        x0 = np.asarray(x0, dtype=np.float64)
        block_of = np.asarray(block_of, dtype=np.int32)
        bl = np.asarray(budgets, dtype=np.int64).tolist()
        if x0.ndim != 1 or block_of.shape != x0.shape or max(bl, default=0) > x0.shape[0]:
            raise ValueError("decompose_blocks needs x0 and block_of of one length, and budgets <= n")
        n, nb, K = x0.shape[0], len(bl), sum(bl)
        # The two buffers of the C function, laid out as _blocks.c says; the
        # outputs are views of them.
        parts, done, q = [], 0, 1.0
        while True:
            cap = max(0, min(max_iter - done, 4 * n + CHUNK_EXTRA))
            f = np.empty(n + 3 + 4 * cap)
            f[:n] = x0
            f[n] = q
            iw = np.empty(n + nb + cap * (K + 2), dtype=np.int32)
            iw[:n] = block_of
            iw[n : n + nb] = bl
            T = run(n, nb, cap, scale, floor, eps, guard, f.ctypes.data, iw.ctypes.data)
            if T == -1:
                raise MemoryError("decompose_blocks: no scratch memory")
            if T == -2:
                raise ValueError("decompose_blocks: block id or budget out of range")
            q, residual, stop = f[n : n + 3].tolist()
            p, o = n + 3, n + nb
            w = o + cap * K
            parts.append((f[p : p + T], f[p + cap : p + cap + T], f[p + 2 * cap : p + 2 * cap + T],
                          iw[o : o + T * K].reshape(T, K), iw[w + cap : w + cap + T].astype(np.int8),
                          iw[w : w + T], f[p + 3 * cap : p + 3 * cap + T]))
            done += T
            if stop or done >= max_iter:
                break
            x0 = f[:n]
        if len(parts) > 1:
            parts = [tuple(np.concatenate(col) for col in zip(*parts))]
        return (*parts[0], residual, stop == 2.0)

    return decompose_blocks
