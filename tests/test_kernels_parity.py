"""The compiled kernel and the pure-numpy fallback must agree step for
step: same vertices, same branches, probabilities to float accuracy.  The
pure kernel must also match, bit for bit, the per-element selection loop
kept below as its reference."""

import numpy as np
import pytest

from caradec.kernels import _purepy

try:
    from caradec.kernels import _speedups
except ImportError:  # pure-Python install
    _speedups = None

needs_compiled = pytest.mark.skipif(_speedups is None, reason="compiled kernel not built")


def random_blocks(rng, max_n=30):
    nblocks = int(rng.integers(1, 4))
    sizes = [int(rng.integers(1, max_n // nblocks + 1)) for _ in range(nblocks)]
    n = sum(sizes)
    block_of = np.zeros(n, dtype=np.int32)
    budgets = np.zeros(nblocks, dtype=np.int64)
    pos = 0
    for b, sz in enumerate(sizes):
        block_of[pos : pos + sz] = b
        budgets[b] = int(rng.integers(0, sz + 1))
        pos += sz
    x = np.empty(n)
    for b, sz in enumerate(sizes):
        blk = np.flatnonzero(block_of == b)
        z = rng.random(sz)
        m = z.mean()
        k = budgets[b]
        if k == 0 or k == sz or m <= 0 or m >= 1:
            x[blk] = k / sz
        else:
            s = min((k / sz) / m, ((sz - k) / sz) / (1 - m))
            x[blk] = s * (z - m) + k / sz
    return x, block_of, budgets


@needs_compiled
class TestExactParity:
    def test_identical_runs(self):
        rng = np.random.default_rng(0)
        for _ in range(300):
            x, block_of, budgets = random_blocks(rng)
            n = x.shape[0]
            args = (x, block_of, budgets, 1.0, 0.0, 0.0, n + 1, 1e-12, True)
            rp = _purepy.decompose_blocks(*args)
            rc = _speedups.decompose_blocks(*args)
            assert len(rp[0]) == len(rc[0])
            assert np.allclose(rp[0], rc[0], atol=1e-14)
            assert np.allclose(rp[1], rc[1], atol=1e-14)
            assert np.array_equal(rp[3], rc[3])
            assert np.array_equal(rp[4], rc[4])
            assert np.array_equal(rp[5], rc[5])
            assert rp[9] == rc[9]
            if len(rp[0]):
                assert np.allclose(rp[6], rc[6], atol=1e-13)

    def test_backprop_parity(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            x, block_of, budgets = random_blocks(rng)
            n = x.shape[0]
            args = (x, block_of, budgets, 1.0, 0.0, 0.0, n + 1, 1e-12, True)
            rp = _purepy.decompose_blocks(*args)
            rc = _speedups.decompose_blocks(*args)
            f = rng.standard_normal(len(rp[0]))
            gp = _purepy.backprop_blocks(n, *rp[:8], f)
            gc = _speedups.backprop_blocks(n, *rc[:8], f)
            assert np.allclose(gp, gc, atol=1e-10, rtol=1e-10)


@needs_compiled
class TestRescaledParity:
    def test_same_supports(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            x, block_of, budgets = random_blocks(rng, max_n=16)
            n = x.shape[0]
            args = (x, block_of, budgets, 0.5, 0.02, 1e-5, 4 * n, 1e-12, False)
            rp = _purepy.decompose_blocks(*args)
            rc = _speedups.decompose_blocks(*args)
            assert len(rp[0]) == len(rc[0])
            assert np.array_equal(rp[3], rc[3])
            assert np.allclose(rp[0], rc[0], atol=1e-13)


def reference_decompose_blocks(x0, block_of, budgets, scale, floor, eps, max_iter, guard, want_tape):
    """The pure kernel as a per-element selection loop: walk the stable
    descending order and take an index while its block has budget left."""
    x = np.array(x0, dtype=np.float64)
    n, K = x.shape[0], int(np.sum(budgets))
    rec = {key: [] for key in ("p", "q", "a", "v", "br", "bi", "snap", "aex")}
    q, terminal, residual = 1.0, False, 0.0
    for _ in range(max_iter):
        cnt, chosen = [0] * len(budgets), []
        for i in np.argsort(-x, kind="stable"):
            b = block_of[i]
            if cnt[b] < budgets[b] and len(chosen) < K:
                cnt[b] += 1
                chosen.append(int(i))
        v = np.array(sorted(chosen), dtype=np.int32)
        comp = np.setdiff1d(np.arange(n), v)
        a_in, i_in = (float(x[v].min()), int(v[np.argmin(x[v])])) if K else (np.inf, -1)
        a_out, i_out = (1.0 - float(x[comp].max()), int(comp[np.argmax(x[comp])])) if comp.size else (np.inf, -1)
        a_exact, br, bi = (a_in, 0, i_in) if a_in <= a_out else (a_out, 1, i_out)
        a_exact = max(a_exact, 0.0)
        a, exact_step = (scale * a_exact, scale == 1.0) if scale * a_exact >= floor else (a_exact, True)
        terminal = a > 1.0 - guard or q * (1.0 - a) < guard
        step = (q, q, 1.0, v, 2, -1, x.copy(), 1.0) if terminal else (a * q, q, a, v, br, bi, None, a_exact)
        for key, val in zip(rec, step):
            rec[key].append(val)
        if terminal:
            diff = x.copy()
            diff[v] -= 1.0
            residual = q * float(np.max(np.abs(diff), initial=0.0))
            break
        x[v] -= a
        x /= 1.0 - a
        if exact_step:
            x[bi] = 0.0 if br == 0 else 1.0
        np.clip(x, 0.0, 1.0, out=x)
        q *= 1.0 - a
        rec["snap"][-1] = x.copy()
        residual = q * float(np.max(x, initial=0.0))
        if eps > 0.0 and q * float(np.linalg.norm(x)) <= eps:
            break
    T = len(rec["p"])
    snaps = (np.asarray(rec["snap"], dtype=np.float64) if T else np.zeros((0, n))) if want_tape else None
    return (
        np.asarray(rec["p"], dtype=np.float64),
        np.asarray(rec["q"], dtype=np.float64),
        np.asarray(rec["a"], dtype=np.float64),
        np.asarray(rec["v"], dtype=np.int32).reshape(T, K),
        np.asarray(rec["br"], dtype=np.int8),
        np.asarray(rec["bi"], dtype=np.int32),
        snaps,
        np.asarray(rec["aex"], dtype=np.float64),
        residual,
        terminal,
    )


def scattered_blocks(rng, n=24):
    """Blocks whose members interleave across the index range."""
    nblocks = int(rng.integers(1, 5))
    block_of = rng.integers(0, nblocks, n).astype(np.int32)
    block_of = np.unique(block_of, return_inverse=True)[1].astype(np.int32)
    sizes = np.bincount(block_of)
    budgets = np.array([rng.integers(0, s + 1) for s in sizes], dtype=np.int64)
    return block_of, budgets


def quantized_point(rng, block_of, budgets, grid):
    """A polytope point on a 1/grid lattice (exact in floats): many ties."""
    x = np.zeros(block_of.shape[0])
    for b, k in enumerate(budgets):
        idx = np.flatnonzero(block_of == b)
        units = np.zeros(idx.size, dtype=np.int64)
        for _ in range(int(k) * grid):
            units[rng.choice(np.flatnonzero(units < grid))] += 1
        x[idx] = units / grid
    return x


def pinned_point(rng, block_of, budgets):
    """Some coordinates at exactly 0 or 1, the rest at their block's level."""
    x = np.zeros(block_of.shape[0])
    for b, k in enumerate(budgets):
        idx = rng.permutation(np.flatnonzero(block_of == b))
        ones = int(rng.integers(0, k + 1))
        zeros = int(rng.integers(0, idx.size - k + 1))
        free = idx[ones : idx.size - zeros]
        x[idx[:ones]] = 1.0
        x[free] = (k - ones) / free.size if free.size else 0.0
    return x


class TestPureKernelMatchesReference:
    """Every output of ``_purepy.decompose_blocks`` equals the reference
    loop's exactly, with and without a tape, exact and rescaled."""

    @staticmethod
    def assert_same(x, block_of, budgets):
        n = x.shape[0]
        # (scale, floor, eps, max_iter): exact, then rescaled
        for mode in ((1.0, 0.0, 0.0, n + 1), (0.5, 0.02, 1e-5, 4 * n)):
            for tape in (True, False):
                args = (x, block_of, budgets, *mode, 1e-12, tape)
                got = _purepy.decompose_blocks(*args)
                want = reference_decompose_blocks(*args)
                for i, (g, w) in enumerate(zip(got, want)):
                    assert (g is None) == (w is None), i
                    if w is not None:
                        # Bytes, not values: the sign of zero counts too.
                        g, w = np.asarray(g), np.asarray(w)
                        assert g.dtype == w.dtype and g.shape == w.shape, i
                        assert g.tobytes() == w.tobytes(), i

    def test_random_blocks(self):
        rng = np.random.default_rng(10)
        for _ in range(60):
            self.assert_same(*random_blocks(rng))

    def test_scattered_blocks(self):
        rng = np.random.default_rng(11)
        for _ in range(40):
            block_of, budgets = scattered_blocks(rng)
            z = rng.random(block_of.shape[0])
            x = np.empty_like(z)
            for b, k in enumerate(budgets):
                idx = np.flatnonzero(block_of == b)
                m, u = z[idx].mean(), k / idx.size
                x[idx] = min(u / m, (1 - u) / (1 - m)) * (z[idx] - m) + u
            self.assert_same(x, block_of, budgets)

    def test_quantized_ties(self):
        rng = np.random.default_rng(12)
        for _ in range(60):
            block_of, budgets = scattered_blocks(rng, n=int(rng.integers(2, 20)))
            self.assert_same(quantized_point(rng, block_of, budgets, 4), block_of, budgets)

    def test_pinned_coordinates(self):
        rng = np.random.default_rng(13)
        for _ in range(60):
            block_of, budgets = scattered_blocks(rng, n=int(rng.integers(2, 20)))
            self.assert_same(pinned_point(rng, block_of, budgets), block_of, budgets)

    def test_empty_and_full_budgets(self):
        rng = np.random.default_rng(14)
        block_of = np.repeat(np.arange(3), 5).astype(np.int32)
        for budgets in ([0, 0, 0], [5, 5, 5], [0, 2, 5], [5, 0, 1], [0, 5, 0]):
            budgets = np.array(budgets, dtype=np.int64)
            for x in (quantized_point(rng, block_of, budgets, 8), pinned_point(rng, block_of, budgets)):
                self.assert_same(x, block_of, budgets)
        self.assert_same(np.full(6, 0.5), np.zeros(6, dtype=np.int32), np.array([3]))

    def test_one_large_block_and_singletons(self):
        rng = np.random.default_rng(15)
        for n in (9, 30):
            block_of = np.concatenate([np.zeros(n // 2), np.arange(1, n - n // 2 + 1)]).astype(np.int32)
            block_of = rng.permutation(block_of)
            budgets = np.array([n // 4] + [int(rng.integers(0, 2)) for _ in range(n - n // 2)], dtype=np.int64)
            for x in (quantized_point(rng, block_of, budgets, 4), pinned_point(rng, block_of, budgets)):
                self.assert_same(x, block_of, budgets)

    def test_negative_zero_entries(self):
        rng = np.random.default_rng(16)
        for _ in range(30):
            block_of, budgets = scattered_blocks(rng, n=int(rng.integers(2, 20)))
            x = pinned_point(rng, block_of, budgets)
            x[x == 0.0] = -0.0
            self.assert_same(x, block_of, budgets)
