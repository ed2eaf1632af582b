"""The compiled kernel and the pure-numpy fallback must agree step for
step: same vertices, same branches, probabilities to float accuracy.  The
pure kernel must also match, bit for bit, the per-element selection loop
kept in ``reference_loops`` as its reference."""

import numpy as np
import pytest
from reference_loops import reference_decompose_blocks

from caradec.extension import backprop_extension, kernel_tape
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


def compiled_decompose_blocks(*args):
    """The compiled kernel without its snapshot tape, in the pure
    kernel's output order."""
    res = _speedups.decompose_blocks(*args, False)
    return res[:6] + res[7:]


@needs_compiled
class TestExactParity:
    def test_identical_runs(self):
        rng = np.random.default_rng(0)
        for _ in range(300):
            x, block_of, budgets = random_blocks(rng)
            n = x.shape[0]
            args = (x, block_of, budgets, 1.0, 0.0, 0.0, n + 1, 1e-12)
            rp = _purepy.decompose_blocks(*args)
            rc = compiled_decompose_blocks(*args)
            assert len(rp[0]) == len(rc[0])
            assert np.allclose(rp[0], rc[0], atol=1e-14)
            assert np.allclose(rp[1], rc[1], atol=1e-14)
            assert np.array_equal(rp[3], rc[3])
            assert np.array_equal(rp[4], rc[4])
            assert np.array_equal(rp[5], rc[5])
            assert rp[8] == rc[8]

    def test_backprop_parity(self):
        """Tapes of the two kernels give the same gradient through the
        shared reverse loop."""
        rng = np.random.default_rng(1)
        for _ in range(200):
            x, block_of, budgets = random_blocks(rng)
            n = x.shape[0]
            args = (x, block_of, budgets, 1.0, 0.0, 0.0, n + 1, 1e-12)
            tp = kernel_tape(_purepy.decompose_blocks(*args), x, "partition")
            tc = kernel_tape(compiled_decompose_blocks(*args), x, "partition")
            f = rng.standard_normal(len(tp.p))
            gp = backprop_extension(tp, None, f)
            gc = backprop_extension(tc, None, f)
            assert np.allclose(gp, gc, atol=1e-10, rtol=1e-10)


@needs_compiled
class TestRescaledParity:
    def test_same_supports(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            x, block_of, budgets = random_blocks(rng, max_n=16)
            n = x.shape[0]
            args = (x, block_of, budgets, 0.5, 0.02, 1e-5, 4 * n, 1e-12)
            rp = _purepy.decompose_blocks(*args)
            rc = compiled_decompose_blocks(*args)
            assert len(rp[0]) == len(rc[0])
            assert np.array_equal(rp[3], rc[3])
            assert np.allclose(rp[0], rc[0], atol=1e-13)


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


def assert_same_outputs(*args):
    """Every output of the pure kernel equals the reference loop's."""
    got = _purepy.decompose_blocks(*args)
    want, _ = reference_decompose_blocks(*args)
    assert len(got) == len(want)
    for i, (g, w) in enumerate(zip(got, want)):
        # Bytes, not values: the sign of zero counts too.
        g, w = np.asarray(g), np.asarray(w)
        assert g.dtype == w.dtype and g.shape == w.shape, i
        assert g.tobytes() == w.tobytes(), i


class TestPureKernelMatchesReference:
    """Every output of ``_purepy.decompose_blocks`` equals the reference
    loop's exactly, exact and rescaled."""

    @staticmethod
    def assert_same(x, block_of, budgets):
        n = x.shape[0]
        # (scale, floor, eps, max_iter): exact, then rescaled
        for mode in ((1.0, 0.0, 0.0, n + 1), (0.5, 0.02, 1e-5, 4 * n)):
            assert_same_outputs(x, block_of, budgets, *mode, 1e-12)

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


def projected_point(rng, block_of, budgets):
    """A uniform draw, mean-centred onto each block's budget."""
    x = rng.random(block_of.shape[0])
    for b, k in enumerate(budgets):
        idx = np.flatnonzero(block_of == b)
        z = x[idx]
        m, u = z.mean(), k / idx.size
        x[idx] = min(u / m, (1 - u) / (1 - m)) * (z - m) + u
    return x


class TestPureKernelAtBenchmarkScale:
    """The benchmark's sizes: long runs, where the kernel carries each step's
    sorted order into the next one."""

    def test_cardinality_500_exact_with_tape(self):
        rng = np.random.default_rng(20)
        block_of, budgets = np.zeros(500, dtype=np.int32), np.array([10])
        for _ in range(2):
            x = projected_point(rng, block_of, budgets)
            assert_same_outputs(x, block_of, budgets, 1.0, 0.0, 0.0, 501, 1e-12)

    def test_cardinality_500_rescaled(self):
        rng = np.random.default_rng(20)
        block_of, budgets = np.zeros(500, dtype=np.int32), np.array([10])
        x = projected_point(rng, block_of, budgets)
        assert_same_outputs(x, block_of, budgets, 0.1, 0.0, 1e-4, 2000, 1e-12)

    def test_partition_2000_in_20_blocks(self):
        rng = np.random.default_rng(21)
        block_of, budgets = np.repeat(np.arange(20), 100).astype(np.int32), np.full(20, 10)
        x = projected_point(rng, block_of, budgets)
        assert_same_outputs(x, block_of, budgets, 1.0, 0.0, 0.0, 2001, 1e-12)

    def test_scattered_blocks_300(self):
        rng = np.random.default_rng(22)
        block_of, budgets = scattered_blocks(rng, n=300)
        x = projected_point(rng, block_of, budgets)
        assert_same_outputs(x, block_of, budgets, 1.0, 0.0, 0.0, 301, 1e-12)
        assert_same_outputs(x, block_of, budgets, 0.5, 0.02, 1e-5, 1200, 1e-12)
