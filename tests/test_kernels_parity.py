"""The C kernel and the pure-numpy kernel must agree byte for byte on every
output; the pure kernel must also match, bit for bit, the per-element
selection loop kept in ``reference_loops`` as its reference.  The C
kernel's tests skip only when no C compiler exists."""

import functools
import os
import shlex
import shutil

import numpy as np
import pytest
from reference_loops import reference_decompose_blocks

from caradec.core import Cardinality
from caradec.extension import backprop_extension
from caradec.generators import gen_random_uniform
from caradec.hypersimplex import kernel_tape
from caradec.kernels import _compiled, _purepy
from caradec.objectives import CoverageObjective
from caradec.solvers import OptimizeConfig, direct_optimize

HAVE_CC = shutil.which(shlex.split(os.environ.get("CC") or "cc")[0]) is not None
needs_compiled = pytest.mark.skipif(not HAVE_CC, reason="no C compiler")


@functools.cache
def compiled_decompose_blocks():
    """The C kernel, built into the user's cache (not the repository) on
    first use; a build that fails fails the test that asked for it."""
    return _compiled.load()


def assert_bytes_equal(got, want):
    """Every output equal as bytes, dtype and shape: the sign of zero counts."""
    assert len(got) == len(want)
    for i, (g, w) in enumerate(zip(got, want)):
        g, w = np.asarray(g), np.asarray(w)
        assert g.dtype == w.dtype and g.shape == w.shape, i
        assert g.tobytes() == w.tobytes(), i


def assert_compiled_matches_pure(*args):
    assert_bytes_equal(compiled_decompose_blocks()(*args), _purepy.decompose_blocks(*args))


def assert_pure_matches_reference(*args):
    assert_bytes_equal(_purepy.decompose_blocks(*args), reference_decompose_blocks(*args)[0])


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
            assert_compiled_matches_pure(x, block_of, budgets, 1.0, 0.0, 0.0, n + 1, 1e-12)

    def test_backprop_parity(self):
        """Tapes of the two kernels give the same gradient bytes through
        the shared reverse loop."""
        rng = np.random.default_rng(1)
        for _ in range(200):
            x, block_of, budgets = random_blocks(rng)
            n = x.shape[0]
            args = (x, block_of, budgets, 1.0, 0.0, 0.0, n + 1, 1e-12)
            tp = kernel_tape(_purepy.decompose_blocks(*args), x)[1]
            tc = kernel_tape(compiled_decompose_blocks()(*args), x)[1]
            f = rng.standard_normal(len(tp.d.p))
            assert backprop_extension(tp, None, f).tobytes() == backprop_extension(tc, None, f).tobytes()


@needs_compiled
class TestRescaledParity:
    def test_same_supports(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            x, block_of, budgets = random_blocks(rng, max_n=16)
            n = x.shape[0]
            assert_compiled_matches_pure(x, block_of, budgets, 0.5, 0.02, 1e-5, 4 * n, 1e-12)

    def test_iteration_cap_beyond_one_call(self):
        """A cap larger than one C call's 4n + 256 steps: the run continues
        across calls as one."""
        rng = np.random.default_rng(3)
        block_of, budgets = np.zeros(30, dtype=np.int32), np.array([7])
        x = projected_point(rng, block_of, budgets)
        for max_iter in (0, 1, 376, 377, 2000):
            assert_compiled_matches_pure(x, block_of, budgets, 0.02, 0.0, 0.0, max_iter, 1e-300)

    def test_out_of_range_blocks_and_budgets_are_refused(self):
        x = np.full(4, 0.5)
        for block_of, budgets in (([0, 0, 1, 2], [1, 1]), ([0, 0, 1, -1], [1, 1]), ([0, 0, 1, 1], [3, 0]),
                                  ([0, 0, 1, 1], [-1, 3])):
            with pytest.raises(ValueError):
                compiled_decompose_blocks()(x, np.array(block_of), np.array(budgets), 1.0, 0.0, 0.0, 5, 1e-12)


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
    loop's exactly, exact and rescaled."""

    assert_same_outputs = staticmethod(assert_pure_matches_reference)

    def assert_same(self, x, block_of, budgets):
        n = x.shape[0]
        # (scale, floor, eps, max_iter): exact, then rescaled
        for mode in ((1.0, 0.0, 0.0, n + 1), (0.5, 0.02, 1e-5, 4 * n)):
            self.assert_same_outputs(x, block_of, budgets, *mode, 1e-12)

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

    assert_same_outputs = staticmethod(assert_pure_matches_reference)

    def test_cardinality_500_exact_with_tape(self):
        rng = np.random.default_rng(20)
        block_of, budgets = np.zeros(500, dtype=np.int32), np.array([10])
        for _ in range(2):
            x = projected_point(rng, block_of, budgets)
            self.assert_same_outputs(x, block_of, budgets, 1.0, 0.0, 0.0, 501, 1e-12)

    def test_cardinality_500_rescaled(self):
        rng = np.random.default_rng(20)
        block_of, budgets = np.zeros(500, dtype=np.int32), np.array([10])
        x = projected_point(rng, block_of, budgets)
        self.assert_same_outputs(x, block_of, budgets, 0.1, 0.0, 1e-4, 2000, 1e-12)

    def test_partition_2000_in_20_blocks(self):
        rng = np.random.default_rng(21)
        block_of, budgets = np.repeat(np.arange(20), 100).astype(np.int32), np.full(20, 10)
        x = projected_point(rng, block_of, budgets)
        self.assert_same_outputs(x, block_of, budgets, 1.0, 0.0, 0.0, 2001, 1e-12)

    def test_scattered_blocks_300(self):
        rng = np.random.default_rng(22)
        block_of, budgets = scattered_blocks(rng, n=300)
        x = projected_point(rng, block_of, budgets)
        self.assert_same_outputs(x, block_of, budgets, 1.0, 0.0, 0.0, 301, 1e-12)
        self.assert_same_outputs(x, block_of, budgets, 0.5, 0.02, 1e-5, 1200, 1e-12)


@needs_compiled
class TestCompiledMatchesPure(TestPureKernelMatchesReference):
    """The same corpus, C kernel against pure kernel."""

    assert_same_outputs = staticmethod(assert_compiled_matches_pure)


@needs_compiled
class TestCompiledAtBenchmarkScale(TestPureKernelAtBenchmarkScale):
    assert_same_outputs = staticmethod(assert_compiled_matches_pure)


@needs_compiled
def test_direct_optimize_same_under_both_kernels(monkeypatch):
    """A short direct_optimize on a Random500-style coverage instance ends on
    the same set, objective and extension value bytes with either kernel."""
    f = CoverageObjective(gen_random_uniform(500, 1000, seed=42, instance_id=0))
    c, cfg = Cardinality(500, 10), OptimizeConfig(steps=8, lr=0.015, seed=0, init="random")
    results = []
    for kernel in (_purepy.decompose_blocks, compiled_decompose_blocks()):
        monkeypatch.setattr("caradec.kernels.decompose_blocks", kernel)
        res = direct_optimize(f, c, cfg)
        results.append((res.best.indices, np.float64(res.objective).tobytes(),
                        np.float64(res.extension_value).tobytes()))
    assert results[0] == results[1]
