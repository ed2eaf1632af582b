"""The C kernels and the pure kernels must agree byte for byte on every
output: the forward block kernel with its tape rows, the batch scorers,
the reverse pass, the block projection and its VJP, and the Adam step;
and they must refuse bad points and bad block layouts with the same
exception.  The pure block kernel must also match, bit for bit, the
per-element selection loop kept in ``reference_loops`` as its reference.
The C kernels' tests skip only when no C compiler exists."""

import functools
import math

import numpy as np
import pytest
from kernel_backends import available, compiled, flat, implementation, needs_cc, use
from reference_loops import as_kernel_outputs, reference_decompose_blocks, reference_divided_blocks

from caradec.core import (
    Cardinality,
    DecompositionConfig,
    DimensionError,
    FractionalStableSet,
    GraphicMatroid,
    MembershipError,
    PartitionMatroid,
    validate_decomposition,
)
from caradec.extension import backprop_extension, decompose_with_tape
from caradec.fstab import project_to_fstab
from caradec.generators import gen_er_graph, gen_random_uniform
from caradec.graphs import Graph
from caradec.hypersimplex import kernel_decomposition, kernel_tape, project_to_partition_polytope
from caradec.kernels import _compiled, _purepy, block_layout
from caradec.matroids import spanning_tree_marginals
from caradec.objectives import CoverageObjective
from caradec.rng import stream
from caradec.solvers import OptimizeConfig, ScaleSchedule, solve_pipeline

def compiled_decompose_blocks():
    return compiled().decompose_blocks


def assert_bytes_equal(got, want):
    """Every output equal as bytes, dtype and shape: the sign of zero counts."""
    got, want = flat(got), flat(want)
    assert len(got) == len(want)
    for i, (g, w) in enumerate(zip(got, want)):
        g, w = np.asarray(g), np.asarray(w)
        assert g.dtype == w.dtype and g.shape == w.shape, i
        assert g.tobytes() == w.tobytes(), i


def kernel_args(x, block_of, budgets, *rest):
    """A reference loop's arguments as the kernels take them."""
    return (x, block_layout(block_of, budgets), *rest)


def assert_compiled_matches_pure(*args):
    args = kernel_args(*args)
    assert_bytes_equal(compiled_decompose_blocks()(*args), _purepy.decompose_blocks(*args))


def assert_pure_matches_reference(*args):
    assert_bytes_equal(_purepy.decompose_blocks(*kernel_args(*args)),
                       as_kernel_outputs(reference_decompose_blocks(*args)[0], args[0]))


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


@needs_cc
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
            args = kernel_args(x, block_of, budgets, 1.0, 0.0, 0.0, n + 1, 1e-12)
            tp = kernel_tape(_purepy.decompose_blocks(*args))[1]
            tc = kernel_tape(compiled_decompose_blocks()(*args))[1]
            f = rng.standard_normal(len(tp.d.p))
            assert backprop_extension(tp, None, f).tobytes() == backprop_extension(tc, None, f).tobytes()


@needs_cc
class TestRescaledParity:
    def test_same_supports(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            x, block_of, budgets = random_blocks(rng, max_n=16)
            n = x.shape[0]
            assert_compiled_matches_pure(x, block_of, budgets, 0.5, 0.02, 1e-5, 4 * n, 1e-12)

    def test_iteration_cap_beyond_one_call(self):
        """A cap larger than one C call's steps: the run continues across
        calls (each with twice the steps of the one before) as one."""
        rng = np.random.default_rng(3)
        block_of, budgets = np.zeros(30, dtype=np.int32), np.array([7])
        x = projected_point(rng, block_of, budgets)
        first = _compiled.first_call_steps(7)
        for max_iter in (0, 1, 376, 377, 2000, first, first + 1, 3 * first + 1):
            assert_compiled_matches_pure(x, block_of, budgets, 0.02, 0.0, 0.0, max_iter, 1e-300)

    def test_out_of_range_blocks_and_budgets_are_refused(self):
        """block_layout refuses bad blocks, and the kernels refuse a layout
        made without it: a bad id or budget, a K that is not the sum of the
        budgets, or a length other than the header's."""
        x = np.full(4, 0.5)
        bad = [(np.array([4, 2, 2, 0, 0, 1, 2, 1, 1]), (([0, 0, 1, 2], [1, 1]))),
               (np.array([4, 2, 2, 0, 0, 1, -1, 1, 1]), ([0, 0, 1, -1], [1, 1])),
               (np.array([4, 2, 3, 0, 0, 1, 1, 3, 0]), ([0, 0, 1, 1], [3, 0])),
               (np.array([4, 2, 2, 0, 0, 1, 1, -1, 3]), ([0, 0, 1, 1], [-1, 3])),
               (np.array([4, 2, 3, 0, 0, 1, 1, 1, 1]), None),
               (np.array([4, 2, 2, 0, 0, 1, 1, 1]), None),
               (np.array([4, 2, 2, 0, 0, 1, 1, 1, 1, 0]), None)]
        for layout, blocks in bad:
            if blocks is not None:
                with pytest.raises(ValueError, match=_purepy.BAD_BLOCKS):
                    block_layout(*blocks)
            for impl in (_purepy, compiled()):
                with pytest.raises(ValueError, match=_purepy.BAD_BLOCKS):
                    impl.decompose_blocks(x, layout, 1.0, 0.0, 0.0, 5, 1e-12)
                with pytest.raises(ValueError, match=_purepy.BAD_BLOCKS):
                    impl.project_blocks(x, layout)


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
    """Some coordinates at exactly 0 or 1, the rest at their block's level;
    a block with no coordinate left at its level has exactly k ones, so
    that every block sums to its budget."""
    x = np.zeros(block_of.shape[0])
    for b, k in enumerate(budgets):
        idx = rng.permutation(np.flatnonzero(block_of == b))
        ones = int(rng.integers(0, k + 1))
        zeros = int(rng.integers(0, idx.size - k + 1))
        if ones + zeros == idx.size:
            ones = int(k)
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


def near_tie(x0, snaps, block_of, delta=1e-9):
    """Whether some step of a divided run (x0, then its iterates) compares
    two different values closer than delta: two coordinates of a block (the
    vertex choice and argmin/argmax), or x_i and 1 - x_j (min-in against
    max-out, where an exact tie counts too)."""
    same_block = block_of[:, None] == block_of[None, :]
    for x in (x0, *snaps):
        gap = np.abs(np.subtract.outer(x, x))
        if ((gap > 0) & (gap < delta) & same_block).any():
            return True
        if (np.abs(np.add.outer(x, x) - 1.0) < delta).any():
            return True
    return False


class TestContractReference:
    """The divided loop that the kernel replaced: where no near-tie decides
    a step, both pick the same vertices in the same order, with the same
    binding coordinates, and probabilities equal to 1e-12."""

    def test_same_supports_without_near_ties(self):
        rng = np.random.default_rng(30)
        checked = 0
        for _ in range(150):
            x, block_of, budgets = random_blocks(rng, max_n=20)
            n = x.shape[0]
            for mode in ((1.0, 0.0, 0.0, n + 1), (0.5, 0.02, 1e-5, 4 * n)):
                args = (x, block_of, budgets, *mode, 1e-12)
                want, snaps = reference_divided_blocks(*args)
                if near_tie(x, snaps, block_of):
                    continue
                got = _purepy.decompose_blocks(*kernel_args(*args))
                T, live = len(got[0]), len(got[4][1])
                assert np.array_equal(got[3][1].reshape(want[3].shape), want[3])  # vertices
                assert np.array_equal(got[9], want[4])  # branches
                assert np.array_equal(got[4][1], want[5][:live]) and (T == live or want[5][-1] == -1)
                assert np.allclose(got[0], want[0], rtol=0.0, atol=1e-12)
                checked += 1
        assert checked >= 100


@needs_cc
def test_compiled_cardinality_10000_meets_the_contract():
    """An exact k=10 run at n=10,000 (about 3,600 steps) reconstructs its
    point and sums to mass 1."""
    block_of, budgets = np.zeros(10_000, dtype=np.int32), np.array([10])
    x = projected_point(np.random.default_rng(31), block_of, budgets)
    out = compiled_decompose_blocks()(x, block_layout(block_of, budgets), 1.0, 0.0, 0.0, 10_001, 1e-12)
    rep = validate_decomposition(kernel_decomposition(out), Cardinality(10_000, 10), x)
    assert out[8] and rep.ok(), rep.messages


@needs_cc
class TestCompiledMatchesPure(TestPureKernelMatchesReference):
    """The same corpus, C kernel against pure kernel."""

    assert_same_outputs = staticmethod(assert_compiled_matches_pure)


@needs_cc
class TestCompiledAtBenchmarkScale(TestPureKernelAtBenchmarkScale):
    assert_same_outputs = staticmethod(assert_compiled_matches_pure)


@needs_cc
def test_direct_optimize_same_under_both_kernels(monkeypatch):
    """A short solve_pipeline (direct ascent, multi-scale rounding, local
    search) on a Random500-style coverage instance ends on the same sets,
    values and final point bytes with either backend's kernels."""
    f = CoverageObjective(gen_random_uniform(500, 1000, seed=42, instance_id=0))
    c, cfg = Cardinality(500, 10), OptimizeConfig(steps=8, lr=0.015, seed=0, init="random")
    sched = ScaleSchedule(max_iterations=500, seed=0)
    results = []
    for backend in ("pure", "compiled"):
        use(monkeypatch, backend)
        res = solve_pipeline(f, c, cfg, sched)
        results.append((res.best.indices, np.float64(res.objective).tobytes(),
                        np.float64(res.extension_value).tobytes(), res.final_point.tobytes(),
                        res.iterations))
    assert results[0] == results[1]


# ---------------------------------------------------------------------------
# Batch scorers


def random_rows(rng, rows, n):
    """CSR rows of ids in [0, n): sizes 0..min(n, 12), members unsorted and
    sometimes repeated, the first row empty."""
    sizes = rng.integers(0, min(n, 12) + 1, rows)
    if rows:
        sizes[0] = 0
    indptr = np.concatenate(([0], np.cumsum(sizes)))
    return indptr, (rng.integers(0, n, indptr[-1]) if n else np.zeros(0, dtype=np.int64))


def coverage_arrays(rng, n_sets, n_el, weights):
    """An incidence of n_sets sets over n_el elements (some sets empty), as
    the CSR arrays of CoverageObjective."""
    lens = rng.integers(0, min(n_el, 20) + 1, n_sets) if n_el else np.zeros(n_sets, dtype=np.int64)
    lens[::7] = 0
    elements = np.concatenate([np.sort(rng.choice(n_el, k, replace=False)) for k in lens] + [[]])
    return np.concatenate(([0], np.cumsum(lens))), elements.astype(np.int64), weights


def weight_kinds(rng, m):
    """Integer, non-integer, and non-integer with -0.0 and 0.0 entries."""
    mixed = rng.random(m) * 10.0 ** rng.integers(-3, 4, m)
    mixed[::3] = -0.0
    mixed[1::5] = 0.0
    return rng.integers(0, 9, m).astype(float), rng.random(m), mixed


def assert_scores_equal(kernel, *args):
    want = getattr(_purepy, kernel)(*args)
    got = getattr(compiled(), kernel)(*args)
    assert got.dtype == want.dtype == np.float64 and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


@needs_cc
class TestScorerParity:
    @pytest.mark.parametrize("rows", (0, 1, 128, 129, 300))
    @pytest.mark.parametrize("n_el", (0, 63, 64, 65, 1000))
    def test_coverage(self, rows, n_el):
        rng = np.random.default_rng(rows * 1009 + n_el)
        for weights in weight_kinds(rng, n_el):
            arrays = coverage_arrays(rng, 40, n_el, weights)
            assert_scores_equal("coverage_values", *arrays, *random_rows(rng, rows, 40))

    @pytest.mark.parametrize("rows", (0, 1, 128, 129, 300))
    @pytest.mark.parametrize("n", (1, 20, 63, 64, 65))
    def test_cut(self, rows, n):
        rng = np.random.default_rng(rows * 1013 + n)
        for p in (0.0, 0.3):
            pairs = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
            u, v = (np.array([e[i] for e in pairs], dtype=np.int64) for i in (0, 1))
            for weights in weight_kinds(rng, len(pairs)):
                assert_scores_equal("cut_values", n, u, v, weights, *random_rows(rng, rows, n))

    def test_a_row_is_its_set(self):
        """Member order, repeats and the rows beside a row change no bit."""
        rng = np.random.default_rng(5)
        arrays = coverage_arrays(rng, 30, 257, rng.random(257))
        indptr, indices = random_rows(rng, 300, 30)
        for impl in (_purepy, compiled()):
            whole = impl.coverage_values(*arrays, indptr, indices)
            for r in (0, 5, 128, 299):
                row = indices[indptr[r]:indptr[r + 1]]
                for variant in (row, np.sort(row)[::-1], np.concatenate((row, row[:2]))):
                    alone = impl.coverage_values(*arrays, np.array([0, len(variant)]), variant)
                    assert alone.tobytes() == whole[r:r + 1].tobytes()

    def test_bad_rows_are_refused_alike(self):
        rng = np.random.default_rng(6)
        arrays = coverage_arrays(rng, 10, 64, rng.random(64))
        for indptr, indices, error in (([0, 2], [3, 10], IndexError), ([0, 1], [-1], IndexError),
                                       ([0, 2, 1], [1, 2], ValueError), ([0, 3], [1, 2], ValueError),
                                       ([1, 2], [1, 2], ValueError), ([], [], ValueError)):
            for impl in (_purepy, compiled()):
                with pytest.raises(error):
                    impl.coverage_values(*arrays, np.array(indptr, dtype=np.int64),
                                         np.array(indices, dtype=np.int64))


# ---------------------------------------------------------------------------
# Reverse pass


@functools.cache
def family_tapes():
    """{label: tape} of every family: cardinality exact and rescaled, wide
    partition rows, graphic, and stable sets with half-integral rows; the
    runs cover tapes that end on a terminal step and tapes that do not."""
    rng = stream(61, "backprop-parity")
    rescaled = DecompositionConfig(scale=0.3, floor=0.01, tolerance=1e-5)
    card = Cardinality(500, 10)
    x = project_to_partition_polytope(rng.random(500), card)
    tapes = {
        "card500-exact": decompose_with_tape(x, card)[1],
        "card500-rescaled": decompose_with_tape(x, card, rescaled)[1],
    }
    part = PartitionMatroid(np.arange(2000).reshape(20, 100).tolist(), [10] * 20)
    x = project_to_partition_polytope(rng.random(2000), part)
    tapes["partition2000"] = decompose_with_tape(x, part)[1]
    for seed in range(3):
        g = gen_er_graph(7, 0.6, seed=seed)
        if g.n_components() == 1:
            x = spanning_tree_marginals(g, 0.05 + rng.random(g.m))
            tapes[f"graphic-{seed}"] = decompose_with_tape(x, GraphicMatroid(g))[1]
            tapes[f"graphic-{seed}-rescaled"] = decompose_with_tape(x, GraphicMatroid(g), rescaled)[1]
        g = gen_er_graph(12, 0.3, seed=seed)
        x = project_to_fstab(rng.random(12), g)
        tapes[f"fstab-{seed}"] = decompose_with_tape(x, FractionalStableSet(g))[1]
    # Two triangles sharing node 2: this point peels a half-integral vertex.
    bowtie = FractionalStableSet(Graph(5, ((0, 1), (0, 2), (1, 2), (2, 3), (2, 4), (3, 4))))
    tapes["fstab-half"] = decompose_with_tape(np.array([0.4, 0.4, 0.4, 0.3, 0.5]), bowtie)[1]
    return tapes


def backprop_args(tape, fvals):
    d = tape.d
    return (d.n, d.p, tape.q, tape.a, d.vertex_rows, tape.functional_rows, tape.wx, fvals,
            tape.terminal)


@needs_cc
def test_backprop_parity_on_every_family():
    rng = np.random.default_rng(7)
    terminal, half = set(), False
    for label, tape in family_tapes().items():
        terminal.add(tape.terminal)
        half |= bool((tape.d.vertex_rows[2] != 1.0).any())
        T = len(tape.d.p)
        for fvals in (rng.standard_normal(T), rng.integers(0, 50, T).astype(float),
                      (10.0 ** rng.integers(-8, 9, T)) * rng.standard_normal(T)):
            want = _purepy.backprop_blocks(*backprop_args(tape, fvals))
            got = compiled().backprop_blocks(*backprop_args(tape, fvals.tolist()))
            assert got.tobytes() == want.tobytes(), label
    assert terminal == {True, False} and half


@needs_cc
def test_backprop_refuses_bad_tapes_alike():
    tape = family_tapes()["fstab-0"]
    n = tape.d.n
    for wrong in (-1, n):
        vptr, vidx, vval = tape.d.vertex_rows
        bad = vidx.copy()
        bad[0] = wrong
        args = list(backprop_args(tape, np.ones(len(tape.d.p))))
        args[4] = (vptr, bad, vval)
        for impl in (_purepy, compiled()):
            with pytest.raises(IndexError):
                impl.backprop_blocks(*args)


# ---------------------------------------------------------------------------
# Projection, its VJP and the Adam step


def projection_cases():
    """(z, block_of, budgets) triples: interleaved blocks of uniform draws,
    budgets of 0 and of the whole block, empty blocks, blocks whose mean is
    0 or 1 (degenerate), z with exact 0.0, 1.0 and -0.0 entries, and z far
    outside [0, 1] (the kernels do not check it)."""
    rng = np.random.default_rng(71)
    cases = []
    for n in (1, 2, 7, 16, 64, 300):
        for _ in range(6):
            block_of, budgets = scattered_blocks(rng, n)
            cases.append((rng.random(n), block_of, budgets))
    block_of = np.array([0, 2, 0, 2, 3, 3, 3], dtype=np.int32)  # blocks 1 and 4 are empty
    for budgets in ([1, 0, 1, 2, 0], [0, 0, 2, 3, 0], [2, 0, 0, 1, 0]):
        for z in (rng.random(7), np.zeros(7), np.ones(7), np.array([0.0, 1.0, -0.0, 0.5, 1.0, 0.0, 0.25]),
                  rng.standard_normal(7) * 10.0):
            cases.append((z, block_of, np.array(budgets, dtype=np.int64)))
    cases.append((np.zeros(0), np.zeros(0, dtype=np.int32), np.zeros(2, dtype=np.int64)))
    return cases


@needs_cc
def test_projection_and_vjp_parity():
    rng = np.random.default_rng(72)
    for z, block_of, budgets in projection_cases():
        blocks = block_layout(block_of, budgets)
        want = _purepy.project_blocks(z, blocks)
        got = compiled().project_blocks(z, blocks)
        assert_bytes_equal((got,), (want,))
        for gx in (rng.standard_normal(z.shape[0]), rng.integers(-3, 4, z.shape[0]).astype(float),
                   (10.0 ** rng.integers(-8, 9, z.shape[0])) * rng.standard_normal(z.shape[0])):
            want = _purepy.project_blocks_vjp(z, blocks, gx)
            got = compiled().project_blocks_vjp(z, blocks, gx.tolist())
            assert_bytes_equal((got,), (want,))


@pytest.mark.parametrize("backend", ("pure", pytest.param("compiled", marks=needs_cc)))
def test_projection_of_empty_and_degenerate_blocks(backend):
    impl = implementation(backend)
    block_of = np.array([0, 2, 0, 2, 3, 3, 3], dtype=np.int32)
    budgets = np.array([1, 0, 1, 3, 0])
    z = np.array([0.2, 0.0, 0.6, 0.0, 0.3, 0.9, 0.6])
    blocks = block_layout(block_of, budgets)
    x = impl.project_blocks(z, blocks)
    # Block 0 (mean 0.4, k = 1 of 2) scales by s = min(0.5/0.4, 0.5/0.6);
    # block 2 (mean 0) and block 3 (k = n) map to their centres; blocks 1
    # and 4 are empty.
    s = 0.5 / (1.0 - 0.4)
    assert x.tolist() == [s * (0.2 - 0.4) + 0.5, 0.5, s * (0.6 - 0.4) + 0.5, 0.5, 1.0, 1.0, 1.0]
    g = impl.project_blocks_vjp(z, blocks, np.arange(7.0))
    assert g[[1, 3, 4, 5, 6]].tolist() == [0.0] * 5 and not np.signbit(g[[1, 3, 4, 5, 6]]).any()


@pytest.mark.parametrize("backend", ("pure", pytest.param("compiled", marks=needs_cc)))
def test_block_sums_are_sequential(backend):
    """The block mean, the mean of g and the dot product g.(z - m) add in
    index order from 0.0: on [1e16, 1.0, -1e16] the 1.0 is lost, where a
    compensated sum would keep it."""
    impl = implementation(backend)
    block_of, budgets = np.zeros(3, dtype=np.int32), np.array([1])
    # The mean is (1e16 + 1.0 - 1e16)/3 = 0 in order, 1/3 exactly: degenerate.
    assert impl.project_blocks([1e16, 1.0, -1e16], block_layout(block_of, budgets)).tolist() == [1 / 3] * 3
    # Block 1 sits in between, so the sums run in index order, not in the
    # order of the block's list.
    block_of = np.array([0, 1, 0, 0], dtype=np.int32)
    z, gx = np.array([0.5, 0.3, 0.25, 0.25]), np.array([1e16, 7.0, 1.0, -1e16])
    got = impl.project_blocks_vjp(z, block_layout(block_of, [1, 0]), gx)
    m = (0.5 + 0.25) + 0.25
    m, ni = m / 3, 3
    s = ((ni - 1) / ni) / (1.0 - m)
    assert s < (1 / ni) / m
    ds = ((ni - 1) / ni) / ((1.0 - m) * (1.0 - m))
    gm = ((0.0 + 1e16) + 1.0) + -1e16
    dot = ((0.0 + 1e16 * (0.5 - m)) + 1.0 * (0.25 - m)) + -1e16 * (0.25 - m)
    want = [s * (g - gm / ni) + (ds / ni) * dot for g in (1e16, 1.0, -1e16)]
    assert got[[0, 2, 3]].tolist() == want and got[1] == 0.0
    assert gm == 0.0 and math.fsum([1e16, 1.0, -1e16]) == 1.0


@needs_cc
def test_adam_parity_and_reference():
    """adam_ascend updates theta, m and v in place, with the bytes of the
    numpy expressions b1 m + (1 - b1) g, b2 v + (1 - b2) g g and
    theta + lr (m/(1 - b1^t)) / (sqrt(v/(1 - b2^t)) + eps), on both
    backends."""
    rng = np.random.default_rng(73)
    for n in (0, 1, 16, 500):
        state = [rng.standard_normal(n), rng.standard_normal(n), rng.random(n)]
        for t in (1, 2, 10, 151):
            g = (10.0 ** rng.integers(-12, 5, n)) * rng.standard_normal(n)
            g[::5] = 0.0
            th, m, v = state
            lr, b1, b2, eps = 0.015, 0.9, 0.999, 1e-8
            m_want = b1 * m + (1 - b1) * g
            v_want = b2 * v + (1 - b2) * g * g
            th_want = th + lr * (m_want / (1 - b1**t)) / (np.sqrt(v_want / (1 - b2**t)) + eps)
            outs = []
            for impl in (_purepy, compiled()):
                arrays = [a.copy() for a in state]
                assert impl.adam_ascend(*arrays, g, lr, b1, b2, eps, t) is arrays[0]
                outs.append(arrays)
            for arrays in outs:
                assert_bytes_equal(arrays, (th_want, m_want, v_want))
            state = outs[0]


def test_adam_refuses_arrays_it_cannot_update_in_place():
    theta, m, v = np.zeros(4), np.zeros(4), np.zeros(4)
    frozen = np.zeros(4)
    frozen.setflags(write=False)
    for impl in map(implementation, available()):
        for bad in ((np.zeros(4, dtype=np.float32), m, v), (theta, np.zeros(5), v), (theta, m, frozen),
                    (theta, m, np.zeros(8)[::2]), (theta, m, [0.0] * 4)):
            with pytest.raises(ValueError, match="Adam needs"):
                impl.adam_ascend(*bad, np.ones(4), 0.1, 0.9, 0.999, 1e-8, 1)
        with pytest.raises(DimensionError):
            impl.adam_ascend(theta, m, v, np.ones(3), 0.1, 0.9, 0.999, 1e-8, 1)
    assert not (theta.any() or m.any() or v.any())


# ---------------------------------------------------------------------------
# The block kernel's entry check


PARTITION = PartitionMatroid([(0, 2, 4), (1, 3, 5)], [2, 1])
GOOD_POINT = np.array([0.5, 0.25, 0.5, 0.5, 1.0, 0.25])


def bad_points():
    """(label, x, exception type) of points that PARTITION's polytope
    refuses: non-finite, off the box, off a block sum, or of another
    shape."""
    x = GOOD_POINT
    cases = []
    for bad in (np.nan, np.inf, -np.inf, 1.5, -0.25, 1.0 + 2e-9):
        y = x.copy()
        y[3] = bad
        cases.append((f"entry {bad}", y, MembershipError))
    y = x.copy()
    y[[0, 2]] = np.nan, 7.0  # the non-finite entry decides, wherever it is
    cases.append(("nan and off-box", y, MembershipError))
    cases.append(("off-sum", x + np.array([1e-6, 0.0, 0.0, 0.0, 0.0, 0.0]), MembershipError))
    cases.append(("both blocks off", x * 0.9, MembershipError))
    for shape in ((5,), (7,), (2, 3), ()):
        cases.append((f"shape {shape}", np.full(shape, 0.5), DimensionError))
    return cases


@pytest.mark.parametrize("label", [c[0] for c in bad_points()])
def test_bad_points_are_refused_alike(label, monkeypatch):
    """decompose_with_tape refuses each bad point with the same exception
    type and message on both backends."""
    _, x, error = next(case for case in bad_points() if case[0] == label)
    seen = set()
    for backend in available():
        use(monkeypatch, backend)
        assert validate_decomposition(decompose_with_tape(GOOD_POINT, PARTITION)[0], PARTITION, GOOD_POINT).ok()
        with pytest.raises(error) as caught:
            decompose_with_tape(x, PARTITION)
        seen.add((type(caught.value), str(caught.value)))
    assert len(seen) == 1, seen


@pytest.mark.parametrize("backend", ("pure", pytest.param("compiled", marks=needs_cc)))
def test_entry_clips_within_tolerance(backend):
    """Entries off the box by at most MEMBERSHIP_TOL are clipped for the
    run; -0.0 stays -0.0, as the clip is written to keep it."""
    impl = implementation(backend)
    x = np.array([-5e-10, 1.0 + 5e-10, -0.0, 1.0])
    out = impl.decompose_blocks(x, block_layout([0, 0, 1, 1], [1, 1]), 1.0, 0.0, 0.0, 5, 1e-12)
    assert out[6].tolist() == [0.0, 1.0, 0.0, 1.0] and np.signbit(out[6][2]) and x[0] == -5e-10
