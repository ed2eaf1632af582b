"""Coverage and cut objectives plus the brute-force oracle."""

import copy
import pickle
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from kernel_backends import BACKENDS, available, use

from caradec.core import Cardinality, FractionalStableSet, GraphicMatroid
from caradec.extension import LinearObjective, SetObjective
from caradec.kernels import ScoreLayout
from caradec.generators import gen_random_uniform
from caradec.graphs import Graph, GraphFormatError
from caradec.objectives import (
    CoverageInstance,
    CoverageObjective,
    CutObjective,
    brute_force_optimum,
    coverage_value,
    cut_value,
)
from caradec.rng import stream

TRIANGLE = Graph(3, ((0, 1), (0, 2), (1, 2)))


def random_coverage(rng, n_sets, n_elements, max_deg=6):
    sets = []
    for _ in range(n_sets):
        deg = int(rng.integers(1, max_deg))
        sets.append(tuple(sorted(set(int(e) for e in rng.integers(0, n_elements, deg)))))
    weights = tuple(float(w) for w in rng.integers(1, 20, n_elements))
    return CoverageInstance(n_sets, n_elements, weights, tuple(sets))


class TestCoverageValue:
    def test_empty(self):
        inst = CoverageInstance(2, 3, (1.0, 1.0, 1.0), ((0, 1), (1, 2)))
        assert coverage_value(inst, []) == 0.0

    def test_union(self):
        inst = CoverageInstance(2, 3, (1.0, 1.0, 1.0), ((0, 1), (1, 2)))
        assert coverage_value(inst, [0, 1]) == 3.0
        assert coverage_value(inst, [0]) == 2.0

    def test_index_error(self):
        inst = CoverageInstance(2, 3, (1.0, 1.0, 1.0), ((0, 1), (1, 2)))
        with pytest.raises(IndexError):
            coverage_value(inst, [5])

    def test_monotone_and_submodular_spot_check(self):
        rng = stream(3, "submod-cov")
        for _ in range(50):
            inst = random_coverage(rng, 8, 20)
            f = CoverageObjective(inst)
            order = rng.permutation(8)
            chain_small: list = []
            chain_big = [int(order[-1])]
            prev_small = prev_big = None
            for i in order[:-1]:
                i = int(i)
                gain_small = f.value_of(tuple(sorted(chain_small + [i]))) - f.value_of(tuple(sorted(chain_small)))
                gain_big = f.value_of(tuple(sorted(chain_big + [i]))) - f.value_of(tuple(sorted(chain_big)))
                assert gain_small >= -1e-12  # monotone
                assert gain_small >= gain_big - 1e-9  # diminishing returns
                chain_small.append(i)
                chain_big.append(i)


class TestCutValue:
    def test_trivial_cuts(self):
        assert cut_value(TRIANGLE, []) == 0.0
        assert cut_value(TRIANGLE, [0, 1, 2]) == 0.0

    def test_examples(self):
        assert cut_value(TRIANGLE, [0]) == 2.0
        star = Graph(5, ((0, 1), (0, 2), (0, 3), (0, 4)))
        assert cut_value(star, [0]) == 4.0

    def test_complement_symmetry(self):
        rng = stream(5, "cut-sym")
        for _ in range(40):
            n = int(rng.integers(3, 9))
            edges = tuple(
                (u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.5
            )
            g = Graph(n, edges)
            s = [int(i) for i in range(n) if rng.random() < 0.5]
            comp = [i for i in range(n) if i not in s]
            assert cut_value(g, s) == cut_value(g, comp)


def reference_coverage(inst, indices):
    """The former per-set coverage loop."""
    marked = np.zeros(inst.n_elements, dtype=bool)
    for i in indices:
        marked[np.asarray(inst.sets[i], dtype=np.int64)] = True
    return float(np.asarray(inst.weights)[marked].sum())


def reference_cut(g, indices):
    """The former per-set cut loop."""
    s = set(indices)
    w = g.weight_array()
    return float(sum(w[e] for e, (u, v) in enumerate(g.edges) if (u in s) != (v in s)))


def random_sets(rng, rows, n):
    """Sorted index sets of sizes 0..min(n, 12), the empty set first."""
    out = [()]
    while len(out) < rows:
        size = int(rng.integers(0, min(n, 12) + 1))
        out.append(tuple(sorted(rng.choice(n, size, replace=False).tolist())))
    return out[:rows]


ROW_COUNTS = (0, 1, 128, 129, 300)  # around the pure scorer's 64-row block edges


class TestBatchedValues:
    @pytest.mark.parametrize("rows", ROW_COUNTS)
    def test_coverage_matches_loop(self, rows):
        rng = stream(19, "coverage-batch", rows)
        for n_sets, n_elements in ((8, 20), (40, 300)):
            f = CoverageObjective(random_coverage(rng, n_sets, n_elements, max_deg=30))
            sets = random_sets(rng, rows, n_sets)
            got = f.values_of(sets)
            assert got.dtype == np.float64 and got.shape == (rows,)
            want = [reference_coverage(f.inst, s) for s in sets]
            assert got.tolist() == want

    @pytest.mark.parametrize("rows", ROW_COUNTS)
    def test_cut_matches_loop(self, rows):
        rng = stream(23, "cut-batch", rows)
        for n, p in ((6, 0.5), (20, 0.3)):
            edges = tuple((u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p)
            weights = tuple(float(w) for w in rng.integers(1, 9, len(edges)))
            for g in (Graph(n, edges), Graph(n, edges, weights), Graph(n, ())):
                f = CutObjective(g)
                sets = random_sets(rng, rows, n)
                got = f.values_of(sets)
                assert got.dtype == np.float64 and got.shape == (rows,)
                assert got.tolist() == [reference_cut(g, s) for s in sets]

    def test_row_value_independent_of_batch(self):
        # Non-integer weights: a row's value is its sum in index order,
        # whatever the rows batched beside it.
        rng = stream(29, "batch-independent")
        inst = random_coverage(rng, 30, 257, max_deg=40)
        inst = CoverageInstance(30, 257, tuple(rng.random(257).tolist()), inst.sets)
        edges = tuple((u, v) for u in range(15) for v in range(u + 1, 15) if rng.random() < 0.4)
        g = Graph(15, edges, tuple((0.1 + rng.random(len(edges))).tolist()))
        for f, n in ((CoverageObjective(inst), 30), (CutObjective(g), 15)):
            sets = random_sets(rng, 300, n)
            batch = f.values_of(sets)
            assert batch.tolist() == [f.value_of(s) for s in sets]
            assert batch[5:140].tolist() == f.values_of(sets[5:140]).tolist()

    def test_coverage_batch_memory_bounded(self, monkeypatch):
        # 2000 rows: the pure scorer's dense block of 64 rows, not a dense
        # matrix of the whole batch, bounds the peak; the C scorer needs a
        # bitmap of one row.
        inst = gen_random_uniform(500, 1000, seed=3)
        f = CoverageObjective(inst)
        rng = stream(31, "batch-memory")
        sets = [tuple(sorted(rng.choice(500, 10, replace=False).tolist())) for _ in range(2000)]
        for backend in available():
            use(monkeypatch, backend)
            tracemalloc.start()
            try:
                f.values_of(sets)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak < 2 * 2**20, (backend, peak)


    def test_linear_matches_value_of(self):
        """Byte for byte value_of of each row sorted: empty batches and
        rows, unsorted rows, one length and mixed lengths, on both sides of
        the 3D + 8 rows (D distinct lengths) that pick the grouped sums."""
        rng = stream(53, "linear-batch")
        for n in (1, 7, 300):
            w = rng.random(n) * 10.0 ** rng.integers(-3, 4, n)
            w[::5] = -0.0
            f = LinearObjective(w)
            for rows, lengths in ((0, (0,)), (3, (0,)), (4, (3, 0, 9)), (50, (0, 5, 9)), (120, (40,)),
                                  (200, (2, 8, 9, 130, 300)), (17, (1, 2, 3, 4, 5, 6, 7, 8, 9)),
                                  (10, (6,)), (11, (6,))):
                lens = rng.choice(lengths, rows)
                indptr = np.concatenate(([0], np.cumsum(lens))).astype(np.int64)
                indices = rng.integers(0, n, indptr[-1])
                got = f.values_of_rows(indptr, indices)
                want = [f.value_of(tuple(sorted(indices[lo:hi].tolist())))
                        for lo, hi in zip(indptr, indptr[1:])]
                assert got.dtype == np.float64 and got.tobytes() == np.array(want, dtype=np.float64).tobytes()
        assert f.values_of([(), (2, 0), (0, 2)]).tolist() == [0.0, w[0] + w[2], w[0] + w[2]]


@st.composite
def swap_cases(draw):
    """(objective, members, candidates, drop, add, integral weights): a
    coverage instance (sets may repeat an element) or a graph, with integer
    or float weights; candidates outside the members, some repeated."""
    integral = draw(st.booleans())
    weight = st.integers(1, 60).map(float) if integral else st.floats(1e-3, 1e3)
    if draw(st.booleans()):
        n, n_el = draw(st.integers(1, 12)), draw(st.integers(0, 25))
        element = st.integers(0, max(n_el - 1, 0))
        sets = draw(st.lists(st.lists(element, max_size=8 if n_el else 0).map(tuple), min_size=n, max_size=n))
        weights = draw(st.lists(weight | st.just(0.0), min_size=n_el, max_size=n_el))
        f = CoverageObjective(CoverageInstance(n, n_el, tuple(weights), tuple(sets)))
    else:
        n = draw(st.integers(1, 10))
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        edges = sorted(draw(st.sets(st.sampled_from(pairs)))) if pairs else []
        weights = draw(st.lists(weight, min_size=len(edges), max_size=len(edges)))
        f = CutObjective(Graph(n, tuple(edges), tuple(weights)))
    ids = draw(st.permutations(range(n)))
    k = draw(st.integers(0, n))
    outside = ids[k:]
    candidates = draw(st.lists(st.sampled_from(outside), max_size=2 * len(outside))) if outside else []
    mask = np.array(draw(st.lists(st.booleans(), min_size=k * len(candidates), max_size=k * len(candidates))),
                    dtype=bool).reshape(k, len(candidates))
    drop, add = np.nonzero(mask)
    members = np.sort(np.array(ids[:k], dtype=np.int64))
    return f, members, np.array(candidates, dtype=np.int64), drop, add, integral


@settings(max_examples=300, deadline=None)
@given(swap_cases())
def test_swap_values_match_rescored_rows(case):
    """The gain formulas give the base class's rows of values_of_rows: the
    same bytes for integer weights, and within 1e-12 of the total weight
    otherwise; on both backends."""
    f, members, candidates, drop, add, integral = case
    total = float(f._layout.w.sum())
    for backend in available():
        with pytest.MonkeyPatch.context() as mp:
            use(mp, backend)
            value = f.value_of(tuple(members.tolist()))
            got = f.swap_values(value, members, candidates, drop, add)
            want = SetObjective.swap_values(f, value, members, candidates, drop, add)
        assert got.dtype == np.float64 and got.shape == want.shape == drop.shape
        if integral:
            assert got.tobytes() == want.tobytes()
        else:
            assert np.all(np.abs(got - want) <= 1e-12 * max(total, 1.0))


class TestScoreLayout:
    @pytest.mark.parametrize("args", [
        (0, 2, [0, 1], [0], [1.0]),  # the pointer is one entry short
        (0, -1, [], [], [1.0]),  # it is empty
        (0, 1, [1, 1], [], [1.0]),  # it does not start at 0
        (0, 2, [0, 2, 1], [0, 0], [1.0]),  # it falls
        (0, 1, [0, 1], [1], [1.0]),  # an element out of range
        (0, 1, [0, 1], [-1], [1.0]),
        (1, 2, [0], [2], [1.0]),  # an endpoint out of range
        (1, 2, [-1], [1], [1.0]),
        (1, 2, [0], [1], [1.0, 2.0]),  # a weight too many
        (2, 2, [0], [1], [1.0]),  # no such kind
    ])
    def test_malformed_layouts(self, args):
        with pytest.raises(ValueError, match="score layout"):
            ScoreLayout(*args)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_a_copied_objective_scores_its_own_arrays(self, monkeypatch, backend):
        use(monkeypatch, backend)
        sets = [(0, 2), (1,), (1, 2)]
        for f in (CoverageObjective(CoverageInstance(3, 4, (1.0, 2.0, 4.0, 8.0), tuple(sets))),
                  CutObjective(Graph(4, ((0, 1), (1, 2), (2, 3)), (1.0, 2.0, 4.0)))):
            want = f.values_of(sets).tolist()
            for other in (copy.deepcopy(f), pickle.loads(pickle.dumps(f))):
                assert other._layout.addresses != f._layout.addresses
                assert other.values_of(sets).tolist() == want


@pytest.mark.parametrize("backend", BACKENDS)
class TestIdsOutOfRange:
    """Ids outside [0, n) raise IndexError on both backends; an empty row
    scores 0."""

    def test_coverage(self, backend, monkeypatch):
        use(monkeypatch, backend)
        inst = CoverageInstance(4, 3, (1.0, 2.0, 4.0), ((0,), (1,), (2,), (0, 2)))
        f = CoverageObjective(inst)
        for bad in ((-1,), (4,), (0, -1), (3, 4)):
            with pytest.raises(IndexError):
                f.values_of([(1,), bad])
            with pytest.raises(IndexError):
                coverage_value(inst, bad)
        assert f.values_of([(), (3,), ()]).tolist() == [0.0, 5.0, 0.0]

    def test_cut(self, backend, monkeypatch):
        use(monkeypatch, backend)
        g = Graph(4, ((0, 1), (1, 2), (2, 3)))
        for bad in ((-1,), (4,), (1, -1), (0, 4)):
            with pytest.raises(IndexError):
                cut_value(g, bad)
            with pytest.raises(IndexError):
                CutObjective(g).values_of([(1,), bad])
        assert CutObjective(g).values_of([(), (3,), ()]).tolist() == [0.0, 1.0, 0.0]
        assert CutObjective(Graph(3, ())).values_of([(), (0, 2)]).tolist() == [0.0, 0.0]

    def test_linear(self, backend, monkeypatch):
        use(monkeypatch, backend)
        f = LinearObjective(np.array([1.0, 2.0, 4.0]))
        for bad in ((-1,), (3,), (0, -3), (2, 3)):
            with pytest.raises(IndexError):
                f.value_of(bad)
            with pytest.raises(IndexError):
                f.values_of([(1,), bad])
            with pytest.raises(IndexError):
                f.values_of_rows(np.array([0, 1, 1 + len(bad)]), np.array((1,) + bad))
        # Enough rows of one length for the grouped path.
        with pytest.raises(IndexError):
            f.values_of_rows(np.arange(21), np.array([0] * 19 + [-1]))
        assert f.values_of([(), (2,), (0, 1)]).tolist() == [0.0, 4.0, 3.0]
        assert f.values_of_rows(np.arange(21), np.array([0, 1, 2, 0] * 5)).tolist() == [1.0, 2.0, 4.0, 1.0] * 5


class TestBruteForce:
    def test_triangle_cut(self):
        v, val = brute_force_optimum(CutObjective(TRIANGLE), Cardinality(3, 1))
        assert val == 2.0 and v.indices == (0,)

    def test_coverage_example(self):
        inst = CoverageInstance(2, 3, (1.0, 1.0, 1.0), ((0, 1), (1, 2)))
        v, val = brute_force_optimum(CoverageObjective(inst), Cardinality(2, 1))
        assert val == 2.0 and v.indices == (0,)

    def test_linear_is_top_k(self):
        w = np.array([0.9, 0.1, 0.5, 0.7, 0.3])
        v, val = brute_force_optimum(LinearObjective(w), Cardinality(5, 2))
        assert v.indices == (0, 3)
        assert val == pytest.approx(1.6)

    def test_forest_and_stable_families(self):
        w = np.array([3.0, 2.0, 1.0])
        v, val = brute_force_optimum(LinearObjective(w), GraphicMatroid(TRIANGLE))
        assert v.indices == (0, 1) and val == pytest.approx(5.0)
        v, val = brute_force_optimum(
            LinearObjective(np.ones(3)), FractionalStableSet(TRIANGLE)
        )
        assert len(v.indices) == 1 and val == pytest.approx(1.0)

    def test_cap(self):
        with pytest.raises(ValueError):
            brute_force_optimum(LinearObjective(np.ones(60)), Cardinality(60, 30))


class TestInstanceIO:
    def test_json_round_trip(self):
        inst = random_coverage(stream(7, "io"), 5, 12)
        back = CoverageInstance.from_json(inst.to_json())
        assert back == inst

    def test_validation(self):
        with pytest.raises(ValueError):
            CoverageInstance(1, 2, (1.0,), ((0,),))
        with pytest.raises(ValueError):
            CoverageInstance(1, 2, (1.0, -1.0), ((0,),))
        with pytest.raises(ValueError):
            CoverageInstance(1, 2, (1.0, 1.0), ((5,),))


class TestNonFiniteWeights:
    @pytest.mark.parametrize("w", [float("nan"), float("inf")])
    def test_graph_rejects(self, w):
        with pytest.raises(GraphFormatError, match="finite"):
            Graph(3, ((0, 1), (1, 2)), (1.0, w))

    @pytest.mark.parametrize("w", [float("nan"), float("inf")])
    def test_coverage_rejects(self, w):
        with pytest.raises(ValueError, match="finite"):
            CoverageInstance(1, 2, (1.0, w), ((0, 1),))
