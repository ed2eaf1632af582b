"""Domain types, reconstruction, validation, and serialization."""

import numpy as np
import pytest

from caradec.core import (
    Cardinality,
    Decomposition,
    DecompositionConfig,
    DimensionError,
    FractionalStableSet,
    GraphicMatroid,
    MembershipError,
    PartitionMatroid,
    Point,
    VertexSet,
    reconstruct,
    validate_decomposition,
)
from caradec.extension import decompose
from caradec.fstab import check_fstab_membership
from caradec.graphs import Graph
from caradec.hypersimplex import (
    check_partition_membership,
    decompose_hypersimplex,
    project_to_hypersimplex,
)
from caradec.matroids import check_graphic_membership


class TestVertexSet:
    def test_integral_sorted_and_bounded(self):
        v = VertexSet.integral([2, 0], 4)
        assert v.indices == (0, 2)
        assert v.is_integral
        assert v.to_vector().tolist() == [1.0, 0.0, 1.0, 0.0]

    def test_rejects_bad_indices(self):
        with pytest.raises(ValueError):
            VertexSet(n=3, indices=(0, 0))
        with pytest.raises(ValueError):
            VertexSet(n=3, indices=(0, 5))
        with pytest.raises(ValueError, match="strictly increasing"):
            VertexSet(n=9, indices=(0, 2, 4, 3))
        with pytest.raises(ValueError, match="out of range"):
            VertexSet(n=9, indices=(-1, 4))

    def test_half_integral_values(self):
        v = VertexSet.half_integral([0.5, 0.0, 1.0])
        assert not v.is_integral
        assert v.to_vector().tolist() == [0.5, 0.0, 1.0]
        with pytest.raises(ValueError):
            VertexSet.half_integral([0.3, 0.0])

    def test_all_integral_halves_normalize(self):
        v = VertexSet.half_integral([1.0, 0.0, 1.0])
        assert v.is_integral and v.indices == (0, 2)


class TestPoint:
    def test_range_check(self):
        with pytest.raises(MembershipError):
            Point(np.array([0.5, 1.2]), "cardinality")

    def test_immutable(self):
        p = Point(np.array([0.5, 0.5]), "cardinality")
        with pytest.raises(ValueError):
            p.values[0] = 0.1

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite(self, bad):
        with pytest.raises(MembershipError):
            Point(np.array([0.5, bad]), "cardinality")


TRIANGLE = Graph(3, ((0, 1), (0, 2), (1, 2)))
FAMILIES = {
    "cardinality": (Cardinality(3, 1), lambda x: check_partition_membership(x, Cardinality(3, 1)),
                    [0.2, 0.3, 0.5]),
    "partition": (PartitionMatroid([(0, 2), (1,)], [1, 1]),
                  lambda x: check_partition_membership(x, PartitionMatroid([(0, 2), (1,)], [1, 1])),
                  [0.4, 1.0, 0.6]),
    "graphic": (GraphicMatroid(TRIANGLE), lambda x: check_graphic_membership(x, TRIANGLE),
                [0.6, 0.7, 0.7]),
    "fstab": (FractionalStableSet(TRIANGLE), lambda x: check_fstab_membership(x, TRIANGLE),
              [0.3, 0.3, 0.3]),
}


class TestNonFiniteInput:
    """NaN and infinities are refused by every family's membership check
    and so by decompose, instead of decomposing into garbage."""

    @pytest.mark.parametrize("family", sorted(FAMILIES))
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejected(self, family, bad):
        c, check, x = FAMILIES[family]
        assert validate_decomposition(decompose(x, c), c, x).ok()
        for i in range(len(x)):
            y = np.array(x)
            y[i] = bad
            with pytest.raises(MembershipError):
                check(y)
            with pytest.raises(MembershipError):
                decompose(y, c)


class TestDimensionMismatch:
    """A point or vertex of another dimension than the spec's is refused:
    membership checks and decompose raise DimensionError, and
    vertex_feasible is False."""

    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_point_rejected(self, family):
        c, check, x = FAMILIES[family]
        for y in (np.resize(np.asarray(x), len(x) + 2), np.asarray(x)[:-1], np.asarray([x])):
            with pytest.raises(DimensionError):
                check(y)
            with pytest.raises(DimensionError):
                decompose(y, c)

    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_vertex_infeasible(self, family):
        c, _, x = FAMILIES[family]
        for _, v in decompose(x, c).pairs:
            assert c.vertex_feasible(v)
            vec = v.to_vector()
            for other in (np.append(vec, [0.0, 0.0]), np.append(vec, 1.0), vec[:-1]):
                assert not c.vertex_feasible(VertexSet.half_integral(other))

    def test_examples(self):
        path = FractionalStableSet(Graph(3, ((0, 1), (1, 2))))
        assert not path.vertex_feasible(VertexSet.integral([0, 2, 5], 8))
        assert not Cardinality(3, 1).vertex_feasible(VertexSet.integral([0], 5))
        with pytest.raises(DimensionError):
            decompose(np.array([0.3, 0.6, 0.2, 0.9, 0.5]), path)
        with pytest.raises(DimensionError):
            decompose(np.array([0.3, 0.6]), path)


class TestReconstruct:
    def test_single_vertex(self):
        out = reconstruct([(1.0, VertexSet.integral([0, 2], 4))], 4)
        assert out.tolist() == [1.0, 0.0, 1.0, 0.0]

    def test_weighted_sum(self):
        pairs = [
            (0.5, VertexSet.integral([0], 3)),
            (0.3, VertexSet.integral([1], 3)),
            (0.2, VertexSet.integral([2], 3)),
        ]
        assert np.allclose(reconstruct(pairs, 3), [0.5, 0.3, 0.2])

    def test_empty(self):
        assert reconstruct([], 3).tolist() == [0.0, 0.0, 0.0]

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            reconstruct([(1.0, VertexSet.integral([0], 2))], 3)

    def test_half_integral_contributes_fractions(self):
        out = reconstruct([(0.5, VertexSet.half_integral([0.5, 1.0]))], 2)
        assert np.allclose(out, [0.25, 0.5])


class TestValidate:
    def test_exact_decomposition_passes(self):
        x = project_to_hypersimplex(np.array([0.9, 0.4, 0.1, 0.7, 0.3]), 2)
        d = decompose_hypersimplex(x.values, 2)
        rep = validate_decomposition(d, Cardinality(5, 2), x)
        assert rep.ok(1e-9)
        assert rep.iterations <= 5

    def test_injected_fault_flagged(self):
        d = Decomposition(
            (
                (0.5, VertexSet.integral([0, 1], 3)),
                (0.5, VertexSet.integral([2], 3)),  # wrong size
            )
        )
        rep = validate_decomposition(d, Cardinality(3, 2), np.array([0.5, 0.5, 1.0]))
        assert not rep.all_feasible
        assert rep.vertex_feasible == (True, False)

    def test_rescaled_residual_reported(self):
        x = project_to_hypersimplex(np.array([0.8, 0.3, 0.55, 0.2]), 2)
        cfg = DecompositionConfig(scale=0.5, tolerance=1e-6, max_iterations=10_000)
        d = decompose_hypersimplex(x.values, 2, cfg)
        assert d.residual <= 1e-6
        rep = validate_decomposition(d, Cardinality(4, 2), x)
        assert rep.reconstruction_error <= 1e-6
        assert rep.all_feasible

    def test_partition_feasibility(self):
        spec = PartitionMatroid([(0, 1), (2, 3)], [1, 1])
        good = VertexSet.integral([0, 2], 4)
        bad = VertexSet.integral([0, 1], 4)
        assert spec.vertex_feasible(good)
        assert not spec.vertex_feasible(bad)


class TestSerialization:
    def test_round_trip(self):
        d = Decomposition(
            (
                (0.75, VertexSet.integral([1, 2], 4)),
                (0.25, VertexSet.half_integral([0.5, 0.5, 0.0, 1.0])),
            ),
            residual=1e-7,
            iterations=2,
        )
        d2 = Decomposition.from_json(d.to_json(), 4)
        assert d2.pairs[0][1].indices == (1, 2)
        assert d2.pairs[1][1].halves == (0.5, 0.5, 0.0, 1.0)
        assert d2.residual == pytest.approx(1e-7)
        assert d2.iterations == 2


class TestConfig:
    def test_exact_detection(self):
        assert DecompositionConfig().is_exact
        assert not DecompositionConfig(scale=0.5).is_exact

    def test_invariants(self):
        with pytest.raises(ValueError):
            DecompositionConfig(scale=0.0)
        with pytest.raises(ValueError):
            DecompositionConfig(floor=1.0)
