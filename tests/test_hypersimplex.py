"""Hypersimplex projection and exact/rescaled decomposition."""

import numpy as np
import pytest
from kernel_backends import available, use
from reference_loops import reference_iterates

from caradec.core import (
    Cardinality,
    DecompositionConfig,
    MembershipError,
    PartitionMatroid,
    VertexSet,
    validate_decomposition,
)
from caradec.extension import LinearObjective, decompose_with_tape
from caradec.hypersimplex import decompose_hypersimplex, project_to_hypersimplex
from caradec.rng import stream
from caradec.solvers import OptimizeConfig, direct_optimize


# Reference forms of one block's vertex choice and step coefficient.
def top_k_vertex(x, k: int) -> VertexSet:
    """Indices of the k largest entries; ties go to the smaller index."""
    x = np.asarray(x, dtype=float)
    n = x.shape[0]
    if k > n:
        raise ValueError(f"k={k} exceeds dimension {n}")
    order = np.argsort(-x, kind="stable")
    return VertexSet.integral(order[:k], n)


def max_step_coefficient(x, s: VertexSet) -> float:
    """Largest a with (x - a*1_S)/(1-a) still in the box: the smaller of the
    least in-set entry and one minus the largest out-of-set entry."""
    x = np.asarray(x, dtype=float)
    if not s.is_integral:
        raise ValueError("integral vertex required")
    idx = list(s.indices)
    mask = np.zeros(x.shape[0], dtype=bool)
    mask[idx] = True
    a_in = float(x[mask].min()) if idx else np.inf
    out = x[~mask]
    a_out = 1.0 - float(out.max()) if out.size else np.inf
    return float(min(a_in, a_out, 1.0))


def random_hypersimplex_point(rng, n, k):
    return project_to_hypersimplex(rng.random(n), k)


class TestProjection:
    def test_centered_input_maps_to_center(self):
        p = project_to_hypersimplex(np.full(4, 0.5), 2)
        assert np.allclose(p, 0.5)

    def test_proposition_arithmetic(self):
        p = project_to_hypersimplex(np.array([1.0, 0.0, 0.0, 0.0]), 2)
        assert np.allclose(p, [1.0, 1 / 3, 1 / 3, 1 / 3])
        assert p.sum() == pytest.approx(2.0)

    def test_degenerate_mean_returns_center(self):
        p = project_to_hypersimplex(np.zeros(3), 1)
        assert np.allclose(p, 1 / 3)
        p = project_to_hypersimplex(np.ones(3), 1)
        assert np.allclose(p, 1 / 3)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            project_to_hypersimplex(np.array([1.5, 0.0]), 1)

    @pytest.mark.parametrize("k", [0, 1, 3])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_rejected(self, bad, k):
        # k in {0, n} maps every input to the center, so only the input
        # check can see the bad entry.
        with pytest.raises(ValueError):
            project_to_hypersimplex(np.array([0.5, bad, 0.2]), k)

    def test_membership_properties(self):
        rng = stream(11, "proj")
        for _ in range(500):
            n = int(rng.integers(2, 40))
            k = int(rng.integers(1, n))
            x = random_hypersimplex_point(rng, n, k)
            assert abs(x.sum() - k) < 1e-9
            assert x.min() >= -1e-12 and x.max() <= 1 + 1e-12


class TestTopK:
    def test_sort_order(self):
        assert top_k_vertex(np.array([0.7, 0.6, 0.4, 0.3]), 2).indices == (0, 1)

    def test_tie_break_smallest_index(self):
        assert top_k_vertex(np.array([0.5, 0.5]), 1).indices == (0,)

    def test_vertex_maps_to_itself(self):
        assert top_k_vertex(np.array([0.0, 1.0, 0.0, 1.0]), 2).indices == (1, 3)

    def test_k_too_large(self):
        with pytest.raises(ValueError):
            top_k_vertex(np.array([0.5, 0.5]), 3)


class TestMaxStep:
    def test_example(self):
        x = np.array([0.7, 0.6, 0.4, 0.3])
        s = top_k_vertex(x, 2)
        assert max_step_coefficient(x, s) == pytest.approx(0.6)

    def test_vertex_gives_unit_step(self):
        x = np.array([0.0, 1.0, 1.0, 0.0])
        assert max_step_coefficient(x, top_k_vertex(x, 2)) == pytest.approx(1.0)

    def test_second_example(self):
        x = np.array([0.5, 0.3, 0.2])
        assert max_step_coefficient(x, top_k_vertex(x, 1)) == pytest.approx(0.5)

    def test_kernel_first_step(self):
        """The decomposition's first pair is the top-k set with the largest
        step, also when values tie (points on a 1/4 grid)."""
        rng = stream(3, "first-step")
        for trial in range(60):
            n = int(rng.integers(2, 30))
            k = int(rng.integers(1, n))
            if trial % 2:
                x = random_hypersimplex_point(rng, n, k)
            else:
                units = np.zeros(n)
                for _ in range(4 * k):
                    units[rng.choice(np.flatnonzero(units < 4))] += 1
                x = units / 4
            p, s = decompose_hypersimplex(x, k).pairs[0]
            assert s == top_k_vertex(x, k)
            assert p == pytest.approx(max_step_coefficient(x, s), abs=1e-12)


class TestExactDecomposition:
    def test_vertex_single_pair(self):
        d = decompose_hypersimplex(np.array([0.0, 1.0, 1.0, 0.0]), 2)
        assert len(d.pairs) == 1
        assert d.pairs[0][0] == pytest.approx(1.0)
        assert d.pairs[0][1].indices == (1, 2)

    def test_hand_recurrence_k1(self):
        d = decompose_hypersimplex(np.array([0.5, 0.3, 0.2]), 1)
        got = [(p, v.indices) for p, v in d.pairs]
        assert got[0] == (pytest.approx(0.5), (0,))
        assert got[1] == (pytest.approx(0.3), (1,))
        assert got[2] == (pytest.approx(0.2), (2,))

    def test_hand_recurrence_k2(self):
        d = decompose_hypersimplex(np.array([0.7, 0.6, 0.4, 0.3]), 2)
        got = [(p, v.indices) for p, v in d.pairs]
        assert got[0] == (pytest.approx(0.6), (0, 1))
        assert got[1] == (pytest.approx(0.3), (2, 3))
        assert got[2] == (pytest.approx(0.1), (0, 2))

    def test_brute_force_equivalence_small_n(self):
        rng = stream(13, "brute-equiv")
        for _ in range(1000):
            n = int(rng.integers(2, 9))
            k = int(rng.integers(1, n))
            x = random_hypersimplex_point(rng, n, k)
            d = decompose_hypersimplex(x, k)
            assert np.max(np.abs(d.reconstruct(n) - x)) <= 1e-12
            assert d.probability_sum() == pytest.approx(1.0, abs=1e-12)
            assert all(len(v.indices) == k for _, v in d.pairs)
            assert d.iterations <= n

    def test_monotone_fixing(self):
        # coordinates at 0/1 can only accumulate along the iteration
        rng = stream(17, "monotone")
        for _ in range(50):
            n = int(rng.integers(3, 12))
            k = int(rng.integers(1, n))
            x = random_hypersimplex_point(rng, n, k)
            _, tape, x_next = reference_iterates(x, Cardinality(n, k))
            fixed_prev: set = set()
            for t in range(len(tape.a) - tape.terminal):
                xt = x_next[t]
                fixed_now = {i for i in range(n) if xt[i] in (0.0, 1.0)}
                assert fixed_prev <= fixed_now
                fixed_prev = fixed_now

    def test_membership_violation_raises(self):
        with pytest.raises(MembershipError):
            decompose_hypersimplex(np.array([0.9, 0.9, 0.9]), 2)

    def test_trivial_budgets(self):
        d = decompose_hypersimplex(np.ones(3), 3)
        assert d.pairs[0][1].indices == (0, 1, 2)
        d = decompose_hypersimplex(np.zeros(3), 0)
        assert d.pairs[0][1].indices == ()


class TestRescaled:
    def test_scale_one_matches_exact(self):
        rng = stream(19, "scale1")
        for _ in range(30):
            n, k = 8, 3
            x = random_hypersimplex_point(rng, n, k)
            cfg = DecompositionConfig(scale=1.0, floor=0.0, tolerance=1e-9)
            d1 = decompose_hypersimplex(x, k)
            d2 = decompose_hypersimplex(x, k, cfg)
            assert [(p, v.indices) for p, v in d1.pairs] == [
                (p, v.indices) for p, v in d2.pairs
            ]

    def test_geometric_tail_on_vertex(self):
        x = np.zeros(6)
        x[[1, 4]] = 1.0
        cfg = DecompositionConfig(scale=0.5, floor=0.01, tolerance=1e-3,
                                  max_iterations=500)
        d = decompose_hypersimplex(x, 2, cfg)
        assert all(v.indices == (1, 4) for _, v in d.pairs)
        probs = [p for p, _ in d.pairs]
        assert probs[:3] == [pytest.approx(0.5), pytest.approx(0.25), pytest.approx(0.125)]
        assert d.residual <= 1e-3
        assert d.probability_sum() == pytest.approx(1.0, abs=2e-3)

    def test_residual_decreasing_and_bounded(self):
        x = np.array([0.5, 0.3, 0.2])
        cfg = DecompositionConfig(scale=0.5, floor=0.05, tolerance=1e-6,
                                  max_iterations=2000)
        _, tape, x_next = reference_iterates(x, Cardinality(3, 1), cfg)
        resid = []
        for t in range(len(tape.a) - tape.terminal):
            mass = tape.q[t] * (1.0 - tape.a[t])
            resid.append(mass * float(np.linalg.norm(x_next[t])))
        assert all(b < a + 1e-15 for a, b in zip(resid, resid[1:]))
        for T, r in enumerate(resid, start=1):
            assert r <= (1 - 0.05) ** T * 3 + 1e-12

    def test_validation_report_example(self):
        rng = stream(23, "rescaled-val")
        x = random_hypersimplex_point(rng, 10, 4)
        cfg = DecompositionConfig(scale=0.5, tolerance=1e-6, max_iterations=5000)
        d = decompose_hypersimplex(x, 4, cfg)
        rep = validate_decomposition(d, Cardinality(10, 4), x)
        assert rep.reconstruction_error <= 1e-6


@pytest.mark.parametrize("backend", available())
@pytest.mark.parametrize("spec", [PartitionMatroid([[0, 1, 2], []], [1, 0]), Cardinality(0, 0),
                                  PartitionMatroid([[], [2, 0], [], [1]], [0, 1, 0, 1])],
                         ids=["empty-last-block", "n0", "empty-blocks-between"])
def test_empty_blocks_are_skipped(spec, backend, monkeypatch):
    """A spec with an empty block (which its constructor accepts) projects,
    jitters, draws points, decomposes and solves; the projection once
    divided by the empty block's size."""
    use(monkeypatch, backend)
    rng = stream(13, "empty-blocks")
    z = rng.random(spec.n)
    x, vjp = spec.project(z)
    assert np.isfinite(x).all() and np.isfinite(vjp(np.ones(spec.n))).all()
    for point in (x, spec.jitter(x, rng.uniform(-0.1, 0.1, spec.n)), spec.random_point(rng)):
        d, tape = decompose_with_tape(point, spec)
        assert validate_decomposition(d, spec, point).ok()
    f = LinearObjective(rng.random(spec.n))
    res = direct_optimize(f, spec, OptimizeConfig(steps=5, seed=1, init="random"))
    assert spec.vertex_feasible(res.best) and res.objective == f.value_of(res.best.indices)
