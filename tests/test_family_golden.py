"""Golden outputs of every entry point that depends on the constraint
family, on one small instance per family: projection and its VJP, plain
and taped decompositions, direct ascent, multi-scale rounding with
jittered repeats, local search, both random baselines, the random polytope
point and brute-force enumeration.

The values in family_golden.json were recorded before each family class
took over its own projection, decomposition, swap test, sampling and
enumeration, so these tests pin that refactor to identical outputs:
integers must match exactly and floats to 1e-12.  Re-record only for an
intended and explained change of output:

    PYTHONPATH=src python tests/test_family_golden.py --record
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest
from kernel_backends import twins_agree

from caradec import extension, kernels, objectives, solvers
from caradec.core import (
    Cardinality,
    DecompositionConfig,
    FractionalStableSet,
    GraphicMatroid,
    PartitionMatroid,
)
from caradec.generators import gen_random_uniform
from caradec.graphs import Graph
from caradec.objectives import CoverageObjective
from caradec.rng import stream

GOLDEN = Path(__file__).with_name("family_golden.json")

FAMILIES = {
    "cardinality": Cardinality(9, 3),
    "partition": PartitionMatroid([(0, 2, 4, 6, 8), (1, 3, 5, 7)], [2, 1]),
    # Connected: 6 nodes, 9 edges.
    "graphic": GraphicMatroid(Graph(6, ((0, 1), (0, 2), (1, 2), (1, 3), (2, 4), (3, 4),
                                        (3, 5), (4, 5), (0, 5)))),
    # An 8-cycle with two chords, so odd cycles give half-integral vertices.
    "fstab": FractionalStableSet(Graph(8, ((0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6),
                                           (6, 7), (0, 7), (0, 4), (2, 6))), slack=0.05),
}


def _decomposition(d):
    indptr, indices, data = d.vertex_rows
    return {"p": d.p, "indptr": indptr, "indices": indices, "data": data,
            "residual": d.residual, "iterations": d.iterations}


def _result(r):
    return {"best": list(r.best.indices), "objective": r.objective,
            "extension_value": r.extension_value, "iterations": r.iterations}


def outputs(c) -> dict:
    """Every family-dependent output on c, as nested dicts of numbers."""
    rng = stream(0, "family-golden", c.family)
    f = CoverageObjective(gen_random_uniform(c.dim, 3 * c.dim, degree_range=(2, 6), seed=1))
    out = {}
    z = 0.1 + 0.8 * rng.random(c.dim)
    x, vjp = solvers.project_point(z, c)
    out["project"] = {"x": x, "vjp": vjp(rng.standard_normal(c.dim))}
    for scale in (1.0, 0.5):
        out[f"decompose_{scale}"] = _decomposition(extension.decompose(x, c, DecompositionConfig(scale=scale)))
    d, tape = extension.decompose_with_tape(x, c)
    out["tape"] = {**_decomposition(d), "q": tape.q, "a": tape.a, "terminal": int(tape.terminal),
                   "f_indptr": tape.functional_rows[0], "f_indices": tape.functional_rows[1],
                   "f_data": tape.functional_rows[2], "wx": tape.wx}
    cfg = solvers.OptimizeConfig(steps=6, seed=1, init="random", round_every=2)
    res = solvers.direct_optimize(f, c, cfg)
    out["direct"] = {**_result(res), "final_point": res.final_point}
    sched = solvers.ScaleSchedule(factors=(1.0, 0.5, 0.2), jitter=0.1, repeats=3, max_iterations=60, seed=2)
    ms, pool = solvers.multi_scale_solve(x, sched, f, c)
    out["multiscale"] = {**_result(ms), "pool": pool}
    # Local search from the exact decomposition's worst nonempty integral
    # vertex, over every coordinate in reverse order.
    d = extension.decompose(x, c)
    fvals = extension.vertex_values(d, f)
    rows = np.flatnonzero(d.integral & (np.diff(d.vertex_rows[0]) > 0))
    start = d.vertex(int(rows[np.argmin(fvals[rows])]))
    v, val = solvers.local_improve(start, list(range(c.dim))[::-1], f, c)
    out["local"] = {"start": list(start.indices), "best": list(v.indices), "value": val}
    out["random"] = _result(solvers.random_baseline(f, c, trials=64, seed=4))
    out["random_decomp"] = _result(solvers.random_decomp_baseline(f, c, seed=5))
    out["random_point"] = {"x": solvers.random_point_in_polytope(c, stream(6, "family-golden-point"))}
    best, val = objectives.brute_force_optimum(f, c)
    out["brute_force"] = {"best": list(best.indices), "value": val}
    return out


def _plain(value):
    """value as JSON: {"i": [...]} for integers, {"f": [...]} for floats."""
    if isinstance(value, dict):
        return {k: _plain(v) for k, v in value.items()}
    arr = np.asarray(value)
    if arr.dtype.kind in "iub" or (arr.size == 0 and arr.dtype.kind != "f"):
        return {"i": arr.astype(np.int64).ravel().tolist()}
    return {"f": arr.astype(np.float64).ravel().tolist()}


def _compare(got, want, path):
    assert got.keys() == want.keys(), path
    for key, w in want.items():
        g = got[key]
        where = f"{path}.{key}"
        if "i" in w:
            assert g == w, where
        elif "f" in w:
            assert "f" in g and len(g["f"]) == len(w["f"]), where
            np.testing.assert_allclose(g["f"], w["f"], rtol=1e-12, atol=1e-12, err_msg=where)
        else:
            _compare(g, w, where)


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_outputs_match_recorded(family):
    want = json.loads(GOLDEN.read_text())[family]
    _compare(_plain(outputs(FAMILIES[family])), want, family)


def test_graphic_decompositions_are_byte_equal_on_both_backends(monkeypatch):
    """Every graphic decomposition that the golden outputs make (plain,
    rescaled, taped, per Adam step, per multi-scale repeat), run again by
    each backend's kernels.decompose_graphic: the nine outputs are
    byte-equal."""
    calls, inner = [], kernels.decompose_graphic

    def record(x, *args):
        calls.append((np.array(x, dtype=float), *args))
        return inner(x, *args)

    monkeypatch.setattr(kernels, "decompose_graphic", record)
    outputs(FAMILIES["graphic"])
    monkeypatch.undo()
    assert len(calls) > 20 and {args[2] for args in calls} > {1.0}
    for args in calls:
        assert len(twins_agree("decompose_graphic", *args)) == 13


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_family_golden.py --record")
    rows = (f" {json.dumps(k)}:{json.dumps(_plain(outputs(c)), separators=(',', ':'))}" for k, c in FAMILIES.items())
    GOLDEN.write_text("{\n" + ",\n".join(rows) + "\n}\n")
