"""Synthetic instance generators: uniform and Pareto coverage systems and
Erdos-Renyi graphs, all driven by pinned Philox streams so regeneration is
byte-identical across platforms."""

from __future__ import annotations

import numpy as np

from .graphs import Graph
from .objectives import CoverageInstance
from .rng import stream


class InfeasibleConfigError(ValueError):
    """Generator parameters that cannot produce a valid instance."""


def gen_random_uniform(
    n_sets: int,
    n_elements: int,
    degree_range: tuple[int, int] = (10, 30),
    weight_range: tuple[int, int] = (1, 100),
    seed: int = 0,
    instance_id: int = 0,
) -> CoverageInstance:
    """Every set covers U{lo..hi} elements sampled without replacement;
    element weights are integers U{w_lo..w_hi}."""
    lo, hi = degree_range
    if not (1 <= lo <= hi):
        raise InfeasibleConfigError("bad degree range")
    if hi > n_elements:
        raise InfeasibleConfigError(
            f"degree range up to {hi} infeasible with {n_elements} elements"
        )
    rng = stream(seed, "random-uniform", instance_id)
    w_lo, w_hi = weight_range
    weights = rng.integers(w_lo, w_hi + 1, size=n_elements).astype(float)
    sets = []
    for _ in range(n_sets):
        deg = int(rng.integers(lo, hi + 1))
        members = np.sort(rng.choice(n_elements, size=deg, replace=False))
        sets.append(tuple(int(e) for e in members))
    return CoverageInstance(n_sets, n_elements, tuple(weights), tuple(sets))


def gen_random_pareto(
    n_sets: int,
    n_elements: int,
    weight_range: tuple[int, int] = (1, 100),
    alpha_range: tuple[float, float] = (1.0, 2.0),
    seed: int = 0,
    instance_id: int = 0,
) -> CoverageInstance:
    """Heavy-tailed set sizes: one alpha ~ U[alpha_range] per instance,
    degrees are Pareto(alpha) samples floored to >= 1 and clipped; a
    post-pass attaches any uncovered element to a random set."""
    if n_sets < 1 or n_elements < 1:
        raise InfeasibleConfigError("sizes must be >= 1")
    rng = stream(seed, "random-pareto", instance_id)
    w_lo, w_hi = weight_range
    weights = rng.integers(w_lo, w_hi + 1, size=n_elements).astype(float)
    alpha = float(rng.uniform(*alpha_range))
    degrees = np.clip(
        np.floor(1.0 + rng.pareto(alpha, size=n_sets)).astype(int), 1, n_elements
    )
    sets = [
        np.sort(rng.choice(n_elements, size=int(d), replace=False)).tolist()
        for d in degrees
    ]
    covered = np.zeros(n_elements, dtype=bool)
    for members in sets:
        covered[members] = True
    for e in np.flatnonzero(~covered):
        host = int(rng.integers(0, n_sets))
        sets[host] = sorted(set(sets[host]) | {int(e)})
    return CoverageInstance(
        n_sets,
        n_elements,
        tuple(weights),
        tuple(tuple(int(e) for e in m) for m in sets),
    )


def gen_er_graph(n: int, p: float, seed: int = 0, instance_id: int = 0) -> Graph:
    """G(n, p): each pair (u, v), u < v in lexicographic order, is included
    independently with probability p."""
    if n < 1:
        raise InfeasibleConfigError("n must be >= 1")
    if not (0.0 < p < 1.0):
        raise InfeasibleConfigError("p must be in (0, 1)")
    rng = stream(seed, "er-graph", instance_id)
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    mask = rng.random(len(pairs)) < p
    return Graph(n, tuple(pair for pair, keep in zip(pairs, mask) if keep))
