"""The shared max-flow routine, ``caradec.graphs.Dinic``, against the
former recursive max-flow with explicit source and sink nodes
(``reference_loops.ReferenceDinic``), on random networks of the two
shapes the graph oracles build: stable-set double covers and graphic
block networks, with zero and infinite capacities."""

import math

import numpy as np
import pytest
from reference_loops import ReferenceDinic

from caradec.graphs import Dinic, Graph
from caradec.matroids import _arcs, _networks
from caradec.rng import stream


def reference_flow(adj, rs, rt, r):
    """The reference's flow value and the nodes its source reaches, on the
    network (adj, rs, rt, r) given explicit terminals."""
    n = len(adj)
    src, snk = n, n + 1
    net = ReferenceDinic(n + 2)
    for v in range(n):
        net.add_edge(src, v, rs[v])
        net.add_edge(v, snk, rt[v])
    for u, nbrs in enumerate(adj):
        for w, a in nbrs:
            if a % 2 == 0:
                net.add_edge(u, w, r[a])
                net.cap[-1] = r[a + 1]
    value = net.max_flow(src, snk)
    seen, stack = {src}, [src]
    while stack:
        u = stack.pop()
        for e in net.head[u]:
            if net.cap[e] > ReferenceDinic.EPS and net.to[e] not in seen:
                seen.add(net.to[e])
                stack.append(net.to[e])
    return value, seen - {src}


def shared_flow(adj, rs, rt, r):
    """The shared routine's flow value and the nodes that the nodes with
    source capacity left reach through its residual arcs."""
    rs, rt, r = list(rs), list(rt), list(r)
    value = Dinic(adj).max_flow(rs, rt, r)
    stack = [v for v in range(len(adj)) if rs[v] > Dinic.EPS]
    seen = set(stack)
    while stack:
        u = stack.pop()
        for w, a in adj[u]:
            if r[a] > Dinic.EPS and w not in seen:
                seen.add(w)
                stack.append(w)
    return value, seen


def double_cover(rng):
    """A stable-set network: node u_L (u < k) with source capacity c_u/2,
    node u_R (k + u) with sink capacity c_u/2, and per random edge the
    infinite arcs u_L -> v_R and v_L -> u_R.  Some weights are 0."""
    k = int(rng.integers(1, 25))
    c = rng.random(k) * (rng.random(k) > 0.2)
    if rng.random() < 0.5:
        c = np.round(8.0 * c) / 8.0  # exact ties between cuts
    half = (c / 2.0).tolist()
    adj = [[] for _ in range(2 * k)]
    n_arcs = 0
    p = float(rng.uniform(0.05, 0.5))
    for u in range(k):
        for v in range(u + 1, k):
            if rng.random() < p:
                for a, b in ((u, k + v), (v, k + u)):
                    adj[a].append((b, n_arcs))
                    adj[b].append((a, n_arcs + 1))
                    n_arcs += 2
    return adj, half + [0.0] * k, [0.0] * k + half, [math.inf, 0.0] * (n_arcs // 2)


def block_network(rng):
    """A graphic block network of node i: source capacity d_v/2, sink
    capacity cost, edge arcs y_e/2 each way, unbounded source capacity at i
    and unbounded sink capacities below i.  Some weights are 0."""
    n = int(rng.integers(2, 16))
    edges = tuple(sorted({tuple(sorted(int(a) for a in rng.choice(n, 2, replace=False)))
                          for _ in range(int(rng.integers(1, 3 * n)))}))
    y = rng.random(len(edges)) * (rng.random(len(edges)) > 0.2)
    cost = float(rng.uniform(0.0, 1.0))
    i = int(rng.integers(0, n))
    arc_cap, src_cap = _networks(Graph(n, edges), y)
    rs = list(src_cap)
    rs[i] = math.inf
    return _arcs(n, edges).adj, rs, [math.inf] * i + [cost] * (n - i), arc_cap


@pytest.mark.parametrize("shape", [double_cover, block_network])
def test_matches_the_reference_flow(shape):
    for case in range(200):
        rng = stream(61, shape.__name__, case)
        adj, rs, rt, r = shape(rng)
        value, side = shared_flow(adj, rs, rt, r)
        ref_value, ref_side = reference_flow(adj, rs, rt, r)
        assert value == pytest.approx(ref_value, rel=1e-12), case
        assert side == ref_side, case
