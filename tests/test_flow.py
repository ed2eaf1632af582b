"""The shared max-flow routine, ``caradec.graphs.Dinic``: against the
former recursive max-flow with explicit source and sink nodes
(``reference_loops.ReferenceDinic``), and its refusal of malformed layouts
and capacities on both kernel backends.  The networks are those the graph
oracles build, with random capacities: stable-set double covers and
graphic block networks, with zero and infinite capacities and exact ties.

The graphic oracle's block scans, ``kernels.block_scan`` and
``kernels.tight_blocks``, run that flow once per start inside one call:
each start's block is the flow's source side on its block network, and
both refuse bad input before any flow.  These stages are pure Python on
both backends; their C twins run inside the whole-peel kernels, whose
parity tests (``test_fstab``, ``test_matroids``) cover them."""

import copy
import math
import pickle
import re

import numpy as np
import pytest
from kernel_backends import BACKENDS, use
from reference_loops import ReferenceDinic

from caradec import kernels
from caradec.graphs import Dinic, Graph
from caradec.kernels._purepy import BAD_START, UNBOUNDED, block_capacities, pairwise_sum
from caradec.rng import stream


def random_graph(rng, n):
    edges = {tuple(sorted(int(a) for a in rng.choice(n, 2, replace=False)))
             for _ in range(int(rng.integers(0, 3 * n)))} if n > 1 else ()
    return Graph(n, tuple(sorted(edges)))


def double_cover(rng):
    """A stable-set network on Graph.double_cover: node u_L = u with source
    capacity c_u/2, node u_R = n + u with sink capacity c_u/2, and infinite
    arcs u_L -> v_R and v_L -> u_R on a random subset of the edges; all
    other capacities 0.  Some weights are 0, and half the draws lie on a
    grid of 1/8 (exact ties between cuts).  Returns the network, its
    capacities and the alive nodes (c > 0)."""
    n = int(rng.integers(1, 25))
    g = random_graph(rng, n)
    c = rng.random(n) * (rng.random(n) > 0.2)
    if rng.random() < 0.5:
        c = np.round(8.0 * c) / 8.0
    rs, rt, r = np.zeros(2 * n), np.zeros(2 * n), np.zeros(4 * g.m)
    rs[:n] = rt[n:] = c / 2.0
    g.cover_arcs(r)[rng.random(g.m) < 0.8] = math.inf
    return g.double_cover, rs, rt, r, c > 0


def block_case(rng):
    """A graph on 2..15 nodes, edge weights y (some 0), a cost in [0, 1]
    and a start node i."""
    n = int(rng.integers(2, 16))
    g = random_graph(rng, n)
    y = rng.random(g.m) * (rng.random(g.m) > 0.2)
    return g, y, float(rng.uniform(0.0, 1.0)), int(rng.integers(0, n))


def forced(g, y, cost, i):
    """The capacities of node i's block network as one buffer: source
    capacity d_v/2, sink capacity cost, edge arcs y_e/2 each way, unbounded
    source capacity at i and unbounded sink capacities below i."""
    n = g.n_nodes
    f = block_capacities(g.edge_network.layout, y)
    f[i] = math.inf
    f[n : n + i] = math.inf
    f[n + i : 2 * n] = cost
    return f


def block_network(rng):
    """A graphic block network of node i on Graph.edge_network (see
    ``forced``)."""
    g, y, cost, i = block_case(rng)
    n, f = g.n_nodes, forced(g, y, cost, i)
    return g.edge_network, f[:n], f[n : 2 * n], f[2 * n :], None


SHAPES = [double_cover, block_network]


def slots(net):
    """(tail, head, arc) per slot of a network's layout."""
    lay = net.layout
    return np.repeat(np.arange(net.n), np.diff(lay.ptr)).tolist(), lay.head.tolist(), lay.arc.tolist()


def reference_flow(net, rs, rt, r):
    """The reference's flow value and the nodes its source reaches, on the
    network given explicit terminals."""
    n = net.n
    src, snk = n, n + 1
    ref = ReferenceDinic(n + 2)
    for v in range(n):
        ref.add_edge(src, v, rs[v])
        ref.add_edge(v, snk, rt[v])
    for u, w, a in zip(*slots(net)):
        if a % 2 == 0:
            ref.add_edge(u, w, r[a])
            ref.cap[-1] = r[a + 1]
    value = ref.max_flow(src, snk)
    seen, stack = {src}, [src]
    while stack:
        u = stack.pop()
        for e in ref.head[u]:
            if ref.cap[e] > ReferenceDinic.EPS and ref.to[e] not in seen:
                seen.add(ref.to[e])
                stack.append(ref.to[e])
    return value, seen - {src}


@pytest.mark.parametrize("shape", SHAPES)
def test_matches_the_reference_flow(shape):
    for case in range(200):
        net, rs, rt, r, _ = shape(stream(61, shape.__name__, case))
        ref_value, ref_side = reference_flow(net, rs, rt, r)
        value, side = net.max_flow(rs.copy(), rt.copy(), r.copy())
        assert value == pytest.approx(ref_value, rel=1e-12), case
        assert set(np.flatnonzero(side).tolist()) == ref_side, case


def test_a_scan_runs_the_flow_of_each_start():
    """block_scan's side for start i is the source side of i's block
    network's max-flow, and its value cost (|U| - 1) - y(E(U)) with
    y(E(U)) summed as numpy sums it; a start with no edge of positive
    weight to a later node runs no flow and gets 0 and an empty side."""
    for case in range(200):
        g, y, cost, _ = block_case(stream(71, "block_scan", case))
        net, n = g.edge_network, g.n_nodes
        values, sides = kernels.block_scan(net.layout, y, cost, np.arange(n))
        assert values.shape == (n,) and sides.shape == (n, n) and sides.dtype == bool
        for i in range(n):
            if not (y[g.edge_u == i] > 0).any():
                assert values[i] == 0.0 and not sides[i].any(), (case, i)
                continue
            f = forced(g, y, cost, i)
            side = net.max_flow(f[:n], f[n : 2 * n], f[2 * n :])[1]
            size = int(side.sum())
            inside = y[side[g.edge_u] & side[g.edge_v] & (y > 0)]
            want = cost * (size - 1) - float(inside.sum()) if size > 1 else 0.0
            assert sides[i].tolist() == side.tolist() and values[i] == want, (case, i)


def test_pairwise_sum_adds_as_numpy_sums():
    rng = stream(73, "pairwise")
    for size in list(range(40)) + [127, 128, 129, 136, 300, 1000]:
        v = rng.random(size) * 10.0 ** rng.integers(-6, 6, size)
        assert pairwise_sum(v.tolist()) == float(v.sum()), size


def test_arc_views_follow_the_layouts():
    """Edge e's arcs 2e and 2e + 1 in Graph.edge_network (as the block
    kernels read them) and Graph.cover_arcs address the arcs that
    FlowLayout.arc_ends places between the edges' ends."""
    g = Graph(4, ((0, 1), (0, 3), (1, 2), (2, 3)))
    eu, ev, n = g.edge_u, g.edge_v, g.n_nodes
    tail, head = g.edge_network.layout.arc_ends
    ids = np.arange(2 * g.m).reshape(g.m, 2)
    assert (tail[ids] == np.stack((eu, ev), axis=1)).all() and (head[ids] == np.stack((ev, eu), axis=1)).all()
    tail, head = g.double_cover.layout.arc_ends
    ids = g.cover_arcs(np.arange(4 * g.m))
    assert (tail[ids] == np.stack((eu, ev), axis=1)).all()
    assert (head[ids] == n + np.stack((ev, eu), axis=1)).all()
    assert (tail[ids ^ 1] == head[ids]).all() and (head[ids ^ 1] == tail[ids]).all()


class TestRefusals:
    """The package refuses what the flow cannot run on, with the same
    ValueError on both backends."""

    @pytest.mark.parametrize("ptr, head, arc", [
        ([1, 2], [0, 0], [0, 1]),  # the pointer does not start at 0
        ([0, 2, 1], [1, 0], [0, 1]),  # it falls
        ([0, 1, 1], [1, 0], [0, 1]),  # it ends before the slots do
        ([0, 1, 2], [1, 2], [0, 1]),  # a head out of range
        ([0, 1, 2], [1, 0], [0, 2]),  # an arc id out of range
        ([0, 1, 2], [1, 0], [0, 0]),  # an arc id in two slots
        ([0, 2, 2], [1, 1], [0, 1]),  # arc 1 does not run back from 1 to 0
        ([0, 1, 1, 2], [1, 0], [0, 1]),  # nor here, from 2
        ([0, 1, 1], [0], [0]),  # arc 1, the reverse of arc 0, is missing
    ])
    def test_malformed_layouts(self, ptr, head, arc):
        with pytest.raises(ValueError, match="flow layout"):
            Dinic(ptr, head, arc)

    def test_a_wellformed_layout(self):
        net = Dinic([0, 1, 2], [1, 0], [0, 1])
        assert net.n == 2 and net.layout.array.tolist() == [2, 2, 0, 1, 2, 1, 0, 0, 1]
        assert [v.tolist() for v in (net.layout.ptr, net.layout.head, net.layout.arc)] == [[0, 1, 2], [1, 0], [0, 1]]
        assert [v.tolist() for v in net.layout.arc_ends] == [[0, 1], [1, 0]]

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_a_copied_network_flows_on_its_own_arrays(self, monkeypatch, backend):
        use(monkeypatch, backend)
        g = Graph(3, ((0, 1), (1, 2)))
        net = g.edge_network
        caps = (np.array([5.0, 0.0, 0.0]), np.array([0.0, 0.0, 5.0]), np.array([2.0, 0.0, 1.0, 0.0]))
        want = net.max_flow(*(c.copy() for c in caps))
        for other in (copy.deepcopy(g), pickle.loads(pickle.dumps(g))):
            assert other.edge_network.layout.address != net.layout.address
            got = other.edge_network.max_flow(*(c.copy() for c in caps))
            assert got[0] == want[0] == 1.0 and got[1].tolist() == want[1].tolist()

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_capacities_of_the_wrong_length_type_or_layout(self, monkeypatch, backend):
        use(monkeypatch, backend)
        net, flow = Dinic([0, 1, 2], [1, 0], [0, 1]), kernels.max_flow
        good = (np.ones(2), np.ones(2), np.ones(2))
        read_only = np.ones(2)
        read_only.flags.writeable = False
        for k, bad in [(0, np.ones(3)), (1, np.ones(1)), (2, np.ones(3)), (2, np.ones((2, 1))),
                       (0, [1.0, 1.0]), (1, np.ones(2, dtype=np.float32)), (2, np.ones(4)[::2]),
                       (0, read_only), (1, np.ones(2, dtype=">f8"))]:
            caps = list(good)
            caps[k] = bad
            with pytest.raises(ValueError, match="capacity arrays"):
                flow(net.layout, *caps)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_unpickled_capacities_are_accepted(self, monkeypatch, backend):
        # An unpickled array has a float64 dtype equal to, but not the same
        # object as, np.dtype(np.float64).
        use(monkeypatch, backend)
        net, flow = Dinic([0, 1, 2], [1, 0], [0, 1]), kernels.max_flow
        rs, rt, r = pickle.loads(pickle.dumps((np.array([3.0, 0.0]), np.array([0.0, 2.0]), np.array([1.0, 0.0]))))
        assert flow(net.layout, rs, rt, r)[0] == 1.0 and r.tolist() == [0.0, 1.0]

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_a_node_with_both_capacities_unbounded(self, monkeypatch, backend):
        use(monkeypatch, backend)
        net, flow = Dinic([0, 0], [], []), kernels.max_flow
        rs, rt, r = np.array([math.inf]), np.array([math.inf]), np.empty(0)
        with pytest.raises(ValueError, match="bounded source or sink"):
            flow(net.layout, rs, rt, r)
        assert rs.tolist() == rt.tolist() == [math.inf]

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_one_unbounded_side_is_enough(self, monkeypatch, backend):
        use(monkeypatch, backend)
        net, flow = Dinic([0, 1, 2], [1, 0], [0, 1]), kernels.max_flow
        rs, rt, r = np.array([math.inf, 0.0]), np.array([0.0, 2.0]), np.array([3.0, 0.0])
        value, side = flow(net.layout, rs, rt, r)
        assert value == 2.0 and side.tolist() == [True, True]
        assert r.tolist() == [1.0, 2.0] and rt.tolist() == [0.0, 0.0]

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_labelling_needs_a_double_cover(self, monkeypatch, backend):
        use(monkeypatch, backend)
        net = Graph(2, ((0, 1),)).double_cover
        label = kernels.label_stable_set
        rt, r = np.zeros(4), np.zeros(4)
        with pytest.raises(ValueError, match="double cover"):
            label(net.layout, rt, r, np.ones(3, dtype=bool), np.zeros(4, dtype=bool))
        with pytest.raises(ValueError, match="capacity arrays"):
            label(net.layout, rt, np.zeros(3), np.ones(2, dtype=bool), np.zeros(4, dtype=bool))

    @pytest.mark.parametrize("kernel", ["block_scan", "tight_blocks"])
    def test_block_kernels_refuse_alike(self, kernel):
        """A start outside [0, n) is refused with IndexError, and weights of
        the wrong length, dtype or layout and a network that is not the
        FlowLayout of an edge network with one weight per edge with
        ValueError, before any flow."""
        g = Graph(3, ((0, 1), (1, 2)))
        net, y = g.edge_network.layout, np.array([0.5, 0.25])

        def call(net, w, starts=(0, 1, 2)):
            if kernel == "block_scan":
                return kernels.block_scan(net, w, 0.5, np.asarray(starts))
            return kernels.tight_blocks(net, w, 1e-9)

        bad = [(net, np.ones(3)), (net, np.ones(1)), (net, np.ones(2, dtype=np.float32)),
               (net, [0.5, 0.25]), (net, np.ones(4)[::2]), (net, np.ones((2, 1))),
               (net.array, y), (g.edge_network, y), (g.double_cover.layout, y)]
        if kernel == "block_scan":
            bad += [(net, y, starts) for starts in ([3], [0, -1], [0.0, 1.0], [[0, 1]])]
        for args in bad:
            with pytest.raises((ValueError, IndexError)):
                call(*args)
        if kernel == "block_scan":
            with pytest.raises(IndexError, match=re.escape(BAD_START)):
                call(net, y, [0, 3])
            # An edge of infinite weight leaves node 0 unbounded on both
            # sides in node 1's network.
            with pytest.raises(ValueError, match=UNBOUNDED):
                kernels.block_scan(net, np.array([math.inf, 0.5]), 0.5, np.array([1]))
        # A network without edges is not malformed.
        out = call(Graph(1, ()).edge_network.layout, np.zeros(0), [0])
        if kernel == "block_scan":
            assert out[0].tolist() == [0.0]
        else:
            assert out[0] == 0.0 and out[-1].shape == (0,)
