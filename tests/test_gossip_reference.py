"""Differential test of the bitset gossip against a reference copy of the
list/watermark form it replaced.

The reference keeps each node's rumors as an append-ordered list of
(origin, neighbors) tuples with a `seen` set and a set R of missing
neighbors, and sends the unsent slice of the list over each link.  Both
forms must make the same activations in the same rounds, send the same
origins in every message, and end with the same links, known sets,
iterations, rounds and message counts.
"""

import math

import pytest
from hypothesis import given, settings, strategies as st

from kt1sim.gossipspanner import (
    SpannerError,
    _GossipProtocol,
    _iteration_starts,
    gossip_local_broadcast,
    iteration_cap,
)
from kt1sim.netgraph import Graph, GraphGenSpec, generate_graph
from kt1sim.simengine import (
    CAT_GOSSIP,
    GOSSIP_ACT,
    GOSSIP_RSP,
    ModeConfig,
    NodeContext,
    Protocol,
    _Clock,
    run,
)


class _ReferenceGossip(Protocol):
    """Gossip with list rumor sets and per-link list positions."""

    name = "gossip_reference"

    def __init__(self, n: int):
        self.cap = iteration_cap(n)
        self.starts = _iteration_starts(self.cap)
        self.pending = 0

    def setup(self, node):
        st = node.state
        v = node.self_id
        st["known"] = [(v, node.neighbor_ids)]
        st["seen"] = {v}
        st["R"] = set(node.neighbor_ids)
        st["E"] = []
        st["wm"] = {}
        st["incident"] = set()
        st["last_act"] = None
        st["last_rwork"] = 0
        node.schedule(1, ("iter", 1))
        if st["R"]:
            self.pending += 1

    def _delta(self, node, partner, upto=None):
        st = node.state
        known = st["known"]
        end = len(known) if upto is None else upto
        sent = st["wm"].get(partner, 0)
        if sent >= end:
            return ()
        st["wm"][partner] = end
        return tuple(known[sent:end])

    def _absorb(self, node, src, delta):
        st = node.state
        had_work = bool(st["R"])
        for rumor in delta:
            if rumor[0] not in st["seen"]:
                st["seen"].add(rumor[0])
                st["known"].append(rumor)
                st["R"].discard(rumor[0])
        st["incident"].add(src)
        if had_work and not st["R"]:
            self.pending -= 1

    def step(self, node, rnd):
        st = node.state
        sends = []
        acts_in = []
        pre_round = len(st["known"])
        for src, (kind, delta) in node.inbox:
            self._absorb(node, src, delta)
            if kind == GOSSIP_ACT:
                acts_in.append(src)
        for src in acts_in:
            if st["last_act"] == (src, rnd - 1):
                continue
            sends.append((src, (GOSSIP_RSP, self._delta(node, src, pre_round)),
                          CAT_GOSSIP))
        for action in node.due:
            if action[0] == "iter":
                _, i = action
                if i > self.cap or self.pending == 0:
                    continue
                if st["R"]:
                    st["last_rwork"] = i
                    target = min(st["R"])
                    st["E"].append(target)
                    st["incident"].add(target)
                order = list(range(i, 0, -1)) + list(range(1, i + 1))
                for slot, idx in enumerate(order + order, start=1):
                    if idx <= len(st["E"]):
                        node.schedule(rnd + 2 * (slot - 1), ("sweep", st["E"][idx - 1]))
                if i + 1 <= self.cap:
                    node.schedule(self.starts[i + 1], ("iter", i + 1))
            else:
                _, partner = action
                st["last_act"] = (partner, rnd)
                sends.append((partner, (GOSSIP_ACT, self._delta(node, partner)),
                              CAT_GOSSIP))
        return sends, False


def _assert_same_run(g: Graph) -> None:
    ref = _ReferenceGossip(g.n)
    want = run(g, ref, ModeConfig(gossip_mode=True, allow_quiescence=True,
                                  record_trace=True, max_rounds=ref.starts[-1] + 2))
    got = gossip_local_broadcast(g, record_trace=True)
    ids = sorted(g.nodes)

    assert len(got.raw.trace) == len(want.trace)
    for a, b in zip(want.trace, got.raw.trace):
        assert (a.round_no, a.src, a.dst, a.category, a.payload[0]) == \
            (b.round_no, b.src, b.dst, b.category, b.payload[0])
        mask = b.payload[1]
        assert {r[0] for r in a.payload[1]} == \
            {ids[i] for i in range(mask.bit_length()) if mask >> i & 1}

    states = {v: want.contexts[v].state for v in g.nodes}
    assert got.activated == {v: tuple(s["E"]) for v, s in states.items()}
    assert got.incident == {v: tuple(sorted(s["incident"])) for v, s in states.items()}
    assert {v: set(k) for v, k in got.known.items()} == \
        {v: set(s["known"]) for v, s in states.items()}
    assert got.iterations == max(s["last_rwork"] for s in states.values())
    assert got.complete == (not any(s["R"] for s in states.values()))
    assert got.metrics.rounds == want.metrics.rounds
    assert got.metrics.messages_by_category == want.metrics.messages_by_category


@settings(max_examples=25, deadline=None)
@given(family=st.sampled_from(["erdos_renyi", "grid", "balanced_binary_tree", "cycle"]),
       n=st.integers(3, 40), seed=st.integers(0, 10**6))
def test_bitset_gossip_matches_list_reference(family, n, seed):
    p = min(1.0, 3 * math.log(n) / n + 0.05) if family == "erdos_renyi" else None
    g = generate_graph(GraphGenSpec(family=family, n=n, seed=seed, p=p,
                                    id_scheme="random_permutation"))
    _assert_same_run(g)


def test_bitset_gossip_matches_list_reference_on_fixed_shapes():
    for family, n in (("star", 9), ("complete", 10), ("path", 2), ("path", 1)):
        _assert_same_run(generate_graph(GraphGenSpec(family=family, n=n)))


def test_known_is_ascending_and_shared():
    g = generate_graph(GraphGenSpec(family="erdos_renyi", n=30, p=0.2, seed=4,
                                    id_scheme="random_permutation"))
    res = gossip_local_broadcast(g)
    first = res.known[min(g.nodes)]
    assert [r[0] for r in first] == sorted(g.nodes)
    assert all(k is first for k in res.known.values())


def test_setup_out_of_id_order_raises():
    proto = _GossipProtocol(3)
    clock = _Clock()
    proto.setup(NodeContext(5, (7,), 0, clock))
    with pytest.raises(SpannerError):
        proto.setup(NodeContext(2, (7,), 0, clock))
