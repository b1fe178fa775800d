from __future__ import annotations

from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kt1sim.clustercomm import (
    ClusterError,
    ClusterState,
    ExplorationProtocol,
    TreeWaveProtocol,
    tree_children,
)
from kt1sim.gossipspanner import solve_global
from kt1sim.harness import oracle_mst
from kt1sim.netgraph import (
    GraphGenSpec,
    er_connectivity_safe_p,
    generate_graph,
    oracle_ball,
    oracle_bfs,
)
from kt1sim.simengine import ModeConfig, run

from support import tree_from_parent_map


def _graph(family, n, **kw):
    return generate_graph(GraphGenSpec(family=family, n=n, **kw))


# --- RootedTree ------------------------------------------------------------

def test_from_parent_map_depths():
    t = tree_from_parent_map(1, {2: 1, 3: 2, 4: 2})
    assert t.depth == 2
    assert t.layer == {1: 0, 2: 1, 3: 2, 4: 2}
    assert t.members == frozenset({1, 2, 3, 4})
    assert tree_children(t.root, t.parent)[2] == [3, 4]


def test_from_parent_map_rejects_cycle():
    with pytest.raises(ClusterError):
        tree_from_parent_map(1, {2: 3, 3: 2})


def test_from_parent_map_rejects_rooted_root():
    with pytest.raises(ClusterError):
        tree_from_parent_map(1, {1: 2, 2: 1})


def test_validate_needs_graph_edges():
    g = _graph("path", 4)
    bad = tree_from_parent_map(1, {3: 1})
    with pytest.raises(ClusterError):
        bad.validate(g)


def test_cluster_tree_validates_but_does_not_span():
    g = _graph("path", 4)
    t = tree_from_parent_map(1, {2: 1, 3: 2})
    t.validate(g)
    with pytest.raises(ClusterError, match="span"):
        t.validate_spanning(g)
    tree_from_parent_map(1, {2: 1, 3: 2, 4: 3}).validate_spanning(g)


# --- tree wave -------------------------------------------------------------

class _SumWave(TreeWaveProtocol):
    """Counts the members: every node gathers 1 and the root's sum is n."""

    def gather(self, node):
        return 1

    def combine(self, value, child_value):
        return value + child_value


def _wave_with_exact_costs(g, proto, depth):
    """Run one wave over a spanning tree of g: n-1 "up" and n-1 "dn"
    messages, all cluster-tree traffic, in 2*depth+1 rounds."""
    res = run(g, proto, ModeConfig(record_trace=True))
    tags = Counter((e.payload[0], e.category) for e in res.trace)
    assert tags == Counter({("up", "cluster_tree"): g.n - 1, ("dn", "cluster_tree"): g.n - 1})
    assert res.metrics.rounds == 2 * depth + 1
    return res


@settings(max_examples=30, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=48),
    seed=st.integers(min_value=0, max_value=10_000),
    rootpick=st.integers(min_value=0, max_value=10_000),
)
def test_tree_wave_costs_exact(n, seed, rootpick):
    """Every tree wave costs exactly n-1 messages per direction and
    2*depth+1 rounds, on the BFS tree of a random connected graph from a
    random root."""
    g = _graph("erdos_renyi", n, p=er_connectivity_safe_p(n), seed=seed,
               id_scheme="random_permutation")
    nodes = sorted(g.nodes)
    root = nodes[rootpick % len(nodes)]
    dist = oracle_bfs(g, root).dist
    parent = {v: min(u for u in g.adjacency[v] if dist[u] == dist[v] - 1)
              for v in g.nodes if v != root}
    tree = tree_from_parent_map(root, parent)
    depth = tree.depth

    res = _wave_with_exact_costs(g, _SumWave(root, parent), depth)
    assert all(res.outputs[v] == n for v in g.nodes)
    res = _wave_with_exact_costs(g, TreeWaveProtocol(root, parent), depth)
    topology = sorted((v, g.adjacency[v]) for v in g.nodes)
    assert all(sorted(res.outputs[v]) == topology for v in g.nodes)

    r = solve_global(g, tree, "mst")
    assert (r.metrics.messages_total, r.metrics.rounds) == (2 * (n - 1), 2 * depth + 1)
    assert r.solution == oracle_mst(g)


# --- the two halves of one wave: broadcast down, convergecast up ------------

class _FoldWave(TreeWaveProtocol):
    """Gathers own[v], folds the children's values in with op, broadcasts
    the root's value, and records the round in which the root solves."""

    def __init__(self, root, parent, own, op):
        super().__init__(root, parent)
        self.own = own
        self.op = op
        self.solved_at = None

    def gather(self, node):
        return self.own[node.self_id]

    def combine(self, value, child_value):
        return self.op(value, child_value)

    def step(self, node, rnd):
        sends, halted = super().step(node, rnd)
        if halted and node.self_id == self.root:
            self.solved_at = rnd
        return sends, halted


def _halves(g, tree, own, op):
    """Run one _FoldWave over tree; returns (root value, per-node outputs,
    {"up"|"dn": (messages, rounds)}, Counter of (tag, category))."""
    proto = _FoldWave(tree.root, tree.parent, own, op)
    res = run(g, proto, ModeConfig(record_trace=True))
    tags = Counter(e.payload[0] for e in res.trace)
    halves = {"up": (tags["up"], proto.solved_at),
              "dn": (tags["dn"], res.metrics.rounds - proto.solved_at + 1)}
    cats = Counter((e.payload[0], e.category) for e in res.trace)
    return res.outputs[tree.root], res.outputs, halves, cats


def _keep_first(a, b):
    return a


def _broadcast(g, tree, payload):
    own = {v: payload if v == tree.root else None for v in tree.members}
    return _halves(g, tree, own, _keep_first)


def test_broadcast_singleton():
    g = _graph("path", 1)
    t = tree_from_parent_map(1, {})
    _, outputs, halves, _ = _broadcast(g, t, "hello")
    assert halves["dn"] == (0, 1)
    assert outputs == {1: "hello"}


def test_broadcast_path4_three_rounds_three_messages():
    g = _graph("path", 4)
    t = tree_from_parent_map(1, {2: 1, 3: 2, 4: 3})
    _, outputs, halves, _ = _broadcast(g, t, ("payload",))
    # the root sends in its solve round; the fourth round delivers to node 4
    assert halves["dn"] == (3, 4)
    assert all(v == ("payload",) for v in outputs.values())


def test_broadcast_star5_one_round_four_messages():
    g = _graph("star", 5)
    t = tree_from_parent_map(1, {v: 1 for v in (2, 3, 4, 5)})
    _, outputs, halves, _ = _broadcast(g, t, 7)
    assert halves["dn"] == (4, 2)
    assert set(outputs.values()) == {7}


def test_broadcast_messages_by_category():
    g = _graph("star", 5)
    t = tree_from_parent_map(1, {v: 1 for v in (2, 3, 4, 5)})
    _, _, _, cats = _broadcast(g, t, 7)
    assert cats[("dn", "cluster_tree")] == 4
    assert sum(k for (tag, _), k in cats.items() if tag == "dn") == 4


def test_convergecast_singleton():
    g = _graph("path", 1)
    t = tree_from_parent_map(1, {})
    value, _, halves, _ = _halves(g, t, {1: {1}}, lambda a, b: a | b)
    assert value == {1} and halves["up"] == (0, 1)


def test_convergecast_path4_union():
    g = _graph("path", 4)
    t = tree_from_parent_map(1, {2: 1, 3: 2, 4: 3})
    value, _, halves, _ = _halves(g, t, {v: {v} for v in t.members}, lambda a, b: a | b)
    assert value == {1, 2, 3, 4}
    assert halves["up"] == (3, 4)


def test_convergecast_balanced_binary_7():
    g = _graph("balanced_binary_tree", 7)
    t = tree_from_parent_map(1, {2: 1, 3: 1, 4: 2, 5: 2, 6: 3, 7: 3})
    value, _, halves, _ = _halves(g, t, {v: 1 for v in t.members}, lambda a, b: a + b)
    assert value == 7
    assert halves["up"] == (6, 3)


# --- exploration ledger ------------------------------------------------------

def _lexicographic_choice(members, nbr_of):
    """The inside endpoint of the lexicographically first (min, max) edge
    to every outside neighbor of members."""
    best = {}
    for u in members:
        for w in nbr_of[u]:
            if w in members:
                continue
            key = (min(u, w), max(u, w))
            if w not in best or key < best[w][0]:
                best[w] = (key, u)
    return {w: u for w, (_, u) in best.items()}


@settings(max_examples=25, deadline=None)
@given(n=st.integers(min_value=2, max_value=40),
       seed=st.integers(min_value=0, max_value=10_000),
       data=st.data())
def test_least_id_edge_is_lexicographically_first(n, seed, data):
    """The exploration ledger, grown layer by layer from a root, reaches
    each outside node from the inside endpoint of its lexicographically
    first edge."""
    g = _graph("erdos_renyi", n, p=er_connectivity_safe_p(n), seed=seed,
               id_scheme="random_permutation")
    root = data.draw(st.sampled_from(list(g.nodes)))
    cs = ClusterState(root, g.adjacency[root], h=n)
    j = 1
    while cs.best:
        assign = cs.assignments()
        want = _lexicographic_choice(cs.members, g.adjacency)
        assert {w: u for u, ws in assign.items() for w in ws} == want
        cs.register_joins(assign, j)
        cs.absorb_reports([(w, g.adjacency[w]) for ws in assign.values() for w in ws])
        j += 1
    assert cs.members.keys() == set(g.nodes)


# --- the least-id rule on the exploration ledger ---------------------------

def test_oes_singleton_in_triangle():
    cs = ClusterState(1, (2, 3), h=1)
    assert cs.assignments() == {1: [2, 3]}
    assert cs.best.keys() == {2, 3}


def test_oes_pair_on_path():
    cs = ClusterState(1, (2,), h=2)
    cs.register_joins(cs.assignments(), 1)
    cs.absorb_reports([(2, (1, 3))])
    assert cs.assignments() == {2: [3]}


def test_oes_lexicographic_pick():
    # boundary node 9 reachable from members 5 (the root) and 2: (2,9) < (5,9).
    cs = ClusterState(5, (2, 9), h=2)
    assert cs.assignments() == {5: [2, 9]}
    cs.register_joins({5: [2]}, 1)
    cs.absorb_reports([(2, (5, 9))])
    assert cs.assignments() == {2: [9]}


def test_oes_one_edge_per_boundary_node():
    g = _graph("erdos_renyi", 40, p=0.15, seed=6)
    root = min(g.nodes)
    cs = ClusterState(root, g.adjacency[root], h=2)
    for j in (1, 2):
        assign = cs.assignments()
        cs.register_joins(assign, j)
        cs.absorb_reports([(w, g.adjacency[w]) for ws in assign.values() for w in ws])
    members = set(cs.members)
    assert members == oracle_ball(g, root, 2)
    assign = cs.assignments()
    outs = [w for ws in assign.values() for w in ws]
    assert len(outs) == len(set(outs)) == len(cs.best)
    assert set(outs) == {w for u in members for w in g.adjacency[u]} - members
    for u, ws in assign.items():
        for w in ws:
            assert u in members and w not in members and g.has_edge(u, w)


# --- exploration -------------------------------------------------------------

class _Ball(ExplorationProtocol):
    """One cluster of depth at most h, grown from root from round 1 on."""

    def __init__(self, root, h):
        self.root = root
        self.h = h

    def setup(self, node):
        super().setup(node)
        if node.self_id == self.root:
            node.schedule(1, ("start",))

    def run_action(self, node, rnd, action):
        if action == ("start",):
            return self.activate_cluster(node, rnd, self.h)
        return super().run_action(node, rnd, action)


def _explore(g, root, h):
    """The tree an exploration of depth h from root grows, and its run.
    Every member's own record in node.known (its parent and depth, and its
    children) agrees with the root's ledger, kept in the root's node.known;
    no other node roots a cluster, and a node outside records nothing."""
    res = run(g, _Ball(root, h), ModeConfig(allow_quiescence=True))
    tree = res.contexts[root].known["cluster"].tree()
    children = tree_children(root, tree.parent)
    for v in g.nodes:
        known = res.contexts[v].known
        assert (known["cluster"] is not None) == (v == root)
        if v not in tree.members:
            assert known["mem"] == {} and known["kids"] == {}
            continue
        if v == root:
            assert known["mem"] == {root: (None, 0)}
        else:
            assert known["mem"] == {root: (tree.parent[v], tree.layer[v])}
        assert list(known["kids"].get(root, ())) == children[v]
    return tree, res


def _exploration_rounds(depth):
    """Window j runs from the root's turn to its next one: j+1 rounds to
    the join, 2 to the report, j hops back up; round 1 is the first turn."""
    return 1 + sum(2 * j + 4 for j in range(1, depth + 1))


def test_exploration_single_node():
    g = _graph("path", 1)
    tree, res = _explore(g, 1, 1)
    assert tree.members == frozenset({1})
    assert res.metrics.messages_total == 0 and res.metrics.rounds == 1


def test_exploration_path5_h2():
    g = _graph("path", 5)
    tree, res = _explore(g, 1, 2)
    assert tree.members == frozenset({1, 2, 3})
    assert tree.layer == {1: 0, 2: 1, 3: 2}
    # two joins; reports 2->1 and 3->2->1; one route 1->2 for window 2
    cats = res.metrics.messages_by_category
    assert (cats["exploration"], cats["cluster_tree"], res.metrics.messages_total) == (2, 4, 6)
    assert res.metrics.rounds == _exploration_rounds(2) == 15


def test_exploration_k4_h1():
    g = _graph("complete", 4)
    tree, res = _explore(g, 1, 1)
    assert tree.members == frozenset({1, 2, 3, 4})
    assert all(tree.layer[v] == 1 and tree.parent[v] == 1 for v in (2, 3, 4))
    cats = res.metrics.messages_by_category
    assert (cats["exploration"], cats["cluster_tree"], res.metrics.messages_total) == (3, 3, 6)
    assert res.metrics.rounds == _exploration_rounds(1) == 7


@settings(max_examples=25, deadline=None)
@given(
    n=st.integers(min_value=2, max_value=48),
    seed=st.integers(min_value=0, max_value=10_000),
    h=st.integers(min_value=1, max_value=4),
)
def test_exploration_matches_truncated_oracle(n, seed, h):
    g = _graph("erdos_renyi", n, p=er_connectivity_safe_p(n), seed=seed,
               id_scheme="random_permutation")
    root = min(g.nodes)
    tree, res = _explore(g, root, h)
    dist = oracle_bfs(g, root).dist
    assert tree.members == oracle_ball(g, root, h)
    for v in tree.members:
        assert tree.layer[v] == dist[v]
    for w, p in tree.parent.items():
        assert p == min(u for u in g.adjacency[w] if dist[u] == dist[w] - 1)
    # one exploration message per joining node, and the declared budgets
    c = len(tree.members)
    assert res.metrics.messages_by_category["exploration"] == c - 1
    assert res.metrics.messages_total <= 4 * c * h
    assert res.metrics.rounds == _exploration_rounds(tree.depth)
