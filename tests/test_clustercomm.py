from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kt1sim.clustercomm import (
    ClusterError,
    ClusterState,
    RootedTree,
    bfs_exploration,
    broadcast,
    compute_augmented_tree,
    convergecast,
    minimal_outgoing_edge_set,
)
from kt1sim.gossipspanner import solve_global
from kt1sim.netgraph import (
    Graph,
    GraphGenSpec,
    er_connectivity_safe_p,
    generate_graph,
    oracle_ball,
    oracle_bfs,
)


def _graph(family, n, **kw):
    return generate_graph(GraphGenSpec(family=family, n=n, **kw))


def _path_tree(g, members, root):
    """Chain tree along a path graph restricted to members."""
    order = sorted(members)
    parent = {}
    by_dist = sorted(members, key=lambda v: oracle_bfs(g, root).dist[v])
    for v in by_dist[1:]:
        cands = [u for u in g.adjacency[v] if u in members
                 and oracle_bfs(g, root).dist[u] == oracle_bfs(g, root).dist[v] - 1]
        parent[v] = min(cands)
    return RootedTree.from_parent_map(root, parent)


# --- RootedTree ------------------------------------------------------------

def test_from_parent_map_depths():
    t = RootedTree.from_parent_map(1, {2: 1, 3: 2, 4: 2})
    assert t.depth == 2
    assert t.layer == {1: 0, 2: 1, 3: 2, 4: 2}
    assert t.members == frozenset({1, 2, 3, 4})
    assert t.children()[2] == [3, 4]


def test_from_parent_map_rejects_cycle():
    with pytest.raises(ClusterError):
        RootedTree.from_parent_map(1, {2: 3, 3: 2})


def test_from_parent_map_rejects_rooted_root():
    with pytest.raises(ClusterError):
        RootedTree.from_parent_map(1, {1: 2, 2: 1})


def test_validate_needs_graph_edges():
    g = _graph("path", 4)
    bad = RootedTree.from_parent_map(1, {3: 1})
    with pytest.raises(ClusterError):
        bad.validate(g)


def test_cluster_tree_validates_but_does_not_span():
    g = _graph("path", 4)
    t = RootedTree.from_parent_map(1, {2: 1, 3: 2})
    t.validate(g)
    with pytest.raises(ClusterError, match="span"):
        t.validate_spanning(g)
    RootedTree.from_parent_map(1, {2: 1, 3: 2, 4: 3}).validate_spanning(g)


# --- broadcast / convergecast ---------------------------------------------

def test_broadcast_singleton():
    g = _graph("path", 1)
    t = RootedTree.from_parent_map(1, {})
    r = broadcast(g, t, "hello")
    assert r.metrics.rounds == 1 and r.metrics.messages_total == 0
    assert r.delivered == {1: "hello"}


def test_broadcast_path4_three_rounds_three_messages():
    g = _graph("path", 4)
    t = RootedTree.from_parent_map(1, {2: 1, 3: 2, 4: 3})
    r = broadcast(g, t, ("payload",))
    assert r.metrics.rounds == 4  # the fourth round delivers to node 4
    assert r.metrics.messages_total == 3
    assert all(v == ("payload",) for v in r.delivered.values())


def test_broadcast_star5_one_round_four_messages():
    g = _graph("star", 5)
    t = RootedTree.from_parent_map(1, {v: 1 for v in (2, 3, 4, 5)})
    r = broadcast(g, t, 7)
    assert r.metrics.rounds == 2 and r.metrics.messages_total == 4


def test_broadcast_messages_by_category():
    g = _graph("star", 5)
    t = RootedTree.from_parent_map(1, {v: 1 for v in (2, 3, 4, 5)})
    r = broadcast(g, t, 7)
    assert r.metrics.messages_by_category["cluster_tree"] == 4


def test_convergecast_singleton():
    g = _graph("path", 1)
    t = RootedTree.from_parent_map(1, {})
    r = convergecast(g, t, {1: {1}}, lambda a, b: a | b)
    assert r.value == {1} and r.metrics.messages_total == 0


def test_convergecast_path4_union():
    g = _graph("path", 4)
    t = RootedTree.from_parent_map(1, {2: 1, 3: 2, 4: 3})
    r = convergecast(g, t, {v: {v} for v in t.members}, lambda a, b: a | b)
    assert r.value == {1, 2, 3, 4}
    assert r.metrics.rounds == 4 and r.metrics.messages_total == 3


def test_convergecast_balanced_binary_7():
    g = _graph("balanced_binary_tree", 7)
    t = RootedTree.from_parent_map(1, {2: 1, 3: 1, 4: 2, 5: 2, 6: 3, 7: 3})
    r = convergecast(g, t, {v: 1 for v in t.members}, lambda a, b: a + b)
    assert r.value == 7
    assert r.metrics.rounds == 3 and r.metrics.messages_total == 6


def test_convergecast_missing_payload_raises():
    g = _graph("path", 3)
    t = RootedTree.from_parent_map(1, {2: 1, 3: 2})
    with pytest.raises(ClusterError):
        convergecast(g, t, {1: 1, 2: 2}, lambda a, b: a + b)


@settings(max_examples=30, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=48),
    seed=st.integers(min_value=0, max_value=10_000),
    rootpick=st.integers(min_value=0, max_value=10_000),
    h=st.integers(min_value=1, max_value=3),
)
def test_tree_wave_costs_exact(n, seed, rootpick, h):
    """Every tree wave costs exactly what its docstring claims, on the BFS
    tree of a random connected graph from a random root."""
    g = _graph("erdos_renyi", n, p=er_connectivity_safe_p(n), seed=seed,
               id_scheme="random_permutation")
    nodes = sorted(g.nodes)
    root = nodes[rootpick % len(nodes)]
    dist = oracle_bfs(g, root).dist
    parent = {v: min(u for u in g.adjacency[v] if dist[u] == dist[v] - 1)
              for v in g.nodes if v != root}
    tree = RootedTree.from_parent_map(root, parent)
    depth = tree.depth

    r = broadcast(g, tree, "x")
    assert (r.metrics.messages_total, r.metrics.rounds) == (n - 1, depth + 1)
    assert set(r.delivered.values()) == {"x"}
    r = convergecast(g, tree, {v: 1 for v in g.nodes}, lambda a, b: a + b)
    assert (r.metrics.messages_total, r.metrics.rounds) == (n - 1, depth + 1)
    assert r.value == n

    r = solve_global(g, tree, "topology")
    assert (r.metrics.messages_total, r.metrics.rounds) == (2 * (n - 1), 2 * depth + 1)
    assert r.solution == tuple(sorted(g.edges()))

    ball = RootedTree.from_parent_map(
        root, {v: p for v, p in parent.items() if dist[v] <= h})
    boundary = {v for v in g.nodes if dist[v] == h + 1}
    r = compute_augmented_tree(g, ball)
    c = len(ball.members)
    assert r.metrics.messages_total == 2 * (c - 1) + len(boundary)
    # Boundary nodes hang off the deepest layer, so their notifications
    # land one round after the broadcast ends.
    assert r.metrics.rounds == 2 * ball.depth + 1 + (1 if boundary else 0) <= 2 * ball.depth + 2
    assert r.augmented.extension.boundary == boundary
    assert set(r.boundary_notified) == boundary


# --- minimal outgoing edge set --------------------------------------------

def test_oes_singleton_in_triangle():
    nbr = {1: (2, 3), 2: (1, 3), 3: (1, 2)}
    oes = minimal_outgoing_edge_set(frozenset({1}), nbr)
    assert set(oes.edges) == {(1, 2), (1, 3)}
    assert oes.boundary == frozenset({2, 3})


def test_oes_pair_on_path():
    nbr = {1: (2,), 2: (1, 3), 3: (2,)}
    oes = minimal_outgoing_edge_set(frozenset({1, 2}), nbr)
    assert set(oes.edges) == {(2, 3)}


def test_oes_lexicographic_pick():
    # boundary node 9 reachable from members 2 and 5: (2,9) < (5,9).
    nbr = {2: (5, 9), 5: (2, 9), 9: (2, 5)}
    oes = minimal_outgoing_edge_set(frozenset({2, 5}), nbr)
    assert oes.edges == ((2, 9),)


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
    g = _graph("erdos_renyi", n, p=er_connectivity_safe_p(n), seed=seed,
               id_scheme="random_permutation")
    nodes = list(g.nodes)
    members = frozenset(data.draw(st.sets(st.sampled_from(nodes), min_size=1)))
    oes = minimal_outgoing_edge_set(members, g.adjacency)
    want = _lexicographic_choice(members, g.adjacency)
    assert sorted(oes.edges) == sorted((u, w) for w, u in want.items())

    # The exploration ledger, grown layer by layer from a root.
    root = data.draw(st.sampled_from(nodes))
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


def test_oes_one_edge_per_boundary_node():
    g = _graph("erdos_renyi", 40, p=0.15, seed=6)
    members = frozenset(list(g.nodes)[:12])
    nbr = {v: g.adjacency[v] for v in g.nodes}
    oes = minimal_outgoing_edge_set(members, nbr)
    outs = [w for _, w in oes.edges]
    assert len(outs) == len(set(outs)) == len(oes.boundary)
    for u, w in oes.edges:
        assert u in members and w not in members and g.has_edge(u, w)


# --- augmented tree --------------------------------------------------------

def test_augment_singleton_in_triangle():
    g = _graph("complete", 3)
    t = RootedTree.from_parent_map(1, {})
    r = compute_augmented_tree(g, t)
    assert set(r.augmented.extension.edges) == {(1, 2), (1, 3)}
    assert sorted(r.boundary_notified) == [2, 3]
    assert r.metrics.messages_total == 2  # just the two notifications


def test_augment_whole_graph_empty_extension():
    g = _graph("complete", 3)
    t = RootedTree.from_parent_map(1, {2: 1, 3: 1})
    r = compute_augmented_tree(g, t)
    assert r.augmented.extension.edges == ()
    assert r.boundary_notified == {}
    assert r.metrics.messages_total == 4  # convergecast + broadcast only


def test_augment_pair_on_path4():
    g = _graph("path", 4)
    t = RootedTree.from_parent_map(1, {2: 1})
    r = compute_augmented_tree(g, t)
    assert r.augmented.extension.edges == ((2, 3),)
    assert list(r.boundary_notified) == [3]


def test_augment_budget():
    g = _graph("erdos_renyi", 60, p=0.1, seed=4)
    ball = oracle_ball(g, min(g.nodes), 2)
    t = _path_tree(g, ball, min(g.nodes))
    r = compute_augmented_tree(g, t)
    c = len(t.members)
    b = len(r.augmented.extension.boundary)
    assert r.metrics.messages_total <= 2 * (c - 1) + b
    assert r.metrics.rounds <= 2 * t.depth + 2


# --- bfs_exploration -------------------------------------------------------

def test_exploration_rejects_bad_args():
    g = _graph("path", 3)
    with pytest.raises(ClusterError):
        bfs_exploration(g, 1, 0)
    with pytest.raises(ClusterError):
        bfs_exploration(g, 42, 1)


def test_exploration_single_node():
    g = _graph("path", 1)
    r = bfs_exploration(g, 1, 1)
    assert r.tree.members == frozenset({1})
    assert r.metrics.messages_total == 0


def test_exploration_path5_h2():
    g = _graph("path", 5)
    r = bfs_exploration(g, 1, 2)
    assert r.tree.members == frozenset({1, 2, 3})
    assert r.tree.layer == {1: 0, 2: 1, 3: 2}
    assert r.metrics.messages_total == 4
    assert r.metrics.rounds == 11
    assert r.metrics.rounds <= 4 * 2 * 2 + 1


def test_exploration_k4_h1():
    g = _graph("complete", 4)
    r = bfs_exploration(g, 1, 1)
    assert r.tree.members == frozenset({1, 2, 3, 4})
    assert all(r.tree.layer[v] == 1 for v in (2, 3, 4))
    assert all(r.join_receipts[v] == 1 for v in (2, 3, 4))
    assert r.metrics.rounds <= 5


def test_exploration_join_tie_breaks_lexicographically():
    # 4 joins level 1 from both 2 and 3 simultaneously in a diamond; the
    # lexicographically smallest (inside, outside) pair wins.
    g = Graph.from_edges([1, 2, 3, 4], [(1, 2), (1, 3), (2, 4), (3, 4)])
    r = bfs_exploration(g, 1, 2)
    assert r.tree.parent[4] == 2
    assert r.join_receipts[4] == 1


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
    r = bfs_exploration(g, root, h)
    dist = oracle_bfs(g, root).dist
    assert r.tree.members == oracle_ball(g, root, h)
    for v in r.tree.members:
        assert r.tree.layer[v] == dist[v]
    # one-join property and declared budgets
    assert all(c == 1 for c in r.join_receipts.values())
    c = len(r.tree.members)
    assert r.metrics.messages_total <= 4 * c * h
    assert r.metrics.rounds <= 4 * h * h + 1
