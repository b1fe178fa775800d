"""Tests for gossip local broadcast, spanner extraction, and the
spanner-based deterministic BFS / election / global-solve pipeline."""

import dataclasses
import json
import math

import pytest
from hypothesis import given, settings, strategies as st

from kt1sim import gossipspanner
from kt1sim.clustercomm import ClusterError, RootedTree
from kt1sim.gossipspanner import (
    SpannerError,
    deterministic_bfs,
    deterministic_leader_election,
    det_bfs_to_json,
    det_election_to_json,
    extract_spanner,
    gossip_local_broadcast,
    iteration_cap,
    solve_global,
    spanner_stretch_violations,
    _kruskal_mst,
)
from kt1sim.netgraph import (
    Graph,
    GraphGenSpec,
    canonical_edge,
    generate_graph,
    oracle_bfs,
)
from kt1sim.simengine import gossip_check


def make_graph(family, n, seed=0, p=None, id_scheme="sequential"):
    return generate_graph(
        GraphGenSpec(family=family, n=n, seed=seed, p=p, id_scheme=id_scheme)
    )


def build_spanner(g):
    return extract_spanner(g, gossip_local_broadcast(g))


# ---------------------------------------------------------------------------
# gossip rounds


def test_single_edge_one_iteration():
    g = make_graph("path", 2)
    res = gossip_local_broadcast(g, record_trace=True)
    assert res.complete and not res.cap_violated
    assert res.iterations == 1
    assert res.activated == {1: (2,), 2: (1,)}
    assert gossip_check(res.raw.trace).ok
    # regression: four mutual-activation sweep slots, two messages each
    assert res.metrics.messages_total == 8


def test_triangle_terminates_fast():
    g = make_graph("cycle", 3)
    res = gossip_local_broadcast(g)
    assert res.complete
    assert res.iterations <= 2
    assert res.metrics.messages_total == 16  # regression


def test_star_center_drains():
    g = make_graph("star", 9)
    res = gossip_local_broadcast(g)
    assert res.complete and res.iterations == 1
    # every leaf holds the center's rumor
    center_rumor = next(r for r in res.known[1] if r[0] == 1)
    for leaf in range(2, 10):
        assert center_rumor in res.known[leaf]
    sp = extract_spanner(g, res)
    assert sp.edges == frozenset(canonical_edge(1, v) for v in range(2, 10))


def test_one_local_completeness():
    g = make_graph("erdos_renyi", 64, seed=5, p=0.1, id_scheme="random_permutation")
    res = gossip_local_broadcast(g, record_trace=True)
    assert res.complete
    assert gossip_check(res.raw.trace).ok
    for v in g.nodes:
        origins = {r[0] for r in res.known[v]}
        assert set(g.neighbors(v)) <= origins
        # rumor payloads are faithful neighbor lists
        for origin, nbrs in res.known[v]:
            assert nbrs == g.neighbors(origin)


def test_iteration_cap_formula_and_respecting():
    assert iteration_cap(2) == 4 * 1 + 4
    assert iteration_cap(1024) == 4 * 10 + 4
    for fam, n, p in (("cycle", 17, None), ("grid", 49, None),
                      ("erdos_renyi", 80, 0.08), ("complete", 12, None)):
        g = make_graph(fam, n, p=p)
        res = gossip_local_broadcast(g)
        assert res.complete
        assert res.iterations <= iteration_cap(g.n)


def test_gossip_deterministic():
    g = make_graph("erdos_renyi", 50, seed=7, p=0.12)
    a = gossip_local_broadcast(g)
    b = gossip_local_broadcast(g)
    assert a.activated == b.activated
    assert a.known == b.known
    assert a.metrics.messages_total == b.metrics.messages_total
    assert a.rounds == b.rounds


# ---------------------------------------------------------------------------
# spanner extraction


def test_path_spanner_keeps_every_edge():
    g = make_graph("path", 8)
    sp = build_spanner(g)
    assert sorted(sp.edges) == sorted(g.edges())


def test_k8_spanner_sparse_with_bounded_stretch():
    g = make_graph("complete", 8)
    res = gossip_local_broadcast(g)
    sp = extract_spanner(g, res)
    assert sp.size <= 8 * max(res.iterations, 1)
    assert spanner_stretch_violations(g, sp) == []


def test_spanner_as_graph_connected():
    g = make_graph("erdos_renyi", 96, seed=2, p=0.07)
    sp = build_spanner(g)
    h = sp.as_graph(g.nodes)  # Graph() itself asserts connectivity
    assert set(h.nodes) == set(g.nodes)
    assert all(g.has_edge(u, w) for u, w in sp.edges)


def test_extract_rejects_incomplete():
    g = make_graph("path", 4)
    res = dataclasses.replace(gossip_local_broadcast(g), complete=False)
    with pytest.raises(SpannerError):
        extract_spanner(g, res)


def test_extract_rejects_non_edge_activation():
    g = make_graph("path", 3)
    res = gossip_local_broadcast(g)
    bad = dict(res.activated)
    bad[1] = (3,)  # nodes 1 and 3 are not adjacent on the path
    with pytest.raises(SpannerError):
        extract_spanner(g, dataclasses.replace(res, activated=bad))


def test_extract_rejects_disconnected_union():
    g = make_graph("path", 4)
    res = gossip_local_broadcast(g)
    empty = {v: () for v in g.nodes}
    with pytest.raises(SpannerError):
        extract_spanner(g, dataclasses.replace(res, activated=empty))


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 10**6))
def test_spanner_invariants_random(seed):
    g = make_graph("erdos_renyi", 40, seed=seed % 30, p=0.15,
                   id_scheme="random_permutation")
    res = gossip_local_broadcast(g)
    assert res.complete and res.iterations <= iteration_cap(g.n)
    sp = extract_spanner(g, res)
    assert sp.size <= g.n * max(res.iterations, 1)
    assert spanner_stretch_violations(g, sp) == []


# ---------------------------------------------------------------------------
# deterministic BFS on the spanner


def test_path_bfs_from_end():
    g = make_graph("path", 6)
    res = deterministic_bfs(g, 1)
    assert res.tree.layer == {v: v - 1 for v in g.nodes}


def test_k4_bfs_star_shape_and_counts():
    g = make_graph("complete", 4)
    res = deterministic_bfs(g, 1)
    assert res.tree.parent == {2: 1, 3: 1, 4: 1}
    cats = res.metrics.messages_by_category
    # flood touches each spanner edge twice; convergecast and broadcast
    # each cross every non-root once
    assert cats["exploration"] == 2 * res.spanner.size
    assert cats["cluster_tree"] == 2 * (g.n - 1)


def test_grid_corner_layers_match_oracle():
    g = make_graph("grid", 64)
    root = min(g.nodes)
    res = deterministic_bfs(g, root)
    assert res.tree.layer == oracle_bfs(g, root).dist


def test_bfs_reuses_given_spanner():
    g = make_graph("erdos_renyi", 60, seed=9, p=0.1)
    sp = build_spanner(g)
    res = deterministic_bfs(g, min(g.nodes), spanner=sp)
    assert res.spanner is sp
    assert res.gossip is None  # metrics exclude the gossip phase
    assert res.metrics.messages_by_category["gossip"] == 0
    assert res.tree.layer == oracle_bfs(g, min(g.nodes)).dist


def test_explicit_gossip_is_reused(monkeypatch):
    g = make_graph("erdos_renyi", 40, seed=3, p=0.15)
    go = gossip_local_broadcast(g)

    def no_second_gossip(*args, **kwargs):
        raise AssertionError("gossip ran again although a result was given")

    monkeypatch.setattr(gossipspanner, "gossip_local_broadcast", no_second_gossip)
    bfs = deterministic_bfs(g, min(g.nodes), gossip=go)
    le = deterministic_leader_election(g, gossip=go)
    for res in (bfs, le):
        assert res.gossip is go
        assert res.spanner.edges == extract_spanner(g, go).edges
        assert res.metrics.messages_by_category["gossip"] == go.metrics.messages_total
    assert bfs.tree.layer == oracle_bfs(g, min(g.nodes)).dist
    assert le.unanimous


def test_bfs_bad_root():
    with pytest.raises(SpannerError):
        deterministic_bfs(make_graph("path", 3), 44)


@settings(max_examples=8, deadline=None)
@given(seed=st.integers(0, 10**6), rootpick=st.integers(0, 10**6))
def test_det_bfs_exact_property(seed, rootpick):
    g = make_graph("erdos_renyi", 36, seed=seed % 25, p=0.16,
                   id_scheme="random_permutation")
    nodes = sorted(g.nodes)
    root = nodes[rootpick % len(nodes)]
    res = deterministic_bfs(g, root)
    assert res.tree.layer == oracle_bfs(g, root).dist


# ---------------------------------------------------------------------------
# deterministic leader election


def test_election_small_path_ids():
    g = Graph.from_edges([4, 9, 2], [(4, 9), (9, 2)])
    res = deterministic_leader_election(g)
    assert res.leader == 9 and res.unanimous
    assert set(res.leader_at.values()) == {9}


def test_election_single_node():
    res = deterministic_leader_election(make_graph("path", 1))
    assert res.leader == 1 and res.unanimous


def test_election_er512_budget():
    g = make_graph("erdos_renyi", 512, seed=4, p=0.03, id_scheme="random_permutation")
    sp = build_spanner(g)
    res = deterministic_leader_election(g, spanner=sp)
    assert res.unanimous and res.leader == max(g.nodes)
    budget = 4 * sp.size * math.ceil(math.log2(g.n))
    assert res.metrics.messages_total <= budget


def test_election_grid_unanimous():
    g = make_graph("grid", 49, seed=3, id_scheme="random_permutation")
    res = deterministic_leader_election(g)
    assert res.unanimous and res.leader == max(g.nodes)


# ---------------------------------------------------------------------------
# global solve over a BFS tree


def test_triangle_mst_forced_by_lex_rule():
    g = make_graph("cycle", 3)
    tree = deterministic_bfs(g, 1).tree
    res = solve_global(g, tree, "mst")
    assert res.solution == ((1, 2), (1, 3))
    assert res.metrics.messages_total == 4  # two up, two down
    assert res.rounds == 2


def test_tree_graph_mst_is_itself():
    g = make_graph("star", 7)
    tree = deterministic_bfs(g, 1).tree
    res = solve_global(g, tree, "mst")
    assert sorted(res.solution) == sorted(g.edges())


def test_grid_mst_matches_networkx():
    from kt1sim.harness import oracle_mst
    g = make_graph("grid", 64, seed=1, id_scheme="random_permutation")
    tree = deterministic_bfs(g, min(g.nodes)).tree
    res = solve_global(g, tree, "mst")
    assert sorted(canonical_edge(*e) for e in res.solution) == list(oracle_mst(g))
    n = g.n
    assert res.metrics.messages_total <= 2 * (n - 1)
    assert res.rounds <= 2 * tree.depth


def test_topology_dump():
    g = make_graph("path", 4)
    tree = deterministic_bfs(g, 2).tree
    res = solve_global(g, tree, "topology")
    assert res.solution == ((1, 2), (2, 3), (3, 4))
    assert res.per_node[4] == {"incident": ((3, 4),), "total": 3}
    for v in g.nodes:
        assert res.per_node[v]["total"] == 3


def test_unknown_problem_rejected(monkeypatch):
    g = make_graph("path", 3)
    tree = deterministic_bfs(g, 1).tree
    engine_runs = []
    monkeypatch.setattr(gossipspanner, "run", lambda *a, **k: engine_runs.append(a))
    with pytest.raises(SpannerError):
        solve_global(g, tree, "chromatic")
    assert engine_runs == []


def test_non_spanning_tree_rejected(monkeypatch):
    g = make_graph("path", 3)
    engine_runs = []
    monkeypatch.setattr(gossipspanner, "run", lambda *a, **k: engine_runs.append(a))
    with pytest.raises(ClusterError):
        solve_global(g, RootedTree.from_parent_map(1, {2: 1}))
    assert engine_runs == []


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 10**6))
def test_kruskal_agrees_with_networkx(seed):
    from kt1sim.harness import oracle_mst
    g = make_graph("erdos_renyi", 32, seed=seed % 60, p=0.18,
                   id_scheme="random_permutation")
    ours = sorted(canonical_edge(*e) for e in _kruskal_mst(g.nodes, g.edges()))
    assert ours == list(oracle_mst(g))


# ---------------------------------------------------------------------------
# serialization


def test_det_bfs_json():
    g = make_graph("path", 3)
    blob = json.loads(det_bfs_to_json(deterministic_bfs(g, 1)))
    assert blob["root"] == 1
    assert blob["layers"] == {"1": 0, "2": 1, "3": 2}


def test_det_election_json():
    g = make_graph("star", 5)
    blob = json.loads(det_election_to_json(deterministic_leader_election(g)))
    assert blob["leader"] == 5 and blob["unanimous"] is True
    assert blob["spanner_edges"] == 4
