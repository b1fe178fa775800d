"""Tests for gossip local broadcast, spanner extraction, and the
spanner-based deterministic BFS / election / global-solve pipeline."""

import dataclasses
import json
import math
import os
import random
import subprocess
import sys
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from kt1sim import gossipspanner
from kt1sim.clustercomm import ClusterError, bfs_tree_to_json
from kt1sim.gossipspanner import (
    Spanner,
    SpannerError,
    deterministic_bfs,
    deterministic_leader_election,
    extract_spanner,
    gossip_local_broadcast,
    iteration_cap,
    solve_global,
    spanner_stretch_violations,
    _kruskal_mst,
)
from kt1sim.netgraph import (
    FAMILIES,
    ID_SCHEMES,
    Graph,
    GraphGenSpec,
    canonical_edge,
    er_connectivity_safe_p,
    generate_graph,
    oracle_bfs,
)
from kt1sim.simengine import ModeConfig, Session, gossip_check, run

from support import tree_from_parent_map


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
    assert res.complete
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
        assert set(g.adjacency[v]) <= origins
        # rumor payloads are faithful neighbor lists
        for origin, nbrs in res.known[v]:
            assert nbrs == g.adjacency[origin]


@pytest.mark.parametrize("family,n,seeds", [
    ("grid", 64, (0, 1)), ("grid", 121, (2,)), ("erdos_renyi", 96, (0, 1, 2)),
    ("erdos_renyi", 128, (3, 4)), ("star", 33, (0, 1)), ("path", 40, (0, 1)),
    ("cycle", 57, (0, 1)), ("complete", 24, (0, 1)),
])
def test_watermarks_stay_inside_the_known_mask(family, n, seeds):
    """Every watermark is a mask its node once held, so it lies inside the
    node's final K (the XOR delta sends only new bits); each rumor crosses
    a link at most once per direction; and a node's partners are its
    watermark keys.  GossipResult.raw holds no node contexts, so the node
    states come from a direct run of the same protocol."""
    for seed in seeds:
        p = er_connectivity_safe_p(n) if family == "erdos_renyi" else None
        g = make_graph(family, n, seed=seed, p=p, id_scheme="random_permutation")
        res = gossip_local_broadcast(g)
        proto = gossipspanner._GossipProtocol(g.n)
        raw = run(g, proto, ModeConfig(gossip_mode=True, allow_quiescence=True,
                                       record_trace=True, max_rounds=proto.starts[-1] + 2))
        sent = {}
        for env in raw.trace:
            link = (env.src, env.dst)
            assert sent.get(link, 0) & env.payload[1] == 0
            sent[link] = sent.get(link, 0) | env.payload[1]
        for v in g.nodes:
            st = raw.contexts[v].state
            K, wm = st["K"], st["wm"]
            for partner, mark in wm.items():
                assert mark & ~K == 0
                # Each delta is the mask minus the link's watermark, so what
                # crossed the link adds up to the last mask sent over it.
                assert sent[v, partner] == mark
            assert res.incident[v] == tuple(sorted(wm))


@pytest.mark.parametrize("family,n", [("erdos_renyi", 96), ("grid", 64)])
def test_gossip_keeps_one_sweep_pending_per_node(family, n):
    """At the start of every round (checked by the round's first step) the
    session's calendar holds at most one sweep per node, and the run is the
    one gossip_local_broadcast makes."""
    p = er_connectivity_safe_p(n) if family == "erdos_renyi" else None
    g = make_graph(family, n, seed=1, p=p, id_scheme="random_permutation")
    session = Session(g)
    most = {"round": 0, "pending": 0}

    class Watched(gossipspanner._GossipProtocol):
        def step(self, node, rnd):
            if rnd != most["round"]:
                most["round"] = rnd
                per_node = Counter(v for bucket in session.clock.cal.values()
                                   for v, acts in bucket.items()
                                   for a in acts if a[0] == "sweep")
                most["pending"] = max(most["pending"], *per_node.values(), 0)
            return super().step(node, rnd)

    proto = Watched(g.n)
    raw = run(session, proto, ModeConfig(gossip_mode=True, allow_quiescence=True,
                                         max_rounds=proto.starts[-1] + 2))
    res = gossip_local_broadcast(g)
    assert most["pending"] == 1
    assert res.metrics == raw.metrics
    assert res.activated == {v: tuple(raw.contexts[v].state["E"]) for v in g.nodes}


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
    assert a.metrics.rounds == b.metrics.rounds


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
    h = Graph.from_edges(g.nodes, sp.edges)  # Graph() itself asserts connectivity
    assert set(h.nodes) == set(g.nodes) and set(h.edges()) == sp.edges
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
    with pytest.raises(SpannerError, match="^spanner splits into 4 components$"):
        extract_spanner(g, dataclasses.replace(res, activated=empty))


@pytest.mark.parametrize("activated, parts", [
    ({1: (2,), 2: (), 3: (4,), 4: ()}, 2),
    ({1: (2,), 2: (1,), 3: (), 4: (3,)}, 2),
    ({1: (2,), 2: (3,), 3: (), 4: ()}, 2),
    ({1: (), 2: (3,), 3: (), 4: ()}, 3),
])
def test_extract_reports_component_count(activated, parts):
    g = make_graph("path", 4)
    res = gossip_local_broadcast(g)
    with pytest.raises(SpannerError) as exc:
        extract_spanner(g, dataclasses.replace(res, activated=activated))
    assert str(exc.value) == f"spanner splits into {parts} components"


def test_extract_accepts_single_node():
    g = make_graph("path", 1)
    assert extract_spanner(g, gossip_local_broadcast(g)).edges == frozenset()


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


def _scipy_stretch_violations(g, spanner, bound):
    """Independent route: H-distances from scipy's all-pairs shortest paths."""
    import numpy as np
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import shortest_path

    limit = bound if bound is not None else 4 * max(spanner.iterations, 1)
    pos = {v: i for i, v in enumerate(g.nodes)}
    rows = [pos[x] for e in spanner.edges for x in e]
    cols = [pos[x] for u, w in spanner.edges for x in (w, u)]
    h = csr_matrix((np.ones(len(rows), dtype=np.int8), (rows, cols)), shape=(g.n, g.n))
    dist = shortest_path(h, unweighted=True, directed=False)
    return sorted((u, w) for u, w in g.edges() if dist[pos[u], pos[w]] > limit)


def _pruned(sp, seed, share):
    rng = random.Random(seed)
    return dataclasses.replace(sp, edges=frozenset(
        e for e in sorted(sp.edges) if rng.random() >= share))


@pytest.mark.parametrize("family,n,seed", [
    ("erdos_renyi", 200, 0), ("erdos_renyi", 300, 1), ("grid", 256, 0)])
def test_stretch_violations_match_scipy(family, n, seed):
    g = make_graph(family, n, seed=seed, id_scheme="random_permutation",
                   p=er_connectivity_safe_p(n) if family == "erdos_renyi" else None)
    sp = build_spanner(g)
    spanners = [sp, _pruned(sp, seed, 0.05), _pruned(sp, seed, 0.3)]
    # The heavily pruned H is disconnected: some edge is stretched beyond n.
    assert _scipy_stretch_violations(g, spanners[2], g.n)
    found = 0
    for h in spanners:
        for bound in (None, 0, 1, 2, 3):
            got = spanner_stretch_violations(g, h, bound)
            assert got == _scipy_stretch_violations(g, h, bound)
            found += len(got)
    assert found > 0


def test_stretch_of_the_edge_a_path_leaves_out_of_a_cycle():
    g = make_graph("cycle", 6)
    path = gossipspanner.Spanner(edges=frozenset(g.edges()) - {(1, 6)}, iterations=1,
                                 incident={})
    assert spanner_stretch_violations(g, path, 4) == [(1, 6)]
    assert spanner_stretch_violations(g, path, 5) == []
    assert spanner_stretch_violations(g, path) == [(1, 6)]  # default bound 4
    assert spanner_stretch_violations(g, path, 0) == g.edges()


def test_stretch_check_rejects_a_negative_bound():
    g = make_graph("path", 3)
    with pytest.raises(SpannerError, match="negative"):
        spanner_stretch_violations(g, build_spanner(g), -1)


def test_stretch_check_rejects_a_spanner_edge_outside_the_graph():
    g = make_graph("path", 3)
    sp = build_spanner(g)
    bad = dataclasses.replace(sp, edges=sp.edges | {(3, 9)})
    with pytest.raises(SpannerError, match="outside the graph"):
        spanner_stretch_violations(g, bad)


def test_spanner_pipelines_load_neither_numpy_nor_scipy():
    code = (
        "import sys\n"
        "from kt1sim import harness\n"
        "for algo in ('spanner_only', 'bfs_spanner', 'le_det', 'global_mst'):\n"
        "    cfg = harness.ExperimentConfig(\n"
        "        graph=harness._graph_spec('erdos_renyi', 100, 0), algo=algo,\n"
        "        trials=1, seeds=(0,))\n"
        "    assert all(t.ok for t in harness.run_experiment(cfg).trials), algo\n"
        "print(sorted(m for m in sys.modules\n"
        "             if m.split('.')[0] in ('numpy', 'scipy')))\n"
    )
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")
    out = subprocess.run([sys.executable, "-c", code], check=True,
                         env=dict(os.environ, PYTHONPATH=src),
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"


# ---------------------------------------------------------------------------
# deterministic BFS on the spanner


def test_path_bfs_from_end():
    g = make_graph("path", 6)
    res = deterministic_bfs(g, 1)
    assert res.tree.layer == {v: v - 1 for v in g.nodes}
    assert res.problem == "bfs"
    assert res.solution == (res.tree.parent, res.tree.layer)


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


@pytest.mark.parametrize("root", [1.0, True, "1"])
def test_bfs_root_must_be_an_int_node_id(root, monkeypatch):
    monkeypatch.setattr(gossipspanner, "run", None)  # no gossip may start
    with pytest.raises(SpannerError, match="is not a node id of g"):
        deterministic_bfs(make_graph("path", 3), root)


def test_bfs_over_a_spanner_that_misses_a_node_names_it():
    sp = Spanner(edges=frozenset({(1, 2)}), iterations=1, incident={1: (2,), 2: (1,)})
    with pytest.raises(SpannerError, match="never reached node 3$"):
        deterministic_bfs(make_graph("path", 3), 1, spanner=sp)


def test_a_node_without_the_solution_fails_the_readback(monkeypatch):
    g = make_graph("path", 4)
    sp = build_spanner(g)
    tree = deterministic_bfs(g, 1, spanner=sp).tree
    real_run = gossipspanner.run

    def node_3_misses_it(graph, proto, cfg=None):
        res = real_run(graph, proto, cfg)
        res.outputs[3] = None
        return res

    monkeypatch.setattr(gossipspanner, "run", node_3_misses_it)
    with pytest.raises(SpannerError, match="node 3 never received the bfs solution"):
        deterministic_bfs(g, 1, spanner=sp)
    with pytest.raises(SpannerError, match="node 3 never received the mst solution"):
        solve_global(g, tree, "mst")


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


def test_election_past_its_phase_table_is_a_spanner_error():
    """Told twice the true n, the candidate never tallies n and runs out
    of phases; the failure names it, its tally and the n it was told."""
    g = make_graph("grid", 64, seed=1)
    proto = gossipspanner._ElectProtocol(build_spanner(g).incident, 2 * g.n)
    with pytest.raises(SpannerError, match=r"^candidate 64 tallied 64 of n=128 nodes "
                                           r"in the last phase, 9$"):
        run(g, proto)


def test_election_reports_what_the_nodes_decided(monkeypatch):
    g = make_graph("path", 5)
    sp = build_spanner(g)
    real_run = gossipspanner.run

    def one_node_picks_3(graph, proto, cfg=None):
        res = real_run(graph, proto, cfg)
        res.outputs[1] = {"leader": 3}
        return res

    monkeypatch.setattr(gossipspanner, "run", one_node_picks_3)
    res = deterministic_leader_election(g, spanner=sp)
    assert res.leader_at[1] == 3 and res.leader_at[2] == 5
    assert res.leader is None
    assert not res.unanimous


# ---------------------------------------------------------------------------
# global solve over a BFS tree


def test_triangle_mst_forced_by_lex_rule():
    g = make_graph("cycle", 3)
    tree = deterministic_bfs(g, 1).tree
    res = solve_global(g, tree, "mst")
    assert res.solution == ((1, 2), (1, 3))
    assert res.metrics.messages_total == 4  # two up, two down
    assert res.metrics.rounds == 3


def test_tree_graph_mst_is_itself():
    g = make_graph("star", 7)
    tree = deterministic_bfs(g, 1).tree
    res = solve_global(g, tree, "mst")
    assert sorted(res.solution) == sorted(g.edges())


def _networkx_mst(g):
    """Independent route: networkx's MST under the (min id, max id) weight."""
    import networkx as nx

    big = max(g.nodes) + 1
    ng = nx.Graph()
    ng.add_nodes_from(g.nodes)
    for u, w in g.edges():
        a, b = canonical_edge(u, w)
        ng.add_edge(a, b, weight=a * big + b)
    tree = nx.minimum_spanning_tree(ng, weight="weight")
    return tuple(sorted(canonical_edge(u, w) for u, w in tree.edges))


def _assert_msts_agree(g):
    from kt1sim.harness import oracle_mst
    want = _networkx_mst(g)
    assert len(want) == g.n - 1
    assert oracle_mst(g) == want
    assert tuple(sorted(_kruskal_mst(g.nodes, g.edges()))) == want


@settings(max_examples=60, deadline=None)
@given(family=st.sampled_from(FAMILIES), n=st.integers(1, 64),
       id_scheme=st.sampled_from(ID_SCHEMES), seed=st.integers(0, 1000))
def test_mst_oracle_matches_networkx_and_kruskal(family, n, id_scheme, seed):
    if family == "cycle":
        n = max(n, 3)
    p = er_connectivity_safe_p(n) if family == "erdos_renyi" else None
    _assert_msts_agree(make_graph(family, n, seed=seed, p=p, id_scheme=id_scheme))


def test_mst_oracle_explicit_cases():
    from kt1sim.harness import oracle_mst
    assert oracle_mst(make_graph("path", 1)) == ()
    assert oracle_mst(make_graph("path", 2)) == ((1, 2),)
    path = make_graph("path", 9, id_scheme="random_permutation", seed=5)
    assert oracle_mst(path) == tuple(sorted(path.edges()))
    # K_n: every node is adjacent to the least id, and those edges are the lightest.
    kn = make_graph("complete", 12, id_scheme="random_permutation", seed=2)
    low = min(kn.nodes)
    assert oracle_mst(kn) == tuple((low, v) for v in kn.nodes if v != low)
    er768 = make_graph("erdos_renyi", 768, id_scheme="random_permutation",
                       p=er_connectivity_safe_p(768))
    for g in (path, kn, er768):
        _assert_msts_agree(g)


def test_grid_mst_matches_networkx():
    from kt1sim.harness import oracle_mst
    g = make_graph("grid", 64, seed=1, id_scheme="random_permutation")
    tree = deterministic_bfs(g, min(g.nodes)).tree
    res = solve_global(g, tree, "mst")
    assert sorted(canonical_edge(*e) for e in res.solution) == list(oracle_mst(g))
    assert oracle_mst(g) == _networkx_mst(g)
    n = g.n
    assert res.metrics.messages_total <= 2 * (n - 1)
    assert res.metrics.rounds <= 2 * tree.depth + 1


@pytest.mark.parametrize("problem", ["bfs", "mst"])
def test_every_node_outputs_the_root_solution(problem):
    from kt1sim.harness import oracle_mst
    g = make_graph("erdos_renyi", 60, seed=3, p=er_connectivity_safe_p(60),
                   id_scheme="random_permutation")
    tree = deterministic_bfs(g, min(g.nodes)).tree
    res = run(g, gossipspanner._GlobalSolveProtocol(tree, problem),
              ModeConfig(max_rounds=4 * g.n + 20))
    solution = res.contexts[tree.root].state["solution"]
    assert all(res.outputs[v] is solution for v in g.nodes)
    want = (tree.parent, tree.layer) if problem == "bfs" else oracle_mst(g)
    assert solution == want


@pytest.mark.parametrize("family,n,problem", [
    ("erdos_renyi", 200, "mst"), ("grid", 64, "mst"),
])
def test_incident_edges_match_a_scan_of_the_solution(family, n, problem):
    p = er_connectivity_safe_p(n) if family == "erdos_renyi" else None
    g = make_graph(family, n, seed=3, p=p, id_scheme="random_permutation")
    tree = deterministic_bfs(g, min(g.nodes)).tree
    solution = solve_global(g, tree, problem).solution
    res = run(g, gossipspanner._GlobalSolveProtocol(tree, problem),
              ModeConfig(max_rounds=4 * g.n + 20))
    assert set(res.outputs) == set(g.nodes)
    assert len(solution) == g.n - 1
    for v in g.nodes:
        incident = tuple(e for e in res.outputs[v] if v in e)
        assert incident == tuple(e for e in solution if v in e)
        assert incident and all(g.has_edge(*e) for e in incident)


def test_unknown_problem_rejected(monkeypatch):
    g = make_graph("path", 3)
    tree = deterministic_bfs(g, 1).tree
    engine_runs = []
    monkeypatch.setattr(gossipspanner, "run", lambda *a, **k: engine_runs.append(a))
    for problem in ("chromatic", "topology"):
        with pytest.raises(SpannerError):
            solve_global(g, tree, problem)
    assert engine_runs == []


def test_non_spanning_tree_rejected(monkeypatch):
    g = make_graph("path", 3)
    engine_runs = []
    monkeypatch.setattr(gossipspanner, "run", lambda *a, **k: engine_runs.append(a))
    with pytest.raises(ClusterError):
        solve_global(g, tree_from_parent_map(1, {2: 1}))
    assert engine_runs == []


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 10**6))
def test_kruskal_agrees_with_networkx(seed):
    from kt1sim.harness import oracle_mst
    g = make_graph("erdos_renyi", 32, seed=seed % 60, p=0.18,
                   id_scheme="random_permutation")
    ours = sorted(canonical_edge(*e) for e in _kruskal_mst(g.nodes, g.edges()))
    assert ours == list(oracle_mst(g)) == list(_networkx_mst(g))


# ---------------------------------------------------------------------------
# serialization


def test_det_bfs_json():
    g = make_graph("path", 3)
    blob = json.loads(bfs_tree_to_json(deterministic_bfs(g, 1).tree))
    assert blob["root"] == 1
    assert blob["layers"] == {"1": 0, "2": 1, "3": 2}

