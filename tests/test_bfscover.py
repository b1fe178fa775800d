"""Tests for cover-based BFS construction and randomized leader election."""

import dataclasses
import json
from bisect import bisect_left

import pytest
from hypothesis import given, settings, strategies as st

from kt1sim import bfscover, covers, simengine
from kt1sim.bfscover import (
    BFSError,
    _BFSPhaseProtocol,
    _HomeSetupProtocol,
    bfs_construction,
    bfs_tree_from_json,
    bfs_tree_to_json,
    default_kappa,
    election_to_json,
    preprocess,
    randomized_leader_election,
)
from kt1sim.clustercomm import ClusterError, RootedTree
from kt1sim.covers import CoverParams, cover_construction
from kt1sim.netgraph import (Graph, GraphGenSpec, er_connectivity_safe_p, generate_graph,
                             oracle_ball, oracle_bfs)
from kt1sim.simengine import ModeConfig, NodeContext, run


def make_graph(family, n, seed=0, p=None, id_scheme="sequential"):
    return generate_graph(
        GraphGenSpec(family=family, n=n, seed=seed, p=p, id_scheme=id_scheme)
    )


def assert_exact(g, res, root):
    assert res.tree.layer == oracle_bfs(g, root).dist
    # every non-root node joined through exactly one exploration message
    assert set(res.grow_receipts) == set(g.nodes) - {root}
    assert set(res.grow_receipts.values()) <= {1}


# ---------------------------------------------------------------------------
# BFS trees


def test_default_kappa():
    assert default_kappa(1) == 2
    assert default_kappa(2) == 2
    assert default_kappa(256) == 16
    assert default_kappa(300) == 18  # 2 * ceil(log2 300) = 2*9


def test_tree_validate_good_and_bad():
    g = make_graph("path", 3)
    good = RootedTree(root=1, parent={2: 1, 3: 2}, layer={1: 0, 2: 1, 3: 2})
    good.validate_spanning(g)
    with pytest.raises(ClusterError):
        RootedTree(root=1, parent={2: 1}, layer={1: 0, 2: 1}).validate_spanning(g)  # missing 3
    with pytest.raises(ClusterError):
        RootedTree(root=1, parent={2: 1, 3: 1}, layer={1: 0, 2: 1, 3: 2}).validate_spanning(g)  # (1,3) not an edge
    with pytest.raises(ClusterError):
        RootedTree(root=1, parent={2: 1, 3: 2}, layer={1: 0, 2: 1, 3: 3}).validate_spanning(g)  # wrong layer
    path4 = make_graph("path", 4)
    with pytest.raises(ClusterError):
        RootedTree(root=1, parent={}, layer={1: 0, 2: 1, 3: 2, 4: 3}).validate_spanning(path4)  # no parents


def test_tree_json_roundtrip():
    tree = RootedTree(root=7, parent={3: 7, 5: 3}, layer={7: 0, 3: 1, 5: 2})
    text = bfs_tree_to_json(tree)
    assert text == '{"layers": {"3": 1, "5": 2, "7": 0}, "parent_map": {"3": 7, "5": 3}, "root": 7}'
    back = bfs_tree_from_json(text)
    assert back.root == 7 and back.parent == tree.parent and back.layer == tree.layer


# ---------------------------------------------------------------------------
# BFS construction


def test_path4_from_end():
    g = make_graph("path", 4)
    res = bfs_construction(g, 1)
    assert res.tree.layer == {1: 0, 2: 1, 3: 2, 4: 3}
    assert res.tree.parent == {2: 1, 3: 2, 4: 3}


def test_star_from_center():
    g = make_graph("star", 6)
    res = bfs_construction(g, 1)
    assert res.tree.layer == {v: (0 if v == 1 else 1) for v in g.nodes}
    assert all(p == 1 for p in res.tree.parent.values())
    assert res.tree.depth == 1


def test_er512_exact_and_one_join():
    g = make_graph("erdos_renyi", 512, seed=11, p=0.03)
    root = min(g.nodes)
    res = bfs_construction(g, root, seed=11)
    assert_exact(g, res, root)


def test_exactness_assorted():
    cases = [
        ("grid", 64, 0, None, "random_permutation"),
        ("cycle", 21, 1, None, "sequential"),
        ("erdos_renyi", 96, 2, 0.08, "random_permutation"),
        ("complete", 24, 3, None, "sequential"),
    ]
    for fam, n, seed, p, scheme in cases:
        g = make_graph(fam, n, seed=seed, p=p, id_scheme=scheme)
        root = max(g.nodes)
        res = bfs_construction(g, root, seed=seed)
        assert_exact(g, res, root)


def test_preprocessed_reuse_across_roots():
    g = make_graph("erdos_renyi", 90, seed=6, p=0.08)
    pre = preprocess(g, seed=6)
    roots = sorted(g.nodes)[:3]
    for root in roots:
        res = bfs_construction(g, root, pre=pre)
        assert res.pre is pre
        assert res.tree.layer == oracle_bfs(g, root).dist


def test_preprocess_on_a_given_cover_builds_none(monkeypatch):
    g = make_graph("grid", 36)
    first = preprocess(g, seed=4)
    assert first.cover.params == CoverParams(kappa=default_kappa(g.n), W=2, seed=4)

    def no_cover(*args):
        raise AssertionError("cover built although one was given")

    monkeypatch.setattr(bfscover, "cover_construction", no_cover)
    again = preprocess(g, seed=4, cover=first.cover)
    assert again.cover is first.cover and again == first
    # The given cover is used whatever seed and kappa say.
    assert preprocess(g, seed=9, kappa=1, cover=first.cover) == first


def test_preprocess_refuses_another_graphs_cover(monkeypatch):
    cover = cover_construction(make_graph("grid", 36), CoverParams(kappa=2, W=2))
    monkeypatch.setattr(bfscover, "run", None)  # no run may start
    for g in (make_graph("cycle", 36), make_graph("grid", 49)):
        with pytest.raises(BFSError, match="another graph"):
            preprocess(g, seed=0, cover=cover)


def test_homeless_node_is_a_bfs_error_naming_it(monkeypatch):
    """No cover built here leaves a node homeless (its last phase samples
    with p = 1); one whose every announced set misses node 7 does."""
    g = make_graph("grid", 36)
    real_setup = _HomeSetupProtocol.setup

    def setup_without_7(self, node):
        real_setup(self, node)
        if "cov2" in node.state:
            node.state["cov2"] = node.state["cov2"] - {7}

    monkeypatch.setattr(_HomeSetupProtocol, "setup", setup_without_7)
    with pytest.raises(BFSError, match=r"^node 7 has no home"):
        preprocess(g, seed=0)
    cover = cover_construction(g, CoverParams(kappa=2, W=2))
    with pytest.raises(BFSError, match=r"^node 7 has no home"):
        preprocess(g, seed=0, cover=cover)
    # The failed run's node state is released; what the nodes learned stays.
    nodes = cover.session.contexts.values()
    assert all(not node.state and node.output is None and node.known["mem"] for node in nodes)


def test_preprocessed_is_frozen():
    pre = preprocess(make_graph("path", 6), seed=0)
    assert [f.name for f in dataclasses.fields(pre)] == ["cover", "H", "metrics"]
    with pytest.raises(dataclasses.FrozenInstanceError):
        pre.H = 2
    with pytest.raises(dataclasses.FrozenInstanceError):
        pre.cover.metrics = None


def test_bad_root_rejected():
    g = make_graph("path", 4)
    with pytest.raises(BFSError):
        bfs_construction(g, 99)


@pytest.mark.parametrize("root", [1.0, True, "1", None, [1]])
def test_root_must_be_an_int_node_id(root, monkeypatch):
    # 1.0 and True equal and hash like node 1; a tree rooted there would not
    # survive its own JSON round trip.
    monkeypatch.setattr(bfscover, "run", None)  # no run may start
    with pytest.raises(BFSError, match="is not a node id of g"):
        bfs_construction(make_graph("path", 4), root)


@pytest.mark.parametrize("candidates", [[1, "a"], [[1]], [1.0], [2, True], [None]])
def test_candidates_must_be_int_node_ids(candidates, monkeypatch):
    # Checked before sorting: [1, "a"] does not sort and [[1]] does not hash.
    monkeypatch.setattr(bfscover, "run", None)  # no run may start
    with pytest.raises(BFSError, match="is not a node id of g"):
        randomized_leader_election(make_graph("path", 4), candidates=candidates)


def test_same_seed_same_run():
    g = make_graph("erdos_renyi", 70, seed=8, p=0.09)
    a = bfs_construction(g, min(g.nodes), seed=12)
    b = bfs_construction(g, min(g.nodes), seed=12)
    assert a.tree == b.tree
    assert a.metrics.messages_total == b.metrics.messages_total
    assert a.metrics.rounds == b.metrics.rounds


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 10**6), rootpick=st.integers(0, 10**6))
def test_exactness_property(seed, rootpick):
    g = make_graph("erdos_renyi", 48, seed=seed % 40, p=0.12)
    nodes = sorted(g.nodes)
    root = nodes[rootpick % len(nodes)]
    res = bfs_construction(g, root, seed=seed)
    assert_exact(g, res, root)


@settings(max_examples=15, deadline=None)
@given(family=st.sampled_from(["erdos_renyi", "grid", "complete"]),
       n=st.integers(2, 40), seed=st.integers(0, 10**6))
def test_home_setup_cov2_matches_oracle_balls(family, n, seed):
    p = er_connectivity_safe_p(n) if family == "erdos_renyi" else None
    g = make_graph(family, n, seed=seed % 50, p=p, id_scheme="random_permutation")
    cover = cover_construction(g, CoverParams(kappa=2, W=2, seed=seed))
    H = max(t.depth for t in cover.clusters)
    res = run(cover.session, _HomeSetupProtocol(H), ModeConfig(allow_quiescence=True))
    for tree in cover.clusters:
        want = {w for w in tree.members if oracle_ball(g, w, 2) <= tree.members}
        assert res.contexts[tree.root].state["cov2"] == want
    cover.session.release()


@settings(max_examples=300, deadline=None)
@given(nbrs=st.lists(st.integers(1, 40), unique=True, min_size=1).map(sorted).map(tuple),
       joined=st.sets(st.integers(1, 40)), data=st.data())
def test_ownership_rule_is_first_joined_entry(nbrs, joined, data):
    """The least-id ownership test (v owns w when v has joined and no
    entry of w's sorted neighbor tuple below v has) is "the first joined
    entry of the tuple is v", the rule the BFS phases scan for, also when
    v itself has not joined."""
    v = data.draw(st.sampled_from(nbrs))
    if data.draw(st.booleans()):
        joined = joined - {v}
    assert (v in joined and joined.isdisjoint(nbrs[:bisect_left(nbrs, v)])) == \
        (_first_joined(nbrs, joined) == v)


def _first_joined(nbrs, joined):
    return next((x for x in nbrs if x in joined), None)


@settings(max_examples=300, deadline=None)
@given(data=st.data(), v_joined=st.booleans(), layer=st.integers(0, 6),
       H=st.integers(1, 5), phase_start=st.integers(1, 60))
def test_consume_aggregate_schedules_exactly_the_owned_neighbors(data, v_joined, layer, H,
                                                                 phase_start):
    """_consume_aggregate explores exactly the unjoined neighbors whose
    sorted neighbor tuple has v as its first joined entry, at the phase's
    fixed send slot, and raises BFSError when an unjoined neighbor's tuple
    is missing from the aggregate, whether or not v has joined."""
    ids = st.integers(1, 30)
    v = data.draw(ids)
    nbrs = tuple(sorted(data.draw(st.sets(ids.filter(lambda x: x != v), max_size=8))))
    topo = {w: tuple(sorted({v} | data.draw(st.sets(ids.filter(lambda x, w=w: x != w)))))
            for w in nbrs}
    joined = data.draw(st.sets(ids)) - {v} | ({v} if v_joined else set())
    for w in data.draw(st.sets(st.sampled_from(nbrs))) if nbrs else ():
        del topo[w]

    clock = simengine._Clock()
    node = NodeContext(v, nbrs, 0, clock)
    node.output = {"layer": layer, "parent": None, "grow_msgs": 0}
    node.state["phase_start"] = phase_start
    proto = _BFSPhaseProtocol(v, H)
    if any(w not in joined and w not in topo for w in nbrs):
        with pytest.raises(BFSError):
            proto._consume_aggregate(node, (topo, joined))
        return
    proto._consume_aggregate(node, (topo, joined))
    owned = [w for w in nbrs if w not in joined and _first_joined(topo[w], joined) == v]
    if owned:
        assert clock.cal == {phase_start + 2 * H + 2:
                             {v: [("explore", tuple(owned), layer + 1)]}}
    else:
        assert clock.cal == {}


def test_registrants_are_the_nodes_at_home(monkeypatch):
    """A root answers the pinged ids among its registrants, the nodes
    whose home it is: each node registers at one root, reports its join
    there among its ascending report roots, and in a BFS phase reports to
    every root H less its depth in that root's tree rounds into the phase."""
    g = make_graph("erdos_renyi", 60, seed=4, p=0.1, id_scheme="random_permutation")
    pre = preprocess(g, seed=1)
    trees = {t.root: t for t in pre.cover.clusters}
    known = {v: node.known for v, node in pre.cover.session.contexts.items()}
    registrants = {r: known[r]["registrants"] for r in trees}
    assert sum(map(len, registrants.values())) == g.n
    assert set().union(*registrants.values()) == set(g.nodes)
    assert not [v for v in g.nodes if v not in trees and "registrants" in known[v]]
    home = {v: r for r, regs in registrants.items() for v in regs}
    for v in g.nodes:
        assert known[v]["report_to"] == sorted(set(known[v]["report_to"]))
        assert home[v] in known[v]["report_to"]

    flushes = []
    real_schedule = NodeContext.schedule

    def schedule(node, rnd, action):
        if action[0] == "flush":
            flushes.append((node.self_id, action[1], rnd - node.state["phase_start"]))
        real_schedule(node, rnd, action)

    monkeypatch.setattr(NodeContext, "schedule", schedule)
    bfs_construction(g, min(g.nodes), pre=pre)
    for v in g.nodes:  # once per report root, ascending, at offset H - layer
        assert [(r, off) for u, r, off in flushes if u == v] == \
            [(r, pre.H - trees[r].layer[v]) for r in known[v]["report_to"]]


# ---------------------------------------------------------------------------
# randomized leader election


def two_candidate_graph():
    # ten nodes so that id 903 fits the [1, n^3] id range
    ids = [1, 2, 3, 4, 5, 6, 7, 8, 17, 903]
    return Graph.from_edges(ids, list(zip(ids, ids[1:])))


def test_forced_two_candidates_max_wins():
    g = two_candidate_graph()
    res = randomized_leader_election(g, seed=0, candidates=[17, 903])
    assert res.success and res.unanimous
    assert res.leader == 903
    assert set(res.leader_at.values()) == {903}


def test_forced_single_candidate():
    g = make_graph("grid", 25, seed=1, id_scheme="random_permutation")
    cand = sorted(g.nodes)[3]
    res = randomized_leader_election(g, seed=1, candidates=[cand])
    assert res.success and res.unanimous and res.leader == cand
    assert res.candidates == (cand,)


def test_no_candidates_is_declared_failure():
    g = make_graph("path", 5)
    res = randomized_leader_election(g, candidates=[])
    assert not res.success
    assert res.leader is None
    assert res.failure == "no candidate sampled"
    assert res.metrics.messages_total == 0


def test_candidate_outside_graph_rejected():
    g = make_graph("path", 5)
    with pytest.raises(BFSError):
        randomized_leader_election(g, candidates=[6])


def test_sampled_election_er128():
    g = make_graph("erdos_renyi", 128, seed=2, p=0.06, id_scheme="random_permutation")
    res = randomized_leader_election(g, seed=2)
    assert res.success and res.unanimous
    assert res.candidates  # 8 ln n expected candidates; empty is ~impossible
    assert res.leader == max(res.candidates)
    assert all(v == res.leader for v in res.leader_at.values())


def test_election_same_seed_reproducible():
    g = make_graph("erdos_renyi", 96, seed=3, p=0.08)
    a = randomized_leader_election(g, seed=9)
    b = randomized_leader_election(g, seed=9)
    assert a.candidates == b.candidates and a.leader == b.leader
    assert a.leader_at == b.leader_at
    assert a.metrics.messages_total == b.metrics.messages_total


def test_election_reuses_a_given_preprocessing():
    g = make_graph("erdos_renyi", 96, seed=3, p=0.08)
    pre = preprocess(g, seed=9)
    shared = randomized_leader_election(g, seed=9, pre=pre)
    assert shared == randomized_leader_election(g, seed=9)
    assert shared.metrics.messages_total > pre.metrics.messages_total


def test_election_json():
    res = randomized_leader_election(two_candidate_graph(), candidates=[17, 903])
    blob = json.loads(election_to_json(res))
    assert blob == {"leader": 903, "unanimous": True,
                    "candidates": [17, 903], "success": True}


def test_election_frees_each_candidates_node_state_before_checking_its_tree(monkeypatch):
    """Every candidate runs on the cover's session, and each run's node
    state is freed before its tree is checked; the nodes' knowledge stays."""
    g = make_graph("grid", 36)
    pre = preprocess(g, seed=2)
    nodes = pre.cover.session.contexts.values()
    graphs = []
    real_run = bfscover.run

    def recording_run(graph, protocol, config=None):
        graphs.append(graph)
        return real_run(graph, protocol, config)

    real_validate = RootedTree.validate_spanning
    checked = []

    def validate(tree, g):
        checked.append(all(not node.state and node.known["report_to"] for node in nodes))
        return real_validate(tree, g)

    monkeypatch.setattr(bfscover, "run", recording_run)
    monkeypatch.setattr(RootedTree, "validate_spanning", validate)
    res = randomized_leader_election(g, seed=2, candidates=[1, 17, 36], pre=pre)
    assert res.unanimous and len(graphs) == 3
    assert all(graph is pre.cover.session for graph in graphs)
    assert checked == [True, True, True]


def test_stage_protocols_hold_only_ints(monkeypatch):
    """The cover builder, the home setup and the BFS phases keep no
    per-node or per-phase map of their own: every attribute of the
    instances a BFS builds is an int."""
    protocols = []
    real_run = bfscover.run

    def recording_run(graph, protocol, config=None):
        protocols.append(protocol)
        return real_run(graph, protocol, config)

    monkeypatch.setattr(bfscover, "run", recording_run)
    monkeypatch.setattr(covers, "run", recording_run)
    g = make_graph("erdos_renyi", 60, seed=4, p=0.1, id_scheme="random_permutation")
    bfs_construction(g, min(g.nodes), seed=1)
    assert [type(p) for p in protocols] == [covers._CoverProtocol, _HomeSetupProtocol,
                                            _BFSPhaseProtocol]
    for p in protocols:
        assert vars(p) and all(type(x) is int for x in vars(p).values()), vars(p)


def _another_graphs_preprocessing():
    """A preprocessing of grid-36, and graphs that it does not fit: ER-36
    on other ids, and the cycle on grid-36's own ids."""
    pre = preprocess(make_graph("grid", 36), seed=0)
    er = make_graph("erdos_renyi", 36, p=er_connectivity_safe_p(36),
                    id_scheme="random_permutation")
    return pre, (er, make_graph("cycle", 36))


def test_bfs_refuses_another_graphs_preprocessing(monkeypatch):
    pre, others = _another_graphs_preprocessing()
    monkeypatch.setattr(bfscover, "run", None)  # no run may start
    for g in others:
        with pytest.raises(BFSError, match="another graph"):
            bfs_construction(g, min(g.nodes), pre=pre)


def test_election_refuses_another_graphs_preprocessing(monkeypatch):
    pre, others = _another_graphs_preprocessing()
    monkeypatch.setattr(bfscover, "run", None)  # no run may start
    for g in others:
        with pytest.raises(BFSError, match="another graph"):
            randomized_leader_election(g, pre=pre, candidates=[min(g.nodes)])
