"""Tests for cover-based BFS construction and randomized leader election."""

import dataclasses
import json
from bisect import bisect_left

import pytest
from hypothesis import given, settings, strategies as st

from kt1sim import bfscover
from kt1sim.bfscover import (
    BFSError,
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


def test_preprocess_takes_and_fills_the_cover_mapping(monkeypatch):
    g = make_graph("grid", 36)
    built = {}
    first = preprocess(g, seed=4, covers=built)
    assert list(built) == [CoverParams(kappa=default_kappa(g.n), W=2, seed=4)]
    assert built[first.cover.params] is first.cover

    def no_cover(*args):
        raise AssertionError("cover rebuilt although the mapping holds it")

    monkeypatch.setattr(bfscover, "cover_construction", no_cover)
    again = preprocess(g, seed=4, covers=built)
    assert again.cover is first.cover and again == first


def test_preprocessed_is_frozen():
    pre = preprocess(make_graph("path", 6), seed=0)
    with pytest.raises(dataclasses.FrozenInstanceError):
        pre.attempts = 2
    with pytest.raises(dataclasses.FrozenInstanceError):
        pre.cover.metrics = None


def test_bad_root_rejected():
    g = make_graph("path", 4)
    with pytest.raises(BFSError):
        bfs_construction(g, 99)


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
    cov2 = _HomeSetupProtocol(cover, H).cov2
    for tree in cover.clusters:
        want = {w for w in tree.members if oracle_ball(g, w, 2) <= tree.members}
        assert cov2[tree.root] == want


@settings(max_examples=300, deadline=None)
@given(nbrs=st.lists(st.integers(1, 40), unique=True, min_size=1).map(sorted).map(tuple),
       joined=st.sets(st.integers(1, 40)), data=st.data())
def test_ownership_rule_is_first_joined_entry(nbrs, joined, data):
    """The BFS phases' ownership test (v owns w when v has joined and no
    entry of w's sorted neighbor tuple below v has) is "the first joined
    entry of the tuple is v", also when v itself has not joined."""
    v = data.draw(st.sampled_from(nbrs))
    if data.draw(st.booleans()):
        joined = joined - {v}
    first = next((x for x in nbrs if x in joined), None)
    assert (v in joined and joined.isdisjoint(nbrs[:bisect_left(nbrs, v)])) == (first == v)


def test_registrants_are_the_nodes_at_home():
    """A root answers the pinged ids among its registrants: exactly the
    nodes whose home it is, the ones that want its aggregate."""
    g = make_graph("erdos_renyi", 60, seed=4, p=0.1, id_scheme="random_permutation")
    pre = preprocess(g, seed=1)
    assert set(pre.registrants) == {t.root for t in pre.cover.clusters}
    for r, regs in pre.registrants.items():
        assert regs == {v for v in g.nodes if pre.home[v] == r}


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
