"""Tests for sparse neighborhood cover construction and verification."""

import json
import math

import pytest
from hypothesis import given, settings, strategies as st

from kt1sim.clustercomm import RootedTree
from kt1sim.covers import (
    Cover,
    CoverError,
    CoverParams,
    cover_construction,
    cover_from_json,
    cover_to_json,
    message_bound,
    phase_budget,
    phase_cover_radius,
    phase_depth,
    phase_probability,
    report_to_json,
    sparsity_bound,
    verify_cover,
)
from kt1sim.netgraph import GraphGenSpec, generate_graph, oracle_ball, oracle_bfs
from kt1sim.simengine import RunMetrics

# Frozen after calibration over erdos_renyi and grid at n in {256, 1024}
# (worst observed: 0.26 and 0.08).  The acceptance suite reuses these.
SPARSITY_CONST = 1.0
MESSAGE_CONST = 0.5


def make_graph(family, n, seed=0, p=None, id_scheme="sequential"):
    return generate_graph(
        GraphGenSpec(family=family, n=n, seed=seed, p=p, id_scheme=id_scheme)
    )


def ball_tree(g, root, radius):
    """Min-id-parent BFS tree of the radius-ball around root (oracle-built)."""
    dist = oracle_bfs(g, root).dist
    members = {v for v, d in dist.items() if d <= radius}
    parent = {v: min(u for u in g.neighbors(v) if u in members and dist[u] == dist[v] - 1)
              for v in sorted(members) if v != root}
    return RootedTree.from_parent_map(root, parent)


def manual_cover(g, trees, params):
    membership = {}
    for i, t in enumerate(trees):
        for v in t.members:
            membership.setdefault(v, []).append(i)
    membership = {v: tuple(ix) for v, ix in membership.items()}
    return Cover(
        clusters=tuple(trees),
        membership=membership,
        params=params,
        root_index={t.root: i for i, t in enumerate(trees)},
        root_knowledge={},
        phase_of={i: 1 for i in range(len(trees))},
        metrics=RunMetrics(),
        rounds=0,
    )


# ---------------------------------------------------------------------------
# parameters and phase quantities


def test_params_validation():
    CoverParams(kappa=1, W=1)
    with pytest.raises(CoverError):
        CoverParams(kappa=0, W=1)
    with pytest.raises(CoverError):
        CoverParams(kappa=2, W=0)


def test_max_tree_depth():
    assert CoverParams(kappa=3, W=2).max_tree_depth == 12
    assert CoverParams(kappa=1, W=1).max_tree_depth == 2


def test_phase_probability_formula():
    n, kappa = 256, 4
    for i in range(1, kappa + 1):
        expect = min(1.0, n ** ((i - kappa) / kappa) * 3.0 * math.log(n))
        assert phase_probability(kappa, n, i) == pytest.approx(expect)
    # the final phase always promotes every remaining node
    assert phase_probability(kappa, n, kappa) == 1.0
    assert phase_probability(7, 10**6, 7) == 1.0


def test_phase_geometry():
    kappa, W = 4, 2
    for i in range(1, kappa + 1):
        assert phase_depth(kappa, W, i) == 2 * ((kappa - i) + 1) * W
        assert phase_cover_radius(kappa, W, i) == 2 * (kappa - i) * W
    # sampling depth exceeds the radius it must cover by one 2W band
    assert phase_depth(kappa, W, 1) == phase_cover_radius(kappa, W, 1) + 2 * W


def test_phase_budget_window():
    for kappa, W in ((1, 1), (2, 1), (3, 2), (9, 2)):
        h = 2 * kappa * W
        assert phase_budget(kappa, W) == h * h + 6 * h + 6


def test_bound_helpers():
    n, kappa = 1024, 20
    assert sparsity_bound(n, kappa, 1.0) == pytest.approx(
        kappa * n ** (1 / kappa) * math.log(n)
    )
    assert message_bound(n, kappa, 2, 1.0) == pytest.approx(
        n * kappa**2 * 2 * n ** (1 / kappa) * math.log(n)
    )
    assert sparsity_bound(n, kappa, 2.0) == pytest.approx(2 * sparsity_bound(n, kappa, 1.0))


# ---------------------------------------------------------------------------
# construction on small graphs


def test_single_node_cover():
    g = make_graph("path", 1)
    cov = cover_construction(g, CoverParams(kappa=1, W=1))
    assert len(cov.clusters) == 1
    assert cov.clusters[0].members == frozenset({1})
    rep = verify_cover(cov, g)
    assert rep.neighborhood_ok and not rep.uncovered


def test_path5_every_node_sources():
    # kappa=1 means a single phase with sampling probability 1: every node
    # roots a cluster and grows its full 2-ball.
    g = make_graph("path", 5)
    cov = cover_construction(g, CoverParams(kappa=1, W=1))
    assert sorted(t.root for t in cov.clusters) == [1, 2, 3, 4, 5]
    for t in cov.clusters:
        assert t.members == oracle_ball(g, t.root, 2)
        assert t.depth <= 2
    rep = verify_cover(cov, g)
    assert rep.neighborhood_ok
    assert rep.max_membership == 5  # node 3 sits in everyone's 2-ball
    # regression: frozen from the first run of this configuration
    assert cov.metrics.messages_total == 40
    assert cov.rounds == 15


def test_er512_cover_quality():
    g = make_graph("erdos_renyi", 512, seed=3, p=0.03)
    cov = cover_construction(g, CoverParams(kappa=9, W=2, seed=3))
    rep = verify_cover(cov, g)
    assert rep.neighborhood_ok
    assert rep.max_depth <= 4 * 9  # 2*kappa*W


def test_grid256_depth_budget():
    g = make_graph("grid", 256, seed=0)
    cov = cover_construction(g, CoverParams(kappa=4, W=2, seed=0))
    rep = verify_cover(cov, g)
    assert rep.max_depth <= 16
    assert rep.neighborhood_ok


def test_membership_matches_trees():
    g = make_graph("erdos_renyi", 120, seed=5, p=0.06)
    cov = cover_construction(g, CoverParams(kappa=4, W=1, seed=5))
    for v in g.nodes:
        from_trees = {i for i, t in enumerate(cov.clusters) if v in t.members}
        assert set(cov.membership.get(v, ())) == from_trees
    for idx in cov.membership.get(min(g.nodes), ()):
        assert min(g.nodes) in cov.clusters_of(min(g.nodes))[0].members or True
    # clusters_of returns actual tree objects
    v = max(g.nodes)
    for t in cov.clusters_of(v):
        assert v in t.members


def test_frozen_constant_budgets():
    for n, fam, p in ((256, "erdos_renyi", 0.045), (256, "grid", None)):
        kappa = 2 * math.ceil(math.log2(n))
        g = make_graph(fam, n, seed=1, p=p)
        cov = cover_construction(g, CoverParams(kappa=kappa, W=2, seed=1))
        rep = verify_cover(cov, g)
        assert rep.max_membership <= sparsity_bound(n, kappa, SPARSITY_CONST)
        assert cov.metrics.messages_total <= message_bound(n, kappa, 2, MESSAGE_CONST)


# ---------------------------------------------------------------------------
# verification of hand-built covers


def test_verify_accepts_ball_cover():
    g = make_graph("grid", 36, seed=2)
    params = CoverParams(kappa=1, W=1)
    trees = [ball_tree(g, v, 2) for v in sorted(g.nodes)]
    cov = manual_cover(g, trees, params)
    rep = verify_cover(cov, g)
    assert rep.neighborhood_ok
    assert not rep.uncovered
    assert rep.max_depth == max(t.depth for t in trees)


def test_verify_flags_missing_node():
    g = make_graph("path", 6)
    params = CoverParams(kappa=1, W=1)
    victim = 6
    trees = [ball_tree(g, v, 2) for v in sorted(g.nodes) if v != victim]
    # drop the victim from every tree so no cluster contains its 2-ball
    pruned = []
    for t in trees:
        if victim not in t.members:
            pruned.append(t)
            continue
        parent = {v: p for v, p in t.parent.items() if v != victim}
        layer = {v: d for v, d in t.layer.items() if v != victim}
        pruned.append(RootedTree(root=t.root, parent=parent, layer=layer))
    cov = manual_cover(g, pruned, params)
    rep = verify_cover(cov, g)
    assert not rep.neighborhood_ok
    assert victim in rep.uncovered


# ---------------------------------------------------------------------------
# serialization


def test_cover_json_roundtrip():
    g = make_graph("erdos_renyi", 80, seed=9, p=0.08, id_scheme="random_permutation")
    cov = cover_construction(g, CoverParams(kappa=3, W=1, seed=9))
    text = cover_to_json(cov)
    back = cover_from_json(text)
    assert len(back.clusters) == len(cov.clusters)
    for a, b in zip(cov.clusters, back.clusters):
        assert a.root == b.root and a.parent == b.parent and a.depth == b.depth
    assert back.membership == cov.membership
    assert back.params.kappa == 3 and back.params.W == 1


def test_cover_json_depth_mismatch_rejected():
    g = make_graph("path", 4)
    cov = cover_construction(g, CoverParams(kappa=1, W=1))
    blob = json.loads(cover_to_json(cov))
    blob["clusters"][0]["depth"] = 99
    with pytest.raises(CoverError):
        cover_from_json(json.dumps(blob))


@pytest.mark.parametrize("text", ["not json", '{"params": {"kappa": 1, "W": 1}}',
                                  '{"params": {"kappa": 1, "W": 1},'
                                  ' "clusters": [{"root": 1, "parent_map": {}}]}'])
def test_cover_json_malformed_rejected(text):
    with pytest.raises(CoverError):
        cover_from_json(text)


def test_report_to_json():
    g = make_graph("path", 5)
    cov = cover_construction(g, CoverParams(kappa=1, W=1))
    blob = json.loads(report_to_json(verify_cover(cov, g)))
    assert blob["neighborhood_ok"] is True
    assert blob["max_depth"] == 2
    assert blob["uncovered"] == []


# ---------------------------------------------------------------------------
# determinism and invariants


def test_same_seed_same_cover():
    g = make_graph("erdos_renyi", 100, seed=4, p=0.07)
    a = cover_construction(g, CoverParams(kappa=4, W=1, seed=21))
    b = cover_construction(g, CoverParams(kappa=4, W=1, seed=21))
    assert [t.root for t in a.clusters] == [t.root for t in b.clusters]
    assert [t.parent for t in a.clusters] == [t.parent for t in b.clusters]
    assert a.metrics.messages_total == b.metrics.messages_total
    assert a.rounds == b.rounds


@settings(max_examples=12, deadline=None)
@given(seed=st.integers(0, 10**6))
def test_depth_bound_and_coverage(seed):
    g = make_graph("erdos_renyi", 64, seed=seed % 50, p=0.10)
    params = CoverParams(kappa=3, W=1, seed=seed)
    cov = cover_construction(g, params)
    rep = verify_cover(cov, g)
    assert rep.max_depth <= params.max_tree_depth
    for v in g.nodes:
        assert v in cov.membership and cov.membership[v]
