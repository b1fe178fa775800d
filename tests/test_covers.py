"""Tests for sparse neighborhood cover construction and verification."""

import dataclasses
import math
import sys

import pytest
from hypothesis import given, settings, strategies as st

from kt1sim import bfscover, covers
from kt1sim.clustercomm import RootedTree, tree_children
from kt1sim.covers import (
    Cover,
    CoverError,
    CoverParams,
    cover_construction,
    phase_budget,
    phase_cover_radius,
    phase_depth,
    phase_probability,
    sparsity_bound,
    verify_cover,
)
from kt1sim.netgraph import (
    Graph,
    GraphGenSpec,
    er_connectivity_safe_p,
    generate_graph,
    oracle_ball,
    oracle_bfs,
)
from kt1sim.simengine import ModeConfig, RunMetrics, Session, run_digest

from support import message_bound, tree_from_parent_map

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
    parent = {v: min(u for u in g.adjacency[v] if u in members and dist[u] == dist[v] - 1)
              for v in sorted(members) if v != root}
    return tree_from_parent_map(root, parent)


def manual_cover(g, trees, params):
    return Cover(clusters=tuple(trees), params=params, session=Session(g),
                 metrics=RunMetrics())


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
    assert cov.metrics.rounds == 15


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


def test_frozen_constant_budgets():
    for n, fam, p in ((256, "erdos_renyi", 0.045), (256, "grid", None)):
        kappa = 2 * math.ceil(math.log2(n))
        g = make_graph(fam, n, seed=1, p=p)
        cov = cover_construction(g, CoverParams(kappa=kappa, W=2, seed=1))
        rep = verify_cover(cov, g)
        assert rep.max_membership <= sparsity_bound(n, kappa, SPARSITY_CONST)
        assert cov.metrics.messages_total <= message_bound(n, kappa, 2, MESSAGE_CONST)


@pytest.mark.parametrize("family, n, p", [("erdos_renyi", 256, 0.045), ("grid", 256, None)])
def test_each_node_records_its_children_in_every_cluster(family, n, p):
    """The children a node records at its explore action in each cluster,
    kept on the cover's session, are its children in that cluster's tree."""
    g = make_graph(family, n, seed=2, p=p, id_scheme="random_permutation")
    cov = cover_construction(g, CoverParams(kappa=2 * math.ceil(math.log2(n)), W=2, seed=2))
    known = {v: node.known for v, node in cov.session.contexts.items()}
    for t in cov.clusters:
        assert known[t.root]["cluster"].tree() == t
        for v, kids in tree_children(t.root, t.parent).items():
            assert list(known[v]["kids"].get(t.root, ())) == kids
    for v in g.nodes:
        assert known[v]["kids"].keys() <= known[v]["mem"].keys()
        assert (known[v]["cluster"] is None) == (v not in known[v]["mem"])


@pytest.mark.parametrize("family", ["erdos_renyi", "grid"])
def test_finished_clusters_drop_their_edge_tables(family):
    """A done cluster's best map is a fresh empty dict, not the emptied
    table it grew to, so the cover's session does not keep the tables."""
    p = 3 * math.log(256) / 256 if family == "erdos_renyi" else None
    g = make_graph(family, 256, seed=0, p=p, id_scheme="random_permutation")
    cov = cover_construction(g, CoverParams(kappa=16, W=2, seed=0))
    for t in cov.clusters:
        cs = cov.session.contexts[t.root].known["cluster"]
        assert cs.done and cs.best == {}
        assert sys.getsizeof(cs.best) == sys.getsizeof({})


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


def _reference_report(cover, g):
    """verify_cover by brute force: every node's W-ball against every cluster."""
    counts = [sum(v in t.members for t in cover.clusters) for v in g.nodes]
    uncovered = [v for v in g.nodes
                 if not any(oracle_ball(g, v, cover.params.W) <= t.members
                            for t in cover.clusters)]
    return covers.CoverReport(max_depth=max((t.depth for t in cover.clusters), default=0),
                              max_membership=max(counts, default=0),
                              neighborhood_ok=not uncovered, uncovered=uncovered)


def _spans(tree, g):
    return tree.members >= g.adjacency.keys()


def _audit(cover, g, monkeypatch):
    """verify_cover's report, and the nodes whose ball it built."""
    balls = []
    monkeypatch.setattr(covers, "oracle_ball",
                        lambda g, v, W: balls.append(v) or oracle_ball(g, v, W))
    return verify_cover(cover, g), balls


@pytest.mark.parametrize("family, n, p, kappa, spanning", [
    ("erdos_renyi", 60, 0.1, None, True), ("complete", 12, None, None, True),
    ("grid", 144, None, 1, False), ("grid", 144, None, 2, False),
    ("path", 40, None, 1, False), ("path", 40, None, 2, False),
    ("cycle", 40, None, 1, False), ("cycle", 40, None, 2, False)])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_verify_cover_matches_the_brute_force_audit(family, n, p, kappa, spanning, seed,
                                                    monkeypatch):
    g = make_graph(family, n, seed=seed, p=p, id_scheme="random_permutation")
    kap = kappa if kappa is not None else bfscover.default_kappa(n)
    cov = cover_construction(g, CoverParams(kappa=kap, W=2, seed=seed))
    assert any(_spans(t, g) for t in cov.clusters) == spanning
    rep, balls = _audit(cov, g, monkeypatch)
    assert rep == _reference_report(cov, g)
    assert rep.neighborhood_ok
    assert balls == ([] if spanning else sorted(g.nodes))

    # Without the clusters that hold the least id's ball (the spanning ones
    # among them), that node is uncovered and the audit probes every node.
    victim = min(g.nodes)
    ball = oracle_ball(g, victim, 2)
    pruned = dataclasses.replace(
        cov, clusters=tuple(t for t in cov.clusters if not ball <= t.members))
    rep, balls = _audit(pruned, g, monkeypatch)
    assert rep == _reference_report(pruned, g)
    assert victim in rep.uncovered and balls == sorted(g.nodes)


def test_verify_cover_spanning_is_a_superset_test(monkeypatch):
    """A tree that holds every node and an id outside g spans g, and one
    that misses a single node does not."""
    g = make_graph("path", 8)
    params = CoverParams(kappa=1, W=2)
    whole = ball_tree(g, 1, g.n)
    outside = max(g.nodes) + 1
    extra = RootedTree(root=1, parent={**whole.parent, outside: 1},
                       layer={**whole.layer, outside: 1})
    small = [ball_tree(g, v, 1) for v in (2, 5)]
    cov = manual_cover(g, [extra, *small], params)
    rep, balls = _audit(cov, g, monkeypatch)
    assert rep == _reference_report(cov, g)
    assert rep.neighborhood_ok and balls == []

    short = ball_tree(g, 1, g.n - 2)  # misses node 8
    assert short.members == set(g.nodes) - {8}
    cov = manual_cover(g, [short, *small], params)
    rep, balls = _audit(cov, g, monkeypatch)
    assert rep == _reference_report(cov, g)
    assert rep.uncovered == [6, 7, 8] and balls == sorted(g.nodes)


# ---------------------------------------------------------------------------
# determinism and invariants


def test_same_seed_same_cover():
    g = make_graph("erdos_renyi", 100, seed=4, p=0.07)
    a = cover_construction(g, CoverParams(kappa=4, W=1, seed=21))
    b = cover_construction(g, CoverParams(kappa=4, W=1, seed=21))
    assert [t.root for t in a.clusters] == [t.root for t in b.clusters]
    assert [t.parent for t in a.clusters] == [t.parent for t in b.clusters]
    assert a.metrics.messages_total == b.metrics.messages_total
    assert a.metrics.rounds == b.metrics.rounds


@settings(max_examples=12, deadline=None)
@given(seed=st.integers(0, 10**6))
def test_depth_bound_and_coverage(seed):
    g = make_graph("erdos_renyi", 64, seed=seed % 50, p=0.10)
    params = CoverParams(kappa=3, W=1, seed=seed)
    cov = cover_construction(g, params)
    rep = verify_cover(cov, g)
    assert rep.max_depth <= params.max_tree_depth
    for v in g.nodes:
        assert any(v in t.members for t in cov.clusters)


# ---------------------------------------------------------------------------
# the exploration inside the cover: BFS balls, least-id parents, and a root
# ledger that agrees with every member's own record


def _recorded_cover(g, params):
    """cover_construction(g, params) and the engine's RunResult of it."""
    real = covers.run
    runs = []

    def recording_run(graph, protocol, config=None):
        runs.append(real(graph, protocol, config))
        return runs[-1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(covers, "run", recording_run)
        cov = cover_construction(g, params)
    (res,) = runs
    return cov, res


def _assert_least_id_bfs_clusters(g, cov, res):
    params = cov.params
    trees = {t.root: t for t in cov.clusters}
    assert list(trees) == sorted(trees)
    for r, t in trees.items():
        dist = oracle_bfs(g, r).dist
        h = phase_depth(params.kappa, params.W, res.outputs[r]["phase"])
        assert t.members == oracle_ball(g, r, h)
        assert t.layer == {v: dist[v] for v in t.members}
        for w, p in t.parent.items():
            assert p == min(u for u in g.adjacency[w] if dist[u] == dist[w] - 1)
    for v in g.nodes:
        mem = res.contexts[v].known["mem"]
        assert sorted(mem) == [r for r, t in trees.items() if v in t.members]
        for r, record in mem.items():
            t = trees[r]
            assert record == ((None, 0) if v == r else (t.parent[v], t.layer[v]))


@settings(max_examples=25, deadline=None)
@given(family=st.sampled_from(["erdos_renyi", "grid", "path"]),
       n=st.integers(min_value=1, max_value=40),
       seed=st.integers(min_value=0, max_value=10_000),
       kappa=st.integers(min_value=1, max_value=3),
       W=st.integers(min_value=1, max_value=2))
def test_cover_clusters_are_least_id_bfs_balls(family, n, seed, kappa, W):
    p = er_connectivity_safe_p(n) if family == "erdos_renyi" else None
    g = make_graph(family, n, seed=seed, p=p, id_scheme="random_permutation")
    cov, res = _recorded_cover(g, CoverParams(kappa=kappa, W=W, seed=seed))
    _assert_least_id_bfs_clusters(g, cov, res)


def test_cover_tie_goes_to_the_least_id_parent():
    # 4 is one hop below both 2 and 3 in a diamond around 1: the cluster at
    # 1 reaches it over (2, 4), the lexicographically first of the two edges.
    g = Graph.from_edges([1, 2, 3, 4], [(1, 2), (1, 3), (2, 4), (3, 4)])
    cov, res = _recorded_cover(g, CoverParams(kappa=1, W=1))
    assert cov.clusters[0].root == 1 and cov.clusters[0].parent == {2: 1, 3: 1, 4: 2}
    _assert_least_id_bfs_clusters(g, cov, res)


# ---------------------------------------------------------------------------
# chained sampling timers against the every-phase schedule they replaced


class _EveryPhaseCover(covers._CoverProtocol):
    """The schedule before chaining: every node's sample for every phase is
    on the calendar from setup on, and a covered node wakes in each later
    phase to do nothing.  Phase i starts in round 1 + (i - 1) * budget, and
    its probability, depth and cover radius are the closed forms of
    covers (looked up at call time, so a patched probability applies)."""

    def setup(self, node):
        super().setup(node)  # phases 1 and kappa
        budget = phase_budget(self.kappa, self.W)
        for i in range(2, self.kappa):
            node.schedule(1 + (i - 1) * budget, ("sample", i))

    def run_action(self, node, rnd, action):
        if action[0] != "sample":
            return super().run_action(node, rnd, action)
        _, i = action
        if node.output["covered"]:
            return []
        p = covers.phase_probability(self.kappa, self.n, i)
        if p < 1.0 and node.rng.random() >= p:
            return []
        node.output["covered"] = True
        node.output["phase"] = i
        return self.activate_cluster(node, rnd, covers.phase_depth(self.kappa, self.W, i),
                                     join_extra=covers.phase_cover_radius(self.kappa, self.W, i))


def _pending_samples(clock):
    return sum(a[0] == "sample" for bucket in clock.cal.values()
               for acts in bucket.values() if acts for a in acts)


def _cover_with(proto_cls, g, params):
    """cover_construction(g, params) built by proto_cls: the cover, the
    engine result, its node steps and the most sample actions the calendar
    held at the start of any round."""
    seen = {"steps": 0, "round": 0, "peak": 0}

    class Watched(proto_cls):
        def step(self, node, rnd):
            seen["steps"] += 1
            if rnd != seen["round"]:
                seen["round"] = rnd
                seen["peak"] = max(seen["peak"], _pending_samples(node._clock))
            return super().step(node, rnd)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(covers, "_CoverProtocol", Watched)
        cov, res = _recorded_cover(g, params)
    return cov, res, seen["steps"], seen["peak"]


def _known_view(known):
    cs = known["cluster"]
    return (known["mem"], known["kids"],
            None if cs is None else tuple(getattr(cs, s) for s in cs.__slots__))


@pytest.mark.parametrize("family, n, p", [
    ("path", 12, None), ("grid", 36, None), ("erdos_renyi", 40, 0.15),
    ("star", 10, None), ("complete", 8, None)])
@pytest.mark.parametrize("seed", [0, 1, 5])
@pytest.mark.parametrize("kappa", [1, 2, None])
@pytest.mark.parametrize("sparse", [False, True])
def test_chained_sampling_matches_the_every_phase_schedule(family, n, p, seed, kappa,
                                                           sparse, monkeypatch):
    # The real ramp covers these small graphs in phase 1 (its sources
    # explore 2*kappa*W hops); with sparse sampling nodes stay uncovered
    # through the middle phases, so their chained samples are exercised.
    if sparse:
        real = covers.phase_probability
        monkeypatch.setattr(covers, "phase_probability",
                            lambda kappa, n, i: real(kappa, n, i) if i >= kappa else 0.05)
    g = make_graph(family, n, seed=seed, p=p, id_scheme="random_permutation")
    kap = kappa if kappa is not None else bfscover.default_kappa(n)
    params = CoverParams(kappa=kap, W=2, seed=seed)
    cov, res, steps, peak = _cover_with(covers._CoverProtocol, g, params)
    ref, ref_res, ref_steps, ref_peak = _cover_with(_EveryPhaseCover, g, params)

    assert cov.metrics == ref.metrics
    assert cov.clusters == ref.clusters
    assert res.outputs == ref_res.outputs
    for v in g.nodes:
        assert _known_view(res.contexts[v].known) == _known_view(ref_res.contexts[v].known)
    cfg = ModeConfig(allow_quiescence=True, rng_seed=seed,
                     max_rounds=kap * phase_budget(kap, 2) + 10)
    assert run_digest(g, lambda: covers._CoverProtocol(g.n, kap, 2), cfg) \
        == run_digest(g, lambda: _EveryPhaseCover(g.n, kap, 2), cfg)

    # Only no-op wake-ups go: at most two samples per node are pending.
    assert peak <= 2 * g.n
    assert steps <= ref_steps
    if kap >= 3:
        assert ref_peak > 2 * g.n and steps < ref_steps
