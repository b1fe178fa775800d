"""Randomized sparse neighborhood covers.

A (kappa, W) cover is a family of overlapping clusters, each with its own
tree, such that every node's W-ball lies entirely inside at least one
cluster, no tree is deeper than 2*kappa*W, and no node sits in too many
clusters.  Construction runs kappa globally clocked phases: in phase i each
still-uncovered node independently promotes itself to a source with
probability p_i (p_kappa = 1, so coverage is total, not just likely), and
every phase-i source grows a cluster to depth 2*((kappa-i)+1)*W using the
layered exploration from clustercomm.  A node joining within 2*(kappa-i)*W
hops of a source marks itself covered — the exploration then runs 2W hops
further, which is exactly why the whole 2W-ball (hence W-ball) of a covered
node lands inside that cluster.

The sampling probability ramps geometrically, p_i = min(1, n^((i-kappa)/kappa)
* 3 ln n): early phases start few but deep clusters, late phases many shallow
ones, and the measured membership counts are the guardrail for the choice.

All phases run in one engine execution; phase i starts at round
1 + (i-1)*phase_budget(kappa, W) and the budget is wide enough that a phase's
deepest exploration is quiescent before the next phase samples.  Sampling
timers are chained: setup schedules each node's samples for phases 1 and
kappa only, and a still uncovered node whose phase-i sample (i < kappa - 1)
does not promote it schedules its phase-(i+1) sample then.  A covered node
thus never wakes again before phase kappa, and the calendar holds at most
two samples per node instead of kappa.  Every node keeps its
phase-kappa sample, covered or not: that round is active in every run, and
it is often the run's last active round (when no node is left uncovered),
so the rounds count is the one an every-phase schedule gives.  Because
sources keep receiving upward reports for their final layer, every root ends
the run knowing the full neighbor list of each member; the Cover keeps that
run's session, whose nodes keep what they learned for the later stages, and
so cover roots answer neighborhood queries without new communication.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Any, Dict, List, Tuple

from .clustercomm import ExplorationProtocol, RootedTree
from .netgraph import Graph, oracle_ball
from .simengine import ModeConfig, NodeContext, RunMetrics, Session, SimError, run


class CoverError(SimError):
    """Invalid cover parameters or a cover violating a hard invariant."""


@dataclass(frozen=True)
class CoverParams:
    kappa: int
    W: int
    seed: int = 0

    def __post_init__(self):
        if self.kappa < 1:
            raise CoverError("kappa must be >= 1")
        if self.W < 1:
            raise CoverError("W must be >= 1")

    @property
    def max_tree_depth(self) -> int:
        return 2 * self.kappa * self.W


def phase_budget(kappa: int, W: int) -> int:
    """Rounds reserved per phase: enough for a depth-H exploration plus its
    final report wave, H = 2*kappa*W."""
    H = 2 * kappa * W
    return H * H + 6 * H + 6


def phase_depth(kappa: int, W: int, i: int) -> int:
    return 2 * ((kappa - i) + 1) * W


def phase_cover_radius(kappa: int, W: int, i: int) -> int:
    return 2 * (kappa - i) * W


def phase_probability(kappa: int, n: int, i: int) -> float:
    if i >= kappa:
        return 1.0
    return min(1.0, (n ** ((i - kappa) / kappa)) * 3.0 * math.log(n))


@dataclass(frozen=True)
class Cover:
    clusters: Tuple[RootedTree, ...]  # ascending root id
    params: CoverParams
    session: Session  # the construction's nodes, with what they learned
    metrics: RunMetrics


@dataclass
class CoverReport:
    max_depth: int
    max_membership: int
    neighborhood_ok: bool
    uncovered: List[int]


class _CoverProtocol(ExplorationProtocol):
    name = "cover_construction"

    def __init__(self, n: int, kappa: int, W: int):
        B = phase_budget(kappa, W)
        self.kappa = kappa
        self.phase_start = {i: 1 + (i - 1) * B for i in range(1, kappa + 1)}
        self.phase_h = {i: phase_depth(kappa, W, i) for i in range(1, kappa + 1)}
        self.phase_radius = {i: phase_cover_radius(kappa, W, i) for i in range(1, kappa + 1)}
        self.phase_p = {i: phase_probability(kappa, n, i) for i in range(1, kappa + 1)}

    def setup(self, node: NodeContext) -> None:
        super().setup(node)
        node.output = {"covered": False, "phase": None}
        node.schedule(self.phase_start[1], ("sample", 1))
        if self.kappa > 1:
            node.schedule(self.phase_start[self.kappa], ("sample", self.kappa))

    def on_joined(self, node: NodeContext, root: int, depth: int, extra: Any) -> None:
        if depth <= extra:
            node.output["covered"] = True

    def run_action(self, node: NodeContext, rnd: int, action: Tuple) -> List:
        kind = action[0]
        if kind != "sample":
            return super().run_action(node, rnd, action)
        _, i = action
        if node.output["covered"]:
            return []
        p = self.phase_p[i]
        if p < 1.0 and node.rng.random() >= p:
            if i + 1 < self.kappa:  # phase kappa's sample is already due
                node.schedule(self.phase_start[i + 1], ("sample", i + 1))
            return []
        node.output["covered"] = True
        node.output["phase"] = i
        return self.activate_cluster(node, rnd, self.phase_h[i],
                                     join_extra=self.phase_radius[i])


def cover_construction(g: Graph, params: CoverParams) -> Cover:
    """Build a (kappa, W) cover of g; deterministic given params.seed.

    Every node ends up covered (the final phase promotes all stragglers),
    every tree respects the hard depth cap, and the run ends by natural
    quiescence once the last phase's explorations die out.
    """
    proto = _CoverProtocol(g.n, params.kappa, params.W)
    limit = params.kappa * phase_budget(params.kappa, params.W) + 10
    cfg = ModeConfig(allow_quiescence=True, rng_seed=params.seed, max_rounds=limit)
    session = Session(g)
    res = run(session, proto, cfg)

    clusters: List[RootedTree] = []
    cap = params.max_tree_depth
    for r in g.nodes:  # ascending
        cs = res.contexts[r].known["cluster"]
        if cs is None:
            continue
        tree = cs.tree()
        if tree.depth > cap:
            raise CoverError(f"cluster at {r} has depth {tree.depth} > {cap}")
        if None in cs.members.values():
            raise CoverError(f"root {r} lacks neighbor lists for some members")
        clusters.append(tree)

    for v in g.nodes:
        if not res.contexts[v].known["mem"]:
            raise CoverError(f"node {v} belongs to no cluster")
        if not res.outputs[v]["covered"]:
            raise CoverError(f"node {v} finished construction uncovered")
    session.release()  # the nodes keep only their knowledge

    return Cover(clusters=tuple(clusters), params=params, session=session,
                 metrics=res.metrics)


def verify_cover(cover: Cover, g: Graph) -> CoverReport:
    """Centralized audit of the three cover properties.

    Membership is counted from the trees themselves, and the W-ball
    containment test uses the plain graph oracle.  A spanning cluster (one
    whose members include every node of g) holds every node, and every
    W-ball lies in V(G), hence in that cluster: with one, no ball is built
    and no node is uncovered.  Spanning is a superset test, so a cluster
    that also names ids outside g still spans.
    """
    W = cover.params.W
    counts: Dict[int, int] = {v: 0 for v in g.nodes}
    holding: Dict[int, List[int]] = {v: [] for v in g.nodes}
    max_depth = 0
    spans = False
    for idx, tree in enumerate(cover.clusters):
        max_depth = max(max_depth, tree.depth)
        spans = spans or tree.members >= g.adjacency.keys()
        for m in tree.members:
            if m in counts:
                counts[m] += 1
                holding[m].append(idx)

    uncovered: List[int] = []
    if not spans:
        for v in g.nodes:
            ball = oracle_ball(g, v, W)
            # Bigger clusters first: the covering cluster is usually found
            # at the first or second probe.
            cands = sorted(holding[v], key=lambda i: -len(cover.clusters[i].members))
            if not any(ball <= cover.clusters[i].members for i in cands):
                uncovered.append(v)

    return CoverReport(
        max_depth=max_depth,
        max_membership=max(counts.values()) if counts else 0,
        neighborhood_ok=not uncovered,
        uncovered=uncovered,
    )


def sparsity_bound(n: int, kappa: int, c_s: float) -> float:
    """Membership guardrail c_s * kappa * n^(1/kappa) * ln n."""
    return c_s * kappa * (n ** (1.0 / kappa)) * math.log(max(n, 2))


def cover_to_json(cover: Cover) -> str:
    doc = {
        "params": {"kappa": cover.params.kappa, "W": cover.params.W,
                   "seed": cover.params.seed},
        "clusters": [
            {"root": t.root,
             "parent_map": {str(v): p for v, p in sorted(t.parent.items())},
             "depth": t.depth}
            for t in cover.clusters
        ],
    }
    return json.dumps(doc, sort_keys=True)
