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
deepest exploration is quiescent before the next phase samples.  Because
sources keep receiving upward reports for their final layer, every root ends
the run knowing the full neighbor list of each member; that cached knowledge
is exported in the Cover and is what later lets cover roots answer
neighborhood queries without new communication.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from .clustercomm import ClusterState, ExplorationProtocol, RootedTree
from .netgraph import Graph, oracle_ball
from .simengine import ModeConfig, NodeContext, RunMetrics, SimError, run


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


@dataclass
class Cover:
    clusters: Tuple[RootedTree, ...]
    membership: Dict[int, Tuple[int, ...]]  # node -> indices into clusters
    params: CoverParams
    root_index: Dict[int, int] = field(default_factory=dict)
    # root -> {member -> neighbor tuple}; what the root learned while growing.
    root_knowledge: Dict[int, Dict[int, Tuple[int, ...]]] = field(default_factory=dict)
    phase_of: Dict[int, int] = field(default_factory=dict)  # root -> phase
    metrics: Optional[RunMetrics] = None
    rounds: int = 0

    def clusters_of(self, v: int) -> Tuple[RootedTree, ...]:
        return tuple(self.clusters[i] for i in self.membership.get(v, ()))


@dataclass
class CoverReport:
    max_depth: int
    max_membership: int
    neighborhood_ok: bool
    uncovered: List[int]


class _CoverProtocol(ExplorationProtocol):
    name = "cover_construction"

    def __init__(self, n: int, kappa: int, W: int):
        super().__init__({}, report_final_layer=True)
        self.kappa = kappa
        self.W = W
        B = phase_budget(kappa, W)
        self.phase_start = {i: 1 + (i - 1) * B for i in range(1, kappa + 1)}
        self.phase_h = {i: phase_depth(kappa, W, i) for i in range(1, kappa + 1)}
        self.phase_radius = {i: phase_cover_radius(kappa, W, i) for i in range(1, kappa + 1)}
        self.phase_p = {i: phase_probability(kappa, n, i) for i in range(1, kappa + 1)}

    def setup(self, node: NodeContext) -> None:
        super().setup(node)
        node.output["covered"] = False
        node.output["phase"] = None
        for i, start in self.phase_start.items():
            node.schedule(start, ("sample", i))

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
    res = run(g, proto, cfg)

    roots: List[int] = []
    states: Dict[int, ClusterState] = {}
    for v in g.nodes:
        cs = res.contexts[v].state["clusters"].get(v)
        if cs is not None:
            roots.append(v)
            states[v] = cs
    roots.sort()

    clusters: List[RootedTree] = []
    root_index: Dict[int, int] = {}
    root_knowledge: Dict[int, Dict[int, Tuple[int, ...]]] = {}
    phase_of: Dict[int, int] = {}
    cap = params.max_tree_depth
    for r in roots:
        cs = states[r]
        tree = cs.tree()
        if tree.depth > cap:
            raise CoverError(f"cluster at {r} has depth {tree.depth} > {cap}")
        known = {m: nbrs for m, nbrs in cs.members.items() if nbrs is not None}
        if set(known) != set(tree.members):
            raise CoverError(f"root {r} lacks neighbor lists for some members")
        root_index[r] = len(clusters)
        clusters.append(tree)
        root_knowledge[r] = known
        phase_of[r] = res.outputs[r]["phase"]

    membership: Dict[int, Tuple[int, ...]] = {}
    for v in g.nodes:
        mem = res.outputs[v]["mem"]
        idxs = sorted(root_index[r] for r in mem)
        if not idxs:
            raise CoverError(f"node {v} belongs to no cluster")
        if not res.outputs[v]["covered"]:
            raise CoverError(f"node {v} finished construction uncovered")
        membership[v] = tuple(idxs)

    return Cover(
        clusters=tuple(clusters),
        membership=membership,
        params=params,
        root_index=root_index,
        root_knowledge=root_knowledge,
        phase_of=phase_of,
        metrics=res.metrics,
        rounds=res.metrics.rounds,
    )


def verify_cover(cover: Cover, g: Graph) -> CoverReport:
    """Centralized audit of the three cover properties.

    Membership is recomputed from the trees themselves (the cover's own
    index is not trusted), and the W-ball containment test uses the plain
    graph oracle.
    """
    W = cover.params.W
    counts: Dict[int, int] = {v: 0 for v in g.nodes}
    holding: Dict[int, List[int]] = {v: [] for v in g.nodes}
    max_depth = 0
    for idx, tree in enumerate(cover.clusters):
        max_depth = max(max_depth, tree.depth)
        for m in tree.members:
            if m in counts:
                counts[m] += 1
                holding[m].append(idx)

    uncovered: List[int] = []
    for v in g.nodes:
        ball = oracle_ball(g, v, W)
        # Bigger clusters first: the covering cluster is usually found at
        # the first or second probe.
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


def message_bound(n: int, kappa: int, W: int, c_m: float) -> float:
    """Construction traffic guardrail c_m * n * kappa^2 * W * n^(1/kappa) * ln n."""
    return c_m * n * kappa * kappa * W * (n ** (1.0 / kappa)) * math.log(max(n, 2))


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


def cover_from_json(text: str) -> Cover:
    """Inverse of cover_to_json; CoverError if text is not such a cover."""
    try:
        doc = json.loads(text)
        params = CoverParams(**doc["params"])
        entries = [(e["root"], {int(v): p for v, p in e["parent_map"].items()}, e["depth"])
                   for e in doc["clusters"]]
    except (KeyError, TypeError, AttributeError, ValueError) as exc:
        raise CoverError(f"malformed cover: {exc!r}") from exc
    clusters = []
    root_index = {}
    for root, parent, depth in entries:
        tree = RootedTree.from_parent_map(root, parent)
        if tree.depth != depth:
            raise CoverError("serialized depth disagrees with parent map")
        root_index[tree.root] = len(clusters)
        clusters.append(tree)
    membership: Dict[int, List[int]] = {}
    for idx, tree in enumerate(clusters):
        for m in tree.members:
            membership.setdefault(m, []).append(idx)
    return Cover(
        clusters=tuple(clusters),
        membership={v: tuple(sorted(ix)) for v, ix in membership.items()},
        params=params,
        root_index=root_index,
    )


def report_to_json(report: CoverReport) -> str:
    return json.dumps(
        {"max_depth": report.max_depth,
         "max_membership": report.max_membership,
         "neighborhood_ok": report.neighborhood_ok,
         "uncovered": report.uncovered},
        sort_keys=True,
    )
