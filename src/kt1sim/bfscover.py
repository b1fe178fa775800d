"""Randomized BFS through a sparse neighborhood cover, and the leader
election built from it.

The algorithm grows the BFS tree layer by layer.  The expensive part of a
layer — agreeing on which edge reaches each not-yet-spanned node — is
answered from (kappa, 2)-cover clusters instead of by flooding: a cluster
root that watched its cluster grow already knows every member's neighbor
list, so the only live information it needs is which members have joined
the BFS so far.

Preprocessing (once per cover, not per BFS phase):

* every root announces which members' 2-balls lie wholly inside its cluster
  (it can tell from its cached topology);
* every node picks its home cluster — the announcing cluster with the
  lowest root id — and registers there with one coalesced upward wave;
* every root tells the union of its registrants' 2-balls: "report your BFS
  join to me".  Each node therefore ends up knowing its home plus the small
  set of clusters it must keep informed.

Each BFS phase then runs in a fixed window of 2H+4 rounds (H = deepest
cover tree): frontier nodes push one coalesced wave of plain ids up the
relevant cover trees (offset H - depth keeps every hop a single merged
message: a node buffers the pings that arrive in the round of its own
flush for that root), every root notes the ids as joined and answers
those among its registrants, in one shared route, with an aggregate (its
static member topology plus the live joined set), and each frontier node
locally picks, for every unjoined neighbor w, the edge from the joined
neighbor of w of least id (equivalently, the lexicographically first edge
from a joined node to w) — sending the one exploration message only if it
owns that edge.  Every registrant's 2-ball is inside its home cluster
and inside that cluster's report set, so all frontier nodes examining the
same w see the same fresh candidate set and elect the same winner: each
node joins the BFS through exactly one exploration message, at its true
BFS layer.  A phase with an empty frontier sends nothing and the run ends
by quiescence.

Leader election: sample candidates with probability min(1, 8 ln n / n),
build one shared cover + registration, then run one BFS per candidate.
Candidate executions share no state, so running them back to back is
equivalent to the interleaved execution with candidate-tagged messages:
message totals add, rounds count as preprocessing plus the slowest
candidate.  Every node adopts the largest candidate id.
"""

from __future__ import annotations

import json
import math
import random
from bisect import bisect_left
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Set, Tuple

# bfs_tree_from_json and bfs_tree_to_json are re-exported from here.
from .clustercomm import (ClusterError, RootedTree, bfs_tree_from_json, bfs_tree_to_json,
                          route_map)
from .covers import Cover, CoverParams, cover_construction
from .netgraph import Graph
from .simengine import (
    CAT_CLUSTER_TREE,
    CAT_EXPLORATION,
    ModeConfig,
    NodeContext,
    Protocol,
    RunMetrics,
    SimError,
    run,
)

K_COV = 30   # home setup: root announces its 2-covered member set
K_REG = 31   # home setup: coalesced home registrations, leafward->root
K_REL = 32   # home setup: route-mapped "report joins to me" notices
K_PING = 20  # BFS: coalesced frontier reports/requests up a cover tree
K_AGG = 21   # BFS: route-mapped aggregate answer to requesters
K_GROW = 22  # BFS: the one exploration message a node ever receives

DEFAULT_KAPPA_FACTOR = 2
COVER_ATTEMPTS = 5
CANDIDATE_LOG_FACTOR = 8.0  # expected candidates ~ 8 ln n


class BFSError(SimError):
    """BFS preprocessing or growth failed (cover defect or protocol bug)."""


def default_kappa(n: int) -> int:
    return max(1, DEFAULT_KAPPA_FACTOR * math.ceil(math.log2(max(n, 2))))


# ---------------------------------------------------------------------------
# Home setup.
# ---------------------------------------------------------------------------

class _HomeSetupProtocol(Protocol):
    name = "home_setup"

    def __init__(self, cover: Cover, H: int):
        self.cover = cover
        self.H = H
        self._trees = {t.root: t for t in cover.clusters}
        self.kids = {t.root: t.children() for t in cover.clusters}
        # Each root's local computation: members whose whole 2-ball stays
        # inside the cluster (possible because the root knows every
        # member's neighbor list from the cover construction).  A holds the
        # members whose 1-ball is inside; a member's 2-ball is inside
        # exactly when all its neighbors are in A.
        self.cov2: Dict[int, frozenset] = {}
        for tree in cover.clusters:
            know = cover.root_knowledge[tree.root]
            inside = tree.members
            A = {w for w, nbrs in know.items() if inside.issuperset(nbrs)}
            self.cov2[tree.root] = frozenset(w for w in A if A.issuperset(know[w]))

    def setup(self, node: NodeContext) -> None:
        st = node.state
        st["bits"] = {}
        st["regbuf"] = {}
        st["registrants"] = set()
        node.output = {"home": None, "report_to": []}
        node.schedule(self.H + 2, ("home",))
        if node.self_id in self.cov2:
            node.schedule(2 * self.H + 2, ("wave_c",))

    def step(self, node: NodeContext, rnd: int):
        st = node.state
        v = node.self_id
        sends: List = []

        if rnd == 1 and v in self.cov2:
            covset = self.cov2[v]
            if covset:
                st["bits"][v] = v in covset
                for c in self.kids[v][v]:
                    sends.append((c, (K_COV, v, covset), CAT_CLUSTER_TREE))

        for src, payload in node.inbox:
            kind = payload[0]
            if kind == K_COV:
                _, root, covset = payload
                st["bits"][root] = v in covset
                for c in self.kids[root].get(v, ()):
                    sends.append((c, payload, CAT_CLUSTER_TREE))
            elif kind == K_REG:
                _, root, items = payload
                if v == root:
                    st["registrants"].update(items)
                elif ("reg_flush", root) in node.due:
                    st["regbuf"].setdefault(root, []).extend(items)
                else:
                    parent = self._trees[root].parent[v]
                    sends.append((parent, payload, CAT_CLUSTER_TREE))
            elif kind == K_REL:
                _, root, (kids, relevant) = payload
                if v in relevant:
                    node.output["report_to"].append(root)
                for c in kids.get(v, ()):
                    sends.append((c, payload, CAT_CLUSTER_TREE))
            else:
                raise BFSError(f"unexpected payload kind {kind!r} in home setup")

        # A depth-H node's home decision schedules its registration flush
        # for this very round; it joins node.due and runs below.
        for action in node.due:
            kind = action[0]
            if kind == "home":
                homes = sorted(r for r, bit in st["bits"].items() if bit)
                if not homes:
                    continue  # cover defect; preprocess() sees home=None and retries
                home = homes[0]
                node.output["home"] = home
                if home == v:
                    st["registrants"].add(v)
                else:
                    d = self._trees[home].layer[v]
                    node.schedule(self.H + 2 + (self.H - d), ("reg_flush", home))
            elif kind == "reg_flush":
                _, home = action
                items = tuple(sorted(set(st["regbuf"].pop(home, [])) | {v}))
                parent = self._trees[home].parent[v]
                sends.append((parent, (K_REG, home, items), CAT_CLUSTER_TREE))
            elif kind == "wave_c":
                sends.extend(self._wave_c(node))
            else:
                raise BFSError(f"unknown scheduled action {action!r}")
        return sends, False

    def _wave_c(self, node: NodeContext) -> List:
        """Root tells the union of registrants' 2-balls to report joins."""
        v = node.self_id
        know = self.cover.root_knowledge[v]
        ball1: Set[int] = set(node.state["registrants"])
        for r in node.state["registrants"]:
            ball1.update(know[r])
        relevant = set(ball1)
        for u in ball1:
            relevant.update(know[u])
        if v in relevant:
            node.output["report_to"].append(v)
        relevant.discard(v)
        route = route_map(v, self._trees[v].parent, dict.fromkeys(relevant, True))
        payload = (K_REL, v, route)
        return [(c, payload, CAT_CLUSTER_TREE) for c in route[0].get(v, ())]


@dataclass(frozen=True)
class Preprocessed:
    """A cover with its home setup, built once per cover.  registrants maps
    each cluster root to the nodes that registered there (those whose home
    it is), and plan maps each node v to its report plan, one (root,
    offset, flush) per root of report_to[v]: a phase starting in round s
    reports v's join to root in round s + offset, by a flush up root's
    tree, or at the root itself."""

    cover: Cover
    H: int
    home: Dict[int, int]
    report_to: Dict[int, Tuple[int, ...]]
    registrants: Dict[int, frozenset]
    plan: Dict[int, Tuple[Tuple[int, int, bool], ...]]
    metrics: RunMetrics
    attempts: int = 1


def _home_setup(g: Graph, cover: Cover) -> Optional[Preprocessed]:
    H = max(t.depth for t in cover.clusters)
    proto = _HomeSetupProtocol(cover, H)
    res = run(g, proto, ModeConfig(allow_quiescence=True, max_rounds=3 * H + 10))
    home: Dict[int, int] = {}
    report_to: Dict[int, Tuple[int, ...]] = {}
    plan: Dict[int, Tuple[Tuple[int, int, bool], ...]] = {}
    for v in g.nodes:
        out = res.outputs[v]
        if out["home"] is None:
            return None
        home[v] = out["home"]
        report_to[v] = tuple(sorted(set(out["report_to"]) | {out["home"]}))
        plan[v] = tuple((r, H, False) if r == v else (r, H - proto._trees[r].layer[v], True)
                        for r in report_to[v])
    registrants = {r: frozenset(res.contexts[r].state["registrants"]) for r in proto.cov2}
    merged = cover.metrics.merged_with(res.metrics) if cover.metrics else res.metrics
    return Preprocessed(cover=cover, H=H, home=home, report_to=report_to,
                        registrants=registrants, plan=plan, metrics=merged)


def preprocess(g: Graph, seed: int, kappa: Optional[int] = None,
               covers: Optional[Dict[CoverParams, Cover]] = None) -> Preprocessed:
    """Build the cover plus home registration; retried with a fresh seed on
    the (never yet observed) chance that some node ends up homeless.

    ``covers`` maps parameters to covers of g already built; an attempt
    whose parameters are there uses that cover, and every cover built is
    added, so a caller keeping the mapping builds each cover of g once."""
    kap = kappa if kappa is not None else default_kappa(g.n)
    covers = {} if covers is None else covers
    last = None
    for attempt in range(COVER_ATTEMPTS):
        params = CoverParams(kappa=kap, W=2, seed=seed + attempt)
        cover = covers.get(params)
        if cover is None:
            cover = covers[params] = cover_construction(g, params)
        pre = _home_setup(g, cover)
        if pre is not None:
            return replace(pre, attempts=attempt + 1)
        last = cover
    raise BFSError(
        f"no covering home for some node after {COVER_ATTEMPTS} cover attempts "
        f"(n={g.n}, kappa={kap}, seed={seed}); last cover had "
        f"{len(last.clusters) if last else 0} clusters"
    )


# ---------------------------------------------------------------------------
# Phased BFS growth.
# ---------------------------------------------------------------------------

class _BFSPhaseProtocol(Protocol):
    name = "bfs_phases"

    def __init__(self, root: int, pre: Preprocessed):
        self.bfs_root = root
        self.pre = pre
        self.H = pre.H
        self.window = 2 * pre.H + 4
        self._trees = {t.root: t for t in pre.cover.clusters}

    def setup(self, node: NodeContext) -> None:
        st = node.state
        v = node.self_id
        st["pingbuf"] = {}
        if v in self._trees:
            # Root-side live view: members known to be in the BFS, and the
            # requesters of the current phase.
            st["joined"] = set()
            st["asking"] = []
        node.output = {"layer": None, "parent": None, "grow_msgs": 0}
        if v == self.bfs_root:
            node.output["layer"] = 0
            self._schedule_reports(node, 1)

    def _schedule_reports(self, node: NodeContext, phase_start: int) -> None:
        """As the frontier of the phase starting in round phase_start,
        report the join to every cluster that asked (the home root, which
        knows its registrants, answers with an aggregate)."""
        for root, offset, flush in self.pre.plan[node.self_id]:
            node.schedule(phase_start + offset, ("ping_flush" if flush else "self_ping", root))

    def step(self, node: NodeContext, rnd: int):
        st = node.state
        v = node.self_id
        sends: List = []
        root_touched = False

        for src, payload in node.inbox:
            kind = payload[0]
            if kind == K_PING:
                _, root, ids = payload
                if v == root:
                    root_touched = True
                    self._root_absorb(node, ids)
                elif ("ping_flush", root) in node.due:
                    st["pingbuf"].setdefault(root, []).extend(ids)
                else:
                    parent = self._trees[root].parent[v]
                    sends.append((parent, payload, CAT_CLUSTER_TREE))
            elif kind == K_AGG:
                _, root, (kids, asking), agg = payload
                if v in asking:
                    self._consume_aggregate(node, rnd, agg)
                for c in kids.get(v, ()):
                    sends.append((c, payload, CAT_CLUSTER_TREE))
            elif kind == K_GROW:
                _, layer = payload
                node.output["grow_msgs"] += 1
                if node.output["layer"] is not None:
                    raise BFSError(
                        f"node {v} got a second exploration message (root {self.bfs_root})"
                    )
                node.output["layer"] = layer
                node.output["parent"] = src
                # Next phase starts one round after this delivery.
                self._schedule_reports(node, rnd + 1)
            else:
                raise BFSError(f"unexpected payload kind {kind!r} in BFS phase")

        for action in node.due:
            kind = action[0]
            if kind == "ping_flush":
                _, root = action
                ids = st["pingbuf"].pop(root, [])
                ids.append(v)
                ids.sort()
                parent = self._trees[root].parent[v]
                sends.append((parent, (K_PING, root, tuple(ids)), CAT_CLUSTER_TREE))
            elif kind == "self_ping":
                root_touched = True
                self._root_absorb(node, (v,))
            elif kind == "explore":
                _, targets, layer = action
                for w in targets:
                    sends.append((w, (K_GROW, layer), CAT_EXPLORATION))
            else:
                raise BFSError(f"unknown scheduled action {action!r}")

        if root_touched:
            sends.extend(self._root_answer(node, rnd))
        return sends, False

    # Root-side -----------------------------------------------------------
    def _root_absorb(self, node: NodeContext, ids) -> None:
        """Note the joins of ids; those whose home is this root ask."""
        st = node.state
        joined = st["joined"]
        asking = st["asking"]
        registrants = self.pre.registrants[node.self_id]
        for vid in ids:
            joined.add(vid)
            if vid in registrants:
                asking.append(vid)

    def _root_answer(self, node: NodeContext, rnd: int) -> List:
        """All of this phase's pings arrive in one round; answer requesters
        with one route-mapped copy of (static topology, live joined set).

        The joined set is shared by reference and mutates in later phases;
        receivers consume it on delivery, which is always before the next
        phase's reports can reach this root.
        """
        st = node.state
        v = node.self_id
        asking = st["asking"]
        if not asking:
            return []
        st["asking"] = []
        agg = (self.pre.cover.root_knowledge[v], st["joined"])
        if v in asking:
            self._consume_aggregate(node, rnd, agg)
        route = route_map(v, self._trees[v].parent,
                          dict.fromkeys((w for w in asking if w != v), True))
        payload = (K_AGG, v, route, agg)
        return [(c, payload, CAT_CLUSTER_TREE) for c in route[0].get(v, ())]

    # Frontier-side -------------------------------------------------------
    def _consume_aggregate(self, node: NodeContext, rnd: int, agg) -> None:
        """Decide which unjoined neighbors this node must explore: it owns
        neighbor w exactly when v is the joined neighbor of w of least id
        (equivalently, (v,w) is the lexicographically first edge from a
        joined node to w: for fixed w the pair (min(x,w), max(x,w)) grows
        with x).  topo[w] is w's sorted neighbor list, so v owns w when v
        has joined and no entry of topo[w] below v has.  All frontier
        neighbors of w see the same candidate set, so the winner is
        unique."""
        topo, joined = agg
        v = node.self_id
        my_layer = node.output["layer"]
        targets = []
        for w in node.neighbor_ids:
            if w in joined:
                continue
            nbrs = topo.get(w)
            if nbrs is None:
                raise BFSError(
                    f"home cluster of {v} lacks neighbor {w}: 2-ball not covered"
                )
            if v in joined and joined.isdisjoint(nbrs[:bisect_left(nbrs, v)]):
                targets.append(w)
        if targets:
            # Fixed send slot at the end of stage 2, uniform across all
            # requesters regardless of when their aggregate arrived.
            phase_start = rnd - self.H - (self._trees[self.pre.home[v]].layer[v]
                                          if self.pre.home[v] != v else 0)
            send_at = phase_start + 2 * self.H + 2
            node.schedule(send_at, ("explore", tuple(targets), my_layer + 1))


@dataclass
class BFSResult:
    tree: RootedTree
    metrics: RunMetrics
    pre: Preprocessed
    grow_receipts: Dict[int, int] = field(default_factory=dict)

    @property
    def cover(self) -> Cover:
        return self.pre.cover


def _run_phases(g: Graph, root: int, pre: Preprocessed) -> Tuple[RootedTree, RunMetrics, Dict[int, int]]:
    proto = _BFSPhaseProtocol(root, pre)
    limit = (g.n + 2) * proto.window + 10
    res = run(g, proto, ModeConfig(allow_quiescence=True, max_rounds=limit))
    parent: Dict[int, int] = {}
    layer: Dict[int, int] = {root: 0}
    receipts: Dict[int, int] = {}
    for v in g.nodes:
        out = res.outputs[v]
        if out["grow_msgs"]:
            receipts[v] = out["grow_msgs"]
        if v == root:
            continue
        if out["layer"] is None:
            raise BFSError(f"BFS from {root} never reached node {v}")
        parent[v] = out["parent"]
        layer[v] = out["layer"]
    return RootedTree(root=root, parent=parent, layer=layer), res.metrics, receipts


def bfs_construction(g: Graph, root: int, seed: int = 0,
                     kappa: Optional[int] = None,
                     pre: Optional[Preprocessed] = None) -> BFSResult:
    """Exact BFS tree from root; cover + registration + phased growth.

    Metrics cover the whole pipeline including cover construction.  Pass a
    Preprocessed to reuse one cover across many roots (leader election does).
    """
    if root not in g.adjacency:
        raise BFSError(f"root {root} not in graph")
    if pre is None:
        pre = preprocess(g, seed, kappa)
    tree, pm, receipts = _run_phases(g, root, pre)
    tree.validate_spanning(g)
    metrics = pre.metrics.merged_with(pm)
    return BFSResult(tree=tree, metrics=metrics, pre=pre, grow_receipts=receipts)


# ---------------------------------------------------------------------------
# Randomized leader election.
# ---------------------------------------------------------------------------

@dataclass
class ElectionResult:
    success: bool
    leader: Optional[int]
    unanimous: bool
    candidates: Tuple[int, ...]
    leader_at: Dict[int, int]
    metrics: RunMetrics
    failure: Optional[str] = None


def election_to_json(res: ElectionResult) -> str:
    return json.dumps(
        {"leader": res.leader, "unanimous": res.unanimous,
         "candidates": list(res.candidates), "success": res.success},
        sort_keys=True,
    )


def randomized_leader_election(g: Graph, seed: int = 0,
                               candidates: Optional[Sequence[int]] = None,
                               kappa: Optional[int] = None,
                               pre: Optional[Preprocessed] = None) -> ElectionResult:
    """Elect the max-id BFS candidate.

    Candidates sample themselves with probability min(1, 8 ln n / n) using
    the shared seed; a caller may force an explicit candidate set instead.
    All candidate BFS runs reuse one cover, and their rounds overlap (the
    executions are disjoint in state, so the round count is preprocessing
    plus the slowest candidate while messages add up).  Pass a Preprocessed
    to reuse a cover built before (for a BFS on the same graph, say);
    metrics still include its preprocessing.
    """
    if candidates is None:
        p = min(1.0, CANDIDATE_LOG_FACTOR * math.log(max(g.n, 2)) / g.n)
        rng = random.Random((seed * 0x9E3779B97F4A7C15 + 0xC2B2AE35) & (2 ** 64 - 1))
        cands = tuple(v for v in g.nodes if rng.random() < p)
    else:
        cands = tuple(sorted(set(candidates)))
        if any(c not in g.adjacency for c in cands):
            raise BFSError("explicit candidate outside the graph")

    if not cands:
        return ElectionResult(success=False, leader=None, unanimous=False,
                              candidates=(), leader_at={}, metrics=RunMetrics(),
                              failure="no candidate sampled")

    if pre is None:
        pre = preprocess(g, seed, kappa)
    metrics = pre.metrics
    phase_metrics: Optional[RunMetrics] = None
    best_seen: Dict[int, int] = {v: -1 for v in g.nodes}
    ok = True
    for c in cands:
        tree, pm, _ = _run_phases(g, c, pre)
        try:
            tree.validate_spanning(g)
        except ClusterError:
            ok = False
        phase_metrics = pm if phase_metrics is None else \
            phase_metrics.merged_with(pm, parallel=True)
        for v in tree.layer:
            if c > best_seen[v]:
                best_seen[v] = c
    metrics = metrics.merged_with(phase_metrics)
    leader = max(cands)
    unanimous = ok and all(b == leader for b in best_seen.values())
    return ElectionResult(success=True, leader=leader, unanimous=unanimous,
                          candidates=cands, leader_at=dict(best_seen),
                          metrics=metrics)
