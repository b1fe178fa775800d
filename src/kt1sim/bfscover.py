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
cover tree): frontier nodes push one coalesced report/request wave up the
relevant cover trees (offset H - depth keeps every hop a single merged
message), roots answer requesters with a source-routed aggregate (their
static member topology plus the live joined set), and each frontier node
locally picks, for every unjoined neighbor w, the lexicographically first
edge from a joined node to w — sending the one exploration message only if
it owns that edge.  Every registrant's 2-ball is inside its home cluster
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
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

# bfs_tree_from_json and bfs_tree_to_json are re-exported from here.
from .clustercomm import (ClusterError, RootedTree, bfs_tree_from_json, bfs_tree_to_json,
                          source_route, split_routes)
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
K_REL = 32   # home setup: source-routed "report joins to me" notices
K_PING = 20  # BFS: coalesced frontier reports/requests up a cover tree
K_AGG = 21   # BFS: source-routed aggregate answer to requesters
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
        self.kids = {t.root: t.children() for t in cover.clusters}
        # Each root's local computation: members whose whole 2-ball stays
        # inside the cluster (possible because the root knows every
        # member's neighbor list from the cover construction).
        self.cov2: Dict[int, frozenset] = {}
        for tree in cover.clusters:
            know = cover.root_knowledge[tree.root]
            inside = tree.members
            covered = []
            for w in know:
                nbrs = know[w]
                if all(u in inside for u in nbrs) and \
                   all(x in inside for u in nbrs for x in know[u]):
                    covered.append(w)
            self.cov2[tree.root] = frozenset(covered)

    def _tree(self, root: int):
        return self.cover.clusters[self.cover.root_index[root]]

    def setup(self, node: NodeContext) -> None:
        st = node.state
        st["bits"] = {}
        st["regbuf"] = {}
        st["flush_due"] = {}
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
                elif st["flush_due"].get(root) == rnd:
                    st["regbuf"].setdefault(root, []).extend(items)
                else:
                    parent = self._tree(root).parent[v]
                    sends.append((parent, payload, CAT_CLUSTER_TREE))
            elif kind == K_REL:
                _, root, entries = payload
                here, onward = split_routes(entries)
                if here:
                    node.output["report_to"].append(root)
                for hop, fwd in onward:
                    sends.append((hop, (K_REL, root, fwd), CAT_CLUSTER_TREE))
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
                    d = self._tree(home).layer[v]
                    flush_at = self.H + 2 + (self.H - d)
                    st["flush_due"][home] = flush_at
                    node.schedule(flush_at, ("reg_flush", home))
            elif kind == "reg_flush":
                _, home = action
                items = tuple(sorted(set(st["regbuf"].pop(home, [])) | {v}))
                parent = self._tree(home).parent[v]
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
        relevant: Set[int] = set()
        for r in node.state["registrants"]:
            relevant.add(r)
            for u in know[r]:
                relevant.add(u)
                relevant.update(know[u])
        if v in relevant:
            node.output["report_to"].append(v)
        targets = [(w,) for w in sorted(relevant) if w != v]
        return [(hop, (K_REL, v, entries), CAT_CLUSTER_TREE)
                for hop, entries in source_route(v, self._tree(v).parent, targets)]


@dataclass
class Preprocessed:
    cover: Cover
    H: int
    home: Dict[int, int]
    report_to: Dict[int, Tuple[int, ...]]
    metrics: RunMetrics
    attempts: int = 1


def _home_setup(g: Graph, cover: Cover) -> Optional[Preprocessed]:
    H = max(t.depth for t in cover.clusters)
    proto = _HomeSetupProtocol(cover, H)
    res = run(g, proto, ModeConfig(allow_quiescence=True, max_rounds=3 * H + 10))
    home: Dict[int, int] = {}
    report_to: Dict[int, Tuple[int, ...]] = {}
    for v in g.nodes:
        out = res.outputs[v]
        if out["home"] is None:
            return None
        home[v] = out["home"]
        report_to[v] = tuple(sorted(set(out["report_to"]) | {out["home"]}))
    merged = cover.metrics.merged_with(res.metrics) if cover.metrics else res.metrics
    return Preprocessed(cover=cover, H=H, home=home, report_to=report_to,
                        metrics=merged)


def preprocess(g: Graph, seed: int, kappa: Optional[int] = None) -> Preprocessed:
    """Build the cover plus home registration; retried with a fresh seed on
    the (never yet observed) chance that some node ends up homeless."""
    kap = kappa if kappa is not None else default_kappa(g.n)
    last = None
    for attempt in range(COVER_ATTEMPTS):
        params = CoverParams(kappa=kap, W=2, seed=seed + attempt)
        cover = cover_construction(g, params)
        pre = _home_setup(g, cover)
        if pre is not None:
            pre.attempts = attempt + 1
            return pre
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

    def _tree(self, root: int):
        return self.pre.cover.clusters[self.pre.cover.root_index[root]]

    def setup(self, node: NodeContext) -> None:
        st = node.state
        v = node.self_id
        st["pingbuf"] = {}
        st["flush_due"] = {}
        if v in self.pre.cover.root_index:
            # Root-side live view: members known to be in the BFS, and the
            # requesters of the current phase.
            st["joined"] = set()
            st["asking"] = []
        node.output = {"layer": None, "parent": None, "grow_msgs": 0}
        if v == self.bfs_root:
            node.output["layer"] = 0
            self._schedule_reports(node, 0, 1)

    def _schedule_reports(self, node: NodeContext, layer: int, phase_start: int) -> None:
        """As the phase-(layer+1) frontier, report the join to every cluster
        that asked, requesting an aggregate from the home cluster."""
        v = node.self_id
        for root in self.pre.report_to[v]:
            want = root == self.pre.home[v]
            if root == v:
                node.schedule(phase_start + self.H, ("self_ping", root, want))
                continue
            d = self._tree(root).layer[v]
            at = phase_start + (self.H - d)
            node.state["flush_due"][root] = at
            node.schedule(at, ("ping_flush", root, want))

    def step(self, node: NodeContext, rnd: int):
        st = node.state
        v = node.self_id
        sends: List = []
        root_touched = False

        for src, payload in node.inbox:
            kind = payload[0]
            if kind == K_PING:
                _, root, items = payload
                if v == root:
                    root_touched = True
                    self._root_absorb(node, items)
                elif st["flush_due"].get(root) == rnd:
                    st["pingbuf"].setdefault(root, []).extend(items)
                else:
                    parent = self._tree(root).parent[v]
                    sends.append((parent, payload, CAT_CLUSTER_TREE))
            elif kind == K_AGG:
                _, root, entries, agg = payload
                here, onward = split_routes(entries)
                if here:
                    self._consume_aggregate(node, rnd, agg)
                for hop, fwd in onward:
                    sends.append((hop, (K_AGG, root, fwd, agg), CAT_CLUSTER_TREE))
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
                self._schedule_reports(node, layer, rnd + 1)
            else:
                raise BFSError(f"unexpected payload kind {kind!r} in BFS phase")

        for action in node.due:
            kind = action[0]
            if kind == "ping_flush":
                _, root, want = action
                items = st["pingbuf"].pop(root, [])
                items.append((v, want))
                items.sort()
                parent = self._tree(root).parent[v]
                sends.append((parent, (K_PING, root, tuple(items)), CAT_CLUSTER_TREE))
            elif kind == "self_ping":
                _, root, want = action
                root_touched = True
                self._root_absorb(node, ((v, want),))
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
    def _root_absorb(self, node: NodeContext, items) -> None:
        st = node.state
        for vid, want in items:
            st["joined"].add(vid)
            if want:
                st["asking"].append(vid)

    def _root_answer(self, node: NodeContext, rnd: int) -> List:
        """All of this phase's pings arrive in one round; answer requesters
        with one source-routed copy of (static topology, live joined set).

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
        targets = [(w,) for w in sorted(set(asking)) if w != v]
        return [(hop, (K_AGG, v, entries, agg), CAT_CLUSTER_TREE)
                for hop, entries in source_route(v, self._tree(v).parent, targets)]

    # Frontier-side -------------------------------------------------------
    def _consume_aggregate(self, node: NodeContext, rnd: int, agg) -> None:
        """Decide which unjoined neighbors this node must explore: it owns
        neighbor w exactly when (v,w) is the lexicographically first edge
        from a joined node to w.  All frontier neighbors of w see the same
        candidate set, so the winner is unique."""
        topo, joined = agg
        v = node.self_id
        my_layer = node.output["layer"]
        targets = []
        for w in node.neighbor_ids:
            if w in joined:
                continue
            if w not in topo:
                raise BFSError(
                    f"home cluster of {v} lacks neighbor {w}: 2-ball not covered"
                )
            best = None
            for x in topo[w]:
                if x in joined:
                    key = (x, w) if x < w else (w, x)
                    if best is None or key < best[0]:
                        best = (key, x)
            if best is not None and best[1] == v:
                targets.append(w)
        if targets:
            # Fixed send slot at the end of stage 2, uniform across all
            # requesters regardless of when their aggregate arrived.
            phase_start = rnd - self.H - (self._tree(self.pre.home[v]).layer[v]
                                          if self.pre.home[v] != v else 0)
            send_at = phase_start + 2 * self.H + 2
            node.schedule(send_at, ("explore", tuple(targets), my_layer + 1))


@dataclass
class BFSResult:
    tree: RootedTree
    metrics: RunMetrics
    rounds: int
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
    return BFSResult(tree=tree, metrics=metrics, rounds=metrics.rounds, pre=pre,
                     grow_receipts=receipts)


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
    rounds: int
    failure: Optional[str] = None


def election_to_json(res: ElectionResult) -> str:
    return json.dumps(
        {"leader": res.leader, "unanimous": res.unanimous,
         "candidates": list(res.candidates), "success": res.success},
        sort_keys=True,
    )


def randomized_leader_election(g: Graph, seed: int = 0,
                               n_estimate: Optional[int] = None,
                               candidates: Optional[Sequence[int]] = None,
                               kappa: Optional[int] = None) -> ElectionResult:
    """Elect the max-id BFS candidate.

    Candidates sample themselves with probability min(1, 8 ln n / n) using
    the shared seed; a caller may force an explicit candidate set instead.
    All candidate BFS runs reuse one cover, and their rounds overlap (the
    executions are disjoint in state, so the round count is preprocessing
    plus the slowest candidate while messages add up).
    """
    n_est = n_estimate if n_estimate is not None else g.n
    if candidates is None:
        p = min(1.0, CANDIDATE_LOG_FACTOR * math.log(max(n_est, 2)) / n_est)
        rng = random.Random((seed * 0x9E3779B97F4A7C15 + 0xC2B2AE35) & (2 ** 64 - 1))
        cands = tuple(v for v in g.nodes if rng.random() < p)
    else:
        cands = tuple(sorted(set(candidates)))
        if any(c not in g.adjacency for c in cands):
            raise BFSError("explicit candidate outside the graph")

    if not cands:
        return ElectionResult(success=False, leader=None, unanimous=False,
                              candidates=(), leader_at={}, metrics=RunMetrics(),
                              rounds=0, failure="no candidate sampled")

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
                          metrics=metrics, rounds=metrics.rounds)
