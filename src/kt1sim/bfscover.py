"""Randomized BFS through a sparse neighborhood cover, and the leader
election built from it.

The algorithm grows the BFS tree layer by layer.  The expensive part of a
layer — agreeing on which edge reaches each not-yet-spanned node — is
answered from (kappa, 2)-cover clusters instead of by flooding: a cluster
root that watched its cluster grow already knows every member's neighbor
list, so the only live information it needs is which members have joined
the BFS so far.

Preprocessing (``preprocess(g, cover)``, once per cover, not per BFS phase;
the pipelines run it on ``default_cover(g, seed)``):

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
owns that edge.  The owner is the first joined entry of w's sorted
neighbor tuple, found by one ascending scan that stops there.  Every
registrant's 2-ball is inside its home cluster and inside that cluster's
report set, so all frontier nodes examining the same w see the same fresh
candidate set and elect the same winner: each node joins the BFS through
exactly one exploration message, at its true BFS layer.  A phase with an
empty frontier sends nothing and the run ends by quiescence.

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
from bisect import insort
from dataclasses import dataclass, field
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
CANDIDATE_LOG_FACTOR = 8.0  # expected candidates ~ 8 ln n


class BFSError(SimError):
    """BFS preprocessing or growth failed (cover defect or protocol bug)."""


def default_kappa(n: int) -> int:
    return max(1, DEFAULT_KAPPA_FACTOR * math.ceil(math.log2(max(n, 2))))


def _relay_up(node: NodeContext, payload: Tuple, sends: List) -> None:
    """Pass an id batch up toward its root, or hold it for this node's own
    flush for that root if that is due this round."""
    _, root, ids = payload
    if ("flush", root) in node.due:
        node.state["buf"].setdefault(root, []).extend(ids)
    else:
        sends.append((node.known["mem"][root][0], payload, CAT_CLUSTER_TREE))


def _flush_up(node: NodeContext, kind: int, root: int, sends: List) -> None:
    """Send this node's id and the ids it held for root, sorted, up root's tree."""
    ids = node.state["buf"].pop(root, [])
    ids.append(node.self_id)
    ids.sort()
    sends.append((node.known["mem"][root][0], (kind, root, tuple(ids)), CAT_CLUSTER_TREE))


# ---------------------------------------------------------------------------
# Home setup.
# ---------------------------------------------------------------------------

class _HomeSetupProtocol(Protocol):
    """Leaves in node.known, reset by setup, "report_to": the ascending roots
    a node reports its BFS join to, its home among them, and at a root
    "registrants": the nodes whose home it is.  A node's output is its home,
    the least root whose announced set holds it; a node that no announced
    set holds is a BFSError naming it."""

    name = "home_setup"

    def __init__(self, H: int):
        self.H = H

    def setup(self, node: NodeContext) -> None:
        st = node.state
        known = node.known
        st["home"] = None  # the least announcing root seen that holds this node
        st["buf"] = {}
        known["report_to"] = []
        node.schedule(self.H + 2, ("home",))
        cs = known["cluster"]
        if cs is not None:
            known["registrants"] = set()
            # The root's local computation: members whose whole 2-ball stays
            # inside the cluster (possible because its ledger holds every
            # member's neighbor list).  A holds the members whose 1-ball is
            # inside; a member's 2-ball is inside exactly when all its
            # neighbors are in A.
            know = cs.members
            inside = frozenset(know)
            A = {w for w, nbrs in know.items() if inside.issuperset(nbrs)}
            st["cov2"] = frozenset(w for w in A if A.issuperset(know[w]))
            node.schedule(2 * self.H + 2, ("wave_c",))

    def step(self, node: NodeContext, rnd: int):
        st = node.state
        known = node.known
        v = node.self_id
        sends: List = []

        if rnd == 1 and st.get("cov2"):
            covset = st["cov2"]
            if v in covset:  # before any announcement arrives
                st["home"] = v
            for c in known["kids"].get(v, ()):
                sends.append((c, (K_COV, v, covset), CAT_CLUSTER_TREE))

        for src, payload in node.inbox:
            kind = payload[0]
            if kind == K_COV:
                _, root, covset = payload
                if v in covset and (st["home"] is None or root < st["home"]):
                    st["home"] = root
                for c in known["kids"].get(root, ()):
                    sends.append((c, payload, CAT_CLUSTER_TREE))
            elif kind == K_REG:
                if v == payload[1]:
                    known["registrants"].update(payload[2])
                else:
                    _relay_up(node, payload, sends)
            elif kind == K_REL:
                _, root, (kids, relevant) = payload
                if v in relevant:  # the home root's notice always is
                    insort(known["report_to"], root)
                for c in kids.get(v, ()):
                    sends.append((c, payload, CAT_CLUSTER_TREE))
            else:
                raise BFSError(f"unexpected payload kind {kind!r} in home setup")

        # A depth-H node's home decision schedules its registration flush
        # for this very round; it joins node.due and runs below.
        for action in node.due:
            kind = action[0]
            if kind == "home":
                home = node.output = st["home"]
                if home is None:
                    raise BFSError(f"node {v} has no home: no cluster holds its 2-ball")
                if home == v:
                    known["registrants"].add(v)
                else:
                    d = known["mem"][home][1]
                    node.schedule(self.H + 2 + (self.H - d), ("flush", home))
            elif kind == "flush":
                _, home = action
                _flush_up(node, K_REG, home, sends)
            elif kind == "wave_c":
                sends.extend(self._wave_c(node))
            else:
                raise BFSError(f"unknown scheduled action {action!r}")
        return sends, False

    def _wave_c(self, node: NodeContext) -> List:
        """Root tells the union of registrants' 2-balls to report joins."""
        v = node.self_id
        known = node.known
        know = known["cluster"].members
        ball1: Set[int] = set(known["registrants"])
        for r in known["registrants"]:
            ball1.update(know[r])
        relevant = set(ball1)
        for u in ball1:
            relevant.update(know[u])
        if v in relevant:
            insort(known["report_to"], v)
        relevant.discard(v)
        route = route_map(v, known["cluster"].parent, dict.fromkeys(relevant, True))
        payload = (K_REL, v, route)
        return [(c, payload, CAT_CLUSTER_TREE) for c in route[0].get(v, ())]


@dataclass(frozen=True)
class Preprocessed:
    """A cover whose home setup has run on its session (see
    _HomeSetupProtocol).  A phase starting in round s reports a node's join
    to each of its report roots r in round s + H - (its depth in r's tree),
    so every report of the phase reaches its root in round s + H."""

    cover: Cover
    H: int
    metrics: RunMetrics


def default_cover(g: Graph, seed: int) -> Cover:
    """The (default_kappa(g.n), 2) cover of g drawn from seed: the one every
    pipeline of the package runs on."""
    return cover_construction(g, CoverParams(kappa=default_kappa(g.n), W=2, seed=seed))


def preprocess(g: Graph, cover: Cover) -> Preprocessed:
    """Home setup, once, on a cover of g (one of another graph is a BFSError).

    The cover's last phase samples with p = 1, so every node's 2-ball lies
    in some cluster and every node finds a home; a node that finds none is
    a BFSError naming it."""
    _check_graph(g, cover)
    H = max(t.depth for t in cover.clusters)
    try:
        res = run(cover.session, _HomeSetupProtocol(H),
                  ModeConfig(allow_quiescence=True, max_rounds=3 * H + 10))
    finally:  # a homeless node's BFSError leaves no run state on the cover
        cover.session.release()
    return Preprocessed(cover=cover, H=H, metrics=cover.metrics.merged_with(res.metrics))


def _check_graph(g: Graph, cover: Cover) -> None:
    """BFSError unless cover's session was built on g's adjacency."""
    if cover.session.adj != g.adjacency:
        raise BFSError("the cover was built on another graph than g")


def _preprocessed(g: Graph, seed: int, pre: Optional[Preprocessed]) -> Preprocessed:
    """pre, checked to be of g, or the default cover of g from seed, preprocessed."""
    if pre is None:
        return preprocess(g, default_cover(g, seed))
    _check_graph(g, pre.cover)
    return pre


# ---------------------------------------------------------------------------
# Phased BFS growth.
# ---------------------------------------------------------------------------

class _BFSPhaseProtocol(Protocol):
    name = "bfs_phases"

    def __init__(self, root: int, H: int):
        self.bfs_root = root
        self.H = H
        self.window = 2 * H + 4

    def setup(self, node: NodeContext) -> None:
        st = node.state
        v = node.self_id
        st["buf"] = {}
        if node.known["cluster"] is not None:
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
        node.state["phase_start"] = phase_start
        mem = node.known["mem"]
        for root in node.known["report_to"]:
            node.schedule(phase_start + self.H - mem[root][1], ("flush", root))

    def step(self, node: NodeContext, rnd: int):
        v = node.self_id
        sends: List = []
        root_touched = False

        for src, payload in node.inbox:
            kind = payload[0]
            if kind == K_PING:
                if v == payload[1]:
                    root_touched = True
                    self._root_absorb(node, payload[2])
                else:
                    _relay_up(node, payload, sends)
            elif kind == K_AGG:
                _, root, (kids, asking), agg = payload
                if v in asking:
                    self._consume_aggregate(node, agg)
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
            if kind == "flush":
                _, root = action
                if v == root:
                    root_touched = True
                    self._root_absorb(node, (v,))
                else:
                    _flush_up(node, K_PING, root, sends)
            elif kind == "explore":
                _, targets, layer = action
                for w in targets:
                    sends.append((w, (K_GROW, layer), CAT_EXPLORATION))
            else:
                raise BFSError(f"unknown scheduled action {action!r}")

        if root_touched:
            sends.extend(self._root_answer(node))
        return sends, False

    # Root-side -----------------------------------------------------------
    def _root_absorb(self, node: NodeContext, ids) -> None:
        """Note the joins of ids; those whose home is this root ask."""
        st = node.state
        joined = st["joined"]
        asking = st["asking"]
        registrants = node.known["registrants"]
        for vid in ids:
            joined.add(vid)
            if vid in registrants:
                asking.append(vid)

    def _root_answer(self, node: NodeContext) -> List:
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
        cs = node.known["cluster"]
        agg = (cs.members, st["joined"])
        if v in asking:
            self._consume_aggregate(node, agg)
        route = route_map(v, cs.parent,
                          dict.fromkeys((w for w in asking if w != v), True))
        payload = (K_AGG, v, route, agg)
        return [(c, payload, CAT_CLUSTER_TREE) for c in route[0].get(v, ())]

    # Frontier-side -------------------------------------------------------
    def _consume_aggregate(self, node: NodeContext, agg) -> None:
        """Decide which unjoined neighbors this node must explore: it owns
        neighbor w exactly when v is the joined neighbor of w of least id
        (equivalently, (v,w) is the lexicographically first edge from a
        joined node to w: for fixed w the pair (min(x,w), max(x,w)) grows
        with x).  topo[w] is w's sorted neighbor list, so one ascending
        scan of it finds the first joined entry, and v owns w exactly when
        that entry is v (never, if v has not joined).  All frontier
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
            for x in nbrs:
                if x in joined:
                    if x == v:
                        targets.append(w)
                    break
        if targets:
            # Fixed send slot at the end of stage 2, uniform across all
            # requesters regardless of when their aggregate arrived.
            send_at = node.state["phase_start"] + 2 * self.H + 2
            node.schedule(send_at, ("explore", tuple(targets), my_layer + 1))


@dataclass
class BFSResult:
    tree: RootedTree
    metrics: RunMetrics
    pre: Preprocessed
    grow_receipts: Dict[int, int] = field(default_factory=dict)


def _run_phases(g: Graph, root: int,
                pre: Preprocessed) -> Tuple[RootedTree, RunMetrics, Dict[int, int]]:
    """One BFS-phase run from root on the cover's session; the session is
    released once the outputs are read."""
    session = pre.cover.session
    proto = _BFSPhaseProtocol(root, pre.H)
    limit = (g.n + 2) * proto.window + 10
    res = run(session, proto, ModeConfig(allow_quiescence=True, max_rounds=limit))
    parent: Dict[int, int] = {}
    layer: Dict[int, int] = {root: 0}
    receipts: Dict[int, int] = {}
    for v in session.ids:
        out = res.outputs[v]
        if out["grow_msgs"]:
            receipts[v] = out["grow_msgs"]
        if v == root:
            continue
        if out["layer"] is None:
            raise BFSError(f"BFS from {root} never reached node {v}")
        parent[v] = out["parent"]
        layer[v] = out["layer"]
    session.release()  # free this run's node state before the caller's checks
    return RootedTree(root=root, parent=parent, layer=layer), res.metrics, receipts


def bfs_construction(g: Graph, root: int, seed: int = 0,
                     pre: Optional[Preprocessed] = None) -> BFSResult:
    """Exact BFS tree from root; cover + registration + phased growth.

    Metrics cover the whole pipeline including cover construction, of
    default_cover(g, seed) unless a Preprocessed of g is passed to reuse one
    cover across many roots (leader election does; another graph's is a
    BFSError).
    """
    if not g.has_node(root):
        raise BFSError(f"root {root!r} is not a node id of g")
    pre = _preprocessed(g, seed, pre)
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
                               pre: Optional[Preprocessed] = None) -> ElectionResult:
    """Elect the max-id BFS candidate.

    Candidates sample themselves with probability min(1, 8 ln n / n) using
    the shared seed; a caller may force an explicit candidate set instead.
    All candidate BFS runs reuse one cover, default_cover(g, seed) unless a
    Preprocessed of g is passed (its preprocessing still counts in the
    metrics), and run on its engine Session (each run starts from reset
    nodes that keep their knowledge).  Their rounds overlap (the executions
    are disjoint in state, so the round count is preprocessing plus the
    slowest candidate while messages add up).
    """
    if candidates is None:
        p = min(1.0, CANDIDATE_LOG_FACTOR * math.log(max(g.n, 2)) / g.n)
        rng = random.Random((seed * 0x9E3779B97F4A7C15 + 0xC2B2AE35) & (2 ** 64 - 1))
        cands = tuple(v for v in g.nodes if rng.random() < p)
    else:
        bad = [c for c in candidates if not g.has_node(c)]
        if bad:  # checked before sorting: a str or a list does not compare or hash
            raise BFSError(f"explicit candidate {bad[0]!r} is not a node id of g")
        cands = tuple(sorted(set(candidates)))

    if not cands:
        return ElectionResult(success=False, leader=None, unanimous=False,
                              candidates=(), leader_at={}, metrics=RunMetrics(),
                              failure="no candidate sampled")

    pre = _preprocessed(g, seed, pre)
    metrics = pre.metrics
    phase_metrics: Optional[RunMetrics] = None
    best_seen: Dict[int, int] = dict.fromkeys(pre.cover.session.ids, -1)
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
