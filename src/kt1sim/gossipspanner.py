"""Deterministic global toolkit: gossip 1-local broadcast, spanner
extraction, spanner-based BFS, deterministic leader election, and the
collect-solve-broadcast pattern for global problems.

Gossip.  Every node starts with one rumor (its id plus neighbor list) and a
set R_v of neighbors whose rumor it still lacks.  Iteration i has 4i
activation slots of two rounds each (plus one settling round at the end of
the window): a node with R_v nonempty first appends a link to its
lowest-id missing neighbor as l_i of its ordered list E_v, then the slots
sweep the accumulated links in the fixed pattern l_i..l_1, l_1..l_i, then
both again — so the opening reverse sweep performs the new link's first
exchange — with slot positions aligned globally so both endpoints agree
on the timetable.  An activation is a two-round handshake (activate,
respond) carrying only the rumors the sender has not yet sent over that
link, so a rumor crosses a link at most once per direction; a response
reflects only knowledge from strictly earlier rounds, so a rumor advances
at most one link per slot.  Every node runs every iteration's full sweep
schedule — the in-iteration pipelining of rumors along link chains is what
keeps spanner-path lengths within one iteration's slot budget — and the
simulator stops scheduling iterations at the first boundary where no node
anywhere is still missing a rumor.  A hard iteration cap of
4*ceil(log2 n)+4 turns a non-terminating run into a flagged failure
instead of a hang.

A node's rumor set is one int bitset K_v, and R_v is its neighbor mask
minus K_v.  Each link keeps a watermark, the mask last sent over it.  K_v
only grows and every watermark is a mask K_v once held, so a message
carries the delta K_v ^ watermark (= K_v & ~watermark) and is absorbed
with one OR.  Every partner a node activates or answers gets a
watermark, so at the end of a run the watermark keys are the node's
H-partners.  Two simulator-side representations stand behind the
bitsets, neither of them node knowledge: the id -> bit table shared by
all nodes of a run (the i-th smallest id has bit 1 << i, so the lowest
set bit of R_v is its lowest-id missing neighbor, and a neighbor mask is
the sum of its neighbors' bits), and the bit index -> rumor lookup that
turns a set of origins back into rumors.  A rumor's content is a pure
function of its origin id, so a payload names origins only; message
counts and rounds are what they would be if the contents travelled
along.

The spanner H is the union of all activated links.  Known-rumor flow
implies every graph edge's endpoints are connected inside H, so H spans
and is connected, with at most one new edge per node per iteration.

Global problems, BFS included, are entries of one registry, each solved
centrally from the whole topology: bfs (parent = smallest id in the
previous layer) and mst (Kruskal).  One tree wave
(clustercomm.TreeWaveProtocol) carries everyone's neighbor list up a
spanning tree, the root solves the problem locally, and the wave broadcasts
the solution back down as every node's output.  solve_global runs the wave
over a given BFS tree.  BFS on G from s first floods H-edges only (first
arrival picks the parent, ties to the smallest sender id; exactly 2|E(H)|
messages) and runs the wave over the flood tree the flood builds.

Leader election on H: all nodes start as candidates; phase j broadcasts
surviving candidate ids to H-distance 2^j with forward-on-improvement
suppression, then an echo wave rolls subtree counts back along best-sender
links (a node at wave-depth d echoes at offset 2^(j+1)+2-d, so child
echoes arrive exactly when the parent speaks).  A candidate survives iff
it heard nothing larger and wins iff its echo tally counts all n nodes;
the winner floods a halt carrying its id.  Only the true maximum can ever
tally n, and it does once 2^j reaches the H-eccentricity of its node.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Optional, Set, Tuple

from .netgraph import Graph, canonical_edge, multi_source_bfs
from .simengine import (
    CAT_CONTROL,
    CAT_EXPLORATION,
    CAT_GOSSIP,
    GOSSIP_ACT,
    GOSSIP_RSP,
    ModeConfig,
    NodeContext,
    Protocol,
    RunMetrics,
    RunResult,
    SimError,
    run,
)
from .clustercomm import RootedTree, TreeWaveProtocol

Edge = Tuple[int, int]


class SpannerError(SimError):
    """Gossip/spanner pipeline violated one of its structural guarantees."""


def iteration_cap(n: int) -> int:
    return 4 * math.ceil(math.log2(max(n, 2))) + 4


def _iteration_starts(cap: int) -> List[int]:
    """starts[i] = first round of iteration i (1-based); one extra entry.

    A window holds 4i two-round activation slots plus one settling round
    so the final response of an iteration is absorbed strictly before the
    next boundary (every node then agrees on global completion there)."""
    starts = [0, 1]
    for i in range(1, cap + 2):
        starts.append(starts[i] + 8 * i + 1)
    return starts


# ---------------------------------------------------------------------------
# Gossip 1-local broadcast.
# ---------------------------------------------------------------------------

class _GossipProtocol(Protocol):
    name = "gossip_local_broadcast"

    def __init__(self, n: int):
        self.cap = iteration_cap(n)
        self.starts = _iteration_starts(self.cap)
        # Simulator-side termination detection: how many nodes still miss a
        # rumor.  Once zero at an iteration boundary, no further iterations
        # are scheduled anywhere.  (All boundary reads happen one round
        # after the last possible delivery of the previous iteration, so
        # every node sees the same value.)
        self.pending = 0
        # Simulator-side tables, filled by setup in ascending id order:
        # id -> its bit (a power of two), and bit index -> rumor (origin,
        # neighbor list).
        self.bit: Dict[int, int] = {}
        self.rumors: List[Tuple[int, Tuple[int, ...]]] = []
        self.plans: Dict[Tuple[int, int], List[Tuple[int, int]]] = {}

    def setup(self, node: NodeContext) -> None:
        v = node.self_id
        if self.rumors and v <= self.rumors[-1][0]:
            raise SpannerError(f"gossip setup of node {v} after node "
                               f"{self.rumors[-1][0]}: ids must ascend")
        st = node.state
        st["K"] = self.bit[v] = 1 << len(self.rumors)
        self.rumors.append((v, node.neighbor_ids))
        st["R"] = None  # the neighbor mask needs every bit: built in step
        st["E"] = []
        st["wm"] = {}
        st["last_act"] = None
        st["last_rwork"] = 0
        node.schedule(1, ("iter", 1))
        if node.neighbor_ids:
            self.pending += 1

    def rumors_of(self, mask: int) -> Tuple[Tuple[int, Tuple[int, ...]], ...]:
        """The rumors of a bitset, in ascending origin order."""
        rumors = self.rumors
        return tuple(rumors[i] for i, b in enumerate(bin(mask)[:1:-1]) if b == "1")

    def _sweep_plan(self, i: int, nlinks: int) -> List[Tuple[int, int]]:
        """(slot, link index) pairs for the 4i sweep slots of iteration i,
        built once per (i, links that fit in the sweep) and shared."""
        key = (i, min(nlinks, i))
        plan = self.plans.get(key)
        if plan is None:
            rev = list(range(i, 0, -1))
            fwd = list(range(1, i + 1))
            plan = self.plans[key] = [
                (slot, idx) for slot, idx in enumerate(rev + fwd + rev + fwd, start=1)
                if idx <= nlinks]
        return plan

    def step(self, node: NodeContext, rnd: int):
        st = node.state
        R = st["R"]
        if R is None:  # the neighbors' bits are distinct, so sum is OR
            R = st["R"] = sum(map(self.bit.__getitem__, node.neighbor_ids))
        pre = K = st["K"]
        wm = st["wm"]
        sends: List = []

        if node.inbox:
            # Responses reflect only what was known before this round's
            # mail.  A mutual same-slot activation needs no reply.
            last = st["last_act"]
            for src, (kind, delta) in node.inbox:
                K |= delta
                if kind == GOSSIP_ACT:
                    if last != (src, rnd - 1):
                        sends.append((src, (GOSSIP_RSP, pre ^ wm.get(src, 0)), CAT_GOSSIP))
                        wm[src] = pre
                elif kind != GOSSIP_RSP:
                    raise SpannerError(f"unknown gossip payload kind {kind!r}")
            if K != pre:
                st["K"] = K
                if R:
                    R = st["R"] = R & ~K
                    if not R:
                        self.pending -= 1

        for action in node.due:
            if action[0] == "iter":
                _, i = action
                if i > self.cap or self.pending == 0:
                    continue
                E = st["E"]
                if R:
                    # The appended link is first exchanged by the opening
                    # reverse sweep below, not by a separate activation.
                    st["last_rwork"] = i
                    E.append(self.rumors[(R & -R).bit_length() - 1][0])
                # Slot 1 is this round: that sweep joins node.due and runs
                # right after this action.
                for slot, idx in self._sweep_plan(i, len(E)):
                    node.schedule(rnd + 2 * (slot - 1), ("sweep", E[idx - 1]))
                if i + 1 <= self.cap:
                    node.schedule(self.starts[i + 1], ("iter", i + 1))
            elif action[0] == "sweep":
                _, partner = action
                st["last_act"] = (partner, rnd)
                sends.append((partner, (GOSSIP_ACT, K ^ wm.get(partner, 0)), CAT_GOSSIP))
                wm[partner] = K
            else:
                raise SpannerError(f"unknown scheduled action {action!r}")
        return sends, False


@dataclass
class GossipResult:
    iterations: int
    complete: bool
    cap: int
    activated: Dict[int, Tuple[int, ...]]   # v -> partners in activation order
    # v -> its H-partners, ascending: every node it activated or answered
    incident: Dict[int, Tuple[int, ...]]
    # v -> the rumors (origin, neighbors) v holds, in ascending origin order
    known: Dict[int, Tuple[Tuple[int, Tuple[int, ...]], ...]]
    metrics: RunMetrics
    raw: Optional[RunResult] = None


def gossip_local_broadcast(g: Graph, record_trace: bool = False) -> GossipResult:
    """Run the gossip schedule until no node has news; deterministic."""
    proto = _GossipProtocol(g.n)
    cfg = ModeConfig(gossip_mode=True, allow_quiescence=True,
                     record_trace=record_trace,
                     max_rounds=proto.starts[-1] + 2)
    res = run(g, proto, cfg)
    activated = {}
    incident = {}
    known = {}
    decoded: Dict[int, Tuple] = {}  # a complete run leaves one mask
    iterations = 0
    complete = True
    for v in g.nodes:
        st = res.contexts[v].state
        activated[v] = tuple(st["E"])
        incident[v] = tuple(sorted(st["wm"]))  # every partner has a watermark
        mask = st["K"]
        rumors = decoded.get(mask)
        if rumors is None:
            rumors = decoded[mask] = proto.rumors_of(mask)
        known[v] = rumors
        iterations = max(iterations, st["last_rwork"])
        complete = complete and not st["R"]
    return GossipResult(iterations=iterations, complete=complete, cap=proto.cap,
                        activated=activated, incident=incident, known=known,
                        metrics=res.metrics, raw=res)


# ---------------------------------------------------------------------------
# Spanner extraction (purely local).
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Spanner:
    edges: frozenset
    iterations: int
    incident: Dict[int, Tuple[int, ...]]

    @property
    def size(self) -> int:
        return len(self.edges)


def extract_spanner(g: Graph, gossip: GossipResult) -> Spanner:
    """H = union of all activated links; checked to span and connect."""
    if not gossip.complete:
        raise SpannerError("gossip did not complete; spanner undefined")
    edges: Set[Edge] = set()
    for v, partners in gossip.activated.items():
        for u in partners:
            if not g.has_edge(v, u):
                raise SpannerError(f"activated link ({v},{u}) is not a graph edge")
            edges.add(canonical_edge(v, u))
    # Each forest edge joins two components of H.
    components = g.n - len(_spanning_forest(g.nodes, edges))
    if components != 1:
        raise SpannerError(f"spanner splits into {components} components")
    if len(edges) > g.n * max(gossip.iterations, 1):
        raise SpannerError("spanner exceeds the one-link-per-iteration budget")
    return Spanner(edges=frozenset(edges), iterations=gossip.iterations,
                   incident=dict(gossip.incident))


def _spanner_of(g: Graph, spanner: Optional[Spanner],
                gossip: Optional[GossipResult]) -> Tuple[Spanner, Optional[GossipResult]]:
    """The spanner to route over: the given one, else the one extracted from
    the given gossip run, else one from a fresh gossip run."""
    if spanner is None:
        if gossip is None:
            gossip = gossip_local_broadcast(g)
        spanner = extract_spanner(g, gossip)
    return spanner, gossip


def spanner_stretch_violations(g: Graph, spanner: Spanner,
                               bound: Optional[int] = None) -> List[Edge]:
    """G-edges (u, w), u < w, whose endpoints are farther apart than the
    bound inside H (default bound 4*iterations), in ascending order.

    One bit-parallel BFS over H from every node at once, cut after `bound`
    rounds (`netgraph.multi_source_bfs`), leaves each node's H-ball of that
    radius as a bitset over the nodes in ascending id order; an edge
    violates the bound exactly when w's bit is missing from u's ball.
    """
    limit = bound if bound is not None else 4 * max(spanner.iterations, 1)
    if limit < 0:
        raise SpannerError(f"stretch bound {limit} is negative")
    order = sorted(g.adjacency)
    h: Dict[int, List[int]] = {v: [] for v in order}
    for u, w in spanner.edges:
        if u not in h or w not in h:
            raise SpannerError(f"spanner edge ({u},{w}) has an endpoint outside the graph")
        h[u].append(w)
        h[w].append(u)
    ball, _ = multi_source_bfs(h, order, max_rounds=limit)
    pos = {v: i for i, v in enumerate(order)}
    # u ascends and each neighbor list is sorted, so the list comes out sorted.
    return [(u, w) for u in order for w in g.adjacency[u]
            if u < w and not ball[u] >> pos[w] & 1]


# ---------------------------------------------------------------------------
# Deterministic leader election on the spanner.
# ---------------------------------------------------------------------------

class _ElectProtocol(Protocol):
    name = "spanner_election"

    def __init__(self, incident: Dict[int, Tuple[int, ...]], n: int):
        self.incident = incident
        self.n = n
        # Phase j occupies [start_j, start_j + 2^(j+1) + 3).
        self.starts = [1]
        j = 0
        while (1 << j) <= 2 * n + 2:
            self.starts.append(self.starts[-1] + (1 << (j + 1)) + 3)
            j += 1

    def setup(self, node: NodeContext) -> None:
        st = node.state
        st["cand"] = True
        st["phase"] = -1
        node.schedule(1, ("phase", 0))
        node.output = None

    def _hn(self, v: int) -> Tuple[int, ...]:
        return self.incident.get(v, ())

    def _reset(self, node: NodeContext, j: int) -> None:
        st = node.state
        st["phase"] = j
        st["best"] = None
        st["best_src"] = None
        st["echo_at"] = None
        st["echoed"] = False
        st["tally"] = 0

    def step(self, node: NodeContext, rnd: int):
        st = node.state
        v = node.self_id
        sends: List = []

        # Coalesce wave forwarding: several same-phase waves can land in one
        # round (all at the same ttl), and only the largest can win anywhere
        # downstream.  Forwarding just the round's final best keeps a hub node
        # at one outgoing burst per round instead of one per improvement,
        # which is what holds total traffic to O(|E_H| log n) on star-like
        # spanners.
        fwd = None
        for src, payload in node.inbox:
            kind = payload[0]
            if kind == "wv":
                _, j, c, ttl = payload
                if st["phase"] < j:
                    self._reset(node, j)
                if st["best"] is None or c > st["best"]:
                    st["best"] = c
                    st["best_src"] = src
                    at = self.starts[j] + (1 << (j + 1)) + 2 - (rnd - self.starts[j])
                    st["echo_at"] = at
                    node.schedule(at, ("echo", j))
                    fwd = (j, c, ttl, src)
            elif kind == "ec":
                _, j, c, cnt = payload
                if j == st["phase"] and c == st["best"]:
                    st["tally"] += cnt
            elif kind == "halt":
                _, leader = payload
                if node.output is None:
                    node.output = {"leader": leader}
                    for w in self._hn(v):
                        if w != src:
                            sends.append((w, payload, CAT_CONTROL))
                return sends, True
            else:
                raise SpannerError(f"unknown payload kind {kind!r} in election")

        if fwd is not None:
            j, c, ttl, src = fwd
            if ttl > 1:
                for w in self._hn(v):
                    if w != src:
                        sends.append((w, ("wv", j, c, ttl - 1), CAT_CONTROL))

        for action in node.due:
            kind = action[0]
            if kind == "phase":
                _, j = action
                if not st["cand"]:
                    continue
                self._reset(node, j)
                st["best"] = v
                st["echo_at"] = self.starts[j] + (1 << (j + 1)) + 2
                node.schedule(st["echo_at"], ("echo", j))
                ttl = 1 << j
                for w in self._hn(v):
                    sends.append((w, ("wv", j, v, ttl), CAT_CONTROL))
            elif kind == "echo":
                _, j = action
                if j != st["phase"] or st["echoed"] or rnd != st["echo_at"]:
                    continue
                st["echoed"] = True
                total = st["tally"] + 1
                if st["best"] == v:  # only a candidate's own phase sets it
                    if total == self.n:
                        node.output = {"leader": v}
                        for w in self._hn(v):
                            sends.append((w, ("halt", v), CAT_CONTROL))
                        return sends, True
                    if j + 1 == len(self.starts):
                        raise SpannerError(f"candidate {v} tallied {total} of n={self.n} "
                                           f"nodes in the last phase, {j}")
                    node.schedule(rnd + 1, ("phase", j + 1))
                else:
                    st["cand"] = False
                    sends.append((st["best_src"], ("ec", j, st["best"], total),
                                  CAT_CONTROL))
            else:
                raise SpannerError(f"unknown scheduled action {action!r}")
        return sends, False


@dataclass
class DetElectionResult:
    leader: Optional[int]   # the id every node decided; None if they differ
    unanimous: bool         # every node decided the maximum id
    leader_at: Dict[int, int]
    spanner: Spanner
    gossip: Optional[GossipResult]
    metrics: RunMetrics


def deterministic_leader_election(g: Graph,
                                  spanner: Optional[Spanner] = None,
                                  gossip: Optional[GossipResult] = None) -> DetElectionResult:
    """All nodes agree on the maximum id; spanner traffic only."""
    spanner, gossip = _spanner_of(g, spanner, gossip)
    proto = _ElectProtocol(spanner.incident, g.n)
    res = run(g, proto, ModeConfig(max_rounds=proto.starts[-1] + 8 * g.n + 20))
    leader_at = {}
    for v in g.nodes:
        out = res.outputs[v]
        if out is None:
            raise SpannerError(f"node {v} finished without a leader")
        leader_at[v] = out["leader"]
    decided = set(leader_at.values())
    leader = decided.pop() if len(decided) == 1 else None
    metrics = res.metrics if gossip is None else gossip.metrics.merged_with(res.metrics)
    return DetElectionResult(leader=leader, unanimous=leader == max(g.nodes),
                             leader_at=leader_at, spanner=spanner, gossip=gossip,
                             metrics=metrics)


# ---------------------------------------------------------------------------
# Global problems: collect the topology, solve at the root, broadcast.
# ---------------------------------------------------------------------------

def _spanning_forest(nodes: Iterable[int], edges: Iterable[Edge]) -> List[Edge]:
    """The edges, in the given order, that join two union-find components."""
    parent = {v: v for v in nodes}

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    out = []
    for u, w in edges:
        ru, rw = find(u), find(w)
        if ru != rw:
            parent[ru] = rw
            out.append((u, w))
    return out


def _kruskal_mst(nodes: Iterable[int], edges: Iterable[Edge]) -> Tuple[Edge, ...]:
    """MST under the canonical (min id, max id) lexicographic edge weight."""
    return tuple(_spanning_forest(
        nodes, sorted(canonical_edge(a, b) for a, b in edges)))


def _bfs_of_topology(root: int, nbrs: Dict[int, Tuple[int, ...]]):
    """Centralized exact BFS with the smallest-id parent rule: (parent, layer).
    A node whose neighbor list is missing from nbrs is a SpannerError: the
    wave that gathered nbrs never reached it."""
    layer = {root: 0}
    parent: Dict[int, int] = {}
    frontier = [root]
    while frontier:
        nxt = []
        for u in sorted(frontier):
            if u not in nbrs:
                raise SpannerError(f"the spanner flood from {root} never reached node {u}")
            for w in nbrs[u]:
                if w not in layer:
                    layer[w] = layer[u] + 1
                    nxt.append(w)
        frontier = nxt
    for w, l in layer.items():
        if w == root:
            continue
        parent[w] = min(x for x in nbrs[w] if layer.get(x) == l - 1)
    return parent, layer


# problem -> solve(root, topology), where topology maps every node to its
# neighbor list; the root of the wave calls it once.
_GLOBAL_PROBLEMS = {
    "bfs": _bfs_of_topology,
    "mst": lambda root, topo: _kruskal_mst(
        topo, [(u, w) for u, ns in topo.items() for w in ns if u < w]),
}


class _GlobalSolveProtocol(TreeWaveProtocol):
    """One tree wave over a spanning tree: the topology goes up, the root
    solves the problem and keeps the solution in state["solution"], and the
    solution comes down as every node's output."""

    name = "solve_global"

    def __init__(self, tree: RootedTree, problem: str):
        if problem not in _GLOBAL_PROBLEMS:
            raise SpannerError(f"unknown global problem {problem!r}")
        super().__init__(tree.root, tree.parent)
        self.problem = problem

    def solve(self, node: NodeContext, value: Any):
        solution = _GLOBAL_PROBLEMS[self.problem](self.root, dict(value))
        node.state["solution"] = solution
        return solution


@dataclass
class GlobalSolveResult:
    problem: str
    solution: Any
    metrics: RunMetrics
    tree: Optional[RootedTree] = None   # the BFS tree, for problem bfs
    spanner: Optional[Spanner] = None
    gossip: Optional[GossipResult] = None


def _solve(g: Graph, proto: _GlobalSolveProtocol, max_rounds: int) -> Tuple[Any, RunMetrics]:
    """Run one global-solve wave: the root's solution, once every node has
    received it, and the run's metrics."""
    res = run(g, proto, ModeConfig(max_rounds=max_rounds))
    solution = res.contexts[proto.root].state.get("solution")
    for v in g.nodes:
        if solution is None or res.outputs[v] is not solution:
            raise SpannerError(f"node {v} never received the {proto.problem} solution")
    return solution, res.metrics


def solve_global(g: Graph, tree: RootedTree, problem: str = "mst") -> GlobalSolveResult:
    """Convergecast the topology up the BFS tree, solve at the root,
    broadcast the answer: at most n-1 messages each way, 2*depth+1 rounds."""
    tree.validate_spanning(g)
    solution, metrics = _solve(g, _GlobalSolveProtocol(tree, problem), 4 * g.n + 20)
    return GlobalSolveResult(problem=problem, solution=solution, metrics=metrics)


# ---------------------------------------------------------------------------
# Deterministic BFS on G: problem bfs over the flood tree of the spanner.
# ---------------------------------------------------------------------------

class _FloodCollectProtocol(_GlobalSolveProtocol):
    """Problem bfs, its wave run over the flood tree of H that the same run
    builds first (first arrival picks the parent, ties to the smallest
    sender id)."""

    name = "spanner_bfs"

    def __init__(self, root: int, incident: Dict[int, Tuple[int, ...]]):
        super().__init__(RootedTree(root=root, parent={}, layer={root: 0}), "bfs")
        self.incident = incident

    def setup(self, node: NodeContext) -> None:
        super().setup(node)
        node.state.update(hparent=None, children=[], ready=False)

    def step(self, node: NodeContext, rnd: int):
        st = node.state
        v = node.self_id
        hn = self.incident.get(v, ())
        sends: List = []

        if rnd == 1 and v == self.root:
            for w in hn:
                sends.append((w, ("fl", 1), CAT_EXPLORATION))
            node.schedule(3, ("leafcheck",))

        flood_srcs = []
        for src, payload in node.inbox:
            kind = payload[0]
            if kind == "fl":
                flood_srcs.append((src, payload[1]))
            elif kind == "ch":
                # Every child joins, and so answers, in the same round; the
                # engine's sender-sorted inbox keeps this list ascending.
                st["children"].append(src)
            elif kind not in ("up", "dn"):
                raise SpannerError(f"unknown payload kind {kind!r} in spanner BFS")

        if flood_srcs and st["hparent"] is None and v != self.root:
            st["hparent"] = min(s for s, _ in flood_srcs)
            depth = flood_srcs[0][1]
            for w in hn:
                if w == st["hparent"]:
                    sends.append((w, ("ch",), CAT_EXPLORATION))
                else:
                    sends.append((w, ("fl", depth + 1), CAT_EXPLORATION))
            # Children answer the flood one round after it leaves this node.
            node.schedule(rnd + 2, ("leafcheck",))

        if node.due:
            st["ready"] = True  # only joined nodes hold a leafcheck
        wave_sends, halt = self.wave(node, st["children"], st["hparent"], st["ready"])
        return sends + wave_sends, halt


def deterministic_bfs(g: Graph, root: int,
                      spanner: Optional[Spanner] = None,
                      gossip: Optional[GossipResult] = None) -> GlobalSolveResult:
    """Exact BFS tree of G from root using only spanner edges plus local
    computation at the root; the solution is (parent, layer).  Without a
    spanner it is extracted from gossip, which is run first when not given;
    metrics include the gossip phase whenever there is one."""
    if not g.has_node(root):
        raise SpannerError(f"root {root!r} is not a node id of g")
    spanner, gossip = _spanner_of(g, spanner, gossip)
    solution, metrics = _solve(g, _FloodCollectProtocol(root, spanner.incident), 8 * g.n + 20)
    tree = RootedTree(root, *solution)
    tree.validate_spanning(g)
    if gossip is not None:
        metrics = gossip.metrics.merged_with(metrics)
    return GlobalSolveResult(problem="bfs", solution=solution, metrics=metrics,
                             tree=tree, spanner=spanner, gossip=gossip)
