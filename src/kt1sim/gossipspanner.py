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
on the timetable.  An activation
is a two-round handshake (activate, respond) carrying only the portion of
the sender's append-ordered rumor list the other side has not seen yet
(per-link watermarks), so a rumor crosses a link at most once per
direction; a response reflects only knowledge from strictly earlier
rounds, so a rumor advances at most one link per slot.  Every node runs
every iteration's full sweep schedule — the
in-iteration pipelining of rumors along link chains is what keeps
spanner-path lengths within one iteration's slot budget — and the
simulator stops scheduling iterations at the first boundary where no node
anywhere is still missing a rumor.  A hard iteration cap of
4*ceil(log2 n)+4 turns a non-terminating run into a flagged failure
instead of a hang.

The spanner H is the union of all activated links.  Known-rumor flow
implies every graph edge's endpoints are connected inside H, so H spans
and is connected, with at most one new edge per node per iteration.

BFS on G from s is a flood plus one tree wave (clustercomm.TreeWaveProtocol).
The flood runs over H-edges only (first arrival picks the parent, ties to
the smallest sender id; exactly 2|E(H)| messages) and builds the flood tree.
The wave then carries everyone's neighbor list up that tree, s computes the
exact BFS tree of G locally (parent = smallest id in the previous layer),
and the wave broadcasts the result back down.  Global problems are one tree
wave over an established BFS tree in the same way.

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

import json
import math
from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Optional, Set, Tuple

from .netgraph import Graph, canonical_edge
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
from .clustercomm import RootedTree, TreeWaveProtocol, _op_rounds, bfs_tree_to_json

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

    def setup(self, node: NodeContext) -> None:
        st = node.state
        v = node.self_id
        st["known"] = [(v, node.neighbor_ids)]
        st["seen"] = {v}
        st["R"] = set(node.neighbor_ids)
        st["E"] = []
        st["wm"] = {}
        st["incident"] = set()
        st["last_act"] = None
        node.schedule(1, ("iter", 1))
        if st["R"]:
            self.pending += 1
        node.output = {"e": (), "incident": (), "R": (), "known": st["known"],
                       "last_iter": 0, "last_rwork": 0}

    def _delta(self, node: NodeContext, partner: int,
               upto: Optional[int] = None) -> Tuple:
        """Unsent slice of the append-ordered rumor list for one link.

        Responses pass `upto` = the list length at the start of the round:
        a rumor then advances at most one link per activation slot, which
        is what the final-iteration path-length argument needs."""
        st = node.state
        known = st["known"]
        end = len(known) if upto is None else upto
        sent = st["wm"].get(partner, 0)
        if sent >= end:
            return ()
        st["wm"][partner] = end
        return tuple(known[sent:end])

    def _absorb(self, node: NodeContext, src: int, delta: Tuple) -> None:
        st = node.state
        seen = st["seen"]
        had_work = bool(st["R"])
        for rumor in delta:
            if rumor[0] not in seen:
                seen.add(rumor[0])
                st["known"].append(rumor)
                st["R"].discard(rumor[0])
        st["incident"].add(src)
        if had_work and not st["R"]:
            self.pending -= 1

    def _sweep_plan(self, i: int, nlinks: int) -> List[Tuple[int, int]]:
        """(slot, link index) pairs for the 4i sweep slots of iteration i."""
        rev = list(range(i, 0, -1))
        fwd = list(range(1, i + 1))
        plan = []
        for slot, idx in enumerate(rev + fwd + rev + fwd, start=1):
            if idx <= nlinks:
                plan.append((slot, idx))
        return plan

    def step(self, node: NodeContext, rnd: int):
        st = node.state
        sends: List = []
        acts_in = []

        pre_round = len(st["known"])
        for src, payload in node.inbox:
            kind, delta = payload
            self._absorb(node, src, delta)
            if kind == GOSSIP_ACT:
                acts_in.append(src)
            elif kind != GOSSIP_RSP:
                raise SpannerError(f"unknown gossip payload kind {kind!r}")
        # Responses reflect only what was known before this round's mail.
        # A mutual same-slot activation needs no reply.
        last = st["last_act"]
        for src in acts_in:
            if last is not None and last == (src, rnd - 1):
                continue
            sends.append((src, (GOSSIP_RSP, self._delta(node, src, pre_round)),
                          CAT_GOSSIP))

        for action in node.due:
            if action[0] == "iter":
                _, i = action
                if i > self.cap or self.pending == 0:
                    continue
                node.output["last_iter"] = i
                if st["R"]:
                    # The appended link is first exchanged by the opening
                    # reverse sweep below, not by a separate activation.
                    node.output["last_rwork"] = i
                    target = min(st["R"])
                    st["E"].append(target)
                    st["incident"].add(target)
                # Slot 1 is this round: that sweep joins node.due and runs
                # right after this action.
                for slot, idx in self._sweep_plan(i, len(st["E"])):
                    node.schedule(rnd + 2 * (slot - 1), ("sweep", st["E"][idx - 1]))
                if i + 1 <= self.cap:
                    node.schedule(self.starts[i + 1], ("iter", i + 1))
            elif action[0] == "sweep":
                _, partner = action
                st["last_act"] = (partner, rnd)
                sends.append((partner, (GOSSIP_ACT, self._delta(node, partner)),
                              CAT_GOSSIP))
            else:
                raise SpannerError(f"unknown scheduled action {action!r}")

        node.output["e"] = tuple(st["E"])
        node.output["incident"] = tuple(sorted(st["incident"]))
        node.output["R"] = tuple(sorted(st["R"]))
        return sends, False


@dataclass
class GossipResult:
    iterations: int
    complete: bool
    cap: int
    cap_violated: bool
    activated: Dict[int, Tuple[int, ...]]   # v -> partners in activation order
    incident: Dict[int, Tuple[int, ...]]    # v -> all H-partners v observed
    known: Dict[int, Tuple[Tuple[int, Tuple[int, ...]], ...]]
    metrics: RunMetrics
    rounds: int
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
    iterations = 0
    complete = True
    for v in g.nodes:
        out = res.outputs[v]
        activated[v] = out["e"]
        incident[v] = out["incident"]
        known[v] = tuple(out["known"])
        iterations = max(iterations, out["last_rwork"])
        complete = complete and not out["R"]
    return GossipResult(iterations=iterations, complete=complete, cap=proto.cap,
                        cap_violated=not complete, activated=activated,
                        incident=incident, known=known, metrics=res.metrics,
                        rounds=res.metrics.rounds, raw=res)


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

    def as_graph(self, nodes: Iterable[int]) -> Graph:
        adj: Dict[int, List[int]] = {v: [] for v in nodes}
        for u, w in self.edges:
            adj[u].append(w)
            adj[w].append(u)
        return Graph(adjacency={v: tuple(sorted(ns)) for v, ns in adj.items()})


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
    if g.n > 1:
        # Union-find connectivity over H.
        parent = {v: v for v in g.nodes}

        def find(x: int) -> int:
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for u, w in edges:
            parent[find(u)] = find(w)
        roots = {find(v) for v in g.nodes}
        if len(roots) != 1:
            raise SpannerError(f"spanner splits into {len(roots)} components")
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
    """G-edges whose endpoints are farther apart than the bound inside H
    (default bound 4*iterations).  Uses sparse all-sources BFS in chunks."""
    import numpy as np
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import shortest_path

    limit = bound if bound is not None else 4 * max(spanner.iterations, 1)
    order = sorted(g.adjacency)
    pos = {v: i for i, v in enumerate(order)}
    n = len(order)
    if n <= 1:
        return []
    rows, cols = [], []
    for u, w in spanner.edges:
        rows += [pos[u], pos[w]]
        cols += [pos[w], pos[u]]
    h = csr_matrix((np.ones(len(rows), dtype=np.int8), (rows, cols)), shape=(n, n))
    bad: List[Edge] = []
    chunk = 256
    for lo in range(0, n, chunk):
        idx = list(range(lo, min(lo + chunk, n)))
        dist = shortest_path(h, method="D", unweighted=True, indices=idx)
        for row, i in zip(dist, idx):
            u = order[i]
            for w in g.adjacency[u]:
                if u < w and row[pos[w]] > limit:
                    bad.append((u, w))
    return sorted(bad)


# ---------------------------------------------------------------------------
# Deterministic BFS on G via the spanner.
# ---------------------------------------------------------------------------

@dataclass
class DetBFSResult:
    tree: RootedTree
    flood_parent: Dict[int, int]
    spanner: Spanner
    gossip: Optional[GossipResult]
    metrics: RunMetrics
    rounds: int


def _bfs_of_topology(root: int, nbrs: Dict[int, Tuple[int, ...]]):
    """Centralized exact BFS with the smallest-id parent rule."""
    layer = {root: 0}
    parent: Dict[int, int] = {}
    frontier = [root]
    while frontier:
        nxt = []
        for u in sorted(frontier):
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


class _FloodCollectProtocol(TreeWaveProtocol):
    """Flood on H to build the flood tree, then one tree wave over it: the
    topology goes up, the root's exact BFS tree of G comes down."""

    name = "spanner_bfs"

    def __init__(self, root: int, incident: Dict[int, Tuple[int, ...]]):
        super().__init__(root, {})
        self.incident = incident

    def setup(self, node: NodeContext) -> None:
        super().setup(node)
        node.state.update(hparent=None, children=[], ready=False)

    def _hn(self, v: int) -> Tuple[int, ...]:
        return self.incident.get(v, ())

    def solve(self, node: NodeContext, value: Any):
        return _bfs_of_topology(self.root, dict(value))

    def deliver(self, node: NodeContext, payload) -> List:
        parent_map, layer_map = payload
        v = node.self_id
        node.output = {"layer": layer_map[v], "parent": parent_map.get(v),
                       "hparent": node.state["hparent"]}
        return []

    def step(self, node: NodeContext, rnd: int):
        st = node.state
        v = node.self_id
        sends: List = []

        if rnd == 1 and v == self.root:
            for w in self._hn(v):
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
            for w in self._hn(v):
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
                      gossip: Optional[GossipResult] = None) -> DetBFSResult:
    """Exact BFS tree of G from root using only spanner edges plus local
    computation at the root.  Without a spanner it is extracted from gossip,
    which is run first when not given; metrics include the gossip phase
    whenever there is one."""
    if root not in g.adjacency:
        raise SpannerError(f"root {root} not in graph")
    spanner, gossip = _spanner_of(g, spanner, gossip)
    proto = _FloodCollectProtocol(root, spanner.incident)
    res = run(g, proto, ModeConfig(max_rounds=8 * g.n + 20))
    parent: Dict[int, int] = {}
    layer: Dict[int, int] = {}
    flood_parent: Dict[int, int] = {}
    for v in g.nodes:
        out = res.outputs[v]
        if out is None:
            raise SpannerError(f"node {v} never received the BFS result")
        layer[v] = out["layer"]
        if v != root:
            parent[v] = out["parent"]
            flood_parent[v] = out["hparent"]
    tree = RootedTree(root=root, parent=parent, layer=layer)
    tree.validate_spanning(g)
    metrics = res.metrics if gossip is None else gossip.metrics.merged_with(res.metrics)
    return DetBFSResult(tree=tree, flood_parent=flood_parent, spanner=spanner,
                        gossip=gossip, metrics=metrics, rounds=metrics.rounds)


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
                if st["best"] == v and st["cand"]:
                    if total == self.n:
                        node.output = {"leader": v}
                        for w in self._hn(v):
                            sends.append((w, ("halt", v), CAT_CONTROL))
                        return sends, True
                    node.schedule(rnd + 1, ("phase", j + 1))
                elif st["best"] == v:
                    pass
                else:
                    if st["cand"]:
                        st["cand"] = False
                    sends.append((st["best_src"], ("ec", j, st["best"], total),
                                  CAT_CONTROL))
            else:
                raise SpannerError(f"unknown scheduled action {action!r}")
        return sends, False


@dataclass
class DetElectionResult:
    leader: int
    unanimous: bool
    leader_at: Dict[int, int]
    spanner: Spanner
    gossip: Optional[GossipResult]
    metrics: RunMetrics
    rounds: int


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
    true_max = max(g.nodes)
    unanimous = all(l == true_max for l in leader_at.values())
    metrics = res.metrics if gossip is None else gossip.metrics.merged_with(res.metrics)
    return DetElectionResult(leader=true_max, unanimous=unanimous,
                             leader_at=leader_at, spanner=spanner, gossip=gossip,
                             metrics=metrics, rounds=metrics.rounds)


# ---------------------------------------------------------------------------
# Global problems over an established BFS tree: collect, solve, broadcast.
# ---------------------------------------------------------------------------

def _kruskal_mst(nodes: Iterable[int], edges: Iterable[Edge]) -> Tuple[Edge, ...]:
    """MST under the canonical (min id, max id) lexicographic edge weight."""
    parent = {v: v for v in nodes}

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    out = []
    for u, w in sorted(canonical_edge(a, b) for a, b in edges):
        ru, rw = find(u), find(w)
        if ru != rw:
            parent[ru] = rw
            out.append((u, w))
    return tuple(out)


_GLOBAL_PROBLEMS = {
    "mst": _kruskal_mst,
    "topology": lambda nodes, edges: tuple(sorted(edges)),
}


class _GlobalSolveProtocol(TreeWaveProtocol):
    """One tree wave over the BFS tree: the topology goes up, the root
    solves the problem, the solution comes down."""

    name = "solve_global"

    def __init__(self, tree: RootedTree, problem: str):
        if problem not in _GLOBAL_PROBLEMS:
            raise SpannerError(f"unknown global problem {problem!r}")
        super().__init__(tree.root, tree.parent)
        self.problem = problem

    def solve(self, node: NodeContext, value: Any):
        topo = dict(value)
        edges = [(u, w) for u, ns in topo.items() for w in ns if u < w]
        solution = _GLOBAL_PROBLEMS[self.problem](topo.keys(), edges)
        node.state["solution"] = solution
        return solution

    def deliver(self, node: NodeContext, solution) -> List:
        v = node.self_id
        node.output = {"incident": tuple(e for e in solution if v in e),
                       "total": len(solution)}
        return []


@dataclass
class GlobalSolveResult:
    problem: str
    solution: Tuple[Edge, ...]
    per_node: Dict[int, Dict[str, Any]]
    metrics: RunMetrics
    rounds: int


def solve_global(g: Graph, tree: RootedTree, problem: str = "mst") -> GlobalSolveResult:
    """Convergecast the topology up the BFS tree, solve at the root,
    broadcast the answer: at most n-1 messages each way, 2*depth rounds."""
    tree.validate_spanning(g)
    proto = _GlobalSolveProtocol(tree, problem)
    res = run(g, proto, ModeConfig(max_rounds=4 * g.n + 20))
    solution = tuple(res.contexts[tree.root].state["solution"])
    per_node = {v: res.outputs[v] for v in g.nodes}
    return GlobalSolveResult(problem=problem, solution=solution,
                             per_node=per_node, metrics=res.metrics,
                             rounds=_op_rounds(res.metrics))


def det_bfs_to_json(result: DetBFSResult) -> str:
    return bfs_tree_to_json(result.tree)


def det_election_to_json(result: DetElectionResult) -> str:
    return json.dumps({"leader": result.leader, "unanimous": result.unanimous,
                       "spanner_edges": result.spanner.size}, sort_keys=True)
