"""Cluster trees and the message-frugal primitives built on them.

A cluster is a set of nodes holding a rooted spanning tree of itself.  The
primitives here are the workhorses of every protocol in the package:

* broadcast / convergecast over a known tree, at exactly |C|-1 messages and
  depth rounds each;
* minimal outgoing edge sets: one edge per outer-boundary node, optionally
  the lexicographically least such edge;
* augmented cluster trees: the tree plus one chosen edge to every boundary
  node, with the boundary endpoints informed;
* depth-bounded BFS exploration growing a cluster one layer per window.

The exploration machinery is reactive: upward reports coalesce at each hop,
downward instructions are source-routed batches computed at the root (which
tracks the full tree), and the only clock the participants share is "a node
that joins in round t reports in round t+2".  Rounds fit the fixed per-layer
window of 2j+3 used by the growth schedule.

Round counts reported by the op wrappers exclude the final delivery lag, so
a run whose last event is a receipt in engine round R counts R-1 rounds and
a send-free run counts 0.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Mapping, Optional, Tuple

from .netgraph import Graph
from .simengine import (
    CAT_CLUSTER_TREE,
    CAT_EXPLORATION,
    ModeConfig,
    NodeContext,
    NO_SENDS,
    Protocol,
    RunMetrics,
    SimError,
    run,
)

Edge = Tuple[int, int]

# Wire kinds for the exploration machinery (shared with the cover builder).
K_UP = 10      # coalesced new-member reports flowing rootward
K_DOWN = 11    # source-routed growth instructions flowing leafward
K_JOIN = 12    # the one exploration message a joining node ever receives


class ClusterError(SimError):
    """Malformed cluster tree or misuse of a cluster primitive."""


@dataclass(frozen=True)
class ClusterTree:
    """Rooted spanning tree of a cluster; parent maps every non-root member
    to its tree parent."""

    root: int
    parent: Dict[int, int]
    members: frozenset
    depths: Dict[int, int]
    depth: int

    @staticmethod
    def from_parent_map(root: int, parent: Mapping[int, int]) -> "ClusterTree":
        members = set(parent) | {root}
        if root in parent:
            raise ClusterError("root must not have a parent")
        depths = {root: 0}
        for v in parent:
            chain = []
            x = v
            while x not in depths:
                chain.append(x)
                x = parent.get(x)
                if x is None or len(chain) > len(members):
                    raise ClusterError(f"parent chain from {v} never reaches root {root}")
            base = depths[x]
            for i, y in enumerate(reversed(chain), start=1):
                depths[y] = base + i
        return ClusterTree(
            root=root,
            parent=dict(parent),
            members=frozenset(members),
            depths=depths,
            depth=max(depths.values()),
        )

    def children(self) -> Dict[int, List[int]]:
        ch: Dict[int, List[int]] = {v: [] for v in self.members}
        for v, p in self.parent.items():
            ch[p].append(v)
        for lst in ch.values():
            lst.sort()
        return ch

    def validate(self, g: Graph) -> None:
        for v, p in self.parent.items():
            if not g.has_edge(v, p):
                raise ClusterError(f"tree edge ({v},{p}) is not a graph edge")
        if self.members - set(g.adjacency):
            raise ClusterError("cluster tree names nodes outside the graph")

    def size(self) -> int:
        return len(self.members)


@dataclass(frozen=True)
class OutgoingEdgeSet:
    """One chosen edge (inside, outside) per outer-boundary node."""

    edges: Tuple[Edge, ...]

    @property
    def boundary(self) -> frozenset:
        return frozenset(w for _, w in self.edges)


@dataclass(frozen=True)
class AugmentedClusterTree:
    base: ClusterTree
    extension: OutgoingEdgeSet


def minimal_outgoing_edge_set(
    members: Iterable[int],
    nbr_of: Mapping[int, Iterable[int]],
    lexicographic: bool = True,
) -> OutgoingEdgeSet:
    """Pick exactly one incident edge for every node just outside members.

    With lexicographic=True the edge to boundary node w minimizes the pair
    (min(u,w), max(u,w)) in standard pair order; otherwise the inside
    endpoint of least id is used (any minimal set is valid, this one is
    simply deterministic).
    """
    mem = set(members)
    best: Dict[int, Tuple[Tuple[int, int], int]] = {}
    for u in mem:
        for w in nbr_of[u]:
            if w in mem:
                continue
            key = (u, w) if u < w else (w, u)
            if not lexicographic:
                key = (u, u)
            cur = best.get(w)
            if cur is None or key < cur[0]:
                best[w] = (key, u)
    edges = tuple(sorted((u, w) for w, (_, u) in best.items()))
    return OutgoingEdgeSet(edges=edges)


def _op_rounds(metrics: RunMetrics) -> int:
    return max(0, metrics.rounds - 1)


# ---------------------------------------------------------------------------
# Source routing: a root that knows its whole tree sends one batch per first
# hop; each batch entry is (path, idx, *data), path the tree path from the
# root to the entry's target (root excluded) and idx the position of the
# next hop on it.
# ---------------------------------------------------------------------------

RouteBatches = List[Tuple[int, Tuple[Tuple, ...]]]


def source_route(root: int, parent: Mapping[int, int],
                 targets: Iterable[Tuple]) -> RouteBatches:
    """Batch (target, *data) items, targets other than root, by the first
    hop of their tree path; batches come in ascending hop order and keep
    the order of targets within each batch."""
    groups: Dict[int, List[Tuple]] = {}
    for item in targets:
        path = []
        x = item[0]
        while x != root:
            path.append(x)
            x = parent[x]
        path.reverse()
        groups.setdefault(path[0], []).append((tuple(path), 1) + item[1:])
    return [(hop, tuple(groups[hop])) for hop in sorted(groups)]


def split_routes(entries: Iterable[Tuple]) -> Tuple[List[Tuple], RouteBatches]:
    """Split received (path, idx, *data) entries into the data of those that
    end at this node and the batches to forward, as source_route does."""
    here: List[Tuple] = []
    groups: Dict[int, List[Tuple]] = {}
    for entry in entries:
        path, idx = entry[0], entry[1]
        if idx == len(path):
            here.append(entry[2:])
        else:
            groups.setdefault(path[idx], []).append((path, idx + 1) + entry[2:])
    return here, [(hop, tuple(groups[hop])) for hop in sorted(groups)]


# ---------------------------------------------------------------------------
# Broadcast / convergecast at exact cost |C|-1 messages, depth rounds.
# ---------------------------------------------------------------------------

class _BroadcastProtocol(Protocol):
    name = "broadcast"

    def __init__(self, tree: ClusterTree, payload: Any):
        self.tree = tree
        self.children = tree.children()
        self.payload = payload

    def step(self, node: NodeContext, rnd: int):
        v = node.self_id
        if v not in self.tree.members:
            return NO_SENDS, True
        if v == self.tree.root and rnd == 1:
            node.output = self.payload
            sends = [(c, self.payload, CAT_CLUSTER_TREE) for c in self.children[v]]
            return sends, True
        if node.inbox:
            payload = node.inbox[0][1]
            node.output = payload
            sends = [(c, payload, CAT_CLUSTER_TREE) for c in self.children[v]]
            return sends, True
        return NO_SENDS, False


@dataclass
class TreeOpResult:
    value: Any
    delivered: Dict[int, Any]
    rounds: int
    metrics: RunMetrics


def broadcast(g: Graph, tree: ClusterTree, payload: Any) -> TreeOpResult:
    """Deliver payload from the tree root to every member: |C|-1 messages,
    depth rounds."""
    tree.validate(g)
    res = run(g, _BroadcastProtocol(tree, payload))
    delivered = {v: res.outputs[v] for v in tree.members}
    return TreeOpResult(payload, delivered, _op_rounds(res.metrics), res.metrics)


class _ConvergecastProtocol(Protocol):
    name = "convergecast"

    def __init__(self, tree: ClusterTree, payloads: Mapping[int, Any], combine):
        self.tree = tree
        self.children = tree.children()
        self.payloads = payloads
        self.combine = combine

    def setup(self, node: NodeContext) -> None:
        v = node.self_id
        if v in self.tree.members:
            node.state["acc"] = {}

    def step(self, node: NodeContext, rnd: int):
        v = node.self_id
        if v not in self.tree.members:
            return NO_SENDS, True
        ch = self.children[v]
        acc = node.state["acc"]
        for src, payload in node.inbox:
            acc[src] = payload
        if len(acc) < len(ch):
            return NO_SENDS, False
        value = self.payloads[v]
        for c in sorted(acc):
            value = self.combine(value, acc[c])
        if v == self.tree.root:
            node.output = value
            return NO_SENDS, True
        return [(self.tree.parent[v], value, CAT_CLUSTER_TREE)], True


def convergecast(g: Graph, tree: ClusterTree, payloads: Mapping[int, Any], combine) -> TreeOpResult:
    """Fold member payloads up to the root with the associative combine:
    |C|-1 messages, depth rounds.  Leaves fire immediately; an inner node
    sends only once every child has reported."""
    tree.validate(g)
    missing = tree.members - set(payloads)
    if missing:
        raise ClusterError(f"convergecast payloads missing for {sorted(missing)[:5]}")
    res = run(g, _ConvergecastProtocol(tree, payloads, combine))
    return TreeOpResult(res.outputs[tree.root], {}, _op_rounds(res.metrics), res.metrics)


# ---------------------------------------------------------------------------
# Augmented cluster tree: learn the boundary and pick one edge per outside
# node; convergecast up, broadcast the choice down, poke each boundary node.
# ---------------------------------------------------------------------------

class _AugmentProtocol(Protocol):
    name = "augment"

    def __init__(self, tree: ClusterTree, lexicographic: bool = True):
        self.tree = tree
        self.children = tree.children()
        self.lexicographic = lexicographic

    def setup(self, node: NodeContext) -> None:
        if node.self_id in self.tree.members:
            node.state["acc"] = {}
            node.state["phase"] = "up"

    def step(self, node: NodeContext, rnd: int):
        v = node.self_id
        st = node.state
        if v not in self.tree.members:
            # Possibly a boundary node: a notification may still arrive.
            if node.inbox:
                node.output = sorted(payload for _, payload in node.inbox)
                return NO_SENDS, True
            return NO_SENDS, False
        ch = self.children[v]
        if st["phase"] == "up":
            acc = st["acc"]
            for src, payload in node.inbox:
                acc[src] = payload
            if len(acc) < len(ch):
                return NO_SENDS, False
            info = [(v, node.neighbor_ids)]
            for c in sorted(acc):
                info.extend(acc[c])
            st["phase"] = "down"
            if v == self.tree.root:
                oes = minimal_outgoing_edge_set(
                    self.tree.members, dict(info), self.lexicographic
                )
                return self._down(node, oes.edges)
            return [(self.tree.parent[v], tuple(info), CAT_CLUSTER_TREE)], False
        # phase "down": the sorted chosen edges arrive from the parent.
        return self._down(node, node.inbox[0][1])

    def _down(self, node: NodeContext, edges: Tuple[Edge, ...]):
        v = node.self_id
        sends = [(c, edges, CAT_CLUSTER_TREE) for c in self.children[v]]
        mine = tuple(e for e in edges if e[0] == v)
        sends.extend((e[1], e, CAT_CLUSTER_TREE) for e in mine)
        node.output = mine
        return sends, True


@dataclass
class AugmentResult:
    augmented: AugmentedClusterTree
    boundary_notified: Dict[int, List[Edge]]
    rounds: int
    metrics: RunMetrics


def compute_augmented_tree(g: Graph, tree: ClusterTree, lexicographic: bool = True) -> AugmentResult:
    """Build the augmented tree in 2*depth+1 rounds with 2(|C|-1)+|B|
    messages; every boundary node hears about exactly one extension edge."""
    tree.validate(g)
    res = run(g, _AugmentProtocol(tree, lexicographic), ModeConfig(allow_quiescence=True))
    # Reconstruct the chosen extension from member outputs.
    edges: List[Edge] = []
    for v in tree.members:
        edges.extend(res.outputs[v] or ())
    oes = OutgoingEdgeSet(edges=tuple(sorted(edges)))
    notified = {
        v: list(res.outputs[v])
        for v in g.nodes
        if v not in tree.members and res.outputs[v]
    }
    return AugmentResult(
        augmented=AugmentedClusterTree(base=tree, extension=oes),
        boundary_notified=notified,
        rounds=_op_rounds(res.metrics),
        metrics=res.metrics,
    )


# ---------------------------------------------------------------------------
# Depth-bounded BFS exploration.
# ---------------------------------------------------------------------------

class ClusterState:
    """Root-side ledger of one growing cluster.  The root learns every
    member's neighbor list through the upward reports, so it can compute
    outgoing edge sets and source routes without further queries."""

    __slots__ = (
        "root", "h", "members", "parent", "depth", "best",
        "done", "join_extra", "last_layer",
    )

    def __init__(self, root: int, nbrs: Tuple[int, ...], h: int, join_extra: Any = None):
        self.root = root
        self.h = h
        self.members: Dict[int, Optional[Tuple[int, ...]]] = {root: nbrs}
        self.parent: Dict[int, int] = {}
        self.depth: Dict[int, int] = {root: 0}
        self.best: Dict[int, Tuple[Tuple[int, int], int]] = {}
        self.done = False
        self.join_extra = join_extra
        self.last_layer = 0
        self._absorb_edges(root, nbrs)

    def _absorb_edges(self, u: int, nbrs: Tuple[int, ...]) -> None:
        members = self.members
        best = self.best
        for w in nbrs:
            if w in members:
                continue
            key = (u, w) if u < w else (w, u)
            cur = best.get(w)
            if cur is None or key < cur[0]:
                best[w] = (key, u)

    def absorb_reports(self, items: Iterable[Tuple[int, Tuple[int, ...]]]) -> None:
        for vid, nbrs in items:
            self.members[vid] = nbrs
        for vid, nbrs in items:
            self._absorb_edges(vid, nbrs)

    def assignments(self) -> Dict[int, List[int]]:
        """Minimal outgoing edge set, grouped by inside endpoint."""
        out: Dict[int, List[int]] = {}
        for w, (_, u) in self.best.items():
            out.setdefault(u, []).append(w)
        for ws in out.values():
            ws.sort()
        return out

    def register_joins(self, assign: Dict[int, List[int]], j: int) -> None:
        for u, ws in assign.items():
            for w in ws:
                self.parent[w] = u
                self.depth[w] = j
                self.members[w] = None
                del self.best[w]
        self.last_layer = j

    def tree(self) -> ClusterTree:
        return ClusterTree(
            root=self.root,
            parent=dict(self.parent),
            members=frozenset(self.members),
            depths=dict(self.depth),
            depth=max(self.depth.values()),
        )


class ExplorationProtocol(Protocol):
    """Grow clusters outward one BFS layer per window.

    Window j (of a given cluster): the nodes that joined in window j-1 report
    (id, neighbor list) up the tree with per-hop coalescing; the root absorbs
    the reports, computes the minimal outgoing edge set, and source-routes
    the edge assignments back down; the assigned members then send one
    exploration message over each assigned edge, all in the same round.
    Every reached node therefore receives exactly one exploration message
    per cluster, and ties between simultaneous candidate edges are settled
    at the root by the lexicographic (min, max) pair rule.

    Subclasses decide who activates a cluster and when (see the cover
    builder); this base class starts a single root in round 1.
    """

    name = "bfs_exploration"

    def __init__(self, roots: Mapping[int, int], report_final_layer: bool = True):
        # roots: root id -> depth budget h.  When report_final_layer is off,
        # nodes joining at the depth cap stay silent: the tree is already
        # complete and skipping the last upward wave keeps the round count
        # inside the declared h^2 budget.  The cover builder leaves it on so
        # every root ends up knowing all members' neighbor lists.
        self.roots = dict(roots)
        self.report_final_layer = report_final_layer

    def _should_report(self, root: int, depth: int) -> bool:
        if self.report_final_layer:
            return True
        h = self.roots.get(root)
        return h is None or depth < h

    def on_joined(self, node: NodeContext, root: int, depth: int, extra: Any) -> None:
        """Hook: this node just joined root's cluster at the given depth."""

    def setup(self, node: NodeContext) -> None:
        st = node.state
        st["mem"] = {}
        st["joins"] = {}
        st["clusters"] = {}
        node.output = {"mem": st["mem"], "joins": st["joins"]}

    def activate_cluster(self, node: NodeContext, rnd: int, h: int, join_extra: Any = None) -> List:
        """Start a cluster rooted at this node; returns sends (always [])."""
        st = node.state
        v = node.self_id
        cs = ClusterState(v, node.neighbor_ids, h, join_extra)
        st["clusters"][v] = cs
        st["mem"][v] = (None, 0)
        return self._grow(node, cs, 1, rnd)

    def _grow(self, node: NodeContext, cs: ClusterState, j: int, rnd: int) -> List:
        """Root-side turn of window j; rnd is the processing round."""
        if cs.done:
            return []
        if j > cs.h or not cs.best:
            cs.done = True
            return []
        assign = cs.assignments()
        explore_round = rnd + j + 1
        if cs.root in assign:
            node.schedule(explore_round,
                          ("explore", cs.root, j, tuple(assign[cs.root]), cs.join_extra))
        targets = [(u, tuple(assign[u])) for u in sorted(assign) if u != cs.root]
        sends = [(hop, (K_DOWN, cs.root, j, explore_round, cs.join_extra, entries),
                  CAT_CLUSTER_TREE)
                 for hop, entries in source_route(cs.root, cs.parent, targets)]
        cs.register_joins(assign, j)
        return sends

    def step(self, node: NodeContext, rnd: int):
        st = node.state
        v = node.self_id
        sends: List = []

        if rnd == 1 and v in self.roots:
            sends.extend(self.activate_cluster(node, rnd, self.roots[v]))

        if node.inbox:
            up_merge: Dict[Tuple[int, int], List] = {}
            for src, payload in node.inbox:
                kind = payload[0]
                if kind == K_UP:
                    _, root, j, items = payload
                    up_merge.setdefault((root, j), []).extend(items)
                elif kind == K_DOWN:
                    _, root, j, explore_round, extra, entries = payload
                    here, onward = split_routes(entries)
                    for (ws,) in here:
                        node.schedule(explore_round, ("explore", root, j, ws, extra))
                    for hop, fwd in onward:
                        sends.append((hop, (K_DOWN, root, j, explore_round, extra, fwd),
                                      CAT_CLUSTER_TREE))
                elif kind == K_JOIN:
                    _, root, depth, extra = payload
                    st["joins"][root] = st["joins"].get(root, 0) + 1
                    if root in st["mem"]:
                        raise SimError(
                            f"node {v} received a second exploration message for cluster {root}"
                        )
                    st["mem"][root] = (src, depth)
                    if self._should_report(root, depth):
                        node.schedule(rnd + 2, ("up", root, depth + 1))
                    self.on_joined(node, root, depth, extra)
                else:
                    raise SimError(f"unknown payload kind {kind!r} at node {v}")
            for (root, j), items in up_merge.items():
                if root == v:
                    cs = st["clusters"][root]
                    cs.absorb_reports(items)
                    sends.extend(self._grow(node, cs, j, rnd))
                else:
                    parent = st["mem"][root][0]
                    payload = (K_UP, root, j, tuple(items))
                    sends.append((parent, payload, CAT_CLUSTER_TREE))

        for action in node.due:
            kind = action[0]
            if kind == "up":
                _, root, j = action
                parent = st["mem"][root][0]
                payload = (K_UP, root, j, ((v, node.neighbor_ids),))
                sends.append((parent, payload, CAT_CLUSTER_TREE))
            elif kind == "explore":
                _, root, j, ws, extra = action
                for w in ws:
                    sends.append((w, (K_JOIN, root, j, extra), CAT_EXPLORATION))
            else:
                sends.extend(self.run_action(node, rnd, action))
        return sends, False

    def run_action(self, node: NodeContext, rnd: int, action: Tuple) -> List:
        raise SimError(f"unknown scheduled action {action!r}")


@dataclass
class ExplorationResult:
    tree: ClusterTree
    rounds: int
    metrics: RunMetrics
    join_receipts: Dict[int, int] = field(default_factory=dict)


def bfs_exploration(g: Graph, root: int, h: int) -> ExplorationResult:
    """Grow the depth-h BFS cluster around root.

    Costs at most 4*|C|*h messages and 4*h*h rounds for the resulting
    cluster C; the returned tree contains exactly the nodes within h hops
    of root, each at its true BFS depth.
    """
    if h < 1:
        raise ClusterError("exploration depth h must be >= 1")
    if root not in g.adjacency:
        raise ClusterError(f"root {root} not in graph")
    proto = ExplorationProtocol({root: h}, report_final_layer=False)
    res = run(g, proto, ModeConfig(allow_quiescence=True))
    cs = res.contexts[root].state["clusters"][root]
    tree = cs.tree()
    tree.validate(g)
    receipts = {}
    for v in g.nodes:
        cnt = res.outputs[v]["joins"].get(root)
        if cnt:
            receipts[v] = cnt
    # Cross-check the root's ledger against the members' own records.
    for v in tree.members:
        if v != root:
            mem = res.outputs[v]["mem"].get(root)
            if mem is None or mem != (tree.parent[v], tree.depths[v]):
                raise ClusterError(f"root ledger and member record disagree at {v}")
    return ExplorationResult(
        tree=tree,
        rounds=_op_rounds(res.metrics),
        metrics=res.metrics,
        join_receipts=receipts,
    )
