"""Rooted trees and the message-frugal primitives built on them.

RootedTree is the one tree type of the package: a cover cluster (a set of
nodes holding a rooted spanning tree of itself) and a BFS tree of the whole
graph are both RootedTrees, and share one validator and one JSON form.  The
primitives here are the workhorses of every protocol in the package:

* the tree wave (TreeWaveProtocol): convergecast up a rooted tree, solve at
  the root, broadcast the answer down, at exactly |C|-1 messages and depth
  hops per direction.  broadcast (down only), convergecast (up only), the
  augmented-tree protocol, and gossipspanner's spanner BFS and global solves
  are small subclasses of it;
* minimal outgoing edge sets: one edge per outer-boundary node, from its
  inside neighbor of least id (equivalently, the lexicographically first
  such edge: for a fixed outside node w the pair (min(u,w), max(u,w)) grows
  with u);
* augmented cluster trees: one tree wave that picks one edge to every
  boundary node, plus one notification to each boundary endpoint;
* depth-bounded BFS exploration growing a cluster one layer per window.

The exploration machinery is reactive: upward reports coalesce at each hop,
downward instructions travel in one shared route built at the root (which
tracks the full tree; see route_map), and the only clock the participants
share is "a node that joins in round t reports in round t+2".  Rounds fit
the fixed per-layer window of 2j+3 used by the growth schedule.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Mapping, Optional, Tuple

from .netgraph import Graph, GraphError
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
K_DOWN = 11    # route-mapped growth instructions flowing leafward
K_JOIN = 12    # the one exploration message a joining node ever receives


class ClusterError(SimError):
    """Malformed rooted tree or misuse of a cluster primitive."""


def tree_children(root: int, parent: Mapping[int, int]) -> Dict[int, List[int]]:
    """Ascending child lists of every node of the rooted tree (root, parent)."""
    children: Dict[int, List[int]] = {v: [] for v in parent}
    children[root] = []
    for v in sorted(parent):
        children[parent[v]].append(v)
    return children


@dataclass(frozen=True)
class RootedTree:
    """Rooted tree on the nodes of layer: parent maps every non-root member
    to its tree parent and layer gives each member's depth below the root.
    members and depth are derived once, at construction."""

    root: int
    parent: Dict[int, int]
    layer: Dict[int, int]
    members: frozenset = field(init=False, repr=False, compare=False)
    depth: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "members", frozenset(self.layer))
        object.__setattr__(self, "depth", max(self.layer.values(), default=0))

    @staticmethod
    def from_parent_map(root: int, parent: Mapping[int, int]) -> "RootedTree":
        """The tree (root, parent) with layers derived; ClusterError if the
        root has a parent or some parent chain never reaches the root."""
        if root in parent:
            raise ClusterError("root must not have a parent")
        layer = {root: 0}
        for v in parent:
            chain = []
            x = v
            while x not in layer:
                chain.append(x)
                x = parent.get(x)
                if x is None or len(chain) > len(parent):
                    raise ClusterError(f"parent chain from {v} never reaches root {root}")
            base = layer[x]
            for i, y in enumerate(reversed(chain), start=1):
                layer[y] = base + i
        return RootedTree(root=root, parent=dict(parent), layer=layer)

    def children(self) -> Dict[int, List[int]]:
        return tree_children(self.root, self.parent)

    def validate(self, g: Graph) -> None:
        """ClusterError unless this is a tree of graph edges whose layers
        are depths below the root."""
        if self.layer.get(self.root) != 0:
            raise ClusterError("root must sit on layer 0")
        if set(self.parent) != self.members - {self.root}:
            raise ClusterError("parent map must name exactly the non-root members")
        if self.members - g.adjacency.keys():
            raise ClusterError("tree names nodes outside the graph")
        for v, p in self.parent.items():
            if not g.has_edge(v, p):
                raise ClusterError(f"tree edge ({v},{p}) is not a graph edge")
            if self.layer[v] - 1 != self.layer.get(p):
                raise ClusterError(f"layer mismatch along ({v},{p})")

    def validate_spanning(self, g: Graph) -> None:
        """validate, and ClusterError unless every node of g is a member."""
        self.validate(g)
        if len(self.members) != g.n:
            raise ClusterError("tree does not span the graph")


def bfs_tree_to_json(tree: RootedTree) -> str:
    return json.dumps(
        {"root": tree.root,
         "parent_map": {str(v): p for v, p in sorted(tree.parent.items())},
         "layers": {str(v): l for v, l in sorted(tree.layer.items())}},
        sort_keys=True,
    )


def bfs_tree_from_json(text: str) -> RootedTree:
    """Inverse of bfs_tree_to_json; GraphError if text is not such a tree."""
    try:  # json.JSONDecodeError is a ValueError
        blob = json.loads(text)
        root = blob["root"]
        parent = {int(v): p for v, p in blob["parent_map"].items()}
        layer = {int(v): l for v, l in blob["layers"].items()}
    except (KeyError, TypeError, AttributeError, ValueError) as exc:
        raise GraphError(f"malformed BFS tree: {exc!r}") from exc
    if not all(type(x) is int for x in (root, *parent.values(), *layer.values())):
        raise GraphError("malformed BFS tree: ids and layers must be integers")
    return RootedTree(root=root, parent=parent, layer=layer)


@dataclass(frozen=True)
class OutgoingEdgeSet:
    """One chosen edge (inside, outside) per outer-boundary node."""

    edges: Tuple[Edge, ...]

    @property
    def boundary(self) -> frozenset:
        return frozenset(w for _, w in self.edges)


@dataclass(frozen=True)
class AugmentedClusterTree:
    base: RootedTree
    extension: OutgoingEdgeSet


def minimal_outgoing_edge_set(
    members: Iterable[int],
    nbr_of: Mapping[int, Iterable[int]],
) -> OutgoingEdgeSet:
    """Pick exactly one incident edge for every node just outside members:
    the edge to boundary node w comes from w's inside neighbor of least id,
    which is also the lexicographically first pair (min(u,w), max(u,w))."""
    mem = set(members)
    best: Dict[int, int] = {}
    for u in mem:
        for w in nbr_of[u]:
            if w not in mem and (w not in best or u < best[w]):
                best[w] = u
    return OutgoingEdgeSet(edges=tuple(sorted((u, w) for w, u in best.items())))


# ---------------------------------------------------------------------------
# Route maps: a root that knows its whole tree sends data to chosen members
# down the union of their tree paths.  A route is (kids, data_at): kids maps
# each inner node of that union to its children on it, and data_at maps each
# target to its data.  The root sends the route as one payload object to
# kids[root], and every hop forwards that same object to kids[hop].
# ---------------------------------------------------------------------------

Route = Tuple[Dict[int, List[int]], Mapping[int, Any]]


def route_map(root: int, parent: Mapping[int, int],
              data_at: Mapping[int, Any]) -> Route:
    """The one shared route delivering data_at[t] to every target t other
    than root, each node's children in ascending id order.  A hop reads
    its own data_at entry, if any, and forwards the route unchanged to its
    kids entry, if any, so nothing is regrouped or rebuilt on the way.
    Costs O(distinct nodes on the root-to-target paths), plus sorting them.

    Every message of one route carries the same object, and a hop learns
    only its own data_at entry and kids list from it: that is what a count
    of payload volume should charge the hop, not the whole route."""
    if root in data_at:
        raise ClusterError(f"the root {root} cannot be a route target")
    on_path = {root}
    for x in data_at:
        while x not in on_path:
            on_path.add(x)
            x = parent[x]
    on_path.discard(root)
    kids: Dict[int, List[int]] = {}
    for x in sorted(on_path):
        kids.setdefault(parent[x], []).append(x)
    return kids, data_at


# ---------------------------------------------------------------------------
# The tree wave: convergecast up a rooted tree, solve at the root, broadcast
# the answer down.  Every global step in the package is one of these.
# ---------------------------------------------------------------------------

class TreeWaveProtocol(Protocol):
    """Convergecast-then-broadcast over the rooted tree (root, parent).

    A member sends ("up", value) to its parent once every child has
    reported, value being gather(node) folded with the children's values in
    ascending child id by combine.  The root turns its value into a payload
    with solve; every member forwards ("dn", payload) to its children in id
    order, calls deliver (whose sends follow) and halts.  Nodes outside the
    tree run step_outside.  Subclasses that drop a phase clear UP (the root
    solves from None in round 1) or DOWN (a member halts once it has
    reported).  The default gather/combine collect (id, neighbor list)
    pairs, i.e. the topology of the tree, at the root.
    """

    name = "tree_wave"
    UP = True
    DOWN = True

    def __init__(self, root: int, parent: Mapping[int, int]):
        self.root = root
        self.parent = parent
        self.children = tree_children(root, parent)

    def gather(self, node: NodeContext) -> Any:
        return [(node.self_id, node.neighbor_ids)]

    def combine(self, value: Any, child_value: Any) -> Any:
        value.extend(child_value)  # value is this node's own fresh list
        return value

    def solve(self, node: NodeContext, value: Any) -> Any:
        return value

    def deliver(self, node: NodeContext, payload: Any) -> List:
        node.output = payload
        return []

    def step_outside(self, node: NodeContext, rnd: int):
        return NO_SENDS, True

    def setup(self, node: NodeContext) -> None:
        node.state["acc"] = {}

    def step(self, node: NodeContext, rnd: int):
        v = node.self_id
        children = self.children.get(v)
        if children is None:
            return self.step_outside(node, rnd)
        return self.wave(node, children, self.parent.get(v))

    def wave(self, node: NodeContext, children: List[int], parent: Optional[int],
             ready: bool = True):
        """One step of a member with the given children (ascending ids) and
        parent (None at the root); while not ready it holds its report."""
        st = node.state
        acc = st["acc"]
        for src, payload in node.inbox:
            if payload[0] == "up":
                acc[src] = payload[1]
            elif payload[0] == "dn":
                return self._down(node, children, payload[1])
        if not self.UP:
            if parent is None and ready:
                return self._down(node, children, self.solve(node, None))
            return NO_SENDS, False
        if st.get("reported") or not ready or len(acc) < len(children):
            return NO_SENDS, False
        value = self.gather(node)
        for c in children:
            value = self.combine(value, acc[c])
        if parent is None:
            return self._down(node, children, self.solve(node, value))
        st["reported"] = True
        return [(parent, ("up", value), CAT_CLUSTER_TREE)], not self.DOWN

    def _down(self, node: NodeContext, children: List[int], payload: Any):
        sends = [(c, ("dn", payload), CAT_CLUSTER_TREE) for c in children] if self.DOWN else []
        sends.extend(self.deliver(node, payload))
        return sends, True


class _BroadcastProtocol(TreeWaveProtocol):
    name = "broadcast"
    UP = False

    def __init__(self, tree: RootedTree, payload: Any):
        super().__init__(tree.root, tree.parent)
        self.payload = payload

    def solve(self, node: NodeContext, value: Any) -> Any:
        return self.payload


@dataclass
class TreeOpResult:
    value: Any
    delivered: Dict[int, Any]
    metrics: RunMetrics


def broadcast(g: Graph, tree: RootedTree, payload: Any) -> TreeOpResult:
    """Deliver payload from the tree root to every member: |C|-1 messages,
    depth+1 rounds (the last one delivers)."""
    tree.validate(g)
    res = run(g, _BroadcastProtocol(tree, payload))
    delivered = {v: res.outputs[v] for v in tree.members}
    return TreeOpResult(payload, delivered, res.metrics)


class _ConvergecastProtocol(TreeWaveProtocol):
    name = "convergecast"
    DOWN = False

    def __init__(self, tree: RootedTree, payloads: Mapping[int, Any], combine):
        super().__init__(tree.root, tree.parent)
        self.payloads = payloads
        self.combine = combine  # the caller's fold stands in for the method

    def gather(self, node: NodeContext) -> Any:
        return self.payloads[node.self_id]


def convergecast(g: Graph, tree: RootedTree, payloads: Mapping[int, Any], combine) -> TreeOpResult:
    """Fold member payloads up to the root with the associative combine:
    |C|-1 messages, depth+1 rounds.  Leaves fire immediately; an inner node
    sends only once every child has reported."""
    tree.validate(g)
    missing = tree.members - set(payloads)
    if missing:
        raise ClusterError(f"convergecast payloads missing for {sorted(missing)[:5]}")
    res = run(g, _ConvergecastProtocol(tree, payloads, combine))
    return TreeOpResult(res.outputs[tree.root], {}, res.metrics)


# ---------------------------------------------------------------------------
# Augmented cluster tree: one tree wave collects the members' neighbor lists,
# the root picks one edge per outside node, and each member pokes the
# boundary nodes of its chosen edges.
# ---------------------------------------------------------------------------

class _AugmentProtocol(TreeWaveProtocol):
    name = "augment"

    def solve(self, node: NodeContext, value: Any) -> Tuple[Edge, ...]:
        members = self.children.keys()
        return minimal_outgoing_edge_set(members, dict(value)).edges

    def deliver(self, node: NodeContext, edges: Tuple[Edge, ...]) -> List:
        v = node.self_id
        mine = tuple(e for e in edges if e[0] == v)
        node.output = mine
        return [(e[1], e, CAT_CLUSTER_TREE) for e in mine]

    def step_outside(self, node: NodeContext, rnd: int):
        # Possibly a boundary node: a notification may still arrive.
        if node.inbox:
            node.output = sorted(payload for _, payload in node.inbox)
            return NO_SENDS, True
        return NO_SENDS, False


@dataclass
class AugmentResult:
    augmented: AugmentedClusterTree
    boundary_notified: Dict[int, List[Edge]]
    metrics: RunMetrics


def compute_augmented_tree(g: Graph, tree: RootedTree) -> AugmentResult:
    """Build the augmented tree in at most 2*depth+2 rounds with 2(|C|-1)+|B|
    messages; every boundary node hears about exactly one extension edge."""
    tree.validate(g)
    res = run(g, _AugmentProtocol(tree.root, tree.parent), ModeConfig(allow_quiescence=True))
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
        metrics=res.metrics,
    )


# ---------------------------------------------------------------------------
# Depth-bounded BFS exploration.
# ---------------------------------------------------------------------------

class ClusterState:
    """Root-side ledger of one growing cluster.  The root learns every
    member's neighbor list through the upward reports, so it can compute
    outgoing edge sets and route maps without further queries.  best
    maps each outside neighbor w to its inside neighbor of least id, the
    endpoint of the lexicographically first edge to w."""

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
        self.best: Dict[int, int] = {}
        self.done = False
        self.join_extra = join_extra
        self.last_layer = 0
        self._absorb_edges(root, nbrs)

    def _absorb_edges(self, u: int, nbrs: Tuple[int, ...]) -> None:
        members = self.members
        best = self.best
        for w in nbrs:
            if w not in members and (w not in best or u < best[w]):
                best[w] = u

    def absorb_reports(self, items: Iterable[Tuple[int, Tuple[int, ...]]]) -> None:
        for vid, nbrs in items:
            self.members[vid] = nbrs
        for vid, nbrs in items:
            self._absorb_edges(vid, nbrs)

    def assignments(self) -> Dict[int, List[int]]:
        """Minimal outgoing edge set, grouped by inside endpoint."""
        out: Dict[int, List[int]] = {}
        for w, u in self.best.items():
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

    def tree(self) -> RootedTree:
        return RootedTree(root=self.root, parent=dict(self.parent), layer=dict(self.depth))


class ExplorationProtocol(Protocol):
    """Grow clusters outward one BFS layer per window.

    Window j (of a given cluster): the nodes that joined in window j-1 report
    (id, neighbor list) up the tree with per-hop coalescing; the root absorbs
    the reports, computes the minimal outgoing edge set, and sends the edge
    assignments back down in one route map; the assigned members then send
    one exploration message over each assigned edge, all in the same round.
    Every reached node therefore receives exactly one exploration message
    per cluster, and ties between simultaneous candidate edges are settled
    at the root by the least-id rule: w is explored from its inside neighbor
    of least id (equivalently, over the lexicographically first (min, max)
    pair).

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
        targets = {u: tuple(ws) for u, ws in assign.items() if u != cs.root}
        route = route_map(cs.root, cs.parent, targets)
        payload = (K_DOWN, cs.root, j, explore_round, cs.join_extra, route)
        sends = [(hop, payload, CAT_CLUSTER_TREE) for hop in route[0].get(cs.root, ())]
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
                    _, root, j, explore_round, extra, (kids, ws_at) = payload
                    ws = ws_at.get(v)
                    if ws is not None:
                        node.schedule(explore_round, ("explore", root, j, ws, extra))
                    for hop in kids.get(v, ()):
                        sends.append((hop, payload, CAT_CLUSTER_TREE))
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
    tree: RootedTree
    metrics: RunMetrics
    join_receipts: Dict[int, int] = field(default_factory=dict)


def bfs_exploration(g: Graph, root: int, h: int) -> ExplorationResult:
    """Grow the depth-h BFS cluster around root.

    Costs at most 4*|C|*h messages and 4*h*h+1 rounds for the resulting
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
            if mem is None or mem != (tree.parent[v], tree.layer[v]):
                raise ClusterError(f"root ledger and member record disagree at {v}")
    return ExplorationResult(
        tree=tree,
        metrics=res.metrics,
        join_receipts=receipts,
    )
