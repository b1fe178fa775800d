"""Rooted trees and the two protocols built on them.

RootedTree is the one tree type of the package: a cover cluster (a set of
nodes holding a rooted spanning tree of itself) and a BFS tree of the whole
graph are both RootedTrees, and share one validator and one JSON form.  Two
protocols run over such trees:

* the tree wave (TreeWaveProtocol): convergecast up a rooted tree, solve at
  the root, broadcast the answer down, at exactly |C|-1 messages and depth
  hops per direction.  gossipspanner's spanner BFS and global solves are
  small subclasses of it;
* depth-bounded BFS exploration (ExplorationProtocol), growing a cluster one
  layer per window; the cover builder is its subclass.  Each window the root
  reaches every node just outside the cluster over one edge, from its
  inside neighbor of least id (equivalently, the lexicographically first
  such edge: for a fixed outside node w the pair (min(u,w), max(u,w)) grows
  with u).

The exploration machinery is reactive: upward reports coalesce at each hop,
downward instructions travel in one shared route built at the root (which
tracks the full tree; see route_map), and the only clock the participants
share is "a node that joins in round t reports in round t+2".  Rounds fit
the fixed per-layer window of 2j+3 used by the growth schedule.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Dict, KeysView, List, Mapping, Optional, Tuple

from .netgraph import Graph, GraphError
from .simengine import (
    CAT_CLUSTER_TREE,
    CAT_EXPLORATION,
    NodeContext,
    NO_SENDS,
    Protocol,
    SimError,
)

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
    depth is derived once, at construction; members is a view of layer's
    keys, not a second table."""

    root: int
    parent: Dict[int, int]
    layer: Dict[int, int]
    depth: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "depth", max(self.layer.values(), default=0))

    @property
    def members(self) -> KeysView[int]:
        return self.layer.keys()

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
    order, takes the payload as its output and halts.  Nodes outside the
    tree halt at once.  The default gather/combine collect (id, neighbor
    list) pairs, i.e. the topology of the tree, at the root.
    """

    name = "tree_wave"

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

    def setup(self, node: NodeContext) -> None:
        node.state["acc"] = {}

    def step(self, node: NodeContext, rnd: int):
        v = node.self_id
        children = self.children.get(v)
        if children is None:
            return NO_SENDS, True
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
        if st.get("reported") or not ready or len(acc) < len(children):
            return NO_SENDS, False
        value = self.gather(node)
        for c in children:
            value = self.combine(value, acc[c])
        if parent is None:
            return self._down(node, children, self.solve(node, value))
        st["reported"] = True
        return [(parent, ("up", value), CAT_CLUSTER_TREE)], False

    def _down(self, node: NodeContext, children: List[int], payload: Any):
        node.output = payload
        return [(c, ("dn", payload), CAT_CLUSTER_TREE) for c in children], True


# ---------------------------------------------------------------------------
# Depth-bounded BFS exploration.
# ---------------------------------------------------------------------------

class ClusterState:
    """Root-side ledger of one growing cluster.  The root learns every
    member's neighbor list through the upward reports, so it can compute
    each window's outgoing edges and route map without further queries.  best
    maps each outside neighbor w to its inside neighbor of least id, the
    endpoint of the lexicographically first edge to w."""

    __slots__ = (
        "root", "h", "members", "parent", "depth", "best",
        "done", "join_extra",
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
        self._absorb_edges(root, nbrs)

    def _absorb_edges(self, u: int, nbrs: Tuple[int, ...]) -> None:
        members = self.members
        best = self.best
        for w in nbrs:
            if w not in members and (w not in best or u < best[w]):
                best[w] = u

    def absorb_reports(self, items: List[Tuple[int, Tuple[int, ...]]]) -> None:
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

    def tree(self) -> RootedTree:  # shares this ledger's parent and depth maps
        return RootedTree(root=self.root, parent=self.parent, layer=self.depth)


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

    Every joining node reports, the final layer's too, so each root ends up
    knowing all its members' neighbor lists.  Subclasses decide who starts
    a cluster and when, through activate_cluster (see the cover builder).

    A node keeps in node.known "mem" (root -> its (parent, depth) in that
    cluster), "kids" (root -> its children there, ascending, recorded at its
    one explore action; none at a leaf) and "cluster" (the ClusterState of
    the cluster it roots, or None).
    """

    def on_joined(self, node: NodeContext, root: int, depth: int, extra: Any) -> None:
        """Hook: this node just joined root's cluster at the given depth."""

    def setup(self, node: NodeContext) -> None:
        node.known = {"mem": {}, "kids": {}, "cluster": None}

    def activate_cluster(self, node: NodeContext, rnd: int, h: int, join_extra: Any = None) -> List:
        """Start a cluster rooted at this node; returns sends (always [])."""
        known = node.known
        v = node.self_id
        cs = known["cluster"] = ClusterState(v, node.neighbor_ids, h, join_extra)
        known["mem"][v] = (None, 0)
        return self._grow(node, cs, 1, rnd)

    def _grow(self, node: NodeContext, cs: ClusterState, j: int, rnd: int) -> List:
        """Root-side turn of window j; rnd is the processing round."""
        if cs.done:
            return []
        if j > cs.h or not cs.best:
            cs.done = True
            cs.best = {}  # an emptied dict keeps the table it grew to
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
        known = node.known
        mem = known["mem"]
        v = node.self_id
        sends: List = []
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
                    if root in mem:
                        raise SimError(
                            f"node {v} received a second exploration message for cluster {root}"
                        )
                    mem[root] = (src, depth)
                    node.schedule(rnd + 2, ("up", root, depth + 1))
                    self.on_joined(node, root, depth, extra)
                else:
                    raise SimError(f"unknown payload kind {kind!r} at node {v}")
            for (root, j), items in up_merge.items():
                if root == v:
                    cs = known["cluster"]
                    cs.absorb_reports(items)
                    sends.extend(self._grow(node, cs, j, rnd))
                else:
                    payload = (K_UP, root, j, tuple(items))
                    sends.append((mem[root][0], payload, CAT_CLUSTER_TREE))

        for action in node.due:
            kind = action[0]
            if kind == "up":
                _, root, j = action
                payload = (K_UP, root, j, ((v, node.neighbor_ids),))
                sends.append((mem[root][0], payload, CAT_CLUSTER_TREE))
            elif kind == "explore":
                _, root, j, ws, extra = action
                known["kids"][root] = ws
                for w in ws:
                    sends.append((w, (K_JOIN, root, j, extra), CAT_EXPLORATION))
            else:
                sends.extend(self.run_action(node, rnd, action))
        return sends, False

    def run_action(self, node: NodeContext, rnd: int, action: Tuple) -> List:
        raise SimError(f"unknown scheduled action {action!r}")
