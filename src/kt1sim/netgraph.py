"""Static undirected topologies, generators, and centralized reference oracles.

Everything here is centralized bookkeeping: the simulator and the protocols
never peek at a Graph beyond each node's own neighbor list.  Node identifiers
are distinct integers drawn from [1, n^3] so that identifier comparisons carry
information (tie-breaking, leader election) without collisions.

Generation is exact and reproducible: a GraphGenSpec fixes its graph.  An
Erdős–Rényi draw decides node pair (i, j), i < j, in row-major order, by
``random.Random(seed).random() < p``, retrying until the graph is connected.
It reads those draws in bulk, as raw Mersenne Twister words from
``getrandbits`` (`_er_draw`), which gives exactly the edges and the final rng
state of one ``random()`` call per pair, since CPython builds each
``random()`` from two such words.  The pair count is still n(n-1)/2 per
attempt; only the Python work per pair is gone.
"""

from __future__ import annotations

import math
import random
import re
import struct
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

Edge = Tuple[int, int]

FAMILIES = (
    "path",
    "cycle",
    "star",
    "complete",
    "grid",
    "balanced_binary_tree",
    "erdos_renyi",
)

ID_SCHEMES = ("sequential", "random_permutation")

# Rejection-sampling budget for connected erdos_renyi draws.
ER_RETRY_BUDGET = 100


class GraphError(ValueError):
    """Raised for malformed topologies or generator specs."""


def canonical_edge(u: int, v: int) -> Edge:
    return (u, v) if u < v else (v, u)


@dataclass(frozen=True)
class Graph:
    """Immutable, connected, simple undirected graph.

    adjacency maps node id -> sorted tuple of neighbor ids.  Symmetry, the
    absence of self loops, connectivity, and the id range are all checked at
    construction time so downstream code can assume a sound topology
    (generate_graph's output is sound by construction and skips the checks).
    """

    adjacency: Dict[int, Tuple[int, ...]]
    n: int = field(init=False)
    m: int = field(init=False)

    def __post_init__(self) -> None:
        adj = self.adjacency
        if not adj:
            raise GraphError("graph must have at least one node")
        n = len(adj)
        id_cap = n * n * n
        edge_count = 0
        # Neighbor sets, built on first lookup, keep the symmetry check O(m).
        nbr_sets: Dict[int, frozenset] = {}
        for v, nbrs in adj.items():
            if type(v) is not int or v < 1 or v > id_cap:  # not bool
                raise GraphError(f"node id {v!r} outside [1, n^3] for n={n}")
            if list(nbrs) != sorted(set(nbrs)):
                raise GraphError(f"neighbor list of {v} not sorted/deduplicated")
            for u in nbrs:
                if u == v:
                    raise GraphError(f"self loop at {v}")
                if not self.has_node(u):
                    raise GraphError(f"edge ({v},{u!r}) points outside the node set")
                back = nbr_sets.get(u)
                if back is None:
                    back = nbr_sets[u] = frozenset(adj[u])
                if v not in back:
                    raise GraphError(f"asymmetric edge ({v},{u})")
            edge_count += len(nbrs)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "m", edge_count // 2)
        if not _connected(adj):
            raise GraphError("graph is not connected")

    @classmethod
    def _trusted(cls, adjacency: Dict[int, Tuple[int, ...]]) -> "Graph":
        """A Graph over adjacency without the checks of __post_init__, for
        a builder whose construction already makes the lists symmetric,
        sorted and free of repeats and self loops, the ids distinct and in
        range, and the graph connected (generate_graph)."""
        g = object.__new__(cls)
        object.__setattr__(g, "adjacency", adjacency)
        object.__setattr__(g, "n", len(adjacency))
        object.__setattr__(g, "m", sum(map(len, adjacency.values())) // 2)
        return g

    @property
    def nodes(self) -> Tuple[int, ...]:
        return tuple(sorted(self.adjacency))

    def has_node(self, v: Any) -> bool:
        """Whether v is a node id: an int (not a bool) key of adjacency."""
        return type(v) is int and v in self.adjacency

    def degree(self, v: int) -> int:
        return len(self.adjacency[v])

    def has_edge(self, u: int, v: int) -> bool:
        return v in self.adjacency and u in self.adjacency[v]

    def edges(self) -> List[Edge]:
        out = []
        for v in sorted(self.adjacency):
            for u in self.adjacency[v]:
                if v < u:
                    out.append((v, u))
        return out

    @staticmethod
    def from_edges(nodes: Iterable[int], edges: Iterable[Edge]) -> "Graph":
        adj: Dict[int, set] = {v: set() for v in nodes}
        for u, v in edges:
            if u not in adj or v not in adj:
                raise GraphError(f"edge ({u},{v}) references unknown node")
            if u == v:
                raise GraphError(f"self loop at {u}")
            adj[u].add(v)
            adj[v].add(u)
        return Graph({v: tuple(sorted(s)) for v, s in adj.items()})


@dataclass(frozen=True)
class DistanceMap:
    """Hop distances from a root, as computed by oracle_bfs."""

    root: int
    dist: Dict[int, int]

    def layers(self) -> Dict[int, List[int]]:
        out: Dict[int, List[int]] = {}
        for v, d in self.dist.items():
            out.setdefault(d, []).append(v)
        for layer in out.values():
            layer.sort()
        return out


@dataclass(frozen=True)
class GraphGenSpec:
    """Deterministic recipe for one generated topology."""

    family: str
    n: int
    id_scheme: str = "sequential"
    seed: int = 0
    p: Optional[float] = None

    def __post_init__(self) -> None:
        if self.family not in FAMILIES:
            raise GraphError(f"unknown family {self.family!r}")
        if self.id_scheme not in ID_SCHEMES:
            raise GraphError(f"unknown id scheme {self.id_scheme!r}")
        # bool is an int subclass, hence the exact type checks.
        if type(self.n) is not int:
            raise GraphError(f"n must be an int, not {self.n!r}")
        if type(self.seed) is not int:
            raise GraphError(f"seed must be an int, not {self.seed!r}")
        if self.p is not None and type(self.p) not in (int, float):
            raise GraphError(f"p must be a number, not {self.p!r}")
        if self.n < 1:
            raise GraphError("n must be >= 1")
        if self.family == "cycle" and self.n < 3:
            raise GraphError("cycle needs n >= 3")
        if self.family == "erdos_renyi":
            if self.p is None or not (0.0 < self.p <= 1.0):
                raise GraphError("erdos_renyi requires p in (0, 1]")
        elif self.p is not None:
            raise GraphError(f"family {self.family} takes no p parameter")


def _structural_adjacency(spec: GraphGenSpec, rng: random.Random) -> Dict[int, List[int]]:
    """Neighbor lists over structural positions 0..n-1, before id
    assignment; an Erdős–Rényi draw is redrawn until it is connected."""
    n = spec.n
    if spec.family != "erdos_renyi":
        return _positions(n, _family_edges(spec))
    for _ in range(ER_RETRY_BUDGET):
        adj = _er_draw(n, spec.p, rng)
        if _connected(adj):
            return adj
    raise GraphError(
        f"no connected G({n},{spec.p}) draw within {ER_RETRY_BUDGET} attempts"
    )


def _positions(n: int, edges: List[Edge]) -> Dict[int, List[int]]:
    """The neighbor lists of positions 0..n-1 under edges."""
    adj: Dict[int, List[int]] = {i: [] for i in range(n)}
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    return adj


def _family_edges(spec: GraphGenSpec) -> List[Edge]:
    """Edges over structural positions of every family but Erdős–Rényi."""
    n = spec.n
    fam = spec.family
    if fam == "path":
        return [(i, i + 1) for i in range(n - 1)]
    if fam == "cycle":
        return [(i, (i + 1) % n) for i in range(n)]
    if fam == "star":
        return [(0, i) for i in range(1, n)]
    if fam == "complete":
        return [(i, j) for i in range(n) for j in range(i + 1, n)]
    if fam == "grid":
        rows = _near_square_rows(n)
        cols = n // rows
        edges = []
        for r in range(rows):
            for c in range(cols):
                i = r * cols + c
                if c + 1 < cols:
                    edges.append((i, i + 1))
                if r + 1 < rows:
                    edges.append((i, i + cols))
        return edges
    if fam == "balanced_binary_tree":
        # Complete binary tree in heap layout: children of i are 2i+1, 2i+2.
        return [(i, c) for i in range(n) for c in (2 * i + 1, 2 * i + 2) if c < n]
    raise GraphError(f"unknown family {fam!r}")


# Node pairs drawn per getrandbits call: 8 bytes each, so 32 KiB a chunk.
_ER_CHUNK = 1 << 12
_PAIR = struct.Struct("<II")
_CANDIDATE = re.compile(b"\x00")


def _er_draw(n: int, p: float, rng: random.Random) -> Dict[int, List[int]]:
    """The neighbor lists that `_positions` builds from the edges (i, j),
    i < j, in row-major order, that the per-pair loop
    ``[(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p]``
    returns, leaving rng in the same state; no edge list is built.

    CPython's ``random()`` is K / 2^53 with K = (a >> 5) * 2^26 + (b >> 6),
    where a and b are the next two 32-bit Mersenne Twister words, and
    ``getrandbits(64 * k)`` returns the next 2k words, least significant
    first.  So the little-endian bytes of one such call hold k pairs' (a, b)
    words, and a pair is an edge exactly when K < t = ceil(p * 2^53): both
    sides of ``random() < p`` scale by 2^53 exactly, and K is an integer.
    The tests hold this to the per-pair loop, rng state included.

    Byte 3 of a pair is the top byte of a, which is K >> 45.  With bound =
    (t - 1) >> 45, a pair whose top byte exceeds bound is no edge, and one
    below bound is an edge.  A translation table marks the candidates (top
    byte <= bound) with a zero byte, one compiled regex finds them, and only
    candidates on the bound itself get the exact K < t test in Python, so
    the per-pair work runs in C and the Python work scales with m.
    """
    t = math.ceil(p * 2.0 ** 53)
    bound = (t - 1) >> 45
    marks = bytes(c > bound for c in range(256))
    unpack = _PAIR.unpack_from
    adj: Dict[int, List[int]] = {i: [] for i in range(n)}
    i, row_end = 0, n - 1  # row i holds flat pair indices [.., row_end)
    total = n * (n - 1) // 2
    for start in range(0, total, _ER_CHUNK):
        k = min(_ER_CHUNK, total - start)
        buf = rng.getrandbits(64 * k).to_bytes(8 * k, "little")
        top = buf[3::8]
        for hit in _CANDIDATE.finditer(top.translate(marks)):
            f = hit.start()
            if top[f] == bound:
                a, b = unpack(buf, 8 * f)
                if ((a >> 5) << 26 | (b >> 6)) >= t:
                    continue
            f += start
            while f >= row_end:
                i += 1
                row_end += n - 1 - i
            j = n - row_end + f
            adj[i].append(j)
            adj[j].append(i)
    return adj


def _near_square_rows(n: int) -> int:
    """Largest divisor of n that is <= sqrt(n); degenerates to 1 for primes."""
    best = 1
    d = 1
    while d * d <= n:
        if n % d == 0:
            best = d
        d += 1
    return best


def _connected(adj: Mapping[int, Sequence[int]]) -> bool:
    """Whether every node of a non-empty adjacency map is reachable from
    its first node."""
    start = next(iter(adj))
    seen = {start}
    stack = [start]
    while stack:
        for u in adj[stack.pop()]:
            if u not in seen:
                seen.add(u)
                stack.append(u)
    return len(seen) == len(adj)


def generate_graph(spec: GraphGenSpec) -> Graph:
    """Build the graph described by spec.  Same spec, same graph, always.

    The rng seeded with spec.seed first draws the structural edges (for
    Erdős–Rényi, the bit-identical bulk form of one ``random() < p`` per
    node pair and per connectivity attempt, see `_er_draw`), then, for
    ``random_permutation``, the ids.  Since the bulk draw leaves the rng
    in the per-pair loop's state, the ids match too.
    """
    rng = random.Random(spec.seed)
    adj = _structural_adjacency(spec, rng)
    n = spec.n
    if spec.id_scheme == "sequential":
        ids = list(range(1, n + 1))
    else:
        # Distinct ids from the polynomial space [1, n^3]; the draw consumes
        # the rng after edge sampling so both aspects derive from one seed.
        ids = rng.sample(range(1, n * n * n + 1), n)
    # Relabel positions by ids.  Every family's edges join distinct
    # positions once each and connect all n (an Erdős–Rényi draw was
    # checked above), and the lists are built symmetric and sorted here, so
    # the graph skips Graph's validation; the tests hold every family to it.
    return Graph._trusted(
        {ids[i]: tuple(sorted([ids[j] for j in nbrs])) for i, nbrs in adj.items()})


def oracle_bfs(g: Graph, root: int) -> DistanceMap:
    """Centralized breadth-first distances; the ground truth every
    distributed BFS in this package is judged against."""
    if not g.has_node(root):
        raise GraphError(f"root {root!r} not in graph")
    dist = {root: 0}
    frontier = [root]
    d = 0
    while frontier:
        d += 1
        nxt = []
        for v in frontier:
            for u in g.adjacency[v]:
                if u not in dist:
                    dist[u] = d
                    nxt.append(u)
        frontier = nxt
    return DistanceMap(root=root, dist=dist)


def oracle_ball(g: Graph, center: int, radius: int) -> frozenset:
    """All nodes within hop distance radius of center."""
    seen = {center}
    frontier = [center]
    for _ in range(radius):
        nxt = []
        for v in frontier:
            for u in g.adjacency[v]:
                if u not in seen:
                    seen.add(u)
                    nxt.append(u)
        frontier = nxt
    return frozenset(seen)


def diameter(g: Graph) -> int:
    """Exact hop diameter, by iFUB (Crescenzi, Grossi, Habib, Lanzi and
    Marino, TCS 2013, "On computing the diameter of real-world undirected
    graphs") in pure Python, for every n.

    A 4-sweep picks a central node u and a lower bound lb: two rounds of
    "BFS from the current centre, BFS from its farthest node a, BFS from the
    farthest node b from a", where each round's centre is the node that
    minimises its largest distance to the sweep endpoints (a and b) seen so
    far.  Any two nodes within distance i of u are at most 2i apart, so the
    walk goes down u's BFS levels from the deepest one, raising lb to the
    largest eccentricity in each level, until lb >= 2i.  A level's largest
    eccentricity is the last round of one bit-parallel BFS from all its
    nodes at once (`multi_source_bfs`, which also answers the spanner
    stretch check).  Low-diameter graphs and grids stop after a level or
    two.  The known worst case is vertex-transitive graphs such as
    cycles: every level has the largest eccentricity, so about n/4 levels
    are searched, each for about n/2 rounds (about 0.2 s for n=600 and
    0.5 s for n=1000 on a 2-core Xeon, Python 3.11).  No pipeline or
    benchmark workload takes the diameter of a cycle with n > 512; only the
    n=600 cross-check test does.  The value is cross-checked against
    all-roots BFS (n <= 64) and dense all-pairs shortest paths (n up to
    1024) in the test suite.
    """
    if g.n == 1:
        return 0
    u, lb = _four_sweep_centre(g)
    levels = oracle_bfs(g, u).layers()
    lb = max(lb, len(levels) - 1)
    for i in range(len(levels) - 1, 0, -1):
        if lb >= 2 * i:
            break
        lb = max(lb, multi_source_bfs(g.adjacency, levels[i])[1])
    return lb


def _four_sweep_centre(g: Graph) -> Tuple[int, int]:
    """(centre, lower bound on the diameter) from two double sweeps, the
    first one started at a node of largest degree."""
    centre = max(g.adjacency, key=g.degree)
    far = dict.fromkeys(g.adjacency, 0)  # largest distance to an endpoint
    lb = 0
    for _ in range(2):
        d = oracle_bfs(g, centre).dist
        a = max(d, key=d.get)
        da = oracle_bfs(g, a).dist
        b = max(da, key=da.get)
        db = oracle_bfs(g, b).dist
        lb = max(lb, max(db.values()))
        for v in far:
            far[v] = max(far[v], da[v], db[v])
        centre = min(far, key=far.get)
    return centre, lb


def multi_source_bfs(adj: Dict[int, Iterable[int]], sources: List[int],
                     max_rounds: Optional[int] = None) -> Tuple[Dict[int, int], int]:
    """One bit-parallel BFS from distinct sources: (reached, last round).

    Bit k of reached[v] says sources[k] reached v within the rounds run.
    Each round only the nodes that gained bits in the previous round offer
    those bits to their neighbours.  The BFS stops once a round brings no
    gain or after max_rounds rounds, and the last round in which any node
    gained a bit is returned with the masks; run to the end, that round is
    the largest eccentricity among the sources.
    """
    reached = dict.fromkeys(adj, 0)
    gained = {}
    for k, s in enumerate(sources):
        reached[s] = gained[s] = 1 << k
    rnd = 0
    while gained and (max_rounds is None or rnd < max_rounds):
        offered: Dict[int, int] = {}
        for v, bits in gained.items():
            for w in adj[v]:
                offered[w] = offered.get(w, 0) | bits
        gained = {}
        for w, bits in offered.items():
            bits &= ~reached[w]
            if bits:
                gained[w] = bits
                reached[w] |= bits
        if gained:
            rnd += 1
    return reached, rnd


# ---------------------------------------------------------------------------
# Edge-list text interchange: "n m" header, one "u v" line per edge.
# ---------------------------------------------------------------------------

def write_edge_list(g: Graph, path: str) -> None:
    lines = [f"{g.n} {g.m}"]
    lines.extend(f"{u} {v}" for u, v in g.edges())
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def read_edge_list(path: str) -> Graph:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            tokens = fh.read().split()
        except UnicodeDecodeError as exc:
            raise GraphError(f"{path}: not UTF-8 text: {exc}") from exc
    if len(tokens) < 2:
        raise GraphError(f"{path}: missing 'n m' header")
    try:
        n, m, *body = map(int, tokens)
    except ValueError as exc:
        raise GraphError(f"{path}: {exc}") from exc
    if len(body) != 2 * m:
        raise GraphError(f"{path}: expected {2 * m} edge endpoints after the header, "
                         f"found {len(body)}")
    edges = list(zip(body[::2], body[1::2]))
    nodes = set()
    for u, v in edges:
        nodes.add(u)
        nodes.add(v)
    if m == 0 and n == 1:
        nodes = {1} if not nodes else nodes
    if len(nodes) != n:
        raise GraphError(f"{path}: header says n={n} but body names {len(nodes)} nodes")
    g = Graph.from_edges(nodes, edges)  # validates symmetry + connectivity
    if g.m != m:
        raise GraphError(f"{path}: header says m={m} but body has {g.m} distinct edges")
    return g


def er_connectivity_safe_p(n: int) -> float:
    """A p comfortably above the connectivity threshold, used by the matched
    random-graph families in the scaling studies: p = min(1, 3 ln n / n)."""
    if n <= 2:
        return 1.0
    return min(1.0, 3.0 * math.log(n) / n)
