"""Deterministic synchronous message-passing engine.

Execution model: time advances in lockstep rounds.  In round t every node
first receives the messages addressed to it in round t-1, then computes, then
sends.  A message sent in round t is therefore readable at the start of round
t+1, never earlier.  Message size is unbounded; complexity is measured in
message COUNT (by category) and in rounds.

Nodes are stepped in ascending id order, so every inbox lists its mail in
ascending sender order (one sender's messages in send order) and a run is a
pure function of (graph, protocol, config).  Timers are the engine's too:
node.schedule(r, action) hands the action back in node.due when the node is
stepped in round r.  One calendar (round -> {node: actions}, plus a heap of
its rounds) yields a due round whole; a halted node's timers are dropped
like its mail, and a round with only such timers is never visited.  Idle
rounds are skipped in O(1) while still counting toward the round total.
A step's node.inbox and node.due are the engine's own sequences and are
read-only; a step with no mail or no due timer gets the shared empty
tuple EMPTY there, so an idle slot allocates nothing.

The send loop checks each message's edge, counts it and delivers it; in
gossip mode it also polices each step that sent more than one message.
Trace recording and digesting are a second pass over the same sends, made
only when record_trace or trace_digest is on.  Mail to a node that has
already halted is checked, counted, traced and digested when it is sent,
and then dropped: no node can ever read it.

A Session holds one graph's nodes (sorted ids, one NodeContext and one
neighbor table per node, a dict keyed by the neighbor ids, and one clock),
built once for a sequence of runs on that graph: run() accepts a Session in
place of a Graph, and from the session's second run on it first puts every
node's per-run slots (state, inbox, due, output, rng and its seed) and the
clock back to their fresh values, so each run is exactly the run on the
bare graph.  Session.release() does that reset early, to free a run's node
state once its outputs are read.  run(graph, ...) is a one-run session.  A
session run's RunResult.contexts are the session's own contexts, valid only
until the next run or release on that session.  No reset touches a node's
known slot: what it learned in one run and reads in a later one.
"""

from __future__ import annotations

import dataclasses
import hashlib
import heapq
import random
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, Union

from .netgraph import Graph

# Message categories (ints in the hot path, names in emitted records).
CAT_EXPLORATION = 0
CAT_CLUSTER_TREE = 1
CAT_GOSSIP = 2
CAT_CONTROL = 3
CATEGORY_NAMES = ("exploration", "cluster_tree", "gossip", "control")

# Payload tag used by gossip-mode protocols to mark a link activation; the
# engine relies on it to police the one-activation-per-node-per-round rule.
GOSSIP_ACT = "act"
GOSSIP_RSP = "rsp"

# The inbox and due of a node's step with no mail or no due timer: one
# shared, immutable empty, so an idle slot allocates nothing.
EMPTY: Tuple[()] = ()

_RNG_MIX = 0x9E3779B97F4A7C15
_RNG_MASK = (1 << 64) - 1


class SimError(Exception):
    """Base class for engine faults."""


class ModelViolation(SimError):
    """A protocol tried to send over a non-edge of the host graph."""


class SimTimeout(SimError):
    """max_rounds elapsed with nodes still active; distinguishable from a
    protocol that wedges (ProtocolStuck) or one that finishes."""


class ProtocolStuck(SimError):
    """No pending mail, no timers, yet nodes never declared halt."""


class GossipViolation(SimError):
    """A node initiated more than one link activation in a single round."""

    def __init__(self, round_no: int, node: int, links: List[Tuple[int, int]]):
        super().__init__(
            f"node {node} initiated {len(links)} activations in round {round_no}: {links}"
        )
        self.round_no = round_no
        self.node = node
        self.links = links


@dataclass
class ModeConfig:
    """Per-run switches.  gossip_mode enables the activation discipline;
    max_rounds is a hard safety cap; rng_seed feeds every node's private
    stream; allow_quiescence lets a run end with un-halted but permanently
    idle nodes (used by protocols whose natural end is silence)."""

    gossip_mode: bool = False
    max_rounds: int = 50_000_000
    rng_seed: int = 0
    allow_quiescence: bool = False
    record_trace: bool = False
    trace_digest: bool = False

    def __post_init__(self) -> None:
        if self.max_rounds < 1:
            raise ValueError("max_rounds must be >= 1")


@dataclass(slots=True)
class Envelope:
    """One recorded message (trace entries only; the hot path uses tuples)."""

    round_no: int
    src: int
    dst: int
    payload: Any
    category: str


@dataclass
class RunMetrics:
    rounds: int = 0  # the last active round, so the final delivery counts
    messages_total: int = 0
    messages_by_category: Dict[str, int] = field(default_factory=dict)

    def merged_with(self, other: "RunMetrics", parallel: bool = False) -> "RunMetrics":
        """Combine two runs: message counts add; rounds add for sequential
        composition and take the max for notionally parallel executions."""
        cats: Dict[str, int] = dict(self.messages_by_category)
        for k, v in other.messages_by_category.items():
            cats[k] = cats.get(k, 0) + v
        rounds = max(self.rounds, other.rounds) if parallel else self.rounds + other.rounds
        return RunMetrics(rounds, self.messages_total + other.messages_total, cats)


class _Clock:
    """Engine-side timers shared by a run's nodes: the round being
    processed, cal (round -> {node: actions in scheduling order, or None
    for a node that steps in round 1 with no action}) and a heap holding
    each round of cal once."""

    __slots__ = ("now", "cal", "heap")

    def __init__(self) -> None:
        self.now = 0
        self.cal: Dict[int, Dict[int, List[Any]]] = {}
        self.heap: List[int] = []


class NodeContext:
    """What one node is allowed to know: its id, its neighbors' ids, its own
    mutable state bag, this round's inbox and due timer actions (read-only,
    EMPTY when there are none), a private seeded rng, and known, what it
    kept from earlier runs on its session."""

    __slots__ = ("self_id", "neighbor_ids", "state", "inbox", "due", "output",
                 "known", "_rng", "_seed", "_clock")

    def __init__(self, self_id: int, neighbor_ids: Tuple[int, ...], seed: int,
                 clock: _Clock):
        self.self_id = self_id
        self.neighbor_ids = neighbor_ids
        self.state: Dict[str, Any] = {}
        self.inbox: Sequence[Tuple[int, Any]] = []
        self.due: Sequence[Any] = []
        self.output: Any = None
        self.known: Any = None
        self._rng: Optional[random.Random] = None
        self._seed = seed
        self._clock = clock

    @property
    def rng(self) -> random.Random:
        if self._rng is None:
            self._rng = random.Random((self._seed * _RNG_MIX + self.self_id) & _RNG_MASK)
        return self._rng

    def schedule(self, rnd: int, action: Any) -> None:
        """Have action appear in self.due when this node is stepped in round
        rnd.  An action for the round being processed joins the live
        self.due (a new list if the step had no due timer, so read
        self.due after scheduling); one for a past round is a SimError."""
        clock = self._clock
        now = clock.now
        if rnd > now:
            bucket = clock.cal.get(rnd)
            if bucket is None:
                clock.cal[rnd] = {self.self_id: [action]}
                heapq.heappush(clock.heap, rnd)
            else:
                acts = bucket.get(self.self_id)
                if acts is None:
                    bucket[self.self_id] = [action]
                else:
                    acts.append(action)
        elif rnd == now and now > 0:
            if self.due is EMPTY:
                self.due = [action]
            else:
                self.due.append(action)
        else:
            raise SimError(f"node {self.self_id} scheduled round {rnd} in round {now}")


class Session:
    """The nodes of one graph, built once and reused by every run() given
    this session.  A fresh session's contexts are used as built; a later run
    first resets each one's per-run slots and the shared clock, unless
    release() already has.  It holds n contexts and n neighbor tables, and
    the state of its last run until release(): keep it only while its runs
    or its nodes' known slots are needed (a Cover keeps its own)."""

    __slots__ = ("ids", "contexts", "nbr_sets", "clock", "_used")

    def __init__(self, graph: Graph):
        self.ids = graph.nodes
        self.clock = clock = _Clock()
        adj = graph.adjacency
        self.contexts = {v: NodeContext(v, adj[v], 0, clock) for v in self.ids}
        # dicts, not frozensets: the same lookup time at about half the size
        self.nbr_sets = {v: dict.fromkeys(adj[v]) for v in self.ids}
        self._used = False

    def release(self) -> None:
        """Free the last run's node state: put every node's per-run slots
        (state, inbox, due, output, rng and its seed; known is kept) and the
        clock back to fresh values, emptying the last run's contexts: read
        its outputs first.  The next run starts without a reset."""
        if not self._used:
            return
        self.clock.now = 0
        for node in self.contexts.values():
            node.state = {}
            node.inbox = []
            node.due = []
            node.output = None
            node._rng = None
            node._seed = 0
        self._used = False

    def _start(self, seed: int) -> None:
        """Ready the nodes for a run whose rngs use seed.  Every node steps
        in round 1: its round-1 calendar entry is None until a setup
        schedules an action for that round."""
        self.release()
        if seed:  # fresh contexts hold seed 0
            for node in self.contexts.values():
                node._seed = seed
        self._used = True
        clock = self.clock
        clock.cal = {1: dict.fromkeys(self.ids)}
        clock.heap = [1]


# A step returns (sends, halt): sends is a list of (dst, payload, category:int).
StepResult = Tuple[List[Tuple[int, Any, int]], bool]

NO_SENDS: List[Tuple[int, Any, int]] = []


class Protocol:
    """Per-node behavior plugged into run().  Subclasses override setup() to
    seed node state and step() to react each round.  Every node is stepped
    once in round 1; afterwards a node runs only when it has mail or when
    one of its node.schedule() timers comes due.  Halting drops a node's
    timers."""

    name = "protocol"

    def setup(self, node: NodeContext) -> None:
        pass

    def step(self, node: NodeContext, rnd: int) -> StepResult:
        raise NotImplementedError


@dataclass
class RunResult:
    """What run() returns.  contexts are the run's node contexts; for a run
    on a Session they are the session's own, valid only until its next run
    or release."""

    outputs: Dict[int, Any]
    metrics: RunMetrics
    end_reason: str  # "halted" | "quiescent"
    trace: Optional[List[Envelope]] = None
    digest: Optional[str] = None
    contexts: Optional[Dict[int, NodeContext]] = None


def _canon(obj: Any) -> bytes:
    """Canonical byte form for trace digests; container order is forced so
    equal payloads hash equally regardless of construction order.  Ints
    wider than 63 bits (gossip rumor bitsets) are written in hex: decimal
    conversion is quadratic and refused past 4300 digits."""
    if isinstance(obj, int) and obj.bit_length() > 63:
        return b"x" + format(obj, "x").encode()
    if obj is None or isinstance(obj, (bool, int, str)):
        return repr(obj).encode()
    if isinstance(obj, (tuple, list)):
        return b"(" + b",".join(_canon(x) for x in obj) + b")"
    if isinstance(obj, (set, frozenset)):
        return b"{" + b",".join(sorted(_canon(x) for x in obj)) + b"}"
    if isinstance(obj, dict):
        items = sorted((_canon(k), _canon(v)) for k, v in obj.items())
        return b"d{" + b",".join(k + b":" + v for k, v in items) + b"}"
    raise TypeError(f"unhashable payload element of type {type(obj).__name__}")


def run(graph: Union[Graph, Session], protocol: Protocol,
        config: Optional[ModeConfig] = None) -> RunResult:
    """Execute protocol on graph until every node halts (or, with
    allow_quiescence, until the system can provably never act again).

    graph may be a Session, whose nodes the run reuses; the result's
    contexts are then valid only until the session's next run or release.

    Raises SimTimeout past config.max_rounds, ProtocolStuck on silent
    deadlock, ModelViolation on a non-edge send, GossipViolation in gossip
    mode on a double activation.
    """
    config = config or ModeConfig()
    session = graph if isinstance(graph, Session) else Session(graph)
    session._start(config.rng_seed)
    ids = session.ids
    nodes = session.contexts
    nbr_sets = session.nbr_sets
    clock = session.clock
    for v in ids:
        protocol.setup(nodes[v])
    cal = clock.cal  # filled by NodeContext.schedule
    timer_heap = clock.heap

    halted: set = set()
    n_total = len(ids)
    counts = [0, 0, 0, 0]
    trace: Optional[List[Envelope]] = [] if config.record_trace else None
    hasher = hashlib.blake2b(digest_size=16) if config.trace_digest else None
    gossip_mode = config.gossip_mode
    observed = trace is not None or hasher is not None
    step = protocol.step  # after any per-instance shadowing of step
    no_timers: Dict[int, List[Any]] = {}

    # In-flight mail sent last processed round, per addressee: (src,
    # payload) in ascending sender order, since senders step in id order.
    pending: Dict[int, List[Tuple[int, Any]]] = {}

    rnd = 0
    last_active = 0

    while True:
        # Next round with anything to do; idle gaps are skipped but counted,
        # and rounds holding only halted nodes' timers are dropped.
        if pending:
            next_rnd: Optional[int] = rnd + 1
        else:
            while timer_heap and cal[timer_heap[0]].keys() <= halted:
                del cal[heapq.heappop(timer_heap)]
            next_rnd = timer_heap[0] if timer_heap else None
        if next_rnd is None:
            if len(halted) == n_total:
                reason = "halted"
            elif config.allow_quiescence:
                reason = "quiescent"
            else:
                raise ProtocolStuck(
                    f"{n_total - len(halted)} nodes idle but not halted after round {rnd}"
                )
            break
        if next_rnd > config.max_rounds:
            raise SimTimeout(f"exceeded max_rounds={config.max_rounds}")
        rnd = clock.now = next_rnd

        # Deliver, and collect the round's due timers.
        inboxes = pending
        pending = {}
        due = cal.pop(rnd, no_timers)
        if due is not no_timers:
            heapq.heappop(timer_heap)  # rnd, the heap's least round
        order = sorted(inboxes.keys() | due.keys()) if due else sorted(inboxes)
        if halted:  # mail and timers of halted nodes are dropped
            order = [v for v in order if v not in halted]
        if not order:
            continue
        last_active = rnd

        violation: Optional[GossipViolation] = None
        for v in order:
            node = nodes[v]
            node.inbox = inboxes.get(v, EMPTY)
            node.due = due.get(v) or EMPTY  # None: the round-1 wake
            sends, halt = step(node, rnd)
            if sends:
                allowed = nbr_sets[v]
                for dst, payload, cat in sends:
                    if dst not in allowed:
                        raise ModelViolation(
                            f"round {rnd}: node {v} sent to non-neighbor {dst}"
                        )
                    counts[cat] += 1
                    if halted and dst in halted:
                        continue  # counted (and traced below) but never read
                    box = pending.get(dst)
                    if box is None:
                        pending[dst] = [(v, payload)]
                    else:
                        box.append((v, payload))
                # One send cannot break the rule; the lowest violator is
                # raised once the round is stepped.
                if gossip_mode and violation is None and len(sends) > 1:
                    links = [(v, dst) for dst, payload, cat in sends
                             if cat == CAT_GOSSIP and isinstance(payload, tuple)
                             and payload and payload[0] == GOSSIP_ACT]
                    if len(links) > 1:
                        violation = GossipViolation(rnd, v, links)
                if observed:  # trace and digest, in send order
                    for dst, payload, cat in sends:
                        if trace is not None:
                            trace.append(Envelope(rnd, v, dst, payload, CATEGORY_NAMES[cat]))
                        if hasher is not None:
                            hasher.update(b"%d|%d|%d|%d|" % (rnd, v, dst, cat))
                            hasher.update(_canon(payload))
            if halt:
                halted.add(v)

        if violation is not None:
            raise violation

    metrics = RunMetrics(
        rounds=last_active,
        messages_total=sum(counts),
        messages_by_category={CATEGORY_NAMES[i]: counts[i] for i in range(4)},
    )
    return RunResult(
        outputs={v: nodes[v].output for v in ids},
        metrics=metrics,
        end_reason=reason,
        trace=trace,
        digest=hasher.hexdigest() if hasher is not None else None,
        contexts=nodes,
    )


@dataclass
class GossipCheckResult:
    ok: bool
    violations: List[Tuple[int, int, List[Tuple[int, int]]]] = field(default_factory=list)


def gossip_check(trace: List[Envelope]) -> GossipCheckResult:
    """Offline audit of a recorded gossip-mode trace: every node initiates at
    most one activation per round, and every response answers an activation
    that arrived over that very link in the previous round."""
    acts_by_round: Dict[int, Dict[int, List[Tuple[int, int]]]] = {}
    for env in trace:
        if env.category != CATEGORY_NAMES[CAT_GOSSIP]:
            continue
        if isinstance(env.payload, tuple) and env.payload and env.payload[0] == GOSSIP_ACT:
            acts_by_round.setdefault(env.round_no, {}).setdefault(env.src, []).append(
                (env.src, env.dst)
            )
    violations = []
    for rnd in sorted(acts_by_round):
        for v, links in acts_by_round[rnd].items():
            if len(links) > 1:
                violations.append((rnd, v, links))
    for env in trace:
        if env.category != CATEGORY_NAMES[CAT_GOSSIP]:
            continue
        if isinstance(env.payload, tuple) and env.payload and env.payload[0] == GOSSIP_RSP:
            prev = acts_by_round.get(env.round_no - 1, {})
            if (env.dst, env.src) not in prev.get(env.dst, []):
                violations.append((env.round_no, env.src, [(env.src, env.dst)]))
    return GossipCheckResult(ok=not violations, violations=violations)


def run_digest(graph: Graph, protocol_factory: Callable[[], Protocol],
               config: Optional[ModeConfig] = None) -> str:
    """Convenience: run with digesting enabled and return the trace hash."""
    cfg = dataclasses.replace(config or ModeConfig(), record_trace=False, trace_digest=True)
    return run(graph, protocol_factory(), cfg).digest or ""
