from __future__ import annotations

import dataclasses
import functools
import random
import sys
import weakref

import pytest

from kt1sim import bfscover, covers, gossipspanner, harness
from kt1sim.netgraph import GraphGenSpec, er_connectivity_safe_p, generate_graph
from kt1sim.simengine import (
    CAT_CONTROL,
    CAT_EXPLORATION,
    CAT_GOSSIP,
    EMPTY,
    GOSSIP_ACT,
    GOSSIP_RSP,
    Envelope,
    GossipViolation,
    ModeConfig,
    ModelViolation,
    NO_SENDS,
    NodeContext,
    Protocol,
    ProtocolStuck,
    RunMetrics,
    Session,
    SimError,
    SimTimeout,
    _canon,
    gossip_check,
    run,
    run_digest,
)


def _graph(family, n, **kw):
    return generate_graph(GraphGenSpec(family=family, n=n, **kw))


class Silent(Protocol):
    def step(self, node, rnd):
        return NO_SENDS, True


class PingOnce(Protocol):
    """Each endpoint of an edge sends one message round 1, halts on receipt."""

    def step(self, node, rnd):
        if rnd == 1:
            return [(w, ("ping",), CAT_CONTROL) for w in node.neighbor_ids], False
        node.state["got"] = [src for src, _ in node.inbox]
        return NO_SENDS, True


class Flood(Protocol):
    def __init__(self, root):
        self.root = root

    def step(self, node, rnd):
        first = (rnd == 1 and node.self_id == self.root) or (
            node.inbox and "sent" not in node.state)
        if first:
            node.state["sent"] = True
            return [(w, ("f",), CAT_EXPLORATION) for w in node.neighbor_ids], True
        return NO_SENDS, "sent" in node.state


def test_empty_protocol_one_round_zero_messages():
    res = run(_graph("path", 3), Silent())
    assert res.metrics.rounds == 1
    assert res.metrics.messages_total == 0
    assert res.end_reason == "halted"


def test_single_edge_two_rounds_two_messages():
    res = run(_graph("path", 2), PingOnce())
    assert res.metrics.rounds == 2
    assert res.metrics.messages_total == 2


def test_k4_flood_is_twelve_messages():
    res = run(_graph("complete", 4), Flood(root=1))
    assert res.metrics.messages_total == 12  # 2 per edge


def test_metrics_split_by_category():
    res = run(_graph("path", 2), PingOnce())
    assert res.metrics.messages_by_category["control"] == 2
    assert res.metrics.messages_by_category["exploration"] == 0
    assert sum(res.metrics.messages_by_category.values()) == res.metrics.messages_total


def test_inbox_sorted_by_sender():
    res = run(_graph("star", 5), PingOnce())
    center = res.contexts[1].state["got"]
    assert center == sorted(center) and len(center) == 4


def test_non_edge_send_faults():
    class Bad(Protocol):
        def step(self, node, rnd):
            return [(node.self_id + 70, ("x",), CAT_CONTROL)], True

    with pytest.raises(ModelViolation):
        run(_graph("path", 2), Bad())


def test_never_halting_with_no_mail_is_stuck():
    class Limbo(Protocol):
        def step(self, node, rnd):
            return NO_SENDS, False

    with pytest.raises(ProtocolStuck):
        run(_graph("path", 2), Limbo())


def test_quiescence_mode_accepts_silence():
    class Limbo(Protocol):
        def step(self, node, rnd):
            return NO_SENDS, False

    res = run(_graph("path", 2), Limbo(), ModeConfig(allow_quiescence=True))
    assert res.end_reason == "quiescent"


def test_max_rounds_timeout():
    class Chatty(Protocol):
        def step(self, node, rnd):
            return [(w, ("x",), CAT_CONTROL) for w in node.neighbor_ids], False

    with pytest.raises(SimTimeout):
        run(_graph("path", 2), Chatty(), ModeConfig(max_rounds=5))


def test_wake_fast_forward_counts_idle_rounds():
    class Sleeper(Protocol):
        def step(self, node, rnd):
            if rnd == 1:
                node.schedule(100, "wake")
                return NO_SENDS, False
            assert rnd == 100 and node.due == ["wake"]
            return NO_SENDS, True

    res = run(_graph("path", 1), Sleeper())
    assert res.metrics.rounds == 100


def test_past_wake_rejected():
    class BadWake(Protocol):
        def step(self, node, rnd):
            node.schedule(rnd - 1, "late")
            return NO_SENDS, False

    with pytest.raises(SimError):
        run(_graph("path", 1), BadWake())


def test_timers_order_live_due_and_halt_drops_them():
    class Timers(Protocol):
        def setup(self, node):
            node.state["seen"] = []
            node.schedule(3, "b")
            node.schedule(2, "a")
            node.schedule(3, "c")

        def step(self, node, rnd):
            for action in node.due:
                node.state["seen"].append((rnd, action))
                if action == "a":
                    node.schedule(rnd, "a-now")
                    node.schedule(50, "never")
            return NO_SENDS, rnd == 3

    res = run(_graph("path", 1), Timers())
    assert res.contexts[1].state["seen"] == [(2, "a"), (2, "a-now"), (3, "b"), (3, "c")]
    assert res.metrics.rounds == 3 and res.end_reason == "halted"


def test_idle_slots_get_the_shared_empty_and_a_same_round_timer_still_runs():
    class NowFromIdle(Protocol):
        """Round 1 has no due timer and no mail: the step schedules for
        this very round and must still run that action in the same step."""

        def step(self, node, rnd):
            assert node.inbox is EMPTY and node.due is EMPTY
            node.schedule(rnd, "now")
            node.schedule(rnd, "again")
            node.output = [(rnd, action) for action in node.due]
            return NO_SENDS, True

    res = run(_graph("path", 2), NowFromIdle())
    assert res.outputs == {1: [(1, "now"), (1, "again")], 2: [(1, "now"), (1, "again")]}
    assert EMPTY == ()


def test_the_shared_empty_stays_empty_after_every_pipeline():
    """Protocols only read node.inbox and node.due: a pipeline whose
    protocol appended to an idle slot would fail here on the immutable
    EMPTY, and EMPTY is still the empty tuple after all of them."""
    spec = GraphGenSpec(family="grid", n=36)
    for algo in harness.ALGOS:
        harness._clear_stages()
        record = harness.run_experiment(harness.ExperimentConfig(graph=spec, algo=algo))
        assert all(t.ok for t in record.trials), algo
        assert type(EMPTY) is tuple and EMPTY == (), algo
    harness._clear_stages()


class HaltWithTimer(Protocol):
    """Node 1 schedules a timer for round `late`, then halts in round 1;
    every other node keeps a timer chain going until round `until`."""

    def __init__(self, late, until):
        self.late, self.until = late, until

    def step(self, node, rnd):
        node.state.setdefault("steps", []).append(rnd)
        if node.self_id == 1:
            node.schedule(self.late, "late")
            return NO_SENDS, True
        if rnd < self.until:
            node.schedule(rnd + 3, "tick")
        return NO_SENDS, rnd >= self.until


def test_halted_nodes_timer_past_max_rounds_neither_times_out_nor_counts():
    res = run(_graph("path", 2), HaltWithTimer(late=100, until=4), ModeConfig(max_rounds=10))
    assert res.end_reason == "halted" and res.metrics.rounds == 4
    assert res.contexts[1].state["steps"] == [1]


def test_round_of_only_halted_timers_is_not_active():
    proto = HaltWithTimer(late=5, until=10)
    inner = proto.step
    rounds = []

    def step(node, rnd):
        if not rounds or rounds[-1] != rnd:
            rounds.append(rnd)
        return inner(node, rnd)

    proto.step = step
    res = run(_graph("path", 3), proto)
    assert rounds == [1, 4, 7, 10]  # round 5 holds only node 1's timer
    assert res.contexts[1].state["steps"] == [1]
    assert res.metrics.rounds == 10


def test_nodes_due_in_one_round_step_by_id_with_actions_in_order():
    log = []

    class Due(Protocol):
        def setup(self, node):
            v = node.self_id
            node.schedule(4, ("x", v))
            node.schedule(2, ("a", v))
            node.schedule(4, ("y", v))

        def step(self, node, rnd):
            log.append((rnd, node.self_id, list(node.due)))
            if rnd == 2 and node.self_id == 3:
                node.schedule(4, ("z", 3))
            return NO_SENDS, rnd == 4

    g = _graph("path", 4, id_scheme="random_permutation", seed=2)
    run(g, Due())
    ids = sorted(g.nodes)
    assert log == (
        [(1, v, []) for v in ids]
        + [(2, v, [("a", v)]) for v in ids]
        + [(4, v, [("x", v), ("y", v)] + ([("z", 3)] if v == 3 else [])) for v in ids])


def test_node_rng_streams_are_seed_and_id_deterministic():
    class Draw(Protocol):
        def step(self, node, rnd):
            node.state["x"] = node.rng.random()
            return NO_SENDS, True

    g = _graph("path", 3)
    a = run(g, Draw(), ModeConfig(rng_seed=5))
    b = run(g, Draw(), ModeConfig(rng_seed=5))
    c = run(g, Draw(), ModeConfig(rng_seed=6))
    xa = {v: a.contexts[v].state["x"] for v in g.nodes}
    xb = {v: b.contexts[v].state["x"] for v in g.nodes}
    xc = {v: c.contexts[v].state["x"] for v in g.nodes}
    assert xa == xb
    assert xa != xc
    assert len(set(xa.values())) == 3  # per-node streams differ

    mix = 0x9E3779B97F4A7C15
    want = random.Random((5 * mix + 2) & ((1 << 64) - 1)).random()
    assert xa[2] == want


def test_trace_digest_repeatable_and_seed_sensitive():
    g = _graph("complete", 4)
    d1 = run_digest(g, lambda: Flood(1))
    d2 = run_digest(g, lambda: Flood(1))
    d3 = run_digest(g, lambda: Flood(2))
    assert d1 == d2 != d3 and len(d1) == 32


def test_canon_small_ints_decimal_wide_ints_hex():
    assert _canon(12345) == b"12345"
    assert _canon(-(1 << 63) + 1) == repr(-(1 << 63) + 1).encode()
    assert _canon((1 << 63) - 1) == b"9223372036854775807"
    assert _canon(1 << 63) == b"x8000000000000000"
    # past Python's 4300-digit limit on int-to-decimal conversion
    wide = _canon(1 << 20000)
    assert wide == b"x1" + b"0" * 5000
    assert _canon((GOSSIP_ACT, 1 << 20000)) == b"('act'," + wide + b")"


def test_trace_recording_matches_counts():
    res = run(_graph("complete", 4), Flood(1), ModeConfig(record_trace=True))
    assert len(res.trace) == res.metrics.messages_total
    assert all(isinstance(e, Envelope) for e in res.trace)


def test_merged_with_sequential_and_parallel():
    a = RunMetrics(10, 5, {"control": 5})
    b = RunMetrics(7, 3, {"control": 2, "gossip": 1})
    seq = a.merged_with(b)
    par = a.merged_with(b, parallel=True)
    assert seq.rounds == 17 and par.rounds == 10
    assert seq.messages_total == par.messages_total == 8
    assert seq.messages_by_category == {"control": 7, "gossip": 1}


# --- gossip discipline -----------------------------------------------------

class DoubleAct(Protocol):
    """The middle node of a path illegally activates both neighbors."""

    def step(self, node, rnd):
        if rnd == 1 and len(node.neighbor_ids) > 1:
            sends = [(w, (GOSSIP_ACT, ()), CAT_GOSSIP) for w in node.neighbor_ids]
            return sends, True
        return NO_SENDS, True


class LeavesActCenter(Protocol):
    def __init__(self, center):
        self.center = center

    def step(self, node, rnd):
        if node.self_id == self.center:
            if rnd == 1:
                return NO_SENDS, False
            acts = [src for src, p in node.inbox if p[0] == GOSSIP_ACT]
            return [(s, (GOSSIP_RSP, ()), CAT_GOSSIP) for s in acts], True
        if rnd == 1:
            return [(self.center, (GOSSIP_ACT, ()), CAT_GOSSIP)], False
        return NO_SENDS, True


def test_double_activation_raises_inline():
    with pytest.raises(GossipViolation) as err:
        run(_graph("path", 3), DoubleAct(), ModeConfig(gossip_mode=True))
    assert err.value.round_no == 1 and err.value.node == 2
    assert err.value.links == [(2, 1), (2, 3)]


class TwoViolators(Protocol):
    """On the path 1-2-3-4-5, nodes 2 and 4 both activate two neighbors in
    round 2; with bad_sender, node 5 then sends to a non-neighbor."""

    def __init__(self, bad_sender=False):
        self.bad_sender = bad_sender

    def setup(self, node):
        node.schedule(2, "go")

    def step(self, node, rnd):
        v = node.self_id
        if rnd == 2 and v in (2, 4):
            return [(w, (GOSSIP_ACT, ()), CAT_GOSSIP) for w in node.neighbor_ids], True
        if rnd == 2 and v == 5 and self.bad_sender:
            return [(1, ("x",), CAT_CONTROL)], True
        return NO_SENDS, rnd == 2


def test_lower_of_two_violators_in_a_round_is_reported():
    with pytest.raises(GossipViolation) as err:
        run(_graph("path", 5), TwoViolators(), ModeConfig(gossip_mode=True))
    assert (err.value.round_no, err.value.node, err.value.links) == (2, 2, [(2, 1), (2, 3)])


def test_later_non_edge_send_in_the_round_beats_a_double_activation():
    with pytest.raises(ModelViolation, match="round 2: node 5"):
        run(_graph("path", 5), TwoViolators(bad_sender=True), ModeConfig(gossip_mode=True))


def test_many_leaves_activating_one_center_is_legal():
    g = _graph("star", 5)
    res = run(g, LeavesActCenter(center=1),
              ModeConfig(gossip_mode=True, record_trace=True))
    assert res.metrics.messages_total == 8  # 4 activations + 4 responses
    check = gossip_check(res.trace)
    assert check.ok and not check.violations


def test_gossip_check_flags_manufactured_trace():
    trace = [
        Envelope(3, 1, 2, (GOSSIP_ACT, ()), "gossip"),
        Envelope(3, 1, 3, (GOSSIP_ACT, ()), "gossip"),
    ]
    check = gossip_check(trace)
    assert not check.ok
    (rnd, node, links), = check.violations
    assert rnd == 3 and node == 1 and sorted(links) == [(1, 2), (1, 3)]


def test_gossip_check_flags_unsolicited_response():
    trace = [Envelope(4, 2, 1, (GOSSIP_RSP, ()), "gossip")]
    assert not gossip_check(trace).ok


def test_gossip_check_empty_trace_ok():
    assert gossip_check([]).ok


# --- observers: trace, digest and gossip policing change nothing -----------

OBSERVER_CONFIGS = [
    ModeConfig(),
    ModeConfig(record_trace=True),
    ModeConfig(trace_digest=True),
    ModeConfig(record_trace=True, trace_digest=True),
]

EQUIVALENCE_GRAPHS = {
    "grid36": GraphGenSpec(family="grid", n=36),
    "er40": GraphGenSpec(family="erdos_renyi", n=40, p=0.15, seed=3,
                         id_scheme="random_permutation"),
}


def _cover_bfs_runs(monkeypatch, spec, observed):
    """(protocol, metrics, outputs, end_reason) of each engine run of one
    cover BFS (cover construction, home setup, BFS phases), with
    record_trace and trace_digest both forced to `observed`."""
    real = run
    runs = []

    def forced(graph, protocol, config=None):
        cfg = dataclasses.replace(config or ModeConfig(),
                                  record_trace=observed, trace_digest=observed)
        res = real(graph, protocol, cfg)
        assert (res.trace is not None) is (res.digest is not None) is observed
        if observed:
            assert len(res.trace) == res.metrics.messages_total
        runs.append((protocol.name, res.metrics, res.outputs, res.end_reason))
        return res

    monkeypatch.setattr(covers, "run", forced)
    monkeypatch.setattr(bfscover, "run", forced)
    g = generate_graph(spec)
    bfscover.bfs_construction(g, min(g.nodes), seed=1)
    return runs


@pytest.mark.parametrize("gname", sorted(EQUIVALENCE_GRAPHS))
def test_observed_and_plain_cover_runs_are_identical(monkeypatch, gname):
    spec = EQUIVALENCE_GRAPHS[gname]
    plain = _cover_bfs_runs(monkeypatch, spec, observed=False)
    observed = _cover_bfs_runs(monkeypatch, spec, observed=True)
    assert [r[0] for r in plain] == ["cover_construction", "home_setup", "bfs_phases"]
    assert observed == plain


@pytest.mark.parametrize("cfg", OBSERVER_CONFIGS)
def test_non_edge_send_faults_with_any_observers(cfg):
    class LateBad(Protocol):
        def step(self, node, rnd):
            if rnd == 1:
                return [(w, ("ok",), CAT_CONTROL) for w in node.neighbor_ids], False
            return [(node.self_id + 70, ("x",), CAT_CONTROL)], True

    with pytest.raises(ModelViolation, match="round 2"):
        run(_graph("path", 3), LateBad(), cfg)


@pytest.mark.parametrize("cfg", OBSERVER_CONFIGS)
def test_double_activation_raises_with_any_observers(cfg):
    with pytest.raises(GossipViolation):
        run(_graph("path", 3), DoubleAct(), dataclasses.replace(cfg, gossip_mode=True))


def test_run_steps_through_a_step_shadowed_on_the_instance():
    proto = PingOnce()
    inner = proto.step
    calls = []

    def step(node, rnd):
        calls.append((rnd, node.self_id))
        return inner(node, rnd)

    proto.step = step  # as a tracer wrapping one protocol instance does
    run(_graph("path", 2), proto)
    assert calls == [(1, 1), (1, 2), (2, 1), (2, 2)]


# --- sessions: one set of nodes, many runs, each the same as a fresh run ----

class TimedDraws(Protocol):
    """Odd ids hold a round-1 timer from setup; every node draws a delay from
    its rng, sends its draw to a random neighbor when the timer fires and
    halts then, its output what it got so far.  Mail to a halted node is
    dropped."""

    def setup(self, node):
        node.state["got"] = []
        if node.self_id % 2:
            node.schedule(1, ("early",))

    def step(self, node, rnd):
        got = node.state["got"]
        got.extend(p for _, p in node.inbox)
        for action in node.due:
            if action[0] == "early":
                got.append(action)
            else:  # ("fire", draw)
                w = node.rng.choice(node.neighbor_ids)
                node.output = (rnd, w, tuple(got))
                return [(w, (node.self_id, action[1]), CAT_CONTROL)], True
        if rnd == 1:
            draw = node.rng.randrange(1, 6)
            node.schedule(1 + draw, ("fire", draw))
        return NO_SENDS, False


class SnapshotSlots(Protocol):
    """Records, as setup sees it, every NodeContext slot of every node (the
    clock by its now, cal and heap), then halts."""

    def __init__(self):
        self.seen = {}

    def setup(self, node):
        snap = {}
        for slot in NodeContext.__slots__:
            value = getattr(node, slot)
            if slot == "_clock":
                value = (value.now, {r: dict(b) for r, b in value.cal.items()},
                         list(value.heap))
            elif isinstance(value, (dict, list)):
                value = type(value)(value)
            snap[slot] = value
        self.seen[node.self_id] = snap

    def step(self, node, rnd):
        return NO_SENDS, True


class LateNonEdge(Protocol):
    def step(self, node, rnd):
        node.state["steps"] = rnd
        node.output = node.rng.random()
        if rnd == 1:
            return [(w, ("ok",), CAT_CONTROL) for w in node.neighbor_ids], False
        return [(node.self_id + 10**6, ("x",), CAT_CONTROL)], True


def _session_sequence(g):
    """(protocol factory, config) pairs, run in this order on one session."""
    gossip = functools.partial(gossipspanner._GossipProtocol, g.n)
    gossip_cfg = ModeConfig(gossip_mode=True, allow_quiescence=True,
                            max_rounds=gossip().starts[-1] + 2)
    return [
        (TimedDraws, ModeConfig(rng_seed=7)),
        (SnapshotSlots, ModeConfig()),
        (gossip, gossip_cfg),
        (SnapshotSlots, ModeConfig(rng_seed=3)),
        (LateNonEdge, ModeConfig(rng_seed=5)),        # raises in round 2
        (SnapshotSlots, ModeConfig(rng_seed=5)),
        (functools.partial(Flood, min(g.nodes)), ModeConfig(max_rounds=1)),  # times out
        (TimedDraws, ModeConfig(rng_seed=7)),
        (TimedDraws, ModeConfig(rng_seed=8)),
        (SnapshotSlots, ModeConfig(rng_seed=8)),
    ]


def _outcome(graph, factory, cfg):
    proto = factory()
    cfg = dataclasses.replace(cfg, trace_digest=True)
    try:
        res = run(graph, proto, cfg)
    except SimError as exc:
        return proto, (type(exc), str(exc))
    return proto, (res.outputs, res.metrics, res.end_reason, res.digest)


@pytest.mark.parametrize("gname", sorted(EQUIVALENCE_GRAPHS))
def test_session_runs_equal_fresh_runs(gname):
    g = generate_graph(EQUIVALENCE_GRAPHS[gname])
    session = Session(g)
    outcomes = []
    for i, (factory, cfg) in enumerate(_session_sequence(g)):
        if i % 2:
            session.release()  # then the run itself resets nothing
        fresh_proto, fresh = _outcome(g, factory, cfg)
        proto, got = _outcome(session, factory, cfg)
        assert got == fresh, factory
        outcomes.append(got)
        if isinstance(proto, SnapshotSlots):
            assert proto.seen == fresh_proto.seen
            for v, snap in proto.seen.items():
                new = NodeContext(v, g.adjacency[v], cfg.rng_seed, session.clock)
                assert snap == {s: snap["_clock"] if s == "_clock" else getattr(new, s)
                                for s in NodeContext.__slots__}
    kinds = [o[0] if len(o) == 2 else o[2] for o in outcomes]
    assert kinds.count(ModelViolation) == kinds.count(SimTimeout) == 1
    assert kinds.count("quiescent") == 1 and kinds.count("halted") == 7


def test_session_run_returns_the_session_contexts():
    g = _graph("path", 3)
    session = Session(g)
    first = run(session, PingOnce())
    assert first.contexts is session.contexts
    assert first.contexts[2].state["got"] == [1, 3]
    run(session, Silent())
    assert first.contexts[2].state == {}  # reset by the next run
    again = run(session, PingOnce())
    session.release()
    assert again.outputs == {1: None, 2: None, 3: None}
    assert again.contexts[2].state == {} and session.clock.now == 0


class Learns(Protocol):
    """Round 1: every node counts the run in node.known, pings its
    neighbors and sets a timer; round 2: it outputs its id and halts, so
    its state, inbox, due and output are all filled when the run ends."""

    def step(self, node, rnd):
        if rnd == 1:
            node.known = (node.known or 0) + 1
            node.state["pinged"] = True
            node.schedule(2, ("tick",))
            return [(w, ("ping",), CAT_CONTROL) for w in node.neighbor_ids], False
        node.output = node.self_id
        return NO_SENDS, True


def test_release_clears_the_run_slots_and_keeps_known():
    g = _graph("path", 3)
    session = Session(g)
    nodes = session.contexts.values()
    assert all(node.known is None for node in nodes)
    run(session, Learns())
    assert all(node.state and node.inbox and node.due and node.output for node in nodes)
    session.release()
    assert [(node.state, node.inbox, node.due, node.output, node.known) for node in nodes] \
        == [({}, [], [], None, 1)] * 3
    run(session, Learns())  # the reset before a run keeps known too
    assert [node.known for node in nodes] == [2, 2, 2]


@pytest.mark.parametrize("n", [256, 2048])
def test_session_neighbor_tables_stay_small(n):
    """dicts take about 41 bytes per directed edge at these degrees, the
    frozensets they replaced 74-86."""
    g = _graph("erdos_renyi", n, p=er_connectivity_safe_p(n))
    tables = Session(g).nbr_sets
    assert sum(map(sys.getsizeof, tables.values())) <= 48 * 2 * g.m


class Token:
    """A payload that a weakref can watch."""


class MailToTheHalted(Protocol):
    """Path 1-2-3.  Node 1 halts in round 1.  In round 2 node 2 sends node 1
    a Token and halts; then node 3 sends to node 2, so the engine's send
    loop no longer holds the Token.  Node 3 records in round 3 whether the
    Token is still alive, then halts."""

    def __init__(self):
        self.ref = None

    def setup(self, node):
        if node.self_id != 1:
            node.schedule(2, "send")
        if node.self_id == 3:
            node.schedule(3, "check")

    def step(self, node, rnd):
        v = node.self_id
        if rnd == 1:
            return NO_SENDS, v == 1
        if rnd == 2:
            if v == 2:
                token = Token()
                self.ref = weakref.ref(token)
                return [(1, token, CAT_CONTROL)], True
            return [(2, ("late",), CAT_CONTROL)], False
        node.output = self.ref() is None
        return NO_SENDS, True


def test_mail_to_a_halted_node_is_freed_before_the_next_round():
    res = run(_graph("path", 3), MailToTheHalted())
    assert res.outputs[3] is True
    assert res.metrics.messages_total == 2 and res.metrics.rounds == 3


def test_flood_counts_traces_and_digests_mail_to_halted_nodes():
    g = _graph("erdos_renyi", 60, p=0.12, seed=4)
    cfg = ModeConfig(record_trace=True, trace_digest=True)
    res = run(g, Flood(min(g.nodes)), cfg)
    assert res.metrics.messages_total == len(res.trace) == 2 * g.m
    assert sorted((e.src, e.dst) for e in res.trace) == sorted(
        (v, w) for v in g.nodes for w in g.adjacency[v])


class LastWordToTheHalted(Protocol):
    """Path 1-2-3: nodes 1 and 3 halt in round 1; node 2 sends node 1 one
    message in round 2 and then halts if halts_after."""

    def __init__(self, halts_after):
        self.halts_after = halts_after

    def setup(self, node):
        if node.self_id == 2:
            node.schedule(2, "send")

    def step(self, node, rnd):
        if node.self_id != 2:
            return NO_SENDS, True
        if rnd == 1:
            return NO_SENDS, False
        return [(1, ("bye",), CAT_CONTROL)], self.halts_after


def test_last_sends_only_to_halted_nodes_end_the_run_halted():
    res = run(_graph("path", 3), LastWordToTheHalted(True), ModeConfig(max_rounds=2))
    assert res.end_reason == "halted"
    assert res.metrics.rounds == 2 and res.metrics.messages_total == 1


def test_stuck_names_the_last_active_round_not_a_round_of_dead_mail():
    with pytest.raises(ProtocolStuck, match=r"after round 2$"):
        run(_graph("path", 3), LastWordToTheHalted(False))
