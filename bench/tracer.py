"""Span tracer for kt1sim, driven entirely from outside the package.

``Tracer`` rebinds every module-level name under which a traced kt1sim
function is reachable (``covers.run``, ``bfscover.preprocess``,
``harness.diameter`` and so on) to a wrapper that records a span, and
restores every binding when it is closed.  Inside the wrapped
``simengine.run`` it also wraps the protocol instance's ``step`` to count
node-steps, active rounds and in-flight mail per protocol name.

Spans are kept in memory as ``Span`` records (name, start, end, parent
index, trial id) and written out by the caller once the pass is over.
Outputs that the traced run digests (BFS parent maps, spanner edge sets,
leaders, MST edge sets) are kept by reference and digested after the pass,
so no span is charged for digesting.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
from dataclasses import dataclass, field
from time import perf_counter as clock
from typing import Any, Callable, Dict, List, Optional, Tuple

from kt1sim import bfscover, clustercomm, covers, gossipspanner, harness, netgraph, simengine

MODULES = {
    "netgraph": netgraph,
    "simengine": simengine,
    "clustercomm": clustercomm,
    "covers": covers,
    "bfscover": bfscover,
    "gossipspanner": gossipspanner,
    "harness": harness,
}

# Every public function a workload reaches, plus ``harness._run_trial``,
# which marks trial boundaries.  Named by defining module.
TRACED = (
    "netgraph.generate_graph",
    "netgraph.diameter",
    "netgraph.oracle_bfs",
    "netgraph.oracle_ball",
    "simengine.run",
    "covers.cover_construction",
    "covers.verify_cover",
    "bfscover.preprocess",
    "bfscover.bfs_construction",
    "bfscover.randomized_leader_election",
    "gossipspanner.gossip_local_broadcast",
    "gossipspanner.extract_spanner",
    "gossipspanner.spanner_stretch_violations",
    "gossipspanner.deterministic_bfs",
    "gossipspanner.deterministic_leader_election",
    "gossipspanner.solve_global",
    "harness.run_experiment",
    "harness.scaling_study",
    "harness._run_trial",
    "harness.oracle_mst",
    "harness.flood_baseline_bfs",
)

TRIAL_SPAN = "harness._run_trial"
RUN_SPAN = "simengine.run"

# Oracle and verifier spans; ``harness.verify_s`` sums the outermost ones.
VERIFIERS = (
    "netgraph.diameter",
    "netgraph.oracle_bfs",
    "netgraph.oracle_ball",
    "covers.verify_cover",
    "gossipspanner.spanner_stretch_violations",
    "harness.oracle_mst",
)


def _canonical(obj: Any) -> Any:
    """JSON-ready form with a fixed order for sets and dict keys."""
    if isinstance(obj, dict):
        return sorted([_canonical(k), _canonical(v)] for k, v in obj.items())
    if isinstance(obj, (set, frozenset)):
        return sorted(_canonical(x) for x in obj)
    if isinstance(obj, (list, tuple)):
        return [_canonical(x) for x in obj]
    return obj


def digest(obj: Any) -> str:
    blob = json.dumps(_canonical(obj), separators=(",", ":")).encode()
    return hashlib.blake2b(blob, digest_size=12).hexdigest()


# What the traced run digests from each returned structure.
OUTPUT_VIEWS: Dict[str, Callable[[Any], Any]] = {
    "bfscover.bfs_construction": lambda r: r.tree.parent,
    "gossipspanner.deterministic_bfs": lambda r: r.tree.parent,
    "harness.flood_baseline_bfs": lambda r: r[0].parent,
    "gossipspanner.extract_spanner": lambda r: r.edges,
    "bfscover.randomized_leader_election": lambda r: (r.leader, r.leader_at),
    "gossipspanner.deterministic_leader_election": lambda r: (r.leader, r.leader_at),
    "gossipspanner.solve_global": lambda r: r.solution,
}


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: Optional[int]
    trial: str


@dataclass
class EngineCounters:
    """Exact engine counts for one protocol name, summed over its runs."""

    runs: int = 0
    step_s: float = 0.0
    node_steps: int = 0
    active_rounds: int = 0
    rounds: int = 0
    peak_inflight: int = 0
    messages: Dict[str, int] = field(default_factory=dict)

    @property
    def idle_rounds_skipped(self) -> int:
        return self.rounds - self.active_rounds

    def counts(self) -> Tuple:
        """Everything except time; identical across runs of the same code."""
        return (self.runs, self.node_steps, self.active_rounds, self.rounds,
                self.peak_inflight, tuple(sorted(self.messages.items())))


class Tracer:
    """Context manager: installs the wrappers on entry, restores on exit."""

    def __init__(self):
        self.spans: List[Span] = []
        self.engine: Dict[str, EngineCounters] = {}
        self.outputs: List[Tuple[str, str, Any]] = []
        self.unit = "0"
        self._trial_no = 0
        self._stack: List[int] = []
        self._saved: List[Tuple[Any, str, Any]] = []

    # -- installation ------------------------------------------------------

    def __enter__(self) -> "Tracer":
        originals = {}
        for qual in TRACED:
            mod, attr = qual.split(".", 1)
            originals[id(getattr(MODULES[mod], attr))] = qual
        try:
            for module in MODULES.values():
                for attr, value in list(vars(module).items()):
                    qual = originals.get(id(value))
                    if qual is None:
                        continue
                    self._saved.append((module, attr, value))
                    wrapped = self._wrap_run(value) if qual == RUN_SPAN else value
                    setattr(module, attr, self._wrap_span(qual, wrapped))
        except BaseException:
            self.restore()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    def restore(self) -> None:
        while self._saved:
            module, attr, value = self._saved.pop()
            setattr(module, attr, value)

    def start_unit(self, unit: str) -> None:
        """Names the workload step the following spans belong to."""
        self.unit = unit
        self._trial_no = 0

    # -- wrappers ----------------------------------------------------------

    def _wrap_span(self, name: str, fn: Callable) -> Callable:
        view = OUTPUT_VIEWS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            saved_unit = self.unit
            if name == TRIAL_SPAN:
                self._trial_no += 1
                self.unit = f"{saved_unit}.{self._trial_no}"
            idx = len(self.spans)
            parent = self._stack[-1] if self._stack else None
            span = Span(name, clock(), 0.0, parent, self.unit)
            self.spans.append(span)
            self._stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = clock()
                self._stack.pop()
                self.unit = saved_unit
            if view is not None:
                self.outputs.append((name, span.trial, result))
            return result

        return traced

    def _wrap_run(self, run: Callable) -> Callable:
        @functools.wraps(run)
        def traced_run(graph, protocol, config=None):
            ctr = self.engine.setdefault(protocol.name, EngineCounters())
            inner = protocol.step
            cur_rnd = -1
            in_round = 0

            def step(node, rnd):
                nonlocal cur_rnd, in_round
                t0 = clock()
                out = inner(node, rnd)
                ctr.step_s += clock() - t0
                ctr.node_steps += 1
                if rnd != cur_rnd:
                    if in_round > ctr.peak_inflight:
                        ctr.peak_inflight = in_round
                    cur_rnd, in_round = rnd, 0
                    ctr.active_rounds += 1
                if out[0]:
                    in_round += len(out[0])
                return out

            protocol.step = step  # shadows the class's step on this instance
            try:
                res = run(graph, protocol, config)
            finally:
                del protocol.step
            if in_round > ctr.peak_inflight:
                ctr.peak_inflight = in_round
            ctr.runs += 1
            ctr.rounds += res.metrics.rounds
            for cat, k in res.metrics.messages_by_category.items():
                ctr.messages[cat] = ctr.messages.get(cat, 0) + k
            return res

        return traced_run

    # -- results -----------------------------------------------------------

    def output_digests(self) -> List[Tuple[str, str, str]]:
        """(span name, trial id, digest) for every returned structure."""
        return [(name, trial, digest(OUTPUT_VIEWS[name](res)))
                for name, trial, res in self.outputs]

    def self_times(self) -> List[float]:
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent is not None:
                child[s.parent] += s.end - s.start
        return [s.end - s.start - c for s, c in zip(self.spans, child)]

    def counts(self) -> Dict[str, Any]:
        """Exact counts only: span calls and engine counters."""
        calls: Dict[str, int] = {}
        for s in self.spans:
            calls[s.name] = calls.get(s.name, 0) + 1
        return {"calls": calls,
                "engine": {k: v.counts() for k, v in sorted(self.engine.items())}}

    def to_jsonable(self) -> Dict[str, Any]:
        return {
            "spans": [[s.name, s.start, s.end, s.parent, s.trial] for s in self.spans],
            "engine": {k: {**dataclasses.asdict(v),
                           "idle_rounds_skipped": v.idle_rounds_skipped}
                       for k, v in sorted(self.engine.items())},
            "outputs": self.output_digests(),
        }


def has_ancestor(spans: List[Span], idx: int, names) -> bool:
    p = spans[idx].parent
    while p is not None:
        if spans[p].name in names:
            return True
        p = spans[p].parent
    return False


# ---------------------------------------------------------------------------
# Per-layer metrics: the fixed list BENCHMARK.json names, in its order.
# ---------------------------------------------------------------------------

# Protocol names the workloads run, by the layer that defines them:
# clustercomm/covers (cover_construction is covers' subclass of
# clustercomm.ExplorationProtocol), bfscover, gossipspanner, harness.
PROTOCOLS = (
    "cover_construction",
    "home_setup",
    "bfs_phases",
    "gossip_local_broadcast",
    "spanner_bfs",
    "spanner_election",
    "solve_global",
    "flood_baseline",
)
ENGINE_FIELDS = (("step_s", "s"), ("node_steps", "count"),
                 ("active_rounds", "count"), ("idle_rounds_skipped", "count"),
                 ("peak_inflight", "count"))
CATEGORIES = simengine.CATEGORY_NAMES
# Harness drivers and the engine wrap everything else; "largest span"
# compares only the layer functions below them.
DRIVERS = ("harness.run_experiment", "harness.scaling_study", TRIAL_SPAN, RUN_SPAN)


def per_layer_spec() -> List[Tuple[str, str]]:
    spec = []
    for name in TRACED:
        spec += [(f"{name}.calls", "count"), (f"{name}.total_s", "s"),
                 (f"{name}.self_s", "s")]
    for proto in PROTOCOLS:
        spec += [(f"simengine.{proto}.{f}", unit) for f, unit in ENGINE_FIELDS]
    spec += [(f"simengine.messages.{cat}", "count") for cat in CATEGORIES]
    spec += [
        ("simengine.loop_self_s", "s"),
        ("simengine.ns_per_message", "ns/message"),
        ("bfscover.randomized_leader_election.engine_runs", "count"),
        ("harness.verify_s", "s"),
        ("trace.wall_s", "s"),
        ("trace.untraced_wall_s", "s"),
        ("trace.overhead_s", "s"),
        ("trace.unattributed_s", "s"),
    ]
    return spec


def span_totals(tr: Tracer) -> Dict[str, Dict[str, float]]:
    """calls, total_s and self_s per span name."""
    out = {name: {"calls": 0, "total_s": 0.0, "self_s": 0.0} for name in TRACED}
    for span, self_s in zip(tr.spans, tr.self_times()):
        row = out[span.name]
        row["calls"] += 1
        row["total_s"] += span.end - span.start
        row["self_s"] += self_s
    return out


def layer_metrics(tr: Tracer, traced_wall: float, untraced_wall: float) -> Dict[str, float]:
    """Every per-layer metric of one traced pass, by name."""
    m: Dict[str, float] = {}
    totals = span_totals(tr)
    for name, row in totals.items():
        for key, value in row.items():
            m[f"{name}.{key}"] = value
    for proto in PROTOCOLS:
        ctr = tr.engine.get(proto, EngineCounters())
        for f, _ in ENGINE_FIELDS:
            m[f"simengine.{proto}.{f}"] = getattr(ctr, f)
    messages = {cat: sum(c.messages.get(cat, 0) for c in tr.engine.values())
                for cat in CATEGORIES}
    for cat in CATEGORIES:
        m[f"simengine.messages.{cat}"] = messages[cat]
    loop_self = totals[RUN_SPAN]["total_s"] - sum(c.step_s for c in tr.engine.values())
    n_msgs = sum(messages.values())
    m["simengine.loop_self_s"] = loop_self
    m["simengine.ns_per_message"] = loop_self * 1e9 / n_msgs if n_msgs else 0.0
    spans = tr.spans
    m["bfscover.randomized_leader_election.engine_runs"] = sum(
        1 for i, s in enumerate(spans) if s.name == RUN_SPAN
        and has_ancestor(spans, i, ("bfscover.randomized_leader_election",)))
    m["harness.verify_s"] = sum(
        s.end - s.start for i, s in enumerate(spans)
        if s.name in VERIFIERS and not has_ancestor(spans, i, VERIFIERS))
    top = sum(s.end - s.start for s in spans if s.parent is None)
    m["trace.wall_s"] = traced_wall
    m["trace.untraced_wall_s"] = untraced_wall
    m["trace.overhead_s"] = traced_wall - untraced_wall
    m["trace.unattributed_s"] = traced_wall - top
    return m


def largest_span(tr: Tracer) -> str:
    totals = span_totals(tr)
    return max((n for n in TRACED if n not in DRIVERS),
               key=lambda n: totals[n]["total_s"])
