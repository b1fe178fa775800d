"""Experiment front-end: configured trial runs with always-on oracle
verification, a KT0-style flooding baseline, scaling studies, and
JSON/CSV export.

``PIPELINES`` is the one place an algorithm is declared: its trial runner
and verdict, and the exponents that normalise its messages and rounds.
``ALGOS``, the CLI choices, ``message_ratio`` and ``round_denominator`` all
read it.

Every trial is checked against the matching oracle (exact BFS layers,
unanimity on the maximum id, cover properties, centralized MST); failures
are recorded in the output with diagnostics rather than swallowed, and the
record is self-contained enough to re-derive each verdict.

A private memo shares deterministic stages between trials: the generated
graph of a spec, and for one trial seed at a time its one (kappa, 2) cover
and the preprocessing of that cover, which ``cover_only``, ``bfs_cover``
and ``le_rand`` start from.  It holds one spec; a new spec drops the old
stages before its graph is generated, a new seed drops the old seed's
before its cover is built, and a stage that raises stores nothing.  Only stage
results are shared: every trial still runs its own verdict, and its record
is the one it would get from an empty memo.
"""

from __future__ import annotations

import csv
import heapq
import json
import math
import os
import statistics
from dataclasses import asdict, dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from . import bfscover, covers, gossipspanner
from .clustercomm import RootedTree
from .netgraph import (
    Graph,
    GraphGenSpec,
    canonical_edge,
    diameter,
    er_connectivity_safe_p,
    generate_graph,
    oracle_bfs,
)
from .simengine import (
    CAT_EXPLORATION,
    ModeConfig,
    NodeContext,
    Protocol,
    RunMetrics,
    run,
)

OUTDIR_ENV = "KT1SIM_OUTDIR"


class HarnessError(ValueError):
    pass


def log2ceil(n: int) -> int:
    return math.ceil(math.log2(max(n, 2)))


def message_ratio(algo: str, n: int, messages: int) -> Optional[float]:
    k = PIPELINES[algo].message_exponent
    return None if k is None else messages / (n * log2ceil(n) ** k)


def round_denominator(algo: str, n: int, diam: int) -> Optional[int]:
    terms = PIPELINES[algo].round_terms
    if terms is None:
        return None
    l = log2ceil(n)
    return diam * l ** terms[0] + l ** terms[1]


@dataclass(frozen=True)
class ExperimentConfig:
    graph: GraphGenSpec
    algo: str
    trials: int = 1
    seeds: Optional[Tuple[int, ...]] = None
    output_path: Optional[str] = None

    def __post_init__(self) -> None:
        if self.algo not in ALGOS:  # a tuple, so an unhashable algo is just unknown
            raise HarnessError(f"unknown algo {self.algo!r}")
        if type(self.trials) is not int or self.trials < 1:
            raise HarnessError(f"trials must be an int >= 1, got {self.trials!r}")
        if self.seeds is not None:
            if len(self.seeds) != self.trials:
                raise HarnessError("trials must equal len(seeds) when seeds are given")
            for s in self.seeds:
                if type(s) is not int:
                    raise HarnessError(f"seeds must be ints, got {s!r}")
        if not isinstance(self.output_path, (str, type(None))):
            raise HarnessError(f"output_path must be a string, got {self.output_path!r}")
        if self.output_path and os.path.splitext(self.output_path)[1] == ".csv":
            raise HarnessError(f"output_path {self.output_path!r} is the CSV rows' path")

    @property
    def trial_seeds(self) -> Tuple[int, ...]:
        if self.seeds is not None:
            return tuple(self.seeds)
        return tuple(range(self.trials))

    @staticmethod
    def from_json(text: str) -> "ExperimentConfig":
        try:
            blob = json.loads(text)
        except json.JSONDecodeError as exc:
            raise HarnessError(f"config is not valid JSON: {exc}") from exc
        try:
            gspec = GraphGenSpec(**blob["graph"])
            seeds = blob.get("seeds")
            return ExperimentConfig(
                graph=gspec,
                algo=blob["algo"],
                trials=blob.get("trials", len(seeds) if seeds else 1),
                seeds=tuple(seeds) if seeds is not None else None,
                output_path=blob.get("output_path"),
            )
        except (KeyError, TypeError) as exc:
            raise HarnessError(f"malformed config: {exc}") from exc

    def to_jsonable(self) -> Dict[str, Any]:
        gd: Dict[str, Any] = {"family": self.graph.family, "n": self.graph.n,
                              "id_scheme": self.graph.id_scheme,
                              "seed": self.graph.seed}
        if self.graph.p is not None:
            gd["p"] = self.graph.p
        return {"graph": gd, "algo": self.algo, "trials": self.trials,
                "seeds": list(self.trial_seeds), "output_path": self.output_path}


@dataclass
class TrialOutcome:
    seed: int
    ok: bool
    rounds: int
    messages: int
    by_category: Dict[str, int]
    ratio: Optional[float]
    diagnostics: str = ""
    extra: Dict[str, Any] = field(default_factory=dict)


@dataclass
class ExperimentRecord:
    config: ExperimentConfig
    n: int
    trials: List[TrialOutcome]

    @property
    def passed(self) -> int:
        return sum(1 for t in self.trials if t.ok)

    @property
    def all_ok(self) -> bool:
        return all(t.ok for t in self.trials)

    def to_jsonable(self) -> Dict[str, Any]:
        return {
            "config": self.config.to_jsonable(),
            "n": self.n,
            "passed": self.passed,
            "trials": [asdict(t) for t in self.trials],
        }

    def csv_rows(self) -> List[Dict[str, Any]]:
        cfg = self.config
        return [
            {"family": cfg.graph.family, "n": self.n, "algo": cfg.algo,
             "seed": t.seed, "ok": int(t.ok), "rounds": t.rounds,
             "messages": t.messages, "ratio": "" if t.ratio is None else t.ratio}
            for t in self.trials
        ]


# ---------------------------------------------------------------------------
# KT0 flooding baseline: every joining node talks to all neighbors, 2m total.
# ---------------------------------------------------------------------------

class _FloodProtocol(Protocol):
    name = "flood_baseline"

    def __init__(self, root: int):
        self.root = root

    def setup(self, node: NodeContext) -> None:
        node.output = None

    def step(self, node: NodeContext, rnd: int):
        v = node.self_id
        if rnd == 1 and v == self.root:
            node.output = {"layer": 0, "parent": None}
            sends = [(w, ("fl",), CAT_EXPLORATION) for w in node.neighbor_ids]
            return sends, True
        srcs = [src for src, _ in node.inbox]
        if srcs and node.output is None:
            node.output = {"layer": rnd - 1, "parent": min(srcs)}
            sends = [(w, ("fl",), CAT_EXPLORATION) for w in node.neighbor_ids]
            return sends, True
        return [], node.output is not None


def flood_baseline_bfs(g: Graph, root: int) -> Tuple[RootedTree, RunMetrics]:
    """Reference point: BFS by flooding over every edge (about 2m messages)."""
    if type(root) is not int or root not in g.adjacency:
        raise HarnessError(f"root {root!r} is not a node id of g")
    res = run(g, _FloodProtocol(root), ModeConfig(max_rounds=2 * g.n + 10))
    parent, layer = {}, {}
    for v in g.nodes:
        out = res.outputs[v]
        if out is None:
            raise HarnessError(f"flooding never reached node {v}")
        layer[v] = out["layer"]
        if v != root:
            parent[v] = out["parent"]
    tree = RootedTree(root=root, parent=parent, layer=layer)
    tree.validate_spanning(g)
    return tree, res.metrics


# ---------------------------------------------------------------------------
# Centralized MST oracle (independent route: Prim's algorithm, where the
# library's global solve runs Kruskal's).
# ---------------------------------------------------------------------------

def oracle_mst(g: Graph) -> Tuple[Tuple[int, int], ...]:
    """MST under the canonical lexicographic (min id, max id) weight rule.

    Prim's algorithm from the least id over a heap of (canonical edge, far
    end) entries.  The weights are distinct, so the tree is unique.  Returns
    its canonical edges, sorted.
    """
    adj = g.adjacency
    start = min(adj)
    seen = {start}
    heap = [(canonical_edge(start, w), w) for w in adj[start]]
    heapq.heapify(heap)
    tree = []
    while heap:
        edge, v = heapq.heappop(heap)
        if v in seen:
            continue
        seen.add(v)
        tree.append(edge)
        for w in adj[v]:
            if w not in seen:
                heapq.heappush(heap, (canonical_edge(v, w), w))
    return tuple(sorted(tree))


# ---------------------------------------------------------------------------
# Stage memo (see the module docstring).  Stages are built through module
# attributes (generate_graph, covers.cover_construction,
# bfscover.preprocess), so a wrapper bound to one of them sees every build.
# ---------------------------------------------------------------------------

class _Stages:
    """The stages built so far on one generated graph: one trial seed, its
    cover and that cover's preprocessing."""

    def __init__(self, graph: Graph):
        self.graph = graph
        self.seed: Optional[int] = None  # set only together with _cover
        self._cover: Optional[covers.Cover] = None
        self.pre: Optional[bfscover.Preprocessed] = None

    def cover(self, seed: int) -> covers.Cover:
        """The cover that bfscover.preprocess(graph, seed) builds."""
        if seed != self.seed:
            self.seed = self._cover = self.pre = None  # freed before the build
            params = covers.CoverParams(kappa=bfscover.default_kappa(self.graph.n), W=2,
                                        seed=seed)
            self._cover = covers.cover_construction(self.graph, params)
            self.seed = seed
        return self._cover

    def preprocessed(self, seed: int) -> bfscover.Preprocessed:
        """bfscover.preprocess(graph, seed), on the seed's cover."""
        cover = self.cover(seed)
        if self.pre is None:
            self.pre = bfscover.preprocess(self.graph, seed, cover=cover)
        return self.pre


# spec -> its stages; at most one entry, so two specs' stages are never held.
_memo: Dict[GraphGenSpec, _Stages] = {}


def _stages(spec: GraphGenSpec) -> _Stages:
    st = _memo.get(spec)
    if st is None:
        _memo.clear()  # before generating, so the old graph can go first
        st = _memo[spec] = _Stages(generate_graph(spec))
    return st


def _clear_stages() -> None:
    """Forget every held stage, so the next trial builds all of its own."""
    _memo.clear()


# ---------------------------------------------------------------------------
# Pipelines.  A runner looks up the traced library functions (bfscover.*,
# gossipspanner.*, flood_baseline_bfs, oracle_bfs, oracle_mst) as module
# attributes at call time, so a wrapper bound to one of them sees every call.
# ---------------------------------------------------------------------------

# (metrics, diagnostics, extra); empty diagnostics mean the trial verified.
Trial = Tuple[RunMetrics, str, Dict[str, Any]]


@dataclass(frozen=True)
class Pipeline:
    """One harness algorithm: its verified trial and its cost normalisers."""

    trial: Callable[[_Stages, int, int], Trial]  # (stages, root, seed) -> Trial
    message_exponent: Optional[int] = None  # k: messages / (n * L^k), L = log2ceil(n)
    round_terms: Optional[Tuple[int, int]] = None  # (a, b): rounds / (D * L^a + L^b)


def _verdict(*checks: Tuple[bool, str]) -> str:
    """The message of the first failed check, or "" when all pass."""
    return next((msg for failed, msg in checks if failed), "")


def _layer_check(g: Graph, tree: RootedTree) -> str:
    return _verdict((tree.layer != oracle_bfs(g, tree.root).dist,
                     "layer map differs from oracle_bfs"))


def _bfs_cover(st: _Stages, root: int, seed: int) -> Trial:
    g = st.graph
    res = bfscover.bfs_construction(g, root, pre=st.preprocessed(seed))
    return res.metrics, _layer_check(g, res.tree), {
        "root": root, "kappa": res.pre.cover.params.kappa, "clusters": len(res.pre.cover.clusters)}


def _bfs_spanner(st: _Stages, root: int, seed: int) -> Trial:
    g = st.graph
    res = gossipspanner.deterministic_bfs(g, root)
    return res.metrics, _layer_check(g, res.tree), {
        "root": root, "spanner_edges": res.spanner.size, "iterations": res.spanner.iterations}


def _le_rand(st: _Stages, root: int, seed: int) -> Trial:
    g = st.graph
    res = bfscover.randomized_leader_election(g, seed=seed, pre=st.preprocessed(seed))
    diag = _verdict((not res.success, res.failure or "election failed"),
                    (not res.unanimous, "nodes disagree on the leader"),
                    (res.leader != max(res.candidates, default=None),
                     "leader is not the maximum candidate"))
    return res.metrics, diag, {"leader": res.leader, "candidates": len(res.candidates)}


def _le_det(st: _Stages, root: int, seed: int) -> Trial:
    g = st.graph
    res = gossipspanner.deterministic_leader_election(g)
    diag = _verdict((not res.unanimous, "nodes disagree on the maximum id"))
    return res.metrics, diag, {"leader": res.leader, "spanner_edges": res.spanner.size}


def _cover_only(st: _Stages, root: int, seed: int) -> Trial:
    g = st.graph
    cover = st.cover(seed)
    params = cover.params
    report = covers.verify_cover(cover, g)
    diag = _verdict((report.max_depth > params.max_tree_depth,
                     f"cluster depth {report.max_depth} over bound"),
                    (not report.neighborhood_ok, f"{len(report.uncovered)} nodes not W-covered"))
    return cover.metrics, diag, {"clusters": len(cover.clusters), "kappa": params.kappa,
                                 "max_depth": report.max_depth,
                                 "max_membership": report.max_membership}


def _spanner_only(st: _Stages, root: int, seed: int) -> Trial:
    g = st.graph
    gossip = gossipspanner.gossip_local_broadcast(g)
    spanner = gossipspanner.extract_spanner(g, gossip)
    bad = gossipspanner.spanner_stretch_violations(g, spanner)
    diag = _verdict((not gossip.complete, "gossip left missing rumors"),
                    (gossip.iterations > gossip.cap, "iteration budget exceeded"),
                    (spanner.size > 2 * g.n * log2ceil(g.n),
                     f"spanner too dense ({spanner.size} edges)"),
                    (bool(bad), f"{len(bad)} stretched edges"))
    return gossip.metrics, diag, {"iterations": gossip.iterations, "spanner_edges": spanner.size}


def _global_mst(st: _Stages, root: int, seed: int) -> Trial:
    g = st.graph
    bfs = gossipspanner.deterministic_bfs(g, root)
    solved = gossipspanner.solve_global(g, bfs.tree, problem="mst")
    mst = tuple(sorted(canonical_edge(u, w) for u, w in solved.solution))
    sent = solved.metrics.messages_total
    diag = _verdict((mst != oracle_mst(g), "MST differs from centralized oracle"),
                    (sent > 2 * (g.n - 1), f"{sent} messages over 2(n-1)"))
    return solved.metrics, diag, {"mst_edges": len(solved.solution),
                                  "bfs_messages": bfs.metrics.messages_total}


def _flood_baseline(st: _Stages, root: int, seed: int) -> Trial:
    g = st.graph
    tree, metrics = flood_baseline_bfs(g, root)
    return metrics, _layer_check(g, tree), {"root": root, "two_m": 2 * g.m}


# The one place an algorithm is declared; its order is the order of ALGOS.
PIPELINES: Dict[str, Pipeline] = {
    "bfs_cover": Pipeline(_bfs_cover, message_exponent=3, round_terms=(1, 3)),
    "bfs_spanner": Pipeline(_bfs_spanner, message_exponent=2, round_terms=(1, 2)),
    "le_rand": Pipeline(_le_rand, message_exponent=4, round_terms=(1, 3)),
    "le_det": Pipeline(_le_det, message_exponent=2, round_terms=(2, 2)),
    "cover_only": Pipeline(_cover_only),
    "spanner_only": Pipeline(_spanner_only),
    "global_mst": Pipeline(_global_mst),
    "flood_baseline": Pipeline(_flood_baseline),
}
ALGOS = tuple(PIPELINES)


def _run_trial(algo: str, st: _Stages, seed: int) -> TrialOutcome:
    g = st.graph
    metrics, diag, extra = PIPELINES[algo].trial(st, min(g.nodes), seed)
    return TrialOutcome(seed=seed, ok=not diag, rounds=metrics.rounds,
                        messages=metrics.messages_total,
                        by_category=dict(metrics.messages_by_category),
                        ratio=message_ratio(algo, g.n, metrics.messages_total),
                        diagnostics=diag, extra=extra)


def resolve_output_path(path: str) -> str:
    outdir = os.environ.get(OUTDIR_ENV)
    if outdir:
        return os.path.join(outdir, os.path.basename(path))
    return path


def run_experiment(cfg: ExperimentConfig) -> ExperimentRecord:
    st = _stages(cfg.graph)
    trials = [_run_trial(cfg.algo, st, seed) for seed in cfg.trial_seeds]
    record = ExperimentRecord(config=cfg, n=st.graph.n, trials=trials)
    if cfg.output_path:
        path = resolve_output_path(cfg.output_path)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(record.to_jsonable(), fh, indent=2, sort_keys=True)
        csv_path = os.path.splitext(path)[0] + ".csv"
        write_csv(csv_path, record.csv_rows())
    return record


def write_csv(path: str, rows: Sequence[Dict[str, Any]]) -> None:
    if not rows:
        return
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0].keys()))
        writer.writeheader()
        writer.writerows(rows)


# ---------------------------------------------------------------------------
# Scaling studies.
# ---------------------------------------------------------------------------

@dataclass
class ScalingRow:
    family: str
    algo: str
    n: int
    diam: int
    trials: int
    median_rounds: float
    median_messages: float
    message_ratio: Optional[float]
    round_ratio: Optional[float]


@dataclass
class ScalingTable:
    rows: List[ScalingRow]
    flagged: bool

    def csv_rows(self) -> List[Dict[str, Any]]:
        return [{**asdict(r), "flagged": int(self.flagged)} for r in self.rows]


def _graph_spec(family: str, n: int, seed: int) -> GraphGenSpec:
    p = er_connectivity_safe_p(n) if family == "erdos_renyi" else None
    return GraphGenSpec(family=family, n=n, seed=seed, p=p,
                        id_scheme="random_permutation")


def scaling_study(family: str, n_list: Sequence[int], algo: str,
                  seeds: Sequence[int] = (0, 1, 2)) -> ScalingTable:
    """Median rounds/messages per size plus normalized ratios; flags any
    ratio growing by more than 2x from the smallest to the largest n.

    Each row's diameter ``diam`` (the round ratio's normaliser) is measured
    on the first seed's graph only.
    """
    if algo not in ALGOS:  # a tuple, so an unhashable algo is just unknown
        raise HarnessError(f"unknown algo {algo!r}")
    if list(n_list) != sorted(set(n_list)):
        raise HarnessError("n_list must be ascending and duplicate-free")
    if not seeds:
        raise HarnessError("scaling study needs at least one seed")
    rows: List[ScalingRow] = []
    for n in n_list:
        per_rounds: List[int] = []
        per_msgs: List[int] = []
        diam = None
        for s in seeds:
            st = _stages(_graph_spec(family, n, s))
            if diam is None:
                diam = diameter(st.graph)
            t = _run_trial(algo, st, s)
            del st  # so the next spec's graph is generated after this one is freed
            if not t.ok:
                raise HarnessError(
                    f"scaling trial failed for {family} n={n} seed={s}: "
                    f"{t.diagnostics}")
            per_rounds.append(t.rounds)
            per_msgs.append(t.messages)
        med_r = statistics.median(per_rounds)
        med_m = statistics.median(per_msgs)
        denom = round_denominator(algo, n, diam)
        rows.append(ScalingRow(
            family=family, algo=algo, n=n, diam=diam, trials=len(seeds),
            median_rounds=med_r, median_messages=med_m,
            message_ratio=message_ratio(algo, n, med_m),
            round_ratio=(med_r / denom) if denom else None))
    flagged = False
    if len(rows) > 1:
        for attr in ("message_ratio", "round_ratio"):
            first = getattr(rows[0], attr)
            last = getattr(rows[-1], attr)
            if first and last and last > 2.0 * first:
                flagged = True
    return ScalingTable(rows=rows, flagged=flagged)
