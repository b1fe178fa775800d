"""Experiment front-end: configured trial runs with always-on oracle
verification, a KT0-style flooding baseline, scaling studies, and
JSON/CSV export.

Every trial is checked against the matching oracle (exact BFS layers,
unanimity on the maximum id, cover properties, centralized MST); failures
are recorded in the output with diagnostics rather than swallowed, and the
record is self-contained enough to re-derive each verdict.
"""

from __future__ import annotations

import csv
import json
import math
import os
import statistics
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

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

ALGOS = (
    "bfs_cover",
    "bfs_spanner",
    "le_rand",
    "le_det",
    "cover_only",
    "spanner_only",
    "global_mst",
    "flood_baseline",
)

# messages / (n * ceil(log2 n)^k) regression exponents per algorithm.
MESSAGE_EXPONENT = {"bfs_cover": 3, "bfs_spanner": 2, "le_rand": 4, "le_det": 2}


class HarnessError(ValueError):
    pass


def log2ceil(n: int) -> int:
    return math.ceil(math.log2(max(n, 2)))


def message_ratio(algo: str, n: int, messages: int) -> Optional[float]:
    k = MESSAGE_EXPONENT.get(algo)
    if k is None:
        return None
    return messages / (n * log2ceil(n) ** k)


def round_denominator(algo: str, n: int, diam: int) -> Optional[int]:
    l = log2ceil(n)
    if algo in ("bfs_cover", "le_rand"):
        return diam * l + l**3
    if algo == "bfs_spanner":
        return diam * l + l**2
    if algo == "le_det":
        return diam * l**2 + l**2
    return None


@dataclass(frozen=True)
class ExperimentConfig:
    graph: GraphGenSpec
    algo: str
    trials: int = 1
    seeds: Optional[Tuple[int, ...]] = None
    output_path: Optional[str] = None

    def __post_init__(self) -> None:
        if self.algo not in ALGOS:
            raise HarnessError(f"unknown algo {self.algo!r}")
        if self.trials < 1:
            raise HarnessError("trials must be >= 1")
        if self.seeds is not None and len(self.seeds) != self.trials:
            raise HarnessError("trials must equal len(seeds) when seeds are given")

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
            "trials": [
                {"seed": t.seed, "ok": t.ok, "rounds": t.rounds,
                 "messages": t.messages, "by_category": t.by_category,
                 "ratio": t.ratio, "diagnostics": t.diagnostics,
                 "extra": t.extra}
                for t in self.trials
            ],
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
    if root not in g.adjacency:
        raise HarnessError(f"root {root} not in graph")
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
# Centralized MST oracle (independent route: networkx).
# ---------------------------------------------------------------------------

def oracle_mst(g: Graph) -> Tuple[Tuple[int, int], ...]:
    """MST under the canonical lexicographic (min id, max id) weight rule."""
    import networkx as nx

    big = max(g.nodes) + 1
    ng = nx.Graph()
    ng.add_nodes_from(g.nodes)
    for u, w in g.edges():
        a, b = canonical_edge(u, w)
        ng.add_edge(a, b, weight=a * big + b)
    tree = nx.minimum_spanning_tree(ng, weight="weight")
    return tuple(sorted(canonical_edge(u, w) for u, w in tree.edges))


# ---------------------------------------------------------------------------
# Trial execution.
# ---------------------------------------------------------------------------

def _run_trial(cfg: ExperimentConfig, g: Graph, seed: int) -> TrialOutcome:
    algo = cfg.algo
    n = g.n
    root = min(g.nodes)
    ok = True
    diag = ""
    extra: Dict[str, Any] = {}

    if algo == "bfs_cover":
        res = bfscover.bfs_construction(g, root, seed=seed)
        metrics = res.metrics
        if res.tree.layer != oracle_bfs(g, root).dist:
            ok, diag = False, "layer map differs from oracle_bfs"
        extra = {"root": root, "kappa": res.cover.params.kappa,
                 "clusters": len(res.cover.clusters)}
    elif algo == "bfs_spanner":
        res = gossipspanner.deterministic_bfs(g, root)
        metrics = res.metrics
        if res.tree.layer != oracle_bfs(g, root).dist:
            ok, diag = False, "layer map differs from oracle_bfs"
        extra = {"root": root, "spanner_edges": res.spanner.size,
                 "iterations": res.spanner.iterations}
    elif algo == "le_rand":
        res = bfscover.randomized_leader_election(g, seed=seed)
        metrics = res.metrics
        if not res.success:
            ok, diag = False, res.failure or "election failed"
        elif not res.unanimous:
            ok, diag = False, "nodes disagree on the leader"
        elif res.leader != max(res.candidates):
            ok, diag = False, "leader is not the maximum candidate"
        extra = {"leader": res.leader, "candidates": len(res.candidates)}
    elif algo == "le_det":
        res = gossipspanner.deterministic_leader_election(g)
        metrics = res.metrics
        if not res.unanimous:
            ok, diag = False, "nodes disagree on the maximum id"
        extra = {"leader": res.leader, "spanner_edges": res.spanner.size}
    elif algo == "cover_only":
        params = covers.CoverParams(kappa=bfscover.default_kappa(n), W=2, seed=seed)
        cover = covers.cover_construction(g, params)
        metrics = cover.metrics
        report = covers.verify_cover(cover, g)
        if report.max_depth > params.max_tree_depth:
            ok, diag = False, f"cluster depth {report.max_depth} over bound"
        elif not report.neighborhood_ok:
            ok, diag = False, f"{len(report.uncovered)} nodes not W-covered"
        extra = {"clusters": len(cover.clusters), "kappa": params.kappa,
                 "max_depth": report.max_depth,
                 "max_membership": report.max_membership}
    elif algo == "spanner_only":
        gossip = gossipspanner.gossip_local_broadcast(g)
        metrics = gossip.metrics
        spanner = gossipspanner.extract_spanner(g, gossip)
        bad = gossipspanner.spanner_stretch_violations(g, spanner)
        if not gossip.complete:
            ok, diag = False, "gossip left missing rumors"
        elif gossip.iterations > gossip.cap:
            ok, diag = False, "iteration budget exceeded"
        elif spanner.size > 2 * n * log2ceil(n):
            ok, diag = False, f"spanner too dense ({spanner.size} edges)"
        elif bad:
            ok, diag = False, f"{len(bad)} stretched edges"
        extra = {"iterations": gossip.iterations, "spanner_edges": spanner.size}
    elif algo == "global_mst":
        bfs = gossipspanner.deterministic_bfs(g, root)
        solved = gossipspanner.solve_global(g, bfs.tree, problem="mst")
        metrics = solved.metrics
        want = oracle_mst(g)
        if tuple(sorted(canonical_edge(u, w) for u, w in solved.solution)) != want:
            ok, diag = False, "MST differs from centralized oracle"
        elif metrics.messages_total > 2 * (n - 1):
            ok, diag = False, f"{metrics.messages_total} messages over 2(n-1)"
        extra = {"mst_edges": len(solved.solution),
                 "bfs_messages": bfs.metrics.messages_total}
    elif algo == "flood_baseline":
        tree, metrics = flood_baseline_bfs(g, root)
        if tree.layer != oracle_bfs(g, root).dist:
            ok, diag = False, "layer map differs from oracle_bfs"
        extra = {"root": root, "two_m": 2 * g.m}
    else:  # pragma: no cover - guarded by ExperimentConfig
        raise HarnessError(f"unknown algo {algo!r}")

    return TrialOutcome(seed=seed, ok=ok, rounds=metrics.rounds,
                        messages=metrics.messages_total,
                        by_category=dict(metrics.messages_by_category),
                        ratio=message_ratio(algo, n, metrics.messages_total),
                        diagnostics=diag, extra=extra)


def resolve_output_path(path: str) -> str:
    outdir = os.environ.get(OUTDIR_ENV)
    if outdir:
        return os.path.join(outdir, os.path.basename(path))
    return path


def run_experiment(cfg: ExperimentConfig) -> ExperimentRecord:
    g = generate_graph(cfg.graph)
    trials = [_run_trial(cfg, g, seed) for seed in cfg.trial_seeds]
    record = ExperimentRecord(config=cfg, n=g.n, trials=trials)
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
        out = []
        for r in self.rows:
            out.append({"family": r.family, "algo": r.algo, "n": r.n,
                        "diam": r.diam, "trials": r.trials,
                        "median_rounds": r.median_rounds,
                        "median_messages": r.median_messages,
                        "message_ratio": r.message_ratio,
                        "round_ratio": r.round_ratio,
                        "flagged": int(self.flagged)})
        return out


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
            spec = _graph_spec(family, n, s)
            cfg = ExperimentConfig(graph=spec, algo=algo, trials=1,
                                   seeds=(s,))
            g = generate_graph(spec)
            if diam is None:
                diam = diameter(g)
            t = _run_trial(cfg, g, s)
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
