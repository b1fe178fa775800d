"""Command-line front-end: run configured experiments, generate graphs,
verify serialized BFS trees, and produce scaling tables."""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from .clustercomm import ClusterError, bfs_tree_from_json
from .harness import (
    ALGOS,
    ExperimentConfig,
    HarnessError,
    resolve_output_path,
    run_experiment,
    scaling_study,
    write_csv,
)
from .netgraph import (
    FAMILIES,
    GraphError,
    GraphGenSpec,
    generate_graph,
    oracle_bfs,
    read_edge_list,
    write_edge_list,
)


def _read_text(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return fh.read()
        except UnicodeDecodeError as exc:
            raise HarnessError(f"{path}: not UTF-8 text: {exc}") from exc


def _cmd_run(args: argparse.Namespace) -> int:
    cfg = ExperimentConfig.from_json(_read_text(args.config))
    record = run_experiment(cfg)
    for t in record.trials:
        verdict = "pass" if t.ok else f"FAIL ({t.diagnostics})"
        print(f"{cfg.algo} n={record.n} seed={t.seed}: {verdict} "
              f"rounds={t.rounds} messages={t.messages}")
    print(f"{record.passed}/{len(record.trials)} trials passed")
    return 0 if record.all_ok else 1


def _cmd_gen(args: argparse.Namespace) -> int:
    spec = GraphGenSpec(family=args.family, n=args.n, seed=args.seed,
                        p=args.p, id_scheme=args.id_scheme)
    g = generate_graph(spec)
    write_edge_list(g, args.out)
    print(f"wrote {args.family} graph: n={g.n} m={g.m} -> {args.out}")
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    g = read_edge_list(args.graph)
    tree = bfs_tree_from_json(_read_text(args.tree))
    try:
        tree.validate_spanning(g)
    except ClusterError as exc:
        print(f"FAIL: tree invalid: {exc}")
        return 1
    want = oracle_bfs(g, tree.root).dist
    if tree.layer != want:
        bad = sum(1 for v in want if tree.layer.get(v) != want[v])
        print(f"FAIL: {bad} nodes on wrong layers")
        return 1
    print(f"pass: exact BFS tree from root {tree.root} (depth {tree.depth})")
    return 0


def _size_list(text: str) -> List[int]:
    try:
        sizes = [int(x) for x in text.split(",") if x]
    except ValueError:
        sizes = []
    if not sizes:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated integers, got {text!r}")
    return sizes


def _cmd_scale(args: argparse.Namespace) -> int:
    seeds = tuple(range(args.seeds))
    table = scaling_study(args.family, args.ns, args.algo, seeds=seeds)
    rows = table.csv_rows()
    for r in rows:
        print(f"n={r['n']} D={r['diam']} rounds={r['median_rounds']} "
              f"messages={r['median_messages']} "
              f"msg_ratio={r['message_ratio']} round_ratio={r['round_ratio']}")
    if args.out:
        path = resolve_output_path(args.out)
        write_csv(path, rows)
        print(f"wrote {path}")
    if table.flagged:
        print("FLAG: a normalized ratio more than doubled across the sweep")
        return 1
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kt1sim",
        description="Message-efficient distributed-algorithm simulator")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a configured experiment")
    p_run.add_argument("--config", required=True, help="JSON config path")
    p_run.set_defaults(func=_cmd_run)

    p_gen = sub.add_parser("gen", help="generate a graph edge list")
    p_gen.add_argument("--family", required=True, choices=FAMILIES)
    p_gen.add_argument("--n", required=True, type=int)
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--p", type=float, default=None,
                       help="edge probability (erdos_renyi only)")
    p_gen.add_argument("--id-scheme", default="sequential",
                       choices=("sequential", "random_permutation"))
    p_gen.add_argument("--out", required=True)
    p_gen.set_defaults(func=_cmd_gen)

    p_ver = sub.add_parser("verify", help="check a BFS tree against its graph")
    p_ver.add_argument("--graph", required=True, help="edge-list path")
    p_ver.add_argument("--tree", required=True, help="BFS tree JSON path")
    p_ver.set_defaults(func=_cmd_verify)

    p_sc = sub.add_parser("scale", help="scaling study across sizes")
    p_sc.add_argument("--family", required=True, choices=FAMILIES)
    p_sc.add_argument("--algo", required=True, choices=ALGOS)
    p_sc.add_argument("--ns", required=True, type=_size_list,
                      help="comma-separated ascending sizes, e.g. 128,256,512")
    p_sc.add_argument("--seeds", type=int, default=3,
                      help="seeds per size (default 3)")
    p_sc.add_argument("--out", default=None, help="optional CSV path")
    p_sc.set_defaults(func=_cmd_scale)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (HarnessError, GraphError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
