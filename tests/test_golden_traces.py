"""Golden message traces.

Every engine run made by every harness algorithm, on a few small graphs,
is digested message by message (round, sender, receiver, category and
payload).  The (protocol name, digest, rounds, messages) list of each
(graph, pipeline) pair must equal the recorded one in `golden_traces.json`,
so a refactor that keeps it keeps every simulated message, in the same order
and in the same round.

Regenerate the recording, after a deliberate change of behaviour only, with

    PYTHONPATH=src python tests/test_golden_traces.py > tests/golden_traces.json.new
    mv tests/golden_traces.json.new tests/golden_traces.json

The re-recording prints to stderr each entry that differs from the
committed recording, and whether only its digests moved.
"""

from __future__ import annotations

import dataclasses
import json
import sys
from pathlib import Path
from typing import Dict, List

from kt1sim import bfscover, covers, gossipspanner, harness, simengine
from kt1sim.harness import ALGOS, ExperimentConfig, run_experiment
from kt1sim.netgraph import GraphGenSpec

GOLDEN = Path(__file__).with_name("golden_traces.json")

GRAPHS = {
    "grid36": GraphGenSpec(family="grid", n=36),
    "er40": GraphGenSpec(family="erdos_renyi", n=40, p=0.15, seed=3,
                         id_scheme="random_permutation"),
    "tree31": GraphGenSpec(family="balanced_binary_tree", n=31, seed=1,
                           id_scheme="random_permutation"),
    "cycle24": GraphGenSpec(family="cycle", n=24, seed=2,
                            id_scheme="random_permutation"),
    "complete12": GraphGenSpec(family="complete", n=12),
}

# Modules that call the engine through their own module-level `run` name.
ENGINE_USERS = (simengine, covers, bfscover, gossipspanner, harness)


def _pipelines():
    for algo in ALGOS:
        yield algo, lambda spec, algo=algo: run_experiment(
            ExperimentConfig(graph=spec, algo=algo))


def collect(patch) -> Dict[str, List[List]]:
    """Run every pipeline on every graph with digests forced on, each from
    an empty harness stage memo; `patch` rebinds a module attribute
    (pytest's monkeypatch.setattr, or setattr in a throwaway process)."""
    real = simengine.run
    runs: List[List] = []

    def digested_run(graph, protocol, config=None):
        cfg = dataclasses.replace(config or simengine.ModeConfig(), trace_digest=True)
        res = real(graph, protocol, cfg)
        runs.append([protocol.name, res.digest, res.metrics.rounds,
                     res.metrics.messages_total])
        return res

    for module in ENGINE_USERS:
        if getattr(module, "run", None) is real:
            patch(module, "run", digested_run)
    out: Dict[str, List[List]] = {}
    for gname, spec in GRAPHS.items():
        for pname, pipeline in _pipelines():
            runs.clear()
            # An empty stage memo, so each pair records every run it makes.
            harness._clear_stages()
            pipeline(spec)
            out[f"{gname}/{pname}"] = list(runs)
    return out


def test_every_engine_run_matches_golden_trace(monkeypatch):
    want = json.loads(GOLDEN.read_text())
    got = collect(monkeypatch.setattr)
    assert sorted(got) == sorted(want)
    for key in want:
        assert got[key] == want[key], key


def moved_entries(old: Dict[str, List[List]], new: Dict[str, List[List]]) -> List[str]:
    """One line per key whose runs differ, saying whether only digests moved."""
    lines = []
    for key in sorted(set(old) | set(new)):
        if key not in old or key not in new:
            lines.append(f"{key}: {'added' if key in new else 'removed'}")
        elif old[key] != new[key]:
            pairs = list(zip(old[key], new[key]))
            if len(old[key]) == len(new[key]) and all(
                    a[:1] + a[2:] == b[:1] + b[2:] for a, b in pairs):
                moved = sorted({a[0] for a, b in pairs if a != b})
                lines.append(f"{key}: only digests moved ({', '.join(moved)})")
            else:
                lines.append(f"{key}: runs changed")
    return lines


def test_moved_entries_names_each_changed_key():
    old = {"a": [["p", "d1", 3, 4]], "b": [["p", "d1", 3, 4], ["q", "d2", 1, 1]],
           "c": [["p", "d1", 3, 4]], "gone": []}
    new = {"a": [["p", "d1", 3, 4]], "b": [["p", "d1", 3, 4], ["q", "d9", 1, 1]],
           "c": [["p", "d1", 3, 5]], "fresh": []}
    assert moved_entries(old, new) == [
        "b: only digests moved (q)", "c: runs changed",
        "fresh: added", "gone: removed"]


if __name__ == "__main__":
    golden = collect(setattr)
    text = GOLDEN.read_text() if GOLDEN.is_file() else ""
    if text.strip():
        for line in moved_entries(json.loads(text), golden):
            print(line, file=sys.stderr)
    else:
        print(f"{GOLDEN.name} is missing or empty; nothing to compare",
              file=sys.stderr)
    print("{\n" + ",\n".join(
        f" {json.dumps(key)}: [\n" + ",\n".join(f"  {json.dumps(r)}" for r in runs) + "\n ]"
        for key, runs in golden.items()) + "\n}")
