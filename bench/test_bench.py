"""Self-tests of the benchmark at n <= 64:  python3 -m pytest bench -q"""

from __future__ import annotations

import collections
import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH_DIR.parent / "src"), str(BENCH_DIR)]

import kt1sim  # noqa: E402
from kt1sim import simengine  # noqa: E402
from tracer import (MODULES, Tracer, layer_metrics, per_layer_spec,  # noqa: E402
                    span_totals)
from workloads import WORKLOADS, run_pass  # noqa: E402

TINY = [w.tiny() for w in WORKLOADS.values()]


def _bindings():
    mods = [kt1sim, *MODULES.values()]
    return {(m.__name__, k): v for m in mods for k, v in vars(m).items()}


def _traced(w, seed=0):
    with Tracer() as tr:
        p = run_pass(w, seed, tr)
    return tr, p


@pytest.mark.parametrize("w", TINY, ids=[w.name for w in TINY])
def test_traced_pass_matches_untraced_and_nests(w):
    before = _bindings()
    plain = run_pass(w, 0)
    tr, traced = _traced(w)
    tr2, _ = _traced(w)
    after = _bindings()

    assert all(plain.ok) and plain.digests == traced.digests
    assert before.keys() == after.keys()
    assert all(after[k] is v for k, v in before.items())
    assert tr.counts() == tr2.counts()
    assert tr.output_digests() == tr2.output_digests()

    assert tr.spans and all(t >= -1e-9 for t in tr.self_times())
    for s in tr.spans:
        assert s.start <= s.end
        if s.parent is not None:
            p = tr.spans[s.parent]
            assert p.start <= s.start and s.end <= p.end
    m = layer_metrics(tr, traced.wall_s, plain.wall_s)
    assert [name for name, _ in per_layer_spec()] == list(m)
    assert 0 <= m["trace.unattributed_s"] < traced.wall_s


def test_engine_counts_match_the_engine_trace(monkeypatch):
    """Messages and peak in-flight mail counted through the step wrapper
    equal what the engine's own recorded trace shows."""
    original = simengine.run
    peak = collections.Counter()
    per_cat = collections.Counter()

    def recording_run(graph, protocol, config=None):
        cfg = dataclasses.replace(config or simengine.ModeConfig(), record_trace=True)
        res = original(graph, protocol, cfg)
        sends = collections.Counter(e.round_no for e in res.trace)
        peak[protocol.name] = max(peak[protocol.name], max(sends.values(), default=0))
        per_cat.update(e.category for e in res.trace)
        return res

    for mod in MODULES.values():
        for attr, value in list(vars(mod).items()):
            if value is original:
                monkeypatch.setattr(mod, attr, recording_run)
    tr, _ = _traced(WORKLOADS["cover_er"].tiny())
    assert {k: c.peak_inflight for k, c in tr.engine.items()} == dict(peak)
    traced_cats = collections.Counter()
    for c in tr.engine.values():
        traced_cats.update(c.messages)
    assert +traced_cats == per_cat
    assert all(c.idle_rounds_skipped >= 0 for c in tr.engine.values())


def test_span_totals_cover_every_traced_name():
    tr, _ = _traced(WORKLOADS["spanner_er"].tiny())
    totals = span_totals(tr)
    assert totals["gossipspanner.gossip_local_broadcast"]["calls"] == 4
    assert totals["harness._run_trial"]["calls"] == 4


def test_benchmark_json_matches_the_code():
    spec = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == per_layer_spec()
    assert [m["name"] for m in spec["end_to_end"]] == ["cpu_s", "setup_s", "peak_rss_mb"]


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(BENCH_DIR.parent / "BENCHMARK.json", tmp_path)
    res = subprocess.run([sys.executable, "bench/run.py", "--workload", "cover_er",
                          "--seconds", "1"], cwd=tmp_path, capture_output=True,
                         text=True, timeout=120)
    assert res.returncode != 0
    assert "correct" not in res.stdout


def test_recorded_digests_hold_for_the_first_input():
    recorded = json.loads((BENCH_DIR / "digests.json").read_text())["trials"]
    p = run_pass(WORKLOADS["cover_er"], 0)
    assert all(p.ok) and p.digests == recorded["cover_er"]["0"]


def test_gauge_sweeps_each_kernel_and_normalises():
    from reference import GAP_SHARE, NOMINAL_S, HostGauge, normalised

    gauge = HostGauge()
    gauge.gap("unit")
    assert {k: len(s) for k, s in gauge.take().items()} == {k: 1 for k in NOMINAL_S}
    gauge.record("unit", 0.4)
    gauge.gap("unit")
    assert sum(sum(s) for s in gauge.take().values()) >= GAP_SHARE * 0.4
    assert gauge.take() == {k: [] for k in NOMINAL_S}
    nominal = {k: [t] for k, t in NOMINAL_S.items()}
    assert normalised(1.5, nominal) == pytest.approx(1.5)
    assert normalised(1.5, {k: [2 * t] for k, t in NOMINAL_S.items()}) == pytest.approx(0.75)
