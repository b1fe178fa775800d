"""Tests for the experiment harness, baselines, scaling tables, and CLI."""

import csv
import dataclasses
import gc
import json
import os
import subprocess
import sys
import weakref

import pytest

from kt1sim.bfscover import BFSError
from kt1sim.clustercomm import RootedTree, bfs_tree_to_json
from kt1sim.harness import (
    ALGOS,
    ExperimentConfig,
    ExperimentRecord,
    HarnessError,
    flood_baseline_bfs,
    log2ceil,
    message_ratio,
    oracle_mst,
    round_denominator,
    run_experiment,
    scaling_study,
)
from kt1sim.netgraph import GraphGenSpec, generate_graph, oracle_bfs
from kt1sim import bfscover, cli, covers, gossipspanner, harness, simengine


def make_graph(family, n, seed=0, p=None, id_scheme="sequential"):
    return generate_graph(
        GraphGenSpec(family=family, n=n, seed=seed, p=p, id_scheme=id_scheme)
    )


def spec(family, n, **kw):
    return GraphGenSpec(family=family, n=n, **kw)


# ---------------------------------------------------------------------------
# normalization helpers


def test_log2ceil():
    assert log2ceil(1) == 1
    assert log2ceil(2) == 1
    assert log2ceil(3) == 2
    assert log2ceil(4096) == 12


# Per algorithm, in ALGOS order: the message exponent k of
# messages / (n * L^k) and the round denominator D * L^a + L^b at n = 256
# (L = 8) and D = 10; None where the algorithm is not normalised.
NORMALISERS = {
    "bfs_cover": (3, 10 * 8 + 8**3),
    "bfs_spanner": (2, 10 * 8 + 8**2),
    "le_rand": (4, 10 * 8 + 8**3),
    "le_det": (2, 10 * 8**2 + 8**2),
    "cover_only": (None, None),
    "spanner_only": (None, None),
    "global_mst": (None, None),
    "flood_baseline": (None, None),
}


@pytest.mark.parametrize("algo", list(NORMALISERS))
def test_message_ratio_and_denominator(algo):
    assert ALGOS == tuple(NORMALISERS)
    n, L = 256, log2ceil(256)
    k, denom = NORMALISERS[algo]
    ratio = message_ratio(algo, n, 2 * n * L**4)
    assert ratio is None if k is None else ratio == pytest.approx(2 * L ** (4 - k))
    assert round_denominator(algo, n, 10) == denom


# ---------------------------------------------------------------------------
# configs


def test_config_validation():
    good = ExperimentConfig(graph=spec("path", 4), algo="bfs_spanner")
    assert good.trial_seeds == (0,)
    with pytest.raises(HarnessError):
        ExperimentConfig(graph=spec("path", 4), algo="quantum_bfs")
    with pytest.raises(HarnessError):  # unhashable: unknown, not a TypeError
        ExperimentConfig(graph=spec("path", 4), algo=["bfs_cover"])
    with pytest.raises(HarnessError):
        ExperimentConfig(graph=spec("path", 4), algo="bfs_cover", trials=0)
    with pytest.raises(HarnessError):
        ExperimentConfig(graph=spec("path", 4), algo="bfs_cover",
                         trials=3, seeds=(1, 2))


def test_config_rejects_csv_output_path(tmp_path):
    """The CSV rows go to the output path with its extension made .csv, so
    a .csv output path would have the rows overwrite the JSON record."""
    path = str(tmp_path / "res.csv")
    with pytest.raises(HarnessError, match="CSV rows' path"):
        ExperimentConfig(graph=spec("path", 4), algo="bfs_spanner", output_path=path)
    with pytest.raises(HarnessError, match="CSV rows' path"):
        ExperimentConfig.from_json(json.dumps(
            {"graph": {"family": "path", "n": 4}, "algo": "bfs_spanner", "output_path": path}))
    assert not os.path.exists(path)


def test_config_seed_defaults():
    cfg = ExperimentConfig(graph=spec("path", 4), algo="bfs_cover", trials=4)
    assert cfg.trial_seeds == (0, 1, 2, 3)
    cfg2 = ExperimentConfig(graph=spec("path", 4), algo="bfs_cover",
                            trials=2, seeds=(7, 9))
    assert cfg2.trial_seeds == (7, 9)


def test_config_from_json():
    text = json.dumps({"graph": {"family": "erdos_renyi", "n": 32, "p": 0.2},
                       "algo": "le_rand", "seeds": [3, 4, 5]})
    cfg = ExperimentConfig.from_json(text)
    assert cfg.graph.family == "erdos_renyi" and cfg.graph.p == 0.2
    assert cfg.trials == 3 and cfg.trial_seeds == (3, 4, 5)


def test_config_from_json_errors():
    with pytest.raises(HarnessError):
        ExperimentConfig.from_json("{not json")
    with pytest.raises(HarnessError):
        ExperimentConfig.from_json(json.dumps({"algo": "bfs_cover"}))
    with pytest.raises(HarnessError):
        ExperimentConfig.from_json(
            json.dumps({"graph": {"family": "path", "n": 4, "bogus": 1},
                        "algo": "bfs_cover"}))


# ---------------------------------------------------------------------------
# flooding baseline and MST oracle


def test_flood_path3():
    g = make_graph("path", 3)
    tree, metrics = flood_baseline_bfs(g, 1)
    assert metrics.messages_total == 4  # 2m
    assert tree.layer == {1: 0, 2: 1, 3: 2}


def test_flood_k4():
    g = make_graph("complete", 4)
    tree, metrics = flood_baseline_bfs(g, 2)
    assert metrics.messages_total == 12
    assert tree.layer == oracle_bfs(g, 2).dist


def test_flood_single_node():
    g = make_graph("path", 1)
    _, metrics = flood_baseline_bfs(g, 1)
    assert metrics.messages_total == 0


@pytest.mark.parametrize("root", [1.0, True, "1", 99])
def test_flood_root_must_be_an_int_node_id(root, monkeypatch):
    monkeypatch.setattr(harness, "run", None)  # no run may start
    with pytest.raises(HarnessError, match="is not a node id of g"):
        flood_baseline_bfs(make_graph("path", 3), root)


def test_oracle_mst_small():
    assert oracle_mst(make_graph("cycle", 3)) == ((1, 2), (1, 3))
    star = make_graph("star", 5)
    assert sorted(oracle_mst(star)) == sorted(star.edges())


# ---------------------------------------------------------------------------
# experiments


def test_run_experiment_bfs_spanner_path4():
    cfg = ExperimentConfig(graph=spec("path", 4), algo="bfs_spanner")
    rec = run_experiment(cfg)
    assert rec.all_ok and rec.passed == 1
    t = rec.trials[0]
    assert t.rounds > 0 and t.messages > 0
    assert t.ratio is not None


def test_run_experiment_every_algo_small():
    g = spec("erdos_renyi", 48, seed=2, p=0.12)
    for algo in ALGOS:
        rec = run_experiment(ExperimentConfig(graph=g, algo=algo))
        assert rec.all_ok, (algo, rec.trials[0].diagnostics)


@pytest.mark.parametrize("algo, want", [
    ("bfs_cover", ["oracle_bfs"]),
    ("bfs_spanner", ["oracle_bfs"]),
    ("global_mst", ["oracle_mst"]),
    ("flood_baseline", ["flood_baseline_bfs", "oracle_bfs"]),
])
def test_pipelines_call_through_module_attributes(monkeypatch, algo, want):
    """A rebound harness attribute reaches the pipelines, so a tracer that
    wraps module attributes sees every call."""
    calls = []
    for name in ("flood_baseline_bfs", "oracle_mst", "oracle_bfs"):
        def counted(*args, _name=name, _real=getattr(harness, name)):
            calls.append(_name)
            return _real(*args)
        monkeypatch.setattr(harness, name, counted)
    assert run_experiment(ExperimentConfig(graph=spec("grid", 16), algo=algo)).all_ok
    assert calls == want


# ---------------------------------------------------------------------------
# stage memo

MEMO_SPECS = {
    "grid36": spec("grid", 36),
    "er40": spec("erdos_renyi", 40, p=0.15, seed=3, id_scheme="random_permutation"),
}


def engine_runs(monkeypatch):
    """Protocol names of the engine runs made from now on, in order."""
    names = []
    real = simengine.run

    def counted(graph, protocol, config=None):
        names.append(protocol.name)
        return real(graph, protocol, config)

    for module in (simengine, covers, bfscover, gossipspanner, harness):
        if getattr(module, "run", None) is real:
            monkeypatch.setattr(module, "run", counted)
    return names


@pytest.mark.parametrize("name", MEMO_SPECS)
def test_memo_changes_no_record(name):
    """Every trial run alone from an empty memo, and all algorithms in turn
    on one warm memo, give equal outcomes and JSON records."""
    cfgs = [ExperimentConfig(graph=MEMO_SPECS[name], algo=algo, trials=2)
            for algo in ALGOS]
    cold = []
    for cfg in cfgs:
        alone = []
        for seed in cfg.trial_seeds:
            harness._clear_stages()
            one = dataclasses.replace(cfg, trials=1, seeds=(seed,))
            alone += run_experiment(one).trials
        cold.append(ExperimentRecord(config=cfg, n=cfg.graph.n, trials=alone))
    harness._clear_stages()
    warm = [run_experiment(cfg) for cfg in cfgs]
    for c, w in zip(cold, warm):
        assert c.all_ok and c.trials == w.trials
        assert c.to_jsonable() == w.to_jsonable()


def test_warm_le_rand_runs_only_bfs_phases(monkeypatch):
    harness._clear_stages()
    run_experiment(ExperimentConfig(graph=MEMO_SPECS["grid36"], algo="bfs_cover"))
    names = engine_runs(monkeypatch)
    rec = run_experiment(ExperimentConfig(graph=MEMO_SPECS["grid36"], algo="le_rand"))
    assert rec.all_ok
    assert names == ["bfs_phases"] * rec.trials[0].extra["candidates"]


def test_warm_cover_only_still_verifies(monkeypatch):
    harness._clear_stages()
    run_experiment(ExperimentConfig(graph=MEMO_SPECS["er40"], algo="bfs_cover"))
    names = engine_runs(monkeypatch)
    audits = []

    def counted(cover, g, _real=covers.verify_cover):
        audits.append(cover)
        return _real(cover, g)

    monkeypatch.setattr(covers, "verify_cover", counted)
    rec = run_experiment(ExperimentConfig(graph=MEMO_SPECS["er40"], algo="cover_only"))
    assert rec.all_ok and names == [] and len(audits) == 1


def test_memo_holds_one_spec():
    harness._clear_stages()
    a, b = MEMO_SPECS["grid36"], MEMO_SPECS["er40"]
    run_experiment(ExperimentConfig(graph=a, algo="bfs_cover"))
    held = harness._memo[a]
    graph, pre = weakref.ref(held.graph), weakref.ref(held.pre)
    del held
    run_experiment(ExperimentConfig(graph=b, algo="flood_baseline"))
    gc.collect()
    assert list(harness._memo) == [b]
    assert graph() is None and pre() is None


def test_memo_holds_one_trial_seed():
    harness._clear_stages()
    run_experiment(ExperimentConfig(graph=MEMO_SPECS["er40"], algo="le_rand",
                                    seeds=(0, 1, 2), trials=3))
    held = harness._memo[MEMO_SPECS["er40"]]
    assert held.seed == 2 and held._cover.params.seed == 2
    assert held.pre.cover is held._cover


def _count_builds(monkeypatch):
    """Calls of bfscover.cover_construction and bfscover.preprocess from now on."""
    builds = []
    for name in ("cover_construction", "preprocess"):
        def counted(*args, _name=name, _real=getattr(bfscover, name), **kw):
            builds.append(_name)
            return _real(*args, **kw)
        monkeypatch.setattr(bfscover, name, counted)
    return builds


def test_failed_cover_build_leaves_no_cover_behind(monkeypatch):
    harness._clear_stages()
    gspec = MEMO_SPECS["grid36"]
    run_experiment(ExperimentConfig(graph=gspec, algo="bfs_cover", seeds=(0,)))
    held = harness._memo[gspec]

    def no_cover(*args):
        raise covers.CoverError("cover build failed")

    with monkeypatch.context() as mp:
        mp.setattr(bfscover, "cover_construction", no_cover)
        with pytest.raises(covers.CoverError):
            run_experiment(ExperimentConfig(graph=gspec, algo="bfs_cover", seeds=(1,)))
    # The old seed's stages went before the build; the new seed was not kept.
    assert held.seed is None and held._cover is None and held.pre is None
    builds = _count_builds(monkeypatch)
    assert run_experiment(ExperimentConfig(graph=gspec, algo="bfs_cover", seeds=(1,))).all_ok
    assert builds == ["cover_construction", "preprocess"]
    assert held.seed == 1 and held.pre.cover is held._cover


def test_failed_preprocess_leaves_nothing_behind(monkeypatch):
    harness._clear_stages()
    gspec = MEMO_SPECS["grid36"]
    run_experiment(ExperimentConfig(graph=gspec, algo="cover_only"))
    held = harness._memo[gspec]
    cover = held._cover
    real_setup = bfscover._HomeSetupProtocol.setup

    def setup_without_5(self, node):  # node 5 finds no home
        real_setup(self, node)
        if "cov2" in node.state:
            node.state["cov2"] = node.state["cov2"] - {5}

    with monkeypatch.context() as mp:
        mp.setattr(bfscover._HomeSetupProtocol, "setup", setup_without_5)
        with pytest.raises(BFSError, match="node 5 has no home"):
            run_experiment(ExperimentConfig(graph=gspec, algo="bfs_cover"))
    assert held._cover is cover and held.pre is None
    builds = _count_builds(monkeypatch)
    assert run_experiment(ExperimentConfig(graph=gspec, algo="bfs_cover")).all_ok
    assert builds == ["preprocess"] and held.pre.cover is cover


def test_memo_cover_is_frozen():
    harness._clear_stages()
    gspec = MEMO_SPECS["grid36"]
    run_experiment(ExperimentConfig(graph=gspec, algo="cover_only"))
    cover = harness._memo[gspec]._cover
    with pytest.raises(dataclasses.FrozenInstanceError):
        cover.clusters = ()


def test_record_serialization_consistency(tmp_path):
    out = tmp_path / "exp.json"
    cfg = ExperimentConfig(graph=spec("grid", 16), algo="bfs_cover",
                           trials=2, output_path=str(out))
    rec = run_experiment(cfg)
    blob = json.loads(out.read_text())
    assert blob["passed"] == rec.passed == 2
    assert blob["config"]["algo"] == "bfs_cover"
    with open(tmp_path / "exp.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == len(blob["trials"]) == 2
    for csv_row, json_row in zip(rows, blob["trials"]):
        assert int(csv_row["seed"]) == json_row["seed"]
        assert int(csv_row["rounds"]) == json_row["rounds"]
        assert int(csv_row["messages"]) == json_row["messages"]
        assert bool(int(csv_row["ok"])) == json_row["ok"]


def test_outdir_env_override(tmp_path, monkeypatch):
    override = tmp_path / "redirected"
    override.mkdir()
    monkeypatch.setenv("KT1SIM_OUTDIR", str(override))
    cfg = ExperimentConfig(graph=spec("path", 4), algo="flood_baseline",
                           output_path=str(tmp_path / "elsewhere" / "out.json"))
    run_experiment(cfg)
    assert (override / "out.json").exists()
    assert not (tmp_path / "elsewhere").exists()


# ---------------------------------------------------------------------------
# scaling studies


def test_scaling_single_size_no_flag():
    tbl = scaling_study("path", [32], "bfs_spanner", seeds=(0,))
    assert len(tbl.rows) == 1
    assert not tbl.flagged


def test_scaling_rows_and_ratios():
    tbl = scaling_study("path", [16, 32], "bfs_spanner", seeds=(0, 1))
    assert [r.n for r in tbl.rows] == [16, 32]
    for r in tbl.rows:
        assert r.diam == r.n - 1
        assert r.message_ratio is not None and r.round_ratio is not None
    assert not tbl.flagged


def test_scaling_frees_each_graph_before_the_next(monkeypatch):
    """No two specs' graphs are alive at once."""
    harness._clear_stages()
    made = []

    def generate(spec, _real=harness.generate_graph):
        assert all(ref() is None for ref in made), "a previous spec's graph is alive"
        g = _real(spec)
        made.append(weakref.ref(g))
        return g

    monkeypatch.setattr(harness, "generate_graph", generate)
    scaling_study("erdos_renyi", [24, 32], "le_rand", seeds=(0, 1))
    assert len(made) == 4


def test_scaling_rejects_unsorted():
    with pytest.raises(HarnessError):
        scaling_study("path", [64, 32], "bfs_spanner")


def test_scaling_rejects_no_seeds(capsys):
    with pytest.raises(HarnessError):
        scaling_study("path", [16], "bfs_spanner", seeds=())
    code = cli.main(["scale", "--family", "path", "--algo", "bfs_spanner",
                     "--ns", "16", "--seeds", "0"])
    assert code == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_scaling_rejects_unknown_algo_before_generating(monkeypatch):
    harness._clear_stages()

    def no_graph(spec):
        raise AssertionError("a graph was generated before the algo was checked")

    monkeypatch.setattr(harness, "generate_graph", no_graph)
    with pytest.raises(HarnessError, match="unknown algo"):
        scaling_study("path", [16], "nope")


def test_pipelines_load_no_third_party_module():
    """Every pipeline, its oracle verdict and a scaling study run on the
    standard library alone; numpy, scipy and networkx stay test-only."""
    code = (
        "import sys\n"
        "from kt1sim import harness\n"
        "for algo in harness.PIPELINES:\n"
        "    cfg = harness.ExperimentConfig(\n"
        "        graph=harness._graph_spec('erdos_renyi', 48, 0), algo=algo)\n"
        "    assert harness.run_experiment(cfg).all_ok, algo\n"
        "harness.scaling_study('erdos_renyi', [32, 64], 'global_mst', seeds=(0,))\n"
        "print(sorted(m for m in sys.modules\n"
        "             if m.split('.')[0] in ('numpy', 'scipy', 'networkx')))\n"
    )
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")
    out = subprocess.run([sys.executable, "-c", code], check=True,
                         env=dict(os.environ, PYTHONPATH=src),
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"


# ---------------------------------------------------------------------------
# CLI


def test_cli_gen_and_verify(tmp_path, capsys):
    gpath = tmp_path / "g.edges"
    assert cli.main(["gen", "--family", "grid", "--n", "16",
                     "--out", str(gpath)]) == 0
    assert "n=16" in capsys.readouterr().out

    g = make_graph("grid", 16)
    from kt1sim.gossipspanner import deterministic_bfs
    tree = deterministic_bfs(g, 1).tree
    tpath = tmp_path / "tree.json"
    tpath.write_text(bfs_tree_to_json(tree))
    assert cli.main(["verify", "--graph", str(gpath),
                     "--tree", str(tpath)]) == 0
    assert "pass" in capsys.readouterr().out


def test_cli_verify_rejects_wrong_tree(tmp_path, capsys):
    gpath = tmp_path / "g.edges"
    cli.main(["gen", "--family", "path", "--n", "4", "--out", str(gpath)])
    capsys.readouterr()
    bad = RootedTree(root=1, parent={2: 1, 3: 2, 4: 3},
                     layer={1: 0, 2: 1, 3: 2, 4: 9})
    tpath = tmp_path / "tree.json"
    tpath.write_text(bfs_tree_to_json(bad))
    assert cli.main(["verify", "--graph", str(gpath),
                     "--tree", str(tpath)]) == 1
    assert "FAIL" in capsys.readouterr().out


@pytest.mark.parametrize("text", ["not json", '{"root": 1, "parent_map": {}}',
                                  '{"root": [1], "parent_map": {}, "layers": {}}'])
def test_cli_verify_malformed_tree_exit_2(tmp_path, capsys, text):
    gpath = tmp_path / "g.edges"
    cli.main(["gen", "--family", "path", "--n", "4", "--out", str(gpath)])
    capsys.readouterr()
    tpath = tmp_path / "tree.json"
    tpath.write_text(text)
    assert cli.main(["verify", "--graph", str(gpath),
                     "--tree", str(tpath)]) == 2
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("text, says", [("a b\n", "'a'"), ("2 1\n1 x\n", "'x'"),
                                        ("3 2\n1 2\n2 3 4\n", "found 5")])
def test_cli_verify_malformed_graph_exit_2(tmp_path, capsys, text, says):
    gpath = tmp_path / "g.edges"
    gpath.write_text(text)
    tpath = tmp_path / "tree.json"
    tpath.write_text(bfs_tree_to_json(RootedTree(root=1, parent={}, layer={1: 0})))
    assert cli.main(["verify", "--graph", str(gpath),
                     "--tree", str(tpath)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(gpath) in err and says in err


@pytest.mark.parametrize("which", ["graph", "tree", "config"])
def test_cli_non_utf8_input_exit_2(tmp_path, capsys, which):
    gpath = tmp_path / "g.edges"
    cli.main(["gen", "--family", "path", "--n", "4", "--out", str(gpath)])
    tpath = tmp_path / "tree.json"
    tpath.write_text(bfs_tree_to_json(RootedTree(root=1, parent={}, layer={1: 0})))
    bad = tmp_path / "bad.bin"
    bad.write_bytes(b"\xff\xfe\x00")
    capsys.readouterr()
    if which == "config":
        argv = ["run", "--config", str(bad)]
    else:
        paths = {"graph": str(gpath), "tree": str(tpath), which: str(bad)}
        argv = ["verify", "--graph", paths["graph"], "--tree", paths["tree"]]
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(bad) in err and "UTF-8" in err


@pytest.mark.parametrize("sizes", ["16,x", ","])
def test_cli_scale_bad_sizes_usage_error(capsys, sizes):
    with pytest.raises(SystemExit) as exc:
        cli.main(["scale", "--family", "path", "--algo", "bfs_spanner",
                  "--ns", sizes])
    assert exc.value.code == 2
    assert "argument --ns" in capsys.readouterr().err


def test_cli_run_config(tmp_path, capsys):
    cfg = {"graph": {"family": "path", "n": 4}, "algo": "bfs_spanner",
           "trials": 1}
    cpath = tmp_path / "cfg.json"
    cpath.write_text(json.dumps(cfg))
    assert cli.main(["run", "--config", str(cpath)]) == 0
    out = capsys.readouterr().out
    assert "pass" in out and "1/1 trials passed" in out


def test_cli_bad_config_exit_2(tmp_path, capsys):
    cpath = tmp_path / "cfg.json"
    cpath.write_text("{\"algo\": \"nope\"}")
    assert cli.main(["run", "--config", str(cpath)]) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("bad", [{"trials": 2.5}, {"seeds": ["a"]}, {"seeds": [1.5]},
                                 {"output_path": 7},
                                 {"graph": {"family": "path", "n": 4.5}},
                                 {"graph": {"family": "path", "n": True}},
                                 {"graph": {"family": "path", "n": 4, "seed": 1.5}},
                                 {"graph": {"family": "path", "n": 4, "seed": "a"}},
                                 {"graph": {"family": "erdos_renyi", "n": 4, "p": True}}],
                         ids=["trials-float", "seed-str", "seed-float", "output_path-int",
                              "graph-n-float", "graph-n-bool", "graph-seed-float",
                              "graph-seed-str", "graph-p-bool"])
def test_cli_bad_config_value_exit_2(tmp_path, capsys, bad):
    cpath = tmp_path / "cfg.json"
    cpath.write_text(json.dumps({"graph": {"family": "path", "n": 4},
                                 "algo": "bfs_cover", **bad}))
    assert cli.main(["run", "--config", str(cpath)]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_cli_scale(tmp_path, capsys):
    out = tmp_path / "scale.csv"
    code = cli.main(["scale", "--family", "path", "--algo", "bfs_spanner",
                     "--ns", "16,32", "--seeds", "1", "--out", str(out)])
    assert code == 0
    assert out.exists()
    text = capsys.readouterr().out
    assert "n=16" in text and "n=32" in text
    with open(out) as fh:
        rows = list(csv.DictReader(fh))
    assert [int(r["n"]) for r in rows] == [16, 32]
