"""Tests for the experiment harness, baselines, scaling tables, and CLI."""

import csv
import json
import math
import os

import pytest

from kt1sim.clustercomm import RootedTree, bfs_tree_to_json
from kt1sim.harness import (
    ALGOS,
    ExperimentConfig,
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
from kt1sim import cli


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


def test_message_ratio_and_denominator():
    n = 256
    L = log2ceil(n)
    assert message_ratio("bfs_cover", n, n * L**3) == pytest.approx(1.0)
    assert message_ratio("le_rand", n, 2 * n * L**4) == pytest.approx(2.0)
    assert message_ratio("flood_baseline", n, 12345) is None
    assert round_denominator("bfs_cover", n, 10) == 10 * L + L**3
    assert round_denominator("bfs_spanner", n, 10) == 10 * L + L**2
    assert round_denominator("le_det", n, 10) == 10 * L**2 + L**2
    assert round_denominator("global_mst", n, 10) is None


# ---------------------------------------------------------------------------
# configs


def test_config_validation():
    good = ExperimentConfig(graph=spec("path", 4), algo="bfs_spanner")
    assert good.trial_seeds == (0,)
    with pytest.raises(HarnessError):
        ExperimentConfig(graph=spec("path", 4), algo="quantum_bfs")
    with pytest.raises(HarnessError):
        ExperimentConfig(graph=spec("path", 4), algo="bfs_cover", trials=0)
    with pytest.raises(HarnessError):
        ExperimentConfig(graph=spec("path", 4), algo="bfs_cover",
                         trials=3, seeds=(1, 2))


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
