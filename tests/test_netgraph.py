from __future__ import annotations

import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kt1sim.netgraph import (
    FAMILIES,
    Graph,
    GraphError,
    GraphGenSpec,
    canonical_edge,
    diameter,
    er_connectivity_safe_p,
    generate_graph,
    oracle_ball,
    oracle_bfs,
    read_edge_list,
    write_edge_list,
)


def _spec(family, n, **kw):
    return GraphGenSpec(family=family, n=n, **kw)


def test_path_n1_is_single_node():
    g = generate_graph(_spec("path", 1))
    assert g.n == 1 and g.m == 0
    assert g.nodes == (1,)


def test_complete_4_regular():
    g = generate_graph(_spec("complete", 4))
    assert g.m == 6
    assert all(g.degree(v) == 3 for v in g.nodes)


def test_er_256_regression_edge_count():
    # Graph construction itself proves connectivity; m is frozen from the
    # first generator run.
    g = generate_graph(_spec("erdos_renyi", 256, p=0.05, seed=7))
    assert g.m == 1647


def test_generator_deterministic_per_seed():
    a = generate_graph(_spec("erdos_renyi", 64, p=0.1, seed=11))
    b = generate_graph(_spec("erdos_renyi", 64, p=0.1, seed=11))
    c = generate_graph(_spec("erdos_renyi", 64, p=0.1, seed=12))
    assert a.adjacency == b.adjacency
    assert a.adjacency != c.adjacency


def test_random_permutation_ids_stay_in_polynomial_space():
    g = generate_graph(_spec("cycle", 30, id_scheme="random_permutation", seed=4))
    assert len(set(g.nodes)) == 30
    assert all(1 <= v <= 30**3 for v in g.nodes)


def test_bad_specs_rejected():
    with pytest.raises(GraphError):
        GraphGenSpec(family="hypercube", n=8)
    with pytest.raises(GraphError):
        GraphGenSpec(family="path", n=0)
    with pytest.raises(GraphError):
        GraphGenSpec(family="erdos_renyi", n=8)  # missing p
    with pytest.raises(GraphError):
        GraphGenSpec(family="path", n=8, p=0.5)


def test_graph_rejects_asymmetric_adjacency():
    with pytest.raises(GraphError, match=r"^asymmetric edge \(1,2\)$"):
        Graph(adjacency={1: (2,), 2: ()})


@pytest.mark.parametrize("adj, says", [
    ({1: (2, 3), 2: (1,), 3: ()}, "asymmetric edge (1,3)"),
    ({2: (1, 3), 1: (2,), 3: (1,)}, "asymmetric edge (2,3)"),
    ({1: (2, 3), 2: (1,), 3: (1, 3)}, "self loop at 3"),
    ({1: (2, 9), 2: (1,), 3: ()}, "edge (1,9) points outside the node set"),
])
def test_graph_reports_first_adjacency_defect(adj, says):
    with pytest.raises(GraphError) as exc:
        Graph(adjacency=adj)
    assert str(exc.value) == says


def test_oracle_bfs_path():
    g = generate_graph(_spec("path", 3))
    assert oracle_bfs(g, 1).dist == {1: 0, 2: 1, 3: 2}


def test_oracle_bfs_star_center():
    g = generate_graph(_spec("star", 5))
    d = oracle_bfs(g, 1).dist
    assert d[1] == 0
    assert all(d[v] == 1 for v in g.nodes if v != 1)


def test_oracle_bfs_unknown_root():
    g = generate_graph(_spec("path", 3))
    with pytest.raises(GraphError):
        oracle_bfs(g, 99)


def test_oracle_bfs_vs_matrix_powers():
    # Second, independent oracle: boolean adjacency powers.
    g = generate_graph(_spec("erdos_renyi", 128, p=0.06, seed=3))
    nodes = sorted(g.adjacency)
    pos = {v: i for i, v in enumerate(nodes)}
    a = np.zeros((len(nodes), len(nodes)), dtype=bool)
    for v in nodes:
        for u in g.adjacency[v]:
            a[pos[v], pos[u]] = True
    root = nodes[0]
    reach = np.eye(len(nodes), dtype=bool)[pos[root]]
    dmap = {root: 0}
    frontier = reach.copy()
    d = 0
    while len(dmap) < len(nodes):
        d += 1
        frontier = frontier @ a
        newly = frontier & ~reach
        for i in np.nonzero(newly)[0]:
            dmap[nodes[i]] = d
        reach |= frontier
    assert dmap == oracle_bfs(g, root).dist


def test_oracle_ball():
    g = generate_graph(_spec("path", 5))
    assert oracle_ball(g, 3, 1) == frozenset({2, 3, 4})
    assert oracle_ball(g, 1, 0) == frozenset({1})


def test_diameter_examples():
    assert diameter(generate_graph(_spec("path", 1))) == 0
    assert diameter(generate_graph(_spec("cycle", 6))) == 3
    assert diameter(generate_graph(_spec("grid", 64))) == 14  # 8x8: 7+7


def test_edge_list_roundtrip(tmp_path):
    g = generate_graph(_spec("grid", 20, id_scheme="random_permutation", seed=9))
    path = tmp_path / "g.txt"
    write_edge_list(g, str(path))
    back = read_edge_list(str(path))
    assert back.adjacency == g.adjacency


def test_edge_list_reader_rejects_garbage(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("2 1\n1 1\n")
    with pytest.raises(GraphError):
        read_edge_list(str(path))


def test_canonical_edge():
    assert canonical_edge(9, 2) == (2, 9)
    assert canonical_edge(2, 9) == (2, 9)


@settings(max_examples=40, deadline=None)
@given(
    family=st.sampled_from([f for f in FAMILIES if f != "erdos_renyi"]),
    n=st.integers(min_value=3, max_value=40),
    seed=st.integers(min_value=0, max_value=2**32),
    scheme=st.sampled_from(("sequential", "random_permutation")),
)
def test_generated_graphs_are_sound(family, n, seed, scheme):
    g = generate_graph(_spec(family, n, seed=seed, id_scheme=scheme))
    assert g.n == n
    for v, ns in g.adjacency.items():
        assert ns == tuple(sorted(ns))
        for u in ns:
            assert v in g.adjacency[u] and u != v
    root = min(g.nodes)
    d = oracle_bfs(g, root).dist
    for v, ns in g.adjacency.items():
        for u in ns:
            assert abs(d[v] - d[u]) <= 1  # edge-Lipschitz


@settings(max_examples=15, deadline=None)
@given(n=st.integers(min_value=2, max_value=64), seed=st.integers(0, 1000))
def test_er_safe_p_always_connects(n, seed):
    g = generate_graph(_spec("erdos_renyi", n, p=er_connectivity_safe_p(n), seed=seed))
    assert g.n == n  # construction would have raised if disconnected


def test_diameter_matches_all_roots_sweep():
    g = generate_graph(_spec("erdos_renyi", 48, p=0.12, seed=2))
    want = max(max(oracle_bfs(g, r).dist.values()) for r in g.nodes)
    assert diameter(g) == want


@settings(max_examples=150, deadline=None)
@given(
    family=st.sampled_from(FAMILIES),
    n=st.integers(min_value=1, max_value=64),
    seed=st.integers(min_value=0, max_value=2**32),
    scheme=st.sampled_from(("sequential", "random_permutation")),
)
def test_diameter_matches_all_roots_sweep_every_family(family, n, seed, scheme):
    if family == "cycle":
        n = max(n, 3)
    p = er_connectivity_safe_p(n) if family == "erdos_renyi" else None
    g = generate_graph(_spec(family, n, seed=seed, id_scheme=scheme, p=p))
    want = max(oracle_bfs(g, r).eccentricity() for r in g.nodes)
    assert diameter(g) == want


@pytest.mark.parametrize("family,n", [
    ("erdos_renyi", 1024),
    ("grid", 1024),
    ("path", 1000),
    ("cycle", 600),
    ("balanced_binary_tree", 1023),
    ("star", 600),
])
def test_diameter_matches_dense_all_pairs(family, n):
    # Independent route: scipy's all-pairs shortest paths on an n x n matrix.
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import shortest_path

    p = er_connectivity_safe_p(n) if family == "erdos_renyi" else None
    g = generate_graph(_spec(family, n, seed=1, id_scheme="random_permutation", p=p))
    pos = {v: i for i, v in enumerate(g.nodes)}
    rows = [pos[v] for v in g.nodes for _ in g.adjacency[v]]
    cols = [pos[u] for v in g.nodes for u in g.adjacency[v]]
    mat = csr_matrix((np.ones(len(rows), dtype=np.int8), (rows, cols)), shape=(n, n))
    want = int(shortest_path(mat, unweighted=True, directed=False).max())
    assert diameter(g) == want


def test_scaling_study_loads_neither_numpy_nor_scipy():
    code = (
        "import sys\n"
        "from kt1sim.harness import scaling_study\n"
        "scaling_study('erdos_renyi', [600], 'flood_baseline', seeds=(0,))\n"
        "print(sorted(m for m in sys.modules\n"
        "             if m.split('.')[0] in ('numpy', 'scipy')))\n"
    )
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")
    out = subprocess.run([sys.executable, "-c", code], check=True,
                         env=dict(os.environ, PYTHONPATH=src),
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"
