from __future__ import annotations

import hashlib
import math
import os
import random
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kt1sim import harness
from kt1sim.netgraph import (
    ER_RETRY_BUDGET,
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
from kt1sim.netgraph import _er_draw, _positions, _structural_adjacency


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


# The per-pair G(n, p) loop the bulk draw replaced: the independent reference
# for the edges it returns and the rng state it leaves.
def _per_pair_draw(n, p, rng):
    return [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p]


def _reference_er_edges(n, p, rng):
    """Per-pair draws until one is connected (checked by union-find)."""
    for _ in range(ER_RETRY_BUDGET):
        edges = _per_pair_draw(n, p, rng)
        root = list(range(n))

        def find(x):
            while root[x] != x:
                x = root[x]
            return x

        for u, v in edges:
            root[find(u)] = find(v)
        if len({find(v) for v in range(n)}) == 1:
            return edges
    raise AssertionError("reference found no connected draw")


def _p_with_bound_byte(byte):
    """A p whose edge threshold ceil(p * 2^53) has top byte `byte` and is not
    a multiple of 2^45, so pairs on that byte need the exact test."""
    p = (byte * 2 ** 45 + 2 ** 44 + 1) / 2 ** 53
    assert (math.ceil(p * 2 ** 53) - 1) >> 45 == byte
    return p


# Bound bytes 0x2d, 0x5c, 0x5d and 0x5e are "-", "\\", "]" and "^": special
# inside a regex byte class, so a filter built from that byte's text breaks.
_BOUND_BYTE_PS = [_p_with_bound_byte(b) for b in (0x2D, 0x5C, 0x5D, 0x5E)]


@pytest.mark.parametrize("n", [1, 2, 3, 64, 300])
@pytest.mark.parametrize("p", [1.0, 0.5, 1e-300, 5e-324, "safe", *_BOUND_BYTE_PS])
def test_bulk_er_draw_equals_per_pair_draw(n, p):
    if p == "safe":
        p = er_connectivity_safe_p(n)
    for seed in (0, 1, 2, 12345):
        bulk, ref = random.Random(seed), random.Random(seed)
        # Dict equality ignores key order; the item lists do not.
        got, want = _er_draw(n, p, bulk), _positions(n, _per_pair_draw(n, p, ref))
        assert list(got.items()) == list(want.items())
        assert bulk.getstate() == ref.getstate()
        # So the ids drawn next are the same too.
        assert bulk.sample(range(1, n ** 3 + 1), n) == ref.sample(range(1, n ** 3 + 1), n)


@pytest.mark.parametrize("seed", [1, 2, 4])
def test_er_retry_path_equals_reference(seed):
    n, p = 40, 0.08
    first = _per_pair_draw(n, p, random.Random(seed))
    with pytest.raises(GraphError, match="not connected"):
        Graph.from_edges(range(1, n + 1), [(u + 1, v + 1) for u, v in first])
    spec = _spec("erdos_renyi", n, p=p, seed=seed, id_scheme="random_permutation")
    got, want = random.Random(seed), random.Random(seed)
    edges = _reference_er_edges(n, p, want)
    adj = _structural_adjacency(spec, got)
    assert sorted((u, v) for u, nbrs in adj.items() for v in nbrs if u < v) == edges
    assert all(u in adj[v] for u, nbrs in adj.items() for v in nbrs)
    assert got.getstate() == want.getstate()
    ids = want.sample(range(1, n ** 3 + 1), n)
    ref = Graph.from_edges(ids, [(ids[u], ids[v]) for u, v in edges])
    assert generate_graph(spec).adjacency == ref.adjacency


def test_er_unconnectable_spec_raises_after_budget():
    spec = _spec("erdos_renyi", 30, p=5e-324, seed=3)
    with pytest.raises(GraphError) as exc:
        generate_graph(spec)
    assert str(exc.value) == "no connected G(30,5e-324) draw within 100 attempts"
    # The failed attempts consume exactly the per-pair loop's draws.
    got, want = random.Random(3), random.Random(3)
    with pytest.raises(GraphError):
        _structural_adjacency(spec, got)
    for _ in range(ER_RETRY_BUDGET):
        _per_pair_draw(30, 5e-324, want)
    assert got.getstate() == want.getstate()


# sha256 of repr(sorted(adjacency.items())) for the benchmark's ER inputs
# (harness._graph_spec), recorded with the per-pair generator; rows run to
# 2047 pairs, longer than any golden trace's.
_BENCH_GRAPH_SHA256 = {
    (256, 0): "f70f2f3c6d75cb003ca744278e87c273a61847770b60d1866034fd8272a22572",
    (256, 1): "560d4a918bec42d27fb04dd6e2b7b095f96d503573f6ff4f7b116d6c6b798afc",
    (256, 2): "3a6ec9b5be4117b457f85bc9c83f0469c1e743fdd4ee390f027ff3c3164abb1b",
    (768, 0): "978f6f6f209b64f44721fcecab7d538a03d789c3fd2c67d19ddfc6f647823d62",
    (768, 1): "452513896ac6f4ca7fca57af403ba5209d61b777419efbaa3dc944324a1d9eb3",
    (768, 2): "3b16ea222ca0f20303d4f24fd2264c9710db37b9790ea8b7b964f931cf2806ee",
    (2048, 0): "7878a15f3d7a58e8c535f5f62c6bce58c1f2c2509349f0ce44c8ef29d917695b",
    (2048, 1): "ce18cee639460b3897654dca848b88c72633bc5acf0b848f6240c8b246e9276b",
    (2048, 2): "dbda4c6216f9c6c48812de7f96461562bc96ff947e356af9bf1ccca8707f7932",
}


@pytest.mark.parametrize("n,seed", sorted(_BENCH_GRAPH_SHA256))
def test_bench_er_graphs_pinned(n, seed):
    g = generate_graph(harness._graph_spec("erdos_renyi", n, seed))
    blob = repr(sorted(g.adjacency.items())).encode()
    assert hashlib.sha256(blob).hexdigest() == _BENCH_GRAPH_SHA256[n, seed]


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
    for n in (1, 2):
        with pytest.raises(GraphError, match="cycle needs n >= 3"):
            GraphGenSpec(family="cycle", n=n)


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


@pytest.mark.parametrize("adj, says", [
    ({True: (2,), 2: (True,)}, "node id True outside [1, n^3] for n=2"),
    ({1: (2,), 2: (True,)}, "edge (2,True) points outside the node set"),
    ({1: (2,), 2: (1.0,)}, "edge (2,1.0) points outside the node set"),
])
def test_graph_takes_only_int_node_ids(adj, says):
    """True == 1 and 1.0 == 1, and both hash alike, so only the type tells
    them apart from node 1."""
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


@pytest.mark.parametrize("root", [1.0, True, "a"])
def test_oracle_bfs_root_must_be_an_int_node_id(root):
    """1.0 and True equal node 1 and hash alike, but are no node id."""
    g = generate_graph(_spec("path", 3))
    with pytest.raises(GraphError, match=f"^root {root!r} not in graph$"):
        oracle_bfs(g, root)


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


@pytest.mark.parametrize("scheme", ("sequential", "random_permutation"))
@pytest.mark.parametrize("family,n,seeds", [
    *[(f, n, (0, 1)) for f in FAMILIES if f != "erdos_renyi" for n in (1, 3, 17, 64)
      if not (f == "cycle" and n < 3)],
    ("erdos_renyi", 1, (0,)),
    ("erdos_renyi", 40, (0, 1, 2, 3, 4)),
    ("erdos_renyi", 256, (10, 11, 12)),
])
def test_generated_graph_passes_full_validation(family, n, seeds, scheme):
    """generate_graph skips Graph's checks; every graph it makes must pass
    them, with the same n and m."""
    for seed in seeds:
        p = er_connectivity_safe_p(n) if family == "erdos_renyi" else None
        g = generate_graph(_spec(family, n, seed=seed, id_scheme=scheme, p=p))
        checked = Graph(dict(g.adjacency))
        assert (checked.n, checked.m) == (g.n, g.m) == (n, len(g.edges()))
        assert checked == g


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
    want = max(max(oracle_bfs(g, r).dist.values()) for r in g.nodes)
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
