"""Acceptance suite: one test per criterion, one printed verdict line each.

These are the gate tests for the whole package.  Each test prints a single
``[criterion N] PASS/FAIL`` line through the capture bypass so the verdicts
are visible in normal pytest output, then asserts the same condition.

Frozen calibration constants (shared with the per-module tests):
  - cover sparsity   c_s = 1.0   (test_covers.SPARSITY_CONST)
  - det. election    c   = 4     (test_gossipspanner budget test)
"""

import hashlib
import math
import time

import pytest

from kt1sim.bfscover import (
    bfs_construction,
    bfs_tree_to_json,
    election_to_json,
    randomized_leader_election,
)
from kt1sim.covers import (
    CoverParams,
    cover_construction,
    cover_to_json,
    sparsity_bound,
    verify_cover,
)
from kt1sim.gossipspanner import (
    _ElectProtocol,
    _FloodCollectProtocol,
    _GlobalSolveProtocol,
    _GossipProtocol,
    deterministic_bfs,
    deterministic_leader_election,
    extract_spanner,
    gossip_local_broadcast,
    solve_global,
    spanner_stretch_violations,
)
from kt1sim.harness import (
    ExperimentConfig,
    flood_baseline_bfs,
    log2ceil,
    oracle_mst,
    run_experiment,
    scaling_study,
)
from kt1sim.netgraph import (
    GraphGenSpec,
    er_connectivity_safe_p,
    generate_graph,
    oracle_bfs,
)
from kt1sim.simengine import ModeConfig, gossip_check, run, run_digest

# Minutes of work: `pytest -m "not slow"` leaves the whole gate out.
pytestmark = pytest.mark.slow

SPARSITY_CONST = 1.0      # frozen; see test_covers.py
ELECTION_CONST = 4        # frozen; see test_gossipspanner.py


def announce(capsys, text):
    with capsys.disabled():
        print(text, flush=True)


def gspec(family, n, seed=0, id_scheme="sequential"):
    p = er_connectivity_safe_p(n) if family == "erdos_renyi" else None
    return GraphGenSpec(family=family, n=n, seed=seed, p=p, id_scheme=id_scheme)


def make(family, n, seed=0, id_scheme="sequential"):
    return generate_graph(gspec(family, n, seed, id_scheme))


# ---------------------------------------------------------------------------
# Shared 200-graph corpus: both BFS algorithms on every graph (criteria 1+2).
# ---------------------------------------------------------------------------


def _corpus_specs():
    specs = []

    def add(fam, n, seed=None, scheme=None):
        k = len(specs)
        specs.append(gspec(fam, n,
                           seed=k if seed is None else seed,
                           id_scheme=scheme or ("random_permutation" if k % 3 == 0
                                                else "sequential")))

    for n in (4, 6, 9, 12, 16, 20, 25, 32, 40, 48):
        for fam in ("path", "cycle", "star", "complete"):
            add(fam, n)                                            # 40
    for n in (16, 25, 36, 49, 64, 81, 100, 121, 144, 169, 196, 225):
        add("grid", n)                                             # 52
    for s in range(30):
        add("erdos_renyi", 24 + 4 * s, seed=s)                     # 82
    for s in range(30):
        add("erdos_renyi", 8 + 2 * s, seed=100 + s)                # 112
    for n in (160, 192, 224, 256, 256, 320, 384, 448, 512, 512):
        add("erdos_renyi", n)                                      # 122
    for fam, ns in (("path", (100, 200, 400)), ("cycle", (100, 200, 400)),
                    ("star", (65, 129, 257)), ("complete", (64, 96, 128))):
        for n in ns:
            add(fam, n)                                            # 134
    for n in (256, 324, 400, 484, 576):
        add("grid", n)                                             # 139
    for s in range(10):
        add("erdos_renyi", 96, seed=200 + s)
        add("erdos_renyi", 128, seed=300 + s)                      # 159
    while len(specs) < 192:
        add("erdos_renyi", 20 + (len(specs) % 50), seed=400 + len(specs))
    for fam, n in (("path", 1000), ("cycle", 1024), ("star", 1025),
                   ("grid", 729), ("grid", 1024),
                   ("erdos_renyi", 729), ("erdos_renyi", 1024)):
        add(fam, n)                                                # 199
    add("erdos_renyi", 4096, seed=77)                              # 200
    assert len(specs) == 200
    return specs


@pytest.fixture(scope="module")
def bfs_corpus():
    t0 = time.perf_counter()
    layer_failures = []
    receipt_failures = []
    runs = 0
    for idx, gs in enumerate(_corpus_specs()):
        g = generate_graph(gs)
        root = min(g.nodes) if idx % 2 == 0 else max(g.nodes)
        dist = oracle_bfs(g, root).dist
        label = f"{gs.family}-{gs.n}/seed{gs.seed}"

        res = bfs_construction(g, root, seed=idx)
        if res.tree.layer != dist:
            layer_failures.append(f"bfs_cover {label}")
        nonroots = set(g.nodes) - {root}
        if (set(res.grow_receipts) != nonroots
                or any(c != 1 for c in res.grow_receipts.values())):
            receipt_failures.append(label)

        det = deterministic_bfs(g, root)
        if det.tree.layer != dist:
            layer_failures.append(f"bfs_spanner {label}")
        runs += 1
    return {
        "runs": runs,
        "elapsed": time.perf_counter() - t0,
        "layer_failures": layer_failures,
        "receipt_failures": receipt_failures,
    }


def test_criterion_1_bfs_exactness(bfs_corpus, capsys):
    c = bfs_corpus
    ok = not c["layer_failures"] and c["elapsed"] < 600.0
    announce(capsys,
             f"[criterion 1] {'PASS' if ok else 'FAIL'}: "
             f"{c['runs']}/200 graphs, both BFS algorithms exact "
             f"({2 * c['runs'] - len(c['layer_failures'])}/{2 * c['runs']} runs), "
             f"{c['elapsed']:.1f}s < 600s")
    assert not c["layer_failures"], c["layer_failures"][:5]
    assert c["elapsed"] < 600.0


def test_criterion_2_one_join(bfs_corpus, capsys):
    c = bfs_corpus
    ok = not c["receipt_failures"]
    announce(capsys,
             f"[criterion 2] {'PASS' if ok else 'FAIL'}: exactly one exploration "
             f"join per non-root in {c['runs'] - len(c['receipt_failures'])}"
             f"/{c['runs']} tree-growth runs")
    assert ok, c["receipt_failures"][:5]


def test_criterion_3_cover_properties(capsys):
    depth_bad = []
    memb_bad = []
    nb_ok = 0
    total = 0
    for n in (256, 1024):
        kappa = 2 * log2ceil(n)
        limit = sparsity_bound(n, kappa, SPARSITY_CONST)
        for s in range(50):
            g = make("erdos_renyi", n, seed=1000 + s)
            cov = cover_construction(g, CoverParams(kappa=kappa, W=2, seed=s))
            rep = verify_cover(cov, g)
            total += 1
            if rep.max_depth > 2 * kappa * 2:
                depth_bad.append((n, s, rep.max_depth))
            if rep.neighborhood_ok:
                nb_ok += 1
            if rep.max_membership > limit:
                memb_bad.append((n, s, rep.max_membership))
    ok = not depth_bad and nb_ok >= total - 1 and not memb_bad
    announce(capsys,
             f"[criterion 3] {'PASS' if ok else 'FAIL'}: {total} covers "
             f"(n∈{{256,1024}}, κ=2⌈log₂n⌉, W=2) — depth ≤ 2κW in all, "
             f"neighborhood {nb_ok}/{total} (≥ {total - 1}), "
             f"membership ≤ {SPARSITY_CONST}·κ·n^(1/κ)·ln n in all")
    assert not depth_bad, depth_bad
    assert nb_ok >= total - 1
    assert not memb_bad, memb_bad


def test_criterion_4_gossip_spanner_suite(capsys):
    pool = [gspec("erdos_renyi", 64, seed=0), gspec("erdos_renyi", 64, seed=1),
            gspec("erdos_renyi", 128, seed=2, id_scheme="random_permutation"),
            gspec("erdos_renyi", 256, seed=3), gspec("erdos_renyi", 512, seed=4),
            gspec("erdos_renyi", 1024, seed=5),
            gspec("grid", 256), gspec("grid", 1024),
            gspec("complete", 64), gspec("complete", 512),
            gspec("cycle", 200), gspec("star", 257),
            gspec("path", 129, id_scheme="random_permutation")]
    problems = []
    for gs in pool:
        g = generate_graph(gs)
        label = f"{gs.family}-{gs.n}"
        L = log2ceil(g.n)
        res = gossip_local_broadcast(g, record_trace=True)
        chk = gossip_check(res.raw.trace)
        if not chk.ok:
            problems.append(f"{label}: gossip audit {chk.violations[:2]}")
        if res.iterations > 4 * L + 4:
            problems.append(f"{label}: iterations {res.iterations} > {4 * L + 4}")
        sp = extract_spanner(g, res)
        if sp.size > 2 * g.n * L:
            problems.append(f"{label}: |E(H)|={sp.size} > {2 * g.n * L}")
        viol = spanner_stretch_violations(g, sp)
        if viol:
            problems.append(f"{label}: {len(viol)} stretch violations at 4I")
        for v in g.nodes:
            origins = {o for o, _ in res.known[v]}
            if not origins >= set(g.adjacency[v]) | {v}:
                problems.append(f"{label}: node {v} missing neighbor rumors")
                break
    ok = not problems
    announce(capsys,
             f"[criterion 4] {'PASS' if ok else 'FAIL'}: {len(pool)} graphs — "
             f"gossip audit clean, I ≤ 4⌈log₂n⌉+4, |E(H)| ≤ 2n⌈log₂n⌉, "
             f"edge stretch ≤ 4I, 1-local completeness")
    assert ok, problems


def test_criterion_5_scaling_regressions(capsys):
    flagged = []
    details = []
    for fam in ("erdos_renyi", "grid"):
        for algo in ("bfs_cover", "bfs_spanner", "le_rand", "le_det"):
            tbl = scaling_study(fam, [128, 4096], algo, seeds=(0,))
            first, last = tbl.rows[0], tbl.rows[-1]
            mg = last.message_ratio / first.message_ratio
            rg = last.round_ratio / first.round_ratio
            details.append(f"{fam}/{algo} msg×{mg:.2f} rnd×{rg:.2f}")
            if tbl.flagged:
                flagged.append(f"{fam}/{algo}")
    ok = not flagged
    announce(capsys,
             f"[criterion 5] {'PASS' if ok else 'FAIL'}: n=128→4096 normalized "
             f"growth ≤ 2x on all 8 family/algorithm pairs "
             f"({'; '.join(details)})")
    assert ok, flagged


def test_criterion_6_flooding_savings(capsys):
    g = make("complete", 512)
    m = g.m
    assert m == 130816
    det = deterministic_bfs(g, 1)
    _, fl = flood_baseline_bfs(g, 1)
    ok = det.metrics.messages_total < m // 4 and fl.messages_total == 2 * m
    announce(capsys,
             f"[criterion 6] {'PASS' if ok else 'FAIL'}: K512 (m={m}) — "
             f"spanner-route BFS {det.metrics.messages_total} msgs < m/4 = {m // 4}; "
             f"flooding {fl.messages_total} = 2m")
    assert det.metrics.messages_total < m // 4
    assert fl.messages_total == 2 * m


def test_criterion_7_leader_election(capsys):
    cfg = ExperimentConfig(
        graph=GraphGenSpec(family="erdos_renyi", n=256, p=0.05),
        algo="le_rand", trials=100)
    rec = run_experiment(cfg)

    det_pool = [("erdos_renyi", 256, 3), ("erdos_renyi", 512, 4),
                ("grid", 256, 0), ("grid", 64, 0), ("complete", 128, 0),
                ("cycle", 100, 0), ("star", 129, 0), ("path", 64, 0)]
    det_bad = []
    for fam, n, s in det_pool:
        g = make(fam, n, seed=s)
        go = gossip_local_broadcast(g)
        sp = extract_spanner(g, go)
        det = deterministic_leader_election(g, spanner=sp)
        budget = ELECTION_CONST * sp.size * log2ceil(g.n)
        if not det.unanimous or det.leader != max(g.nodes):
            det_bad.append(f"{fam}-{n}: wrong/split leader")
        elif det.metrics.messages_total > budget:
            det_bad.append(f"{fam}-{n}: {det.metrics.messages_total} > {budget}")
    ok = rec.passed >= 95 and not det_bad
    announce(capsys,
             f"[criterion 7] {'PASS' if ok else 'FAIL'}: randomized "
             f"{rec.passed}/100 unanimous max-candidate (≥ 95); deterministic "
             f"{len(det_pool) - len(det_bad)}/{len(det_pool)} unanimous max-id "
             f"within {ELECTION_CONST}·|E(H)|·⌈log₂n⌉ messages")
    assert rec.passed >= 95
    assert not det_bad, det_bad


def test_criterion_8_determinism(capsys):
    g = make("erdos_renyi", 96, seed=9)
    root = min(g.nodes)
    gossip = gossip_local_broadcast(g)
    sp = extract_spanner(g, gossip)
    tree = deterministic_bfs(g, root, spanner=sp).tree
    proto_cfgs = {
        "gossip": (lambda: _GossipProtocol(g.n),
                   ModeConfig(gossip_mode=True, allow_quiescence=True,
                              max_rounds=_GossipProtocol(g.n).starts[-1] + 2)),
        "bfs-on-H": (lambda: _FloodCollectProtocol(root, sp.incident),
                     ModeConfig(max_rounds=8 * g.n + 20)),
        "det-election": (lambda: _ElectProtocol(sp.incident, g.n),
                         ModeConfig(max_rounds=_ElectProtocol(sp.incident, g.n)
                                    .starts[-1] + 8 * g.n + 20)),
        "global-mst": (lambda: _GlobalSolveProtocol(tree, "mst"),
                       ModeConfig(max_rounds=4 * g.n + 20)),
    }
    bad = []
    for name, (factory, cfg) in proto_cfgs.items():
        digests = {run_digest(g, factory, cfg) for _ in range(3)}
        if len(digests) != 1 or len(next(iter(digests))) != 32:
            bad.append(f"{name}: {digests}")
    spanners = {extract_spanner(g, gossip_local_broadcast(g)).edges
                for _ in range(3)}
    if len(spanners) != 1:
        bad.append("spanner edge sets differ across repeats")

    def h(text):
        return hashlib.blake2b(text.encode(), digest_size=16).hexdigest()

    rand_hashes = {
        "bfs_cover": {h(bfs_tree_to_json(bfs_construction(g, root, seed=5).tree))
                      for _ in range(3)},
        "le_rand": {h(election_to_json(randomized_leader_election(g, seed=7)))
                    for _ in range(3)},
        "cover": {h(cover_to_json(cover_construction(
                      g, CoverParams(kappa=7, W=2, seed=3))))
                  for _ in range(3)},
    }
    for name, hashes in rand_hashes.items():
        if len(hashes) != 1:
            bad.append(f"{name}: same-seed hashes differ")
    ok = not bad
    announce(capsys,
             f"[criterion 8] {'PASS' if ok else 'FAIL'}: 3x identical trace "
             f"digests for {len(proto_cfgs)} deterministic pipelines + spanner; "
             f"same-seed output hashes identical for "
             f"{len(rand_hashes)} randomized pipelines")
    assert ok, bad


def test_criterion_9_global_mst(capsys):
    pool = []
    for s in range(14):
        pool.append(gspec("erdos_renyi", 24 + 16 * s, seed=500 + s))
    for n in (9, 16, 25, 36, 64, 100, 144, 196, 256):
        pool.append(gspec("grid", n, seed=0))
    for fam in ("path", "cycle", "star", "complete"):
        for n in (8, 33, 50, 101, 128, 200):
            pool.append(gspec(fam, n, seed=1))
    pool = pool[:47] + [gspec("erdos_renyi", 512, seed=900),
                        gspec("grid", 400, seed=0),
                        gspec("complete", 256, seed=0)]
    assert len(pool) == 50
    bad = []
    for gs in pool:
        g = generate_graph(gs)
        label = f"{gs.family}-{gs.n}"
        tree = deterministic_bfs(g, min(g.nodes)).tree
        proto = _GlobalSolveProtocol(tree, "mst")
        rr = run(g, proto, ModeConfig(max_rounds=4 * g.n + 20, record_trace=True))
        solution = tuple(rr.contexts[tree.root].state["solution"])
        if solution != oracle_mst(g):
            bad.append(f"{label}: solution != oracle")
        ups = sum(1 for e in rr.trace if e.payload[0] == "up")
        downs = sum(1 for e in rr.trace if e.payload[0] == "dn")
        if ups > g.n - 1 or downs > g.n - 1:
            bad.append(f"{label}: up={ups} down={downs} exceeds n-1")
        if rr.metrics.messages_total != ups + downs:
            bad.append(f"{label}: stray non-tree messages")
    ok = not bad
    announce(capsys,
             f"[criterion 9] {'PASS' if ok else 'FAIL'}: 50 graphs — pipeline "
             f"MST equals centralized oracle; ≤ n-1 convergecast and "
             f"≤ n-1 broadcast messages each")
    assert ok, bad
