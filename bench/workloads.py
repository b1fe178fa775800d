"""The benchmark's workloads and one verified pass over each.

A pass calls only the entry points a user calls: ``harness.run_experiment``
for one trial of each listed algorithm, or ``harness.scaling_study``.  Every
trial is judged by the harness oracle verdict and digested; the digest
covers what the simulation produced (rounds, messages by category and the
trial's ``extra`` record), so any change in simulated output shows.
"""

from __future__ import annotations

import sys
import time
import traceback
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Tuple

from kt1sim import harness
from reference import HostGauge
from tracer import Tracer, digest

# Oracle-side dependencies that kt1sim imports lazily; setup_s imports the
# ones a pass actually loaded.
ORACLE_MODULES = ("numpy", "scipy.sparse.csgraph", "networkx")


@dataclass(frozen=True)
class Workload:
    name: str
    family: str
    ns: Tuple[int, ...]
    algos: Tuple[str, ...]
    scaling: bool = False

    def tiny(self) -> "Workload":
        """The same pipeline at n <= 64, for the self-tests."""
        return replace(self, ns=(16, 32, 64) if self.scaling else (48,))


# Sizes are chosen so one pass takes 1-4 s on a 2-core x86 host, which lets
# a 30 s run take the median of 3 to 14 passes on as many inputs; each size
# still shows the split its rationale names (see bench/RATIONALE.md).
WORKLOADS = {
    w.name: w for w in (
        Workload("spanner_er", "erdos_renyi", (768,),
                 ("spanner_only", "bfs_spanner", "le_det", "global_mst")),
        Workload("cover_grid", "grid", (256,),
                 ("cover_only", "bfs_cover", "le_rand")),
        Workload("cover_er", "erdos_renyi", (256,),
                 ("cover_only", "bfs_cover", "le_rand")),
        Workload("scale_er", "erdos_renyi", (256, 1024, 2048),
                 ("flood_baseline",), scaling=True),
    )
}


# Pass i of a run with --seed s works on input seed s * INPUTS_PER_SEED + i,
# so the passes of one run average over as many graphs and trial seeds as
# fit in it, and runs with different seeds share no inputs.
INPUTS_PER_SEED = 100


def input_seed(seed: int, i: int) -> int:
    if not 0 <= i < INPUTS_PER_SEED:
        raise ValueError(f"pass index {i} outside [0, {INPUTS_PER_SEED})")
    return seed * INPUTS_PER_SEED + i


@dataclass
class PassResult:
    seed: int
    wall_s: float
    cpu_s: float  # this process's CPU time over the pass's units
    digests: List[str]
    ok: List[bool]  # harness oracle verdict per trial
    sweeps: Dict[str, List[float]]  # reference sweeps run between the units

    def failed(self, reference: List[str]) -> int:
        """Trials that failed their verdict or differ from the reference."""
        return sum(not ok or d != r for ok, d, r in zip(self.ok, self.digests, reference))


def _experiment_unit(w: Workload, algo: str, seed: int) -> List[Tuple[str, bool]]:
    cfg = harness.ExperimentConfig(graph=harness._graph_spec(w.family, w.ns[0], seed),
                                   algo=algo, trials=1, seeds=(seed,))
    record = harness.run_experiment(cfg)
    return [(digest((t.rounds, t.by_category, t.extra)), t.ok) for t in record.trials]


def _scaling_unit(w: Workload, seed: int) -> List[Tuple[str, bool]]:
    # scaling_study raises on any trial that fails its oracle verdict, so a
    # returned row is verified; one row summarises len(seeds) trials.
    table = harness.scaling_study(w.family, w.ns, w.algos[0],
                                  seeds=(3 * seed, 3 * seed + 1, 3 * seed + 2))
    return [(digest((r.n, r.diam, r.median_rounds, r.median_messages,
                     r.message_ratio, r.round_ratio, table.flagged)), True)
            for r in table.rows]


def run_pass(w: Workload, seed: int, tracer: Optional[Tracer] = None,
             gauge: Optional[HostGauge] = None) -> PassResult:
    """One full pass of the workload on input seed ``seed`` (graph and trial
    seed): every unit runs, is verified and is digested.  A unit that
    raises counts all its trials as failed.  With a gauge, reference
    sweeps run before each unit and after the last; only the units are
    timed."""
    units = [(w.name, None)] if w.scaling else [(algo, algo) for algo in w.algos]
    trials: List[Tuple[str, bool]] = []
    wall_s = cpu_s = 0.0
    for label, algo in units:
        if gauge is not None:
            gauge.gap(label)
        if tracer is not None:
            tracer.start_unit(label)
        t0, c0 = time.perf_counter(), time.process_time()
        try:
            trials += _scaling_unit(w, seed) if algo is None else \
                _experiment_unit(w, algo, seed)
        except Exception:  # a failed unit is reported, not fatal
            traceback.print_exc(file=sys.stderr)
            trials += [("error", False)] * (len(w.ns) if algo is None else 1)
        unit_cpu = time.process_time() - c0
        wall_s, cpu_s = wall_s + time.perf_counter() - t0, cpu_s + unit_cpu
        if gauge is not None:
            gauge.record(label, unit_cpu)
    if gauge is not None:
        gauge.gap(units[-1][0])
    return PassResult(seed, wall_s, cpu_s, [d for d, _ in trials], [ok for _, ok in trials],
                      gauge.take() if gauge is not None else {})
