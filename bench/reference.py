"""Fixed reference kernels, timed next to the measured work to factor out
host speed.

On a shared host the CPU time of the same work drifts by tens of percent
within minutes, and also varies from one second to the next, as other
tenants' load changes.  Two kernels gauge that drift:

- ``ReferenceKernel``, a round-based flooding simulation in pure Python,
  written in the same style as kt1sim's engine (per-node state dicts, inbox
  lists sorted by sender, tuple payloads);
- ``CsgraphKernel``, shortest paths with scipy's compiled code over a
  fixed sparse graph, like the dense diameter in ``netgraph``.

Neither uses kt1sim code, so a change to kt1sim never changes their time.
``HostGauge`` sweeps both right before and after each measured unit, so the
sweeps see the same host conditions as the unit, and ``normalised`` divides
a time by the host's slowdown: the mean of the two kernels' slowdowns
against their nominal sweep times.  The result reads as seconds on a host
where the sweeps take their nominal times.  The host slows interpreted and
compiled code by different amounts, and every workload does some of each
(imports too), so the mix tracks every workload better than either kernel
alone (see bench/RATIONALE.md).
"""

from __future__ import annotations

import gc
import random
import statistics
import time
from typing import Any, Dict, List

# Nominal sweep times, about what a quiet 2-vCPU x86 host with Python 3.11
# and scipy 1.17 takes; they only fix the scale of normalised times.
NOMINAL_S = {"interpreted": 0.025, "compiled": 0.02}
# The sweeps of one gap take at least this share of the CPU time of the
# unit next to them.
GAP_SHARE = 0.25


def _sender(mail):
    return mail[0]


class ReferenceKernel:
    """Flooding sweeps from one root over a fixed random graph: interpreted
    work like kt1sim's engine."""

    def __init__(self):
        rng = random.Random(0)
        n = 3000
        adj = {v: set() for v in range(n)}
        for v in range(n):
            for _ in range(4):  # about 8 neighbours per node
                u = rng.randrange(n)
                if u != v:
                    adj[v].add(u)
                    adj[u].add(v)
        self.adj = {v: tuple(sorted(s)) for v, s in adj.items()}
        self.expected = self._sweep()

    def _sweep(self) -> int:
        adj, root = self.adj, 0
        state = {v: {"parent": None, "round": None} for v in adj}
        state[root]["round"] = 0
        pending = [(root, u, ("flood", 0)) for u in adj[root]]
        rnd = 0
        while pending:
            rnd += 1
            inbox = {}
            for src, dst, payload in pending:
                inbox.setdefault(dst, []).append((src, payload))
            pending = []
            for v in sorted(inbox):
                st = state[v]
                if st["round"] is not None:
                    continue
                mail = inbox[v]
                mail.sort(key=_sender)
                st["parent"], st["round"] = mail[0][0], rnd
                pending.extend((v, u, ("flood", rnd)) for u in adj[v])
        return sum(st["round"] * (st["parent"] or 0) for st in state.values())

    def cpu_s(self) -> float:
        """CPU seconds of one sweep; the result is checked so the work is done.

        The cyclic garbage collector is off during the sweep, which frees
        all it allocates by reference counting: a collection would scan the
        whole heap of the process, so the sweep's time would depend on what
        the measured program keeps alive (and was measured to add about 30%
        and most of the sweep-to-sweep noise)."""
        enabled = gc.isenabled()
        gc.disable()
        try:
            t0 = time.process_time()
            checksum = self._sweep()
            elapsed = time.process_time() - t0
        finally:
            if enabled:
                gc.enable()
        if checksum != self.expected:
            raise RuntimeError("reference kernel result changed between sweeps")
        return elapsed


class CsgraphKernel:
    """Unweighted shortest paths from a few sources over a fixed random
    graph with scipy: compiled, memory-bound work like ``netgraph``'s
    dense diameter, which slows down with the host differently from
    interpreted code."""

    def __init__(self):
        import numpy as np
        from scipy.sparse import csr_matrix
        from scipy.sparse.csgraph import shortest_path

        rng = random.Random(0)
        n = 2048
        rows, cols = [], []
        for v in range(n):
            for _ in range(4):
                u = rng.randrange(n)
                rows += [v, u]
                cols += [u, v]
        self._mat = csr_matrix((np.ones(len(rows), dtype=np.int8), (rows, cols)),
                               shape=(n, n))
        self._shortest_path = shortest_path
        self._sources = list(range(48))
        self.expected = self._sweep()

    def _sweep(self) -> float:
        dist = self._shortest_path(self._mat, method="D", unweighted=True,
                                   directed=False, indices=self._sources)
        return float(dist.sum())

    def cpu_s(self) -> float:
        t0 = time.process_time()
        checksum = self._sweep()
        elapsed = time.process_time() - t0
        if checksum != self.expected:
            raise RuntimeError("reference kernel result changed between sweeps")
        return elapsed


class HostGauge:
    """Reference sweeps in the gaps between measured units.

    Before each unit, and once more after the last one, ``gap`` sweeps each
    kernel at least once and keeps sweeping until the sweeps of this gap
    took ``GAP_SHARE`` of the unit's CPU time the last time it ran, so a long
    unit is sampled as densely as a short one.  ``take()`` hands over and
    clears the sweeps, per kernel, recorded since the last call."""

    def __init__(self):
        self.kernels = {"interpreted": ReferenceKernel(), "compiled": CsgraphKernel()}
        self.unit_cpu: Dict[str, float] = {}
        self._sweeps: Dict[str, List[float]] = {k: [] for k in self.kernels}

    def gap(self, unit: str) -> None:
        budget = GAP_SHARE * self.unit_cpu.get(unit, 0.0)
        spent, count = 0.0, 0
        while not count or spent < budget:
            for name, kernel in self.kernels.items():
                s = kernel.cpu_s()
                spent += s
                self._sweeps[name].append(s)
            count += 1

    def record(self, unit: str, cpu_s: float) -> None:
        self.unit_cpu[unit] = cpu_s

    def take(self) -> Dict[str, List[float]]:
        sweeps = self._sweeps
        self._sweeps = {k: [] for k in self.kernels}
        return sweeps


def slowdown(sweeps: Dict[str, List[float]]) -> float:
    """The host's slowdown against the nominal host: the mean over kernels
    of each kernel's mean sweep over its nominal time."""
    return statistics.fmean(statistics.fmean(s) / NOMINAL_S[k] for k, s in sweeps.items())


def normalised(cpu_s: float, sweeps: Dict[str, List[float]]) -> float:
    """``cpu_s`` in seconds of the nominal host, judged by the sweeps that
    ran next to it."""
    return cpu_s / slowdown(sweeps)
