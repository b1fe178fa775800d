"""Host-time benchmark for kt1sim.

    python3 bench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a source checkout; kt1sim is imported from ``src/``.

Pass i of a run works on input seed ``N * 100 + i`` (graph and trial seed;
see ``workloads.input_seed``), so one run averages over many random inputs.
Only the untraced warm-up pass always works on input 0.

Untraced (``--trace 0``): the process pins itself to one CPU and makes a
warm-up pass on input 0, the same in every run, which also loads the
oracle modules kt1sim imports lazily.  Then it times set-up probes for a
tenth of ``--seconds`` and makes passes on inputs ``N * 100 + 1``, ``+ 2``,
... until another pass would overrun ``--seconds``.  Short sweeps of two
fixed reference kernels (``reference.py``) run before each probe and each
unit of work and after the last, and every time is divided by the host
slowdown those sweeps show; on a shared host this cancels most of the
drift in host speed.  Reports

- ``cpu_s``: median over the timed passes of the pass's CPU seconds, in
  seconds of the nominal host.  The program is single-threaded and does
  no I/O, so CPU time leaves out only the time a shared host gives other
  tenants.  Raw CPU and wall medians are printed, not gated;
- ``setup_s``: median CPU seconds to import kt1sim plus the oracle modules
  the warm-up pass loaded, each in a fresh interpreter, in seconds of the
  nominal host;
- ``peak_rss_mb``: peak resident memory of this process after the warm-up
  pass, before the reference kernels load numpy and scipy.

Traced (``--trace 1``): on input ``N * 100``, a warm-up pass, an untraced pass and
two traced passes.  Reports the per-layer metrics of the first traced pass,
checks that both traced passes give identical exact counts and output
digests, and writes the spans to ``bench/out/trace-<workload>-<seed>.json``.

Every trial must pass the harness oracle verdict and match the digest that
``digests.json`` records for its input seed or, where none is recorded, the
first pass on the same input in this run.  The last stdout line is a JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"
DIGESTS = BENCH_DIR / "digests.json"
# Set-up probes run until they took this share of --seconds, and at least
# MIN_SETUP_PROBES times.
SETUP_SHARE = 0.1
MIN_SETUP_PROBES = 5

_SETUP_PROBE = (
    "import importlib, sys, time\n"
    "t = time.process_time()\n"
    "for m in sys.argv[1:]: importlib.import_module(m)\n"
    "print(time.process_time() - t)\n"
)


def import_kt1sim() -> None:
    """Put the checkout's src/ first on the path; refuse any other kt1sim."""
    if not (SRC / "kt1sim" / "__init__.py").is_file():
        sys.exit(f"bench: no kt1sim sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import kt1sim

    if Path(kt1sim.__file__).resolve().parent != SRC / "kt1sim":
        sys.exit(f"bench: imported kt1sim from {kt1sim.__file__}, not {SRC}")


def pin_to_one_cpu() -> None:
    """Keep this process and the probes it starts on one CPU, so that the
    reference sweeps and the work they gauge run on the same core."""
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def measure_setup(modules, gauge, budget_s):
    """Median CPU seconds to import kt1sim plus modules, each in a new
    interpreter, normalised by the reference sweeps before and after it.
    Probes run until ``budget_s`` is spent, at least MIN_SETUP_PROBES of
    them; the warm-up pass has already loaded the same files."""
    from reference import normalised

    env = dict(os.environ, PYTHONPATH=str(SRC))
    argv = [sys.executable, "-c", _SETUP_PROBE, "kt1sim", *modules]
    probes, gaps = [], []
    t_end = time.perf_counter() + budget_s
    while len(probes) < MIN_SETUP_PROBES or time.perf_counter() < t_end:
        gauge.gap("setup")
        gaps.append(gauge.take())
        out = subprocess.run(argv, env=env, cwd=ROOT, capture_output=True,
                             text=True, check=True, timeout=60)
        probes.append(float(out.stdout.strip()))
        gauge.record("setup", probes[-1])
    gauge.gap("setup")
    gaps.append(gauge.take())
    setup_s = statistics.median(
        normalised(t, {k: gaps[i][k] + gaps[i + 1][k] for k in gaps[i]})
        for i, t in enumerate(probes))
    return setup_s, len(probes)


def load_recorded(workload: str):
    """(trial digests, output digests) recorded per input seed."""
    if not DIGESTS.is_file():
        return {}, {}
    blob = json.loads(DIGESTS.read_text())
    return blob["trials"].get(workload, {}), blob["outputs"].get(workload, {})


def result_line(passes, recorded, problems, metrics) -> str:
    """The closing JSON line, after checking every trial's digest."""
    reference = {}
    for p in passes:
        reference.setdefault(p.seed, recorded.get(str(p.seed), p.digests))
    for p in passes:
        if len(p.digests) != len(reference[p.seed]):
            problems.append(f"input {p.seed}: {len(p.digests)} trials, "
                            f"{len(reference[p.seed])} expected")
    attempted = sum(len(p.digests) for p in passes)
    failed = sum(p.failed(reference[p.seed]) for p in passes)
    for msg in problems:
        print(f"bench: {msg}", file=sys.stderr)
    print(f"trials_failed {failed}/{attempted} = {failed / attempted:.4f} (share)")
    return json.dumps({"correct": failed == 0 and not problems,
                       "attempted": attempted, "failed": failed,
                       "metrics": metrics})


def run_untraced(w, seed: int, seconds: float) -> str:
    from reference import HostGauge, normalised, slowdown
    from workloads import INPUTS_PER_SEED, ORACLE_MODULES, input_seed, run_pass

    pin_to_one_cpu()
    t_end = time.perf_counter() + seconds
    # The warm-up pass works on the same input in every run, so the peak
    # memory read after it does not vary with the seed's inputs.
    passes = [run_pass(w, input_seed(0, 0))]
    # Read before the gauge's kernels load numpy and scipy.
    loaded = [m for m in ORACLE_MODULES if m in sys.modules]
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    gauge = HostGauge()
    setup_s, probes = measure_setup(loaded, gauge, SETUP_SHARE * seconds)
    while len(passes) < INPUTS_PER_SEED:
        t0 = time.perf_counter()
        passes.append(run_pass(w, input_seed(seed, len(passes)), gauge=gauge))
        now = time.perf_counter()
        if now + (now - t0) > t_end:
            break
    timed = passes[1:]
    cpu_s = statistics.median(normalised(p.cpu_s, p.sweeps) for p in timed)
    raw_cpu_s = statistics.median(p.cpu_s for p in timed)
    wall_s = statistics.median(p.wall_s for p in timed)
    host = slowdown({k: [s for p in timed for s in p.sweeps[k]] for k in gauge.kernels})
    print(f"workload {w.name} seed {seed}: warm-up pass, {probes} set-up probes, "
          f"{len(timed)} timed passes; oracle modules loaded: {', '.join(loaded) or 'none'}")
    print(f"host slowdown against the nominal host: {host:.3f}")
    print(f"cpu_s {cpu_s:.4f} s (median of {len(timed)} passes, nominal host; "
          f"raw median {raw_cpu_s:.4f} s, wall median {wall_s:.4f} s, not gated)")
    print(f"setup_s {setup_s:.4f} s (median of {probes} imports, nominal host)")
    print(f"peak_rss_mb {rss_mb:.1f} MB (after the warm-up pass on input 0)")
    recorded, _ = load_recorded(w.name)
    metrics = {"cpu_s": {"value": cpu_s, "unit": "s"},
               "setup_s": {"value": setup_s, "unit": "s"},
               "peak_rss_mb": {"value": rss_mb, "unit": "MB"}}
    return result_line(passes, recorded, [], metrics)


def run_traced(w, seed: int) -> str:
    from tracer import Tracer, largest_span, layer_metrics, per_layer_spec
    from workloads import input_seed, run_pass

    inp = input_seed(seed, 0)
    warm = run_pass(w, inp)
    plain = run_pass(w, inp)
    traces, traced = [], []
    for _ in range(2):
        with Tracer() as tr:
            traced.append(run_pass(w, inp, tr))
        traces.append(tr)
    recorded, recorded_outputs = load_recorded(w.name)
    problems = []
    if traces[0].counts() != traces[1].counts():
        problems.append("the two traced passes gave different engine counts")
    outputs = [d for _, _, d in traces[0].output_digests()]
    if outputs != [d for _, _, d in traces[1].output_digests()]:
        problems.append("the two traced passes returned different outputs")
    if outputs != recorded_outputs.get(str(inp), outputs):
        problems.append("traced outputs differ from the recorded digests")

    values = layer_metrics(traces[0], traced[0].wall_s, plain.wall_s)
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in per_layer_spec()}
    OUT_DIR.mkdir(exist_ok=True)
    out = OUT_DIR / f"trace-{w.name}-{seed}.json"
    out.write_text(json.dumps({"workload": w.name, "seed": seed, "input_seed": inp,
                               "metrics": values, **traces[0].to_jsonable()}))
    print(f"workload {w.name} seed {seed}: spans written to {out.relative_to(ROOT)}")
    print(f"traced wall_s {values['trace.wall_s']:.4f} s, untraced "
          f"{values['trace.untraced_wall_s']:.4f} s, unattributed "
          f"{values['trace.unattributed_s']:.4f} s")
    print(f"largest span: {largest_span(traces[0])}")
    print("bfscover.preprocess.self_s share of traced wall_s: "
          f"{values['bfscover.preprocess.self_s'] / values['trace.wall_s']:.3f}")
    return result_line([warm, plain] + traced, recorded, problems, metrics)


def main(argv=None) -> int:
    import_kt1sim()
    from workloads import WORKLOADS

    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    w = WORKLOADS[args.workload]
    line = run_traced(w, args.seed) if args.trace else \
        run_untraced(w, args.seed, args.seconds)
    print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
