"""Record the digests the benchmark checks its runs against.

    python3 bench/record_digests.py

For every workload this runs the first RECORDED_PASSES input seeds of the
tuning seed 0 and of a held-out seed, plus one traced pass on the first
input of each, requires every trial to pass its oracle verdict and the
traced pass to agree with the untraced one, and writes
``bench/digests.json``.  Re-record only when a change alters simulated
output on purpose, and say so with the change.
"""

from __future__ import annotations

import json
import sys

from run import DIGESTS, import_kt1sim

# Changes are tuned on seed 0; the held-out seed lets a claim be re-checked
# on inputs it was not tuned on.  Passes beyond the recorded ones are still
# checked against the oracle, just not against a digest.
HELD_OUT_SEED = 1009
RECORDED_PASSES = 24


def main() -> int:
    import_kt1sim()
    from tracer import Tracer
    from workloads import WORKLOADS, input_seed, run_pass

    trials, outputs = {}, {}
    for name, w in WORKLOADS.items():
        trials[name], outputs[name] = {}, {}
        for seed in (0, HELD_OUT_SEED):
            for i in range(RECORDED_PASSES):
                inp = input_seed(seed, i)
                plain = run_pass(w, inp)
                if not all(plain.ok):
                    sys.exit(f"{name} input {inp}: a trial failed, nothing recorded")
                trials[name][str(inp)] = plain.digests
            inp = input_seed(seed, 0)
            with Tracer() as tr:
                traced = run_pass(w, inp, tr)
            if traced.digests != trials[name][str(inp)]:
                sys.exit(f"{name} input {inp}: traced digests differ, nothing recorded")
            outputs[name][str(inp)] = [d for _, _, d in tr.output_digests()]
            print(f"{name} seed {seed}: recorded", flush=True)
    DIGESTS.write_text(json.dumps({
        "about": "Per-trial digests of (rounds, messages_by_category, extra) "
                 "and traced output digests (BFS parent maps, spanner edge "
                 "sets, leaders, MST edges), by workload and input seed.",
        "tuning_seed": 0,
        "held_out_seed": HELD_OUT_SEED,
        "recorded_passes": RECORDED_PASSES,
        "trials": trials,
        "outputs": outputs,
    }, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
