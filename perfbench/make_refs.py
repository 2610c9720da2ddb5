"""Record the stored references for the default and the held-out seed.

    python3 perfbench/make_refs.py [--workload NAME ...]

For each workload and seed this runs the set-up and two units, the first
untraced and the second traced, requires both to agree exactly, and
writes the outputs and the exact-repeat counters to references.json. A
later change is confirmed on the held-out seed, which it was not tuned on.
Rerun only when the program's outputs change on purpose.
"""

from __future__ import annotations

import argparse
import json
import sys

import run

SEEDS = {0: "default", 1: "held-out"}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/make_refs.py")
    parser.add_argument("--workload", action="append",
                        choices=run.WORKLOAD_NAMES)
    args = parser.parse_args(argv)
    error = run.load_program()
    if error is not None:
        print(f"perfbench: {error}", file=sys.stderr)
        return 2
    import harness
    from tracing import Tracer
    from workloads import WORKLOADS

    refs = json.loads(harness.REFERENCES.read_text(encoding="utf-8"))
    for name in args.workload or run.WORKLOAD_NAMES:
        workload = WORKLOADS[name]()
        entry = {"size": repr(workload), "tolerance": workload.tolerance,
                 "seeds": {}}
        for seed, role in SEEDS.items():
            _, units = harness.measure(workload, seed, 0.0, Tracer())
            untraced, traced = (u.exact() for u in units)
            found = harness.drift(untraced, traced)
            wrong = units[1].outcome.problems + units[1].audit.violations
            if found or wrong:
                print(f"perfbench: {name} seed {seed} not recorded: "
                      f"{found + wrong}", file=sys.stderr)
                return 1
            entry["seeds"][str(seed)] = {"role": role, **traced}
            print(f"{name} seed {seed}: {units[1].wall_s:.2f}s traced")
        refs["workloads"][name] = entry
    refs["environment"] = harness.environment()
    harness.REFERENCES.write_text(json.dumps(refs, indent=1, sort_keys=True)
                                  + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
