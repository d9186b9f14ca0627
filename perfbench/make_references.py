"""Write the stored reference rows the benchmark checks its outputs against.

    python3 perfbench/make_references.py --seeds 0-63

For each workload and seed it sets the workload up, runs its batch once and
writes the rows CSV to ``perfbench/reference/<workload>/seed-<n>.csv``.
Rerun it only for a change that is meant to move the rows, and say in
CHANGES.md why they moved.
"""

from __future__ import annotations

import argparse
import sys

from run import _null_span, import_program


def parse_seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seeds", required=True, help="inclusive range such as 0-63")
    args = p.parse_args(argv)
    import_program()
    import workloads

    for name, workload in workloads.WORKLOADS.items():
        for seed in parse_seeds(args.seeds):
            state = workload.setup(seed, _null_span)
            csv = workload.run(state, workloads.PhaseLog())
            problems = workloads.sanity_problems(workload, state, csv)
            if problems:
                raise SystemExit(f"{name} seed {seed}: {'; '.join(problems)}")
            path = workloads.reference_path(name, seed)
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(csv)
            print(f"wrote {path}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
