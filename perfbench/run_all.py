"""Run every workload, each in a fresh process, and print its metrics.

    python3 perfbench/run_all.py [--seed 0] [--trace 0]

Each run measures for the ``run_seconds`` that BENCHMARK.json sets.
Prints one line per metric with its unit: the gated end-to-end metrics
from the result line, then the per-phase figures from the detail line.
Exits non-zero if a workload fails or reports an incorrect result.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
DETAIL_UNITS = {"train_utt_per_s": "1/s", "pgd_steps_per_s": "1/s",
                "eval_utt_per_s": "1/s", "failed_frac": "ratio", "rows_ok": "bool"}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in bench["workloads"]]
    status = 0
    for name in workloads:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(bench["run_seconds"]),
             "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=600)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or len(lines) < 2:
            print(f"{name}: exited {proc.returncode}")
            status = 1
            continue
        result, detail = json.loads(lines[-1]), json.loads(lines[-2])["detail"]
        print(f"{name}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']}")
        status |= not result["correct"]
        for metric, m in result["metrics"].items():
            print(f"  {metric} = {m['value']:.6g} {m['unit']}")
        for metric, unit in DETAIL_UNITS.items():
            if metric in detail and detail[metric] is not None:
                print(f"  {metric} = {detail[metric]:.6g} {unit}")
    return status


if __name__ == "__main__":
    sys.exit(main())
