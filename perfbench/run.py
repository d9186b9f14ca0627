"""Benchmark entry point: one workload, one fresh process.

    python3 perfbench/run.py --workload cell-mtl3 --seed 0 --seconds 30 --trace 0

With ``--trace 0`` it repeats, for about ``--seconds`` seconds, a fresh
set-up followed by the workload's fixed batch of phase calls. Each call
and each set-up is timed between two runs of a reference kernel and its
time rescaled to the reference CPU speed (cpuspeed.py). ``wall_s`` sums,
over the batch's phase calls, the median of each call's repetitions;
``setup_s`` is the median set-up. With ``--trace 1`` it runs the batch
alternately without and with spans around the phase calls, replays the
layer calls on a sample of the workload's inputs with spans around each,
writes the spans to ``perfbench/out/`` and reports the per-layer metrics.
The last line of standard output is the result as one JSON object; the
line before it holds details that are not gated metrics. Both modes check
the rows the batch produces.

BLAS thread pools are pinned to one thread before numpy is imported.
"""

from __future__ import annotations

import os

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse
import json
import resource
import statistics
import sys
import time
import traceback
from contextlib import nullcontext
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 3  # set-ups in a traced run
TRACE_PAIRS = 2  # untraced and traced batches, alternating


def _null_span(_name):
    return nullcontext({})


def import_program():
    """Import robustasr from this checkout's ``src``, or explain why not."""
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import robustasr
    except ImportError as e:
        raise SystemExit(f"run.py: cannot import robustasr from {ROOT / 'src'}: {e}")
    if not Path(robustasr.__file__).resolve().is_relative_to(ROOT / "src"):
        raise SystemExit(f"run.py: robustasr imported from {robustasr.__file__}, "
                         f"not from {ROOT / 'src'}")


def _run_batch(workload, state, log, failures: list) -> str | None:
    try:
        return workload.run(state, log)
    except Exception:  # a failed phase call is counted, not fatal
        traceback.print_exc()
        failures.append(log.attempted)
        return None


def _check_rows(workloads, workload, state, csvs: list) -> tuple[int | None, list[str]]:
    problems = []
    if any(c is None for c in csvs):
        return 0, ["a batch failed"]
    if len(set(csvs)) != 1:
        problems.append("rows differ between repetitions of the batch")
    ok = workloads.rows_ok(csvs[0], workloads.read_reference(workload.name, state["seed"]))
    if ok == 0:
        problems.append("rows differ from the stored reference")
    problems += workloads.sanity_problems(workload, state, csvs[0])
    return ok, problems


def per_call_median(logs) -> list[float]:
    """Per position in the batch, the median seconds of that phase call
    over the repetitions; every repetition makes the same calls in order."""
    return [statistics.median(c.seconds for c in calls)
            for calls in zip(*(log.calls for log in logs))]


def timed_run(workloads, workload, seed: int, seconds: float) -> dict:
    import cpuspeed

    logs, csvs, failures, setup_times = [], [], [], []
    start = time.perf_counter()
    while True:
        state, _raw, setup_s = cpuspeed.timed(workload.setup, seed, _null_span)
        setup_times.append(setup_s)
        log = workloads.PhaseLog()
        csvs.append(_run_batch(workload, state, log, failures))
        logs.append(log)
        elapsed = time.perf_counter() - start
        if failures or elapsed + elapsed / len(logs) > seconds:
            break
    ok, problems = _check_rows(workloads, workload, state, csvs)
    attempted = sum(log.attempted for log in logs)
    calls = list(zip(logs[0].calls, per_call_median(logs)))

    def rate(kind):
        picked = [(c.units, s) for c, s in calls if c.kind == kind]
        return sum(u for u, _ in picked) / sum(s for _, s in picked) if picked else None

    metrics = {
        "wall_s": (sum(s for _, s in calls), "s"),
        "setup_s": (statistics.median(setup_times), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    detail = {
        "train_utt_per_s": rate("train"),
        "pgd_steps_per_s": rate("attack"),
        "eval_utt_per_s": rate("eval"),
        "failed_frac": len(failures) / attempted,
        "rows_ok": ok,
        "repetitions": len(logs),
        "raw_wall_s": statistics.median(sum(c.raw_seconds for c in log.calls)
                                        for log in logs),
        "threads": {var: os.environ[var] for var in THREAD_VARS},
    }
    return {"metrics": metrics, "detail": detail, "problems": problems,
            "attempted": attempted, "failed": len(failures)}


def traced_run(workloads, workload, seed: int) -> dict:
    import layers
    from robustasr.decode import CtcPrefixScorer
    from spans import Tracer

    tracer = Tracer()
    for _ in range(SETUP_REPEATS):  # samples data.gen_dataset and load_checkpoint
        state = workload.setup(seed, tracer.span)
    failures: list = []
    logs = {"plain": [], "traced": []}
    csvs, prefix_calls = [], set()
    for _ in range(TRACE_PAIRS):
        for kind, log in (("plain", workloads.PhaseLog()),
                          ("traced", workloads.PhaseLog(tracer))):
            before = CtcPrefixScorer.evaluations
            csvs.append(_run_batch(workload, state, log, failures))
            prefix_calls.add(CtcPrefixScorer.evaluations - before)
            logs[kind].append(log)
    ok, problems = _check_rows(workloads, workload, state, csvs)
    if len(prefix_calls) != 1:
        problems.append(f"prefix extensions per batch vary within one run: {prefix_calls}")
    values = {}
    if not failures:
        replay_problems, extras = layers.sample(workload, state, tracer)
        problems += replay_problems
        plain, traced = (sum(per_call_median(logs[k])) for k in ("plain", "traced"))
        values = layers.metrics(tracer, extras, csvs[0], prefix_calls.pop(),
                                traced / plain - 1.0)
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    tracer.write(out_dir / f"trace-{workload.name}-seed{seed}.json")
    units = layers.metric_units()
    metrics = {name: (values.get(name, 0.0), unit) for name, unit in units.items()}
    detail = {"rows_ok": ok, "spans": len(tracer.spans),
              "threads": {var: os.environ[var] for var in THREAD_VARS}}
    return {"metrics": metrics, "detail": detail, "problems": problems,
            "attempted": sum(log.attempted for k in logs for log in logs[k]),
            "failed": len(failures)}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    import_program()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        p.error(f"unknown workload {args.workload!r}; "
                f"choose from {sorted(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload]
    try:
        if args.trace:
            result = traced_run(workloads, workload, args.seed)
        else:
            result = timed_run(workloads, workload, args.seed, args.seconds)
    except workloads.FixtureError as e:
        print(f"run.py: {e}", file=sys.stderr)
        return 2
    for problem in result["problems"]:
        print(f"run.py: {args.workload} seed {args.seed}: {problem}", file=sys.stderr)
    print(json.dumps({"workload": args.workload, "seed": args.seed,
                      "detail": result["detail"]}))
    print(json.dumps({
        "correct": not result["problems"] and not result["failed"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in result["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
