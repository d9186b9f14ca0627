"""Self-test of the benchmark's own checks. Takes about three minutes.

    python3 perfbench/selftest.py

1. The attack-drop-ctc rows for seed 0 read rows_ok=1 against their stored
   reference, and rows_ok=0 against seed 1's reference and against seed
   0's reference with one AdvTWER cell changed.
2. A fixture checkpoint whose sha256 differs from fixture.json is refused.
3. The count metrics of the traced run (tape records, decode steps, prefix
   extensions) repeat exactly in two runs of each workload at one seed.
4. In a directory that holds only BENCHMARK.json and perfbench/, the
   benchmark exits non-zero and prints no result.

Exits non-zero if any check fails.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

from run import HERE, ROOT, _null_span, import_program

SEED = 0
FAILURES: list[str] = []


def check(ok: bool, what: str) -> None:
    print(f"[{'ok' if ok else 'FAIL'}] {what}", flush=True)
    if not ok:
        FAILURES.append(what)


def changed_advtwer_cell(csv_text: str) -> str:
    lines = csv_text.splitlines(keepends=True)
    columns = lines[1].strip().split(",")
    col = columns.index("adv_twer")
    cells = lines[2].rstrip("\n").split(",")
    cells[col] = repr(float(cells[col]) + 0.25)
    lines[2] = ",".join(cells) + "\n"
    return "".join(lines)


def check_rows(workloads) -> None:
    workload = workloads.WORKLOADS["attack-drop-ctc"]
    csv_text = workload.run(workload.setup(SEED, _null_span), workloads.PhaseLog())
    ref = workloads.read_reference(workload.name, SEED)
    other = workloads.read_reference(workload.name, SEED + 1)
    check(workloads.rows_ok(csv_text, ref) == 1, "rows match their own reference")
    check(workloads.rows_ok(csv_text, other) == 0, "wrong-seed reference reads rows_ok=0")
    check(workloads.rows_ok(csv_text, changed_advtwer_cell(ref)) == 0,
          "reference with one AdvTWER cell changed reads rows_ok=0")


def check_fixture_hash(workloads) -> None:
    bad = HERE / "out" / "selftest-fixture"
    shutil.rmtree(bad, ignore_errors=True)
    shutil.copytree(workloads.FIXTURE_DIR, bad)
    text = (bad / "checkpoint.txt").read_text()
    (bad / "checkpoint.txt").write_text(text.replace("0x", "-0x", 1))
    saved, workloads.FIXTURE_DIR = workloads.FIXTURE_DIR, bad
    try:
        workloads.load_fixture(_null_span)
        refused = False
    except workloads.FixtureError as e:
        refused = "sha256" in str(e)
    finally:
        workloads.FIXTURE_DIR = saved
    check(refused, "fixture with a changed checkpoint is refused")


def bench(cwd, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed",
         str(SEED), "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=180)


def check_counts_repeat(workloads, layers) -> None:
    for name in workloads.WORKLOADS:
        runs = [json.loads(bench(ROOT, name, 1).stdout.splitlines()[-1]) for _ in range(2)]
        counts = [{m: r["metrics"][m]["value"] for m in layers.EXACT} for r in runs]
        check(counts[0] == counts[1] and all(r["correct"] for r in runs),
              f"{name}: traced counts repeat exactly")


def check_bare_directory() -> None:
    bare = HERE / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("out"))
    shutil.copyfile(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    proc = bench(bare, "decode-hybrid", 0)
    printed = any(line.startswith('{"correct"') for line in proc.stdout.splitlines())
    check(proc.returncode != 0 and not printed,
          "without the program the benchmark fails and prints no result")


def main() -> int:
    import_program()
    import layers
    import workloads

    check_rows(workloads)
    check_fixture_hash(workloads)
    check_counts_repeat(workloads, layers)
    check_bare_directory()
    print("selftest: " + ("FAIL" if FAILURES else "PASS"))
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
