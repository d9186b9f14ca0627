"""Train the checkpoint that the attack-drop-ctc and decode-hybrid workloads load.

Usage, from the root of the repository:

    python3 perfbench/fixture/make_fixture.py

It runs the repository CLI (``gen-data`` with ``data.json``, then ``train``
with ``train.json``), copies the checkpoint next to this file and writes
``fixture.json`` with the checkpoint's sha256 and its benign pooled WER on
the fixture's own test split at lambda_i_C in {0, 0.5, 1}. Training takes
about five minutes on one CPU core. Intermediate files go to
``perfbench/out/fixture``.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import hashlib
import json
import shutil
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(ROOT / "src"))

from robustasr.cli import main as cli_main  # noqa: E402
from robustasr.data import load_dataset  # noqa: E402
from robustasr.losses import MtlWeights  # noqa: E402
from robustasr.model import load_checkpoint  # noqa: E402
from robustasr.train import evaluate_benign  # noqa: E402

INFERENCE_WEIGHTS = (0.0, 0.5, 1.0)


def main() -> int:
    work = ROOT / "perfbench" / "out" / "fixture"
    data_dir, model_dir = work / "data", work / "model"
    t0 = time.perf_counter()
    cli_main(["gen-data", "--config", str(HERE / "data.json"), "--out", str(data_dir)])
    cli_main(["train", "--config", str(HERE / "train.json"), "--data", str(data_dir),
              "--out", str(model_dir)])
    train_s = time.perf_counter() - t0
    checkpoint = HERE / "checkpoint.txt"
    shutil.copyfile(model_dir / "checkpoint.txt", checkpoint)

    train_cfg = json.loads((HERE / "train.json").read_text())
    lam_a = train_cfg["weights"]["lambda_t_A"]
    lam_c = train_cfg["weights"]["lambda_t_C"]
    params = load_checkpoint(checkpoint)
    test = load_dataset(data_dir).test
    benign = {}
    for lam_i in INFERENCE_WEIGHTS:
        wer, acc = evaluate_benign(params, test, MtlWeights(lam_a, lam_c, lam_i))
        benign[repr(lam_i)] = {"wer": wer, "accent_acc": acc}
    record = {
        "checkpoint": "checkpoint.txt",
        "sha256": hashlib.sha256(checkpoint.read_bytes()).hexdigest(),
        "weights": {"lambda_t_A": lam_a, "lambda_t_C": lam_c},
        "benign_test": benign,
        "n_test": len(test),
        "make_seconds": round(train_s, 1),
    }
    (HERE / "fixture.json").write_text(json.dumps(record, indent=2) + "\n")
    print(json.dumps(record, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
