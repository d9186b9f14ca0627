"""Write the template utterance shapes that the workloads' inputs are matched to.

Usage, from the root of the repository:

    python3 perfbench/fixture/make_shapes.py

For each split-size triple the benchmark uses, it draws a dataset from
``data.gen_dataset`` at a fixed seed and stores each utterance's word count
and frame count in ``shapes.json``. A run draws its inputs from the seed and
matches them to these shapes, so every seed times the same amount of work.
The shapes are stored rather than drawn during set-up so that set-up time
holds only work made from the seed.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parents[1] / "src"))

from robustasr.data import gen_dataset  # noqa: E402

TEMPLATE_SEED = 20220405
# (n_train, n_valid, n_test) of cell-mtl3, of the fixture workloads and of
# unit_costs.py
SIZES = ((120, 20, 20), (1, 1, 200), (200, 1, 200))


def main() -> int:
    shapes = {"seed": TEMPLATE_SEED}
    for sizes in SIZES:
        ds = gen_dataset(TEMPLATE_SEED, *sizes)
        shapes["-".join(map(str, sizes))] = {
            split: [[len(u.transcript), u.n_frames] for u in getattr(ds, split)]
            for split in ("train", "valid", "test")}
    (HERE / "shapes.json").write_text(json.dumps(shapes) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
