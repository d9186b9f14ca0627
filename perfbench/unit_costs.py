"""Per-unit costs at the reference CPU speed, beside ROADMAP's baseline figures.

    python3 perfbench/unit_costs.py [--seed 0]

Times, in chunks of calls rescaled by cpuspeed, one training
forward+backward pass (``train.sample_losses`` plus ``autodiff.backward``)
for STL-DEC, STL-CTC and MTL-3 on freshly initialised models, one
``attack.pgd_step`` and one ``attack_split`` step (50-step attacks) at
lambda_i_C 0, 0.5 and 1 on the attack-drop-ctc utterances, and one benign
evaluation (``train.evaluate_benign`` of one utterance) at the same
weights, the last three on the fixture checkpoint. Prints the median
milliseconds per unit over the chunks. Takes under a minute.
"""

from __future__ import annotations

import argparse
import statistics
import sys

from run import _null_span, import_program

CHUNK = 20


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seed", type=int, default=0)
    args = p.parse_args(argv)
    import_program()
    import numpy as np

    import cpuspeed
    import workloads
    from robustasr import autodiff as ad
    from robustasr.attack import AttackConfig, pgd_step
    from robustasr.data import select_adv_target
    from robustasr.experiments import attack_split
    from robustasr.losses import MtlWeights
    from robustasr.model import ModelConfig, init_params
    from robustasr.train import evaluate_benign, sample_losses

    def per_unit_ms(fn, items) -> float:
        chunks = [items[i:i + CHUNK] for i in range(0, len(items), CHUNK)]
        return statistics.median(
            cpuspeed.timed(lambda part: [fn(x) for x in part], part)[2] / len(part)
            for part in chunks) * 1e3

    def train_pass(params, weights):
        def one(utt):
            with ad.tape():
                ad.backward(sample_losses(params, utt, weights).total)
        return one

    ds = workloads.matched_dataset(args.seed, 200, 1, workloads.DecodeHybrid.n_test,
                                   _null_span)
    frames = statistics.fmean(u.n_frames for u in ds.train)
    words = statistics.fmean(len(u.transcript) for u in ds.train)
    print(f"training utterances: {frames:.1f} frames and {words:.2f} words on average")
    for name, weights in (("STL-DEC", MtlWeights(1.0, 0.0)),
                          ("STL-CTC", MtlWeights(1.0, 1.0)),
                          ("MTL-3", MtlWeights(0.7, 0.5))):
        params = init_params(ModelConfig(seed=args.seed))
        ms = per_unit_ms(train_pass(params, weights), ds.train)
        print(f"train fwd+bwd {name}: {ms:.2f} ms per utterance")

    state = workloads.AttackDropCtc().setup(args.seed, _null_span)
    params, targets, test = state["params"], state["targets"], state["test"]
    attacked = test[:workloads.AttackDropCtc.n_attack]
    for lam in (0.0, 0.5, 1.0):
        weights = MtlWeights(0.7, 0.5, lam)
        cfg = AttackConfig(epsilon=state["epsilon"], alpha=state["alpha"], steps=1,
                           weights=weights)
        step_ms = per_unit_ms(
            lambda u: pgd_step(params, u.features, np.zeros_like(u.features),
                               select_adv_target(u.transcript, targets), cfg),
            attacked * 10)
        split_ms = statistics.median(
            cpuspeed.timed(attack_split, params, [u], targets, weights, state["epsilon"],
                           state["alpha"], (50,))[2] / 50 for u in attacked) * 1e3
        eval_ms = per_unit_ms(lambda u: evaluate_benign(params, [u], weights), test)
        print(f"lambda_i_C={lam}: pgd_step {step_ms:.2f} ms, attack_split {split_ms:.2f} ms "
              f"per step, evaluate_benign {eval_ms:.2f} ms per utterance")
    return 0


if __name__ == "__main__":
    sys.exit(main())
