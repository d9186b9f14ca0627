"""Command-line driver for datasets, training, attacks, grids, and reports.

Every subcommand takes a JSON config file; a few high-traffic values
(seed, steps, output paths) can be overridden with flags. All outputs
are deterministic functions of their configs, so reruns are
byte-identical.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys

from .attack import calibrate
from .data import (Vocab, gen_adv_targets, gen_dataset, load_dataset,
                   load_targets, save_dataset, save_targets)
from .experiments import (ExperimentConfig, ReportRow, attack_split,
                          make_tables, rows_from_csv, rows_to_csv, run_grid,
                          trend_check, trend_report)
from .losses import MtlWeights
from .model import ModelConfig, load_checkpoint, save_checkpoint
from .train import TrainConfig, evaluate_benign, train_mtl


def _load_json(path) -> dict:
    with open(path) as f:
        return json.load(f)


def _weights(cfg: dict) -> MtlWeights:
    w = cfg.get("weights", {})
    return MtlWeights(lambda_t_A=w.get("lambda_t_A", 1.0),
                      lambda_t_C=w.get("lambda_t_C", 0.5),
                      lambda_i_C=w.get("lambda_i_C"))


def _hash_config(cfg: dict) -> str:
    return hashlib.sha256(json.dumps(cfg, sort_keys=True).encode()).hexdigest()[:12]


def cmd_gen_data(args) -> int:
    cfg = _load_json(args.config) if args.config else {}
    seed = args.seed if args.seed is not None else cfg.get("seed", 0)
    len_range = tuple(cfg.get("len_range", (2, 6)))
    ds = gen_dataset(seed,
                     n_train=cfg.get("n_train", 2000),
                     n_valid=cfg.get("n_valid", 200),
                     n_test=cfg.get("n_test", 200),
                     len_range=len_range,
                     feat_dim=cfg.get("feat_dim", 16))
    vocab = Vocab()
    os.makedirs(args.out, exist_ok=True)
    save_dataset(args.out, ds, vocab)
    targets = gen_adv_targets(cfg.get("target_seed", seed),
                              count=cfg.get("n_targets", 12),
                              len_range=len_range, vocab=vocab)
    save_targets(os.path.join(args.out, "targets.txt"), targets,
                 cfg.get("target_seed", seed), vocab)
    print(f"wrote {args.out}/{{train,valid,test,targets}}.txt "
          f"(seed={seed}, {len(ds.train)}/{len(ds.valid)}/{len(ds.test)} utterances)")
    return 0


def cmd_train(args) -> int:
    cfg = _load_json(args.config) if args.config else {}
    seed = args.seed if args.seed is not None else cfg.get("seed", 0)
    ds = load_dataset(args.data)
    model_cfg = ModelConfig(**{**cfg.get("model", {}), "seed": seed})
    train_cfg = TrainConfig(weights=_weights(cfg),
                            epochs=cfg.get("epochs", 30),
                            learning_rate=cfg.get("learning_rate", 0.05),
                            batch_size=cfg.get("batch_size", 8),
                            seed=seed)
    params, log = train_mtl(model_cfg, train_cfg, ds)
    os.makedirs(args.out, exist_ok=True)
    save_checkpoint(os.path.join(args.out, "checkpoint.txt"), params)
    log.to_csv(os.path.join(args.out, "trainlog.csv"))
    best = log.rows[log.selected_epoch - 1]["valid_l_mtl"]
    print(f"trained {train_cfg.epochs} epochs; kept epoch {log.selected_epoch} "
          f"(valid loss {best:.4f}); wrote {args.out}/checkpoint.txt")
    return 0


def cmd_eval(args) -> int:
    cfg = _load_json(args.config) if args.config else {}
    ds = load_dataset(args.data)
    params = load_checkpoint(args.checkpoint)
    weights = _weights(cfg)
    utts = ds.split(cfg.get("split", "test"))
    n = cfg.get("n_samples")
    if n:
        utts = utts[:n]
    wer, acc = evaluate_benign(params, utts, weights,
                               max_len=cfg.get("max_len", 10))
    print(f"benign pooled WER={wer:.4f} accent_acc={acc:.4f} "
          f"(lambda_i_C={weights.lambda_i_C}, n={len(utts)})")
    if args.out:
        row = ReportRow(lambda_t_A=weights.lambda_t_A,
                        lambda_t_C=weights.lambda_t_C,
                        lambda_i_C=weights.lambda_i_C,
                        seed=params.config.seed, attack_steps=0,
                        benign_wer=wer, accent_acc=acc, adv_twer=None,
                        n_samples=len(utts), n_skipped=0)
        with open(args.out, "w") as f:
            f.write(rows_to_csv([row], _hash_config(cfg)))
        print(f"wrote {args.out}")
    return 0


def cmd_attack(args) -> int:
    cfg = _load_json(args.config) if args.config else {}
    ds = load_dataset(args.data)
    params = load_checkpoint(args.checkpoint)
    weights = _weights(cfg)
    targets_path = args.targets or os.path.join(args.data, "targets.txt")
    targets = load_targets(targets_path)
    steps = args.steps if args.steps is not None else cfg.get("steps", 200)
    report_at = cfg.get("report_at")
    report_at = sorted(set(report_at)) if report_at else [steps]
    if steps not in report_at:
        report_at.append(steps)
        report_at.sort()
    report_at = [s for s in report_at if s <= steps]
    utts = ds.split(cfg.get("split", "test"))[:cfg.get("n_samples", 50)]
    epsilon, alpha = calibrate(ds.test, ratio=cfg.get("epsilon_ratio", 0.10),
                               alpha_fraction=cfg.get("alpha_fraction", 1 / 40))
    benign_wer, accent_acc = evaluate_benign(params, utts, weights,
                                             max_len=cfg.get("max_len", 10))
    pooled, n_attacked, n_skipped = attack_split(
        params, utts, targets, weights, epsilon, alpha, report_at,
        max_decode_len=cfg.get("max_len", 10))
    rows = [ReportRow(lambda_t_A=weights.lambda_t_A,
                      lambda_t_C=weights.lambda_t_C,
                      lambda_i_C=weights.lambda_i_C,
                      seed=params.config.seed, attack_steps=s,
                      benign_wer=benign_wer, accent_acc=accent_acc,
                      adv_twer=twer, n_samples=n_attacked,
                      n_skipped=n_skipped)
            for s, twer in sorted(pooled.items())]
    text = rows_to_csv(rows, _hash_config(cfg))
    with open(args.out, "w") as f:
        f.write(text)
    for r in rows:
        twer = "n/a" if r.adv_twer is None else f"{r.adv_twer:.4f}"
        print(f"steps={r.attack_steps}: AdvTWER={twer} "
              f"(attacked {r.n_samples}, skipped {r.n_skipped}, "
              f"epsilon={epsilon:.4f}, alpha={alpha:.5f})")
    print(f"wrote {args.out}")
    return 0


def cmd_grid(args) -> int:
    if args.config:
        with open(args.config) as f:
            config = ExperimentConfig.from_json(f.read())
    else:
        config = ExperimentConfig()

    def progress(done, total):
        print(f"cell {done}/{total} finished", flush=True)

    rows = run_grid(config, workers=args.workers, progress=progress)
    os.makedirs(args.out, exist_ok=True)
    out = os.path.join(args.out, "rows.csv")
    with open(out, "w") as f:
        f.write(rows_to_csv(rows, config.hash()))
    print(f"wrote {out} ({len(rows)} rows)")
    return 0


def cmd_report(args) -> int:
    with open(args.rows) as f:
        rows = rows_from_csv(f.read())
    steps = [int(s) for s in args.steps.split(",")] if args.steps else \
        sorted({r.attack_steps for r in rows if r.adv_twer is not None})
    os.makedirs(args.out, exist_ok=True)
    for name, text in make_tables(rows, steps).items():
        with open(os.path.join(args.out, name), "w") as f:
            f.write(text)
    check_steps = [int(s) for s in args.trend_steps.split(",")] \
        if args.trend_steps else steps
    results = trend_check(rows, steps=check_steps)
    text = trend_report(results)
    with open(os.path.join(args.out, "trend_check.txt"), "w") as f:
        f.write(text)
    print(text, end="")
    print(f"wrote tables and trend_check.txt under {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="robustasr",
                                description=__doc__.splitlines()[0])
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen-data", help="generate synthetic splits and targets")
    g.add_argument("--config", help="JSON config (sizes, len_range, n_targets)")
    g.add_argument("--seed", type=int)
    g.add_argument("--out", required=True)
    g.set_defaults(fn=cmd_gen_data)

    t = sub.add_parser("train", help="train one model")
    t.add_argument("--config", help="JSON config (weights, epochs, lr, model)")
    t.add_argument("--data", required=True)
    t.add_argument("--seed", type=int)
    t.add_argument("--out", required=True)
    t.set_defaults(fn=cmd_train)

    e = sub.add_parser("eval", help="benign evaluation of a checkpoint")
    e.add_argument("--config", help="JSON config (weights, split, n_samples)")
    e.add_argument("--data", required=True)
    e.add_argument("--checkpoint", required=True)
    e.add_argument("--out")
    e.set_defaults(fn=cmd_eval)

    a = sub.add_parser("attack", help="targeted PGD over the test split")
    a.add_argument("--config", help="JSON config (weights, steps, report_at)")
    a.add_argument("--data", required=True)
    a.add_argument("--checkpoint", required=True)
    a.add_argument("--targets", help="targets file (default: <data>/targets.txt)")
    a.add_argument("--steps", type=int)
    a.add_argument("--out", required=True)
    a.set_defaults(fn=cmd_attack)

    gr = sub.add_parser("grid", help="run the full weight grid")
    gr.add_argument("--config", help="ExperimentConfig JSON")
    gr.add_argument("--out", required=True)
    gr.add_argument("--workers", type=int, default=1)
    gr.set_defaults(fn=cmd_grid)

    r = sub.add_parser("report", help="aggregate rows into tables and trends")
    r.add_argument("--rows", required=True)
    r.add_argument("--out", required=True)
    r.add_argument("--steps", help="comma-separated step columns")
    r.add_argument("--trend-steps", help="steps for the ordering checks")
    r.set_defaults(fn=cmd_report)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
