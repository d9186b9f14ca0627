"""Command-line driver for datasets, training, attacks, grids, and reports.

Every subcommand that takes ``--config`` reads one schema: the fields of
``experiments.ExperimentConfig`` (unset fields keep their defaults), plus
the two run keys that a grid sets for each of its cells, ``seed`` and
``weights`` (the fields of ``losses.MtlWeights``). An unknown key is an
error that names it, and ``grid`` refuses the run keys. ``gen-data``,
``train`` and ``attack`` run the grid's own cell code (``make_data``,
``train_model``, ``evaluate_model``), so one config file can drive a
model through every stage. ``gen-data`` writes a data directory as one
file, the recipe: the ``gen_dataset`` arguments and a sha256 of each
split. ``train`` regenerates all three splits from it, and ``eval`` and
``attack`` only the test split, each checked against its digest. The
stages share no targets file: ``attack`` derives the targets from the
seed the recipe records and its own config's ``n_targets`` and
``len_range``. All outputs are deterministic functions of their configs,
so reruns are byte-identical. A refused input (a config value, a data
directory, a checkpoint, a checkpoint that does not fit the data
directory, a rows file, an attack target the CTC head cannot align)
and a training run that diverges end a subcommand with one line on
stderr and exit status 2; so does a grid run with fewer than one worker.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from .data import RECIPE, DataError, load_dataset, load_test_split, save_dataset
from .experiments import (ConfigError, MissingCellsError, ReportRow, check_model_fits,
                          evaluate_model, load_config, make_data, make_tables,
                          rows_from_csv, rows_to_csv, run_grid, train_model,
                          trend_check, trend_report)
from .losses import CtcInfeasibleError
from .model import CheckpointError, load_checkpoint, save_checkpoint
from .train import TrainingDiverged, evaluate_benign


def cmd_gen_data(args) -> int:
    config, seed, _weights = load_config(args.config, args.seed)
    ds = make_data(config, seed)
    save_dataset(args.out, ds, config.len_range)
    print(f"wrote {os.path.join(args.out, RECIPE)} "
          f"(seed={seed}, {len(ds.train)}/{len(ds.valid)}/{len(ds.test)} utterances)")
    return 0


def cmd_train(args) -> int:
    config, seed, weights = load_config(args.config, args.seed)
    params, log = train_model(config, weights, seed, load_dataset(args.data))
    os.makedirs(args.out, exist_ok=True)
    save_checkpoint(os.path.join(args.out, "checkpoint.txt"), params)
    log.to_csv(os.path.join(args.out, "trainlog.csv"))
    best = log.rows[log.selected_epoch - 1]["valid_l_mtl"]
    print(f"trained {config.epochs} epochs; kept epoch {log.selected_epoch} "
          f"(valid loss {best:.4f}); wrote {args.out}/checkpoint.txt")
    return 0


def cmd_eval(args) -> int:
    config, _seed, weights = load_config(args.config)
    params = load_checkpoint(args.checkpoint)
    utts = load_test_split(args.data)[0][:config.n_eval]
    check_model_fits(params.config, utts[0].features.shape[1])
    wer, acc = evaluate_benign(params, utts, weights,
                               max_len=config.max_decode_len)
    print(f"benign pooled WER={wer:.4f} accent_acc={acc:.4f} "
          f"(lambda_i_C={weights.lambda_i_C}, n={len(utts)})")
    if args.out:
        row = ReportRow(lambda_t_A=weights.lambda_t_A,
                        lambda_t_C=weights.lambda_t_C,
                        lambda_i_C=weights.lambda_i_C,
                        seed=params.config.seed, attack_steps=0,
                        benign_wer=wer, accent_acc=acc, adv_twer=None,
                        n_samples=len(utts), n_skipped=0)
        Path(args.out).write_text(rows_to_csv([row], config.hash()))
        print(f"wrote {args.out}")
    return 0


def cmd_attack(args) -> int:
    config, _seed, weights = load_config(args.config)
    test, seed = load_test_split(args.data)
    rows = evaluate_model(config, load_checkpoint(args.checkpoint), test, seed,
                          weights)
    Path(args.out).write_text(rows_to_csv(rows, config.hash()))
    for r in rows:
        print(f"steps={r.attack_steps}: AdvTWER={r.adv_twer:.4f} "
              f"(attacked {r.n_samples}; benign WER={r.benign_wer:.4f})")
    print(f"wrote {args.out}")
    return 0


def cmd_grid(args) -> int:
    if args.workers < 1:
        raise ConfigError(f"the worker count (--workers) must be >= 1, got {args.workers}")
    config, _seed, _weights = load_config(args.config, run_keys=False)
    rows = run_grid(config, workers=args.workers, progress=lambda done, total:
                    print(f"cell {done}/{total} finished", flush=True))
    os.makedirs(args.out, exist_ok=True)
    out = os.path.join(args.out, "rows.csv")
    Path(out).write_text(rows_to_csv(rows, config.hash()))
    print(f"wrote {out} ({len(rows)} rows)")
    return 0


def cmd_report(args) -> int:
    try:
        rows = rows_from_csv(Path(args.rows).read_text())
    except ValueError as e:  # an undecodable file, too
        raise DataError(f"{args.rows}: {e}") from None
    steps = args.steps or sorted({r.attack_steps for r in rows if r.adv_twer is not None})
    # judged first, so that rows the checks refuse leave no tables behind
    text = trend_report(trend_check(rows, args.trend_steps or steps))
    os.makedirs(args.out, exist_ok=True)
    for name, table in make_tables(rows, steps).items():
        Path(args.out, name).write_text(table)
    Path(args.out, "trend_check.txt").write_text(text)
    print(text, end="")
    print(f"wrote tables and trend_check.txt under {args.out}")
    return 0


def comma_separated_ints(text: str) -> list[int]:
    return [int(s) for s in text.split(",")]


CONFIG_HELP = ("JSON config: ExperimentConfig fields plus the run keys "
               "seed and weights")


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="robustasr",
                                description=__doc__.splitlines()[0])
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen-data", help="generate the synthetic train, valid and test splits")
    g.add_argument("--config", help=CONFIG_HELP)
    g.add_argument("--seed", type=int, help="overrides the config's seed")
    g.add_argument("--out", required=True)
    g.set_defaults(fn=cmd_gen_data)

    t = sub.add_parser("train", help="train one model")
    t.add_argument("--config", help=CONFIG_HELP)
    t.add_argument("--data", required=True)
    t.add_argument("--seed", type=int, help="overrides the config's seed")
    t.add_argument("--out", required=True)
    t.set_defaults(fn=cmd_train)

    e = sub.add_parser("eval", help="benign evaluation of a checkpoint")
    e.add_argument("--config", help=CONFIG_HELP)
    e.add_argument("--data", required=True)
    e.add_argument("--checkpoint", required=True)
    e.add_argument("--out")
    e.set_defaults(fn=cmd_eval)

    a = sub.add_parser("attack", help="targeted PGD over the test split")
    a.add_argument("--config", help=CONFIG_HELP)
    a.add_argument("--data", required=True)
    a.add_argument("--checkpoint", required=True)
    a.add_argument("--out", required=True)
    a.set_defaults(fn=cmd_attack)

    gr = sub.add_parser("grid", help="run the full weight grid")
    gr.add_argument("--config", help="ExperimentConfig JSON, without "
                    "the run keys seed and weights")
    gr.add_argument("--out", required=True)
    gr.add_argument("--workers", type=int, default=1)
    gr.set_defaults(fn=cmd_grid)

    r = sub.add_parser("report", help="aggregate rows into tables and trends")
    r.add_argument("--rows", required=True)
    r.add_argument("--out", required=True)
    r.add_argument("--steps", type=comma_separated_ints, help="step columns")
    r.add_argument("--trend-steps", type=comma_separated_ints,
                   help="steps for the ordering checks")
    r.set_defaults(fn=cmd_report)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    # a refused input or a diverged run: one line and status 2, as argparse
    # gives a usage error; any other exception is a bug and keeps its
    # traceback
    except (ConfigError, DataError, CheckpointError, CtcInfeasibleError,
            MissingCellsError, TrainingDiverged, OSError) as e:
        print(f"robustasr: error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
