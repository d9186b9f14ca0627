"""The benchmark's workloads: inputs made from the seed, timed phases, rows.

Every workload uses the MTL-3 training mix (lambda_t_A=0.7, lambda_t_C=0.5)
and calls the program only through public functions of ``robustasr``.
``setup`` builds the inputs and warms up; ``run`` makes the workload's
phase calls (training, benign evaluation, attack) and returns the rows CSV
the calls produce.

Inputs are shape-matched: the seed draws a large pool of utterances, and
from it the workload takes, for each template shape stored in
``fixture/shapes.json``, one utterance with the same word count and frame
count. Transcripts, accents and noise follow the seed; the amount of work
does not, so runs with different seeds time the same work.
"""

from __future__ import annotations

import hashlib
import json
from collections import deque
from contextlib import nullcontext
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

import cpuspeed
from robustasr import autodiff as ad
from robustasr.attack import AttackConfig, calibrate, pgd_step
from robustasr.data import DatasetSplit, gen_adv_targets, gen_dataset
from robustasr.experiments import (ExperimentConfig, GridSpec, ReportRow,
                                   attack_split, rows_from_csv, rows_to_csv)
from robustasr.losses import MtlWeights
from robustasr.model import init_params, load_checkpoint
from robustasr.train import TrainConfig, evaluate_benign, sample_losses, train_mtl

HERE = Path(__file__).resolve().parent
FIXTURE_DIR = HERE / "fixture"
REFERENCE_DIR = HERE / "reference"

LAMBDA_T_A, LAMBDA_T_C = 0.7, 0.5
SHAPES = json.loads((FIXTURE_DIR / "shapes.json").read_text())
POOL_FACTOR = 10
MAX_DECODE_LEN = 10


class FixtureError(Exception):
    pass


# ---------------------------------------------------------------------------
# inputs


def _shape(utt) -> tuple[int, int]:
    return len(utt.transcript), utt.n_frames


def shape_matched(pool, shapes) -> list:
    """For each (words, frames) template shape, the first unused pool
    utterance of the nearest shape: the same word count and frame count
    when the pool has one left, else the closest word count, then frame
    count."""
    by_shape: dict[tuple[int, int], deque] = {}
    for utt in pool:
        by_shape.setdefault(_shape(utt), deque()).append(utt)
    out = []
    for words, frames in shapes:
        options = [s for s, q in by_shape.items() if q]
        if not options:
            raise ValueError("shape-matching pool is exhausted")
        best = min(options, key=lambda s: (abs(s[0] - words), abs(s[1] - frames), s))
        out.append(by_shape[best].popleft())
    return out


def matched_dataset(seed: int, n_train: int, n_valid: int, n_test: int,
                    span) -> DatasetSplit:
    shapes = SHAPES[f"{n_train}-{n_valid}-{n_test}"]
    with span("data.gen_dataset"):
        pool = gen_dataset(seed, n_train=POOL_FACTOR * n_train,
                           n_valid=POOL_FACTOR * n_valid,
                           n_test=POOL_FACTOR * n_test)
    return DatasetSplit(train=shape_matched(pool.train, shapes["train"]),
                        valid=shape_matched(pool.valid, shapes["valid"]),
                        test=shape_matched(pool.test, shapes["test"]),
                        seed=seed)


def load_fixture(span):
    """The checked-in checkpoint, refused unless its sha256 is the recorded one."""
    meta = json.loads((FIXTURE_DIR / "fixture.json").read_text())
    path = FIXTURE_DIR / meta["checkpoint"]
    digest = hashlib.sha256(path.read_bytes()).hexdigest()
    if digest != meta["sha256"]:
        raise FixtureError(
            f"{path}: sha256 {digest} differs from {meta['sha256']} recorded in "
            f"fixture.json; rebuild it with perfbench/fixture/make_fixture.py")
    with span("model.load_checkpoint"):
        params = load_checkpoint(path)
    return params, meta


def _config_hash(config: dict) -> str:
    return hashlib.sha256(json.dumps(config, sort_keys=True).encode()).hexdigest()[:12]


# ---------------------------------------------------------------------------
# phase bookkeeping


@dataclass
class PhaseCall:
    kind: str  # "train", "eval" or "attack"
    seconds: float  # rescaled to the reference CPU speed (see cpuspeed.py)
    raw_seconds: float
    units: int  # training passes, utterances, or nominal PGD steps


class PhaseLog:
    """Times each phase call; with a tracer, also wraps it in a span."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.calls: list[PhaseCall] = []
        self.attempted = 0

    def call(self, kind: str, units_of, fn, *args, **kwargs):
        self.attempted += 1
        ctx = self.tracer.span(f"phase.{kind}") if self.tracer else nullcontext()
        with ctx:
            result, raw, seconds = cpuspeed.timed(fn, *args, **kwargs)
        self.calls.append(PhaseCall(kind, seconds, raw, units_of(result)))
        return result


def _row(seed, lam_i, steps, benign_wer, accent_acc, adv_twer, n_samples,
         n_skipped) -> ReportRow:
    return ReportRow(lambda_t_A=LAMBDA_T_A, lambda_t_C=LAMBDA_T_C,
                     lambda_i_C=lam_i, seed=seed, attack_steps=steps,
                     benign_wer=benign_wer, accent_acc=accent_acc,
                     adv_twer=adv_twer, n_samples=n_samples, n_skipped=n_skipped)


def _warm_up(params, utt, targets, weights: MtlWeights, epsilon, alpha) -> None:
    """One tiny call down each path the timed phases take."""
    with ad.no_grad(), ad.tape():
        sample_losses(params, utt, weights)
    evaluate_benign(params, [utt], weights, max_len=2)
    cfg = AttackConfig(epsilon=epsilon, alpha=alpha, steps=1, weights=weights)
    pgd_step(params, utt.features, np.zeros_like(utt.features), targets[0], cfg)


# ---------------------------------------------------------------------------
# workloads


class CellMtl3:
    """One desk grid cell, trained from scratch; the body of
    ``experiments.run_cell`` rebuilt from its public calls."""

    name = "cell-mtl3"
    n_train, n_valid, n_test = 120, 20, 20
    epochs = 2
    n_attack = 2
    report_steps = (10, 50)
    trace_decodes = 10  # test utterances decoded per mode in the traced run

    def config(self, seed: int) -> ExperimentConfig:
        grid = GridSpec(lambda_t_A_values=(LAMBDA_T_A,),
                        lambda_t_C_values=(LAMBDA_T_C,),
                        report_steps=self.report_steps, seeds=(seed,))
        return ExperimentConfig(grid=grid, n_train=self.n_train,
                                n_valid=self.n_valid, n_test=self.n_test,
                                epochs=self.epochs, n_attack=self.n_attack,
                                n_eval=self.n_test)

    def setup(self, seed: int, span) -> dict:
        cfg = self.config(seed)
        ds = matched_dataset(seed, cfg.n_train, cfg.n_valid, cfg.n_test, span)
        targets = gen_adv_targets(seed, count=cfg.n_targets,
                                  len_range=cfg.len_range)
        epsilon, alpha = calibrate(ds.test, ratio=cfg.epsilon_ratio,
                                   alpha_fraction=cfg.alpha_fraction)
        warm = init_params(replace(cfg.model, seed=seed))
        _warm_up(warm, ds.train[0], targets, MtlWeights(LAMBDA_T_A, LAMBDA_T_C),
                 epsilon, alpha)
        return {"seed": seed, "config": cfg, "data": ds, "targets": targets,
                "epsilon": epsilon, "alpha": alpha}

    def modes(self) -> list[MtlWeights]:
        """The 'match' and 'drop_ctc' inference modes, in grid order."""
        return [MtlWeights(LAMBDA_T_A, LAMBDA_T_C, LAMBDA_T_C),
                MtlWeights(LAMBDA_T_A, LAMBDA_T_C, 0.0)]

    def run(self, state: dict, log: PhaseLog) -> str:
        seed, cfg, ds = state["seed"], state["config"], state["data"]
        train_cfg = TrainConfig(weights=MtlWeights(LAMBDA_T_A, LAMBDA_T_C),
                                epochs=cfg.epochs,
                                learning_rate=cfg.learning_rate,
                                batch_size=cfg.batch_size, seed=seed)
        params, _log = log.call("train", lambda _r: cfg.n_train * cfg.epochs,
                                train_mtl, replace(cfg.model, seed=seed),
                                train_cfg, ds)
        state["params"] = params
        max_steps = max(cfg.grid.report_steps)
        rows = []
        for weights in self.modes():
            benign_wer, accent_acc = log.call(
                "eval", lambda _r: cfg.n_eval, evaluate_benign, params,
                ds.test[:cfg.n_eval], weights, max_len=cfg.max_decode_len)
            pooled, n_attacked, n_skipped = log.call(
                "attack", lambda r: r[1] * max_steps, attack_split, params,
                ds.test[:cfg.n_attack], state["targets"], weights,
                state["epsilon"], state["alpha"], cfg.grid.report_steps,
                max_decode_len=cfg.max_decode_len)
            rows += [_row(seed, weights.lambda_i_C, s, benign_wer, accent_acc,
                          pooled[s], n_attacked, n_skipped) for s in sorted(pooled)]
        return rows_to_csv(rows, cfg.hash())

    def expected_rows(self) -> int:
        return len(self.modes()) * len(self.report_steps)


class _FixtureWorkload:
    """Shared set-up of the workloads that load the fixture checkpoint."""

    n_test = 200
    trace_decodes = 10

    def setup(self, seed: int, span) -> dict:
        params, meta = load_fixture(span)
        ds = matched_dataset(seed, 1, 1, self.n_test, span)
        targets = gen_adv_targets(seed)
        epsilon, alpha = calibrate(ds.test)
        _warm_up(params, ds.test[0], targets,
                 MtlWeights(LAMBDA_T_A, LAMBDA_T_C), epsilon, alpha)
        return {"seed": seed, "params": params, "fixture": meta, "test": ds.test,
                "targets": targets, "epsilon": epsilon, "alpha": alpha}

    def config_hash(self, state: dict) -> str:
        return _config_hash({"workload": self.name, "seed": state["seed"],
                             "fixture": state["fixture"]["sha256"],
                             "n_test": self.n_test})


class AttackDropCtc(_FixtureWorkload):
    """Targeted PGD with the CTC head dropped at inference (lambda_i_C=0);
    the body of the CLI's ``attack`` command."""

    name = "attack-drop-ctc"
    n_attack = 10
    n_benign = n_attack  # utterances in the benign WER of each row
    report_steps = (10, 50, 100, 200)

    def modes(self) -> list[MtlWeights]:
        return [MtlWeights(LAMBDA_T_A, LAMBDA_T_C, 0.0)]

    def run(self, state: dict, log: PhaseLog) -> str:
        params, (weights,) = state["params"], self.modes()
        utts = state["test"][:self.n_attack]
        benign_wer, accent_acc = log.call(
            "eval", lambda _r: len(utts), evaluate_benign, params, utts,
            weights, max_len=MAX_DECODE_LEN)
        pooled, n_attacked, n_skipped = log.call(
            "attack", lambda r: r[1] * max(self.report_steps), attack_split,
            params, utts, state["targets"], weights, state["epsilon"],
            state["alpha"], self.report_steps, max_decode_len=MAX_DECODE_LEN)
        rows = [_row(state["seed"], 0.0, s, benign_wer, accent_acc, pooled[s],
                     n_attacked, n_skipped) for s in sorted(pooled)]
        return rows_to_csv(rows, self.config_hash(state))

    def expected_rows(self) -> int:
        return len(self.report_steps)


class DecodeHybrid(_FixtureWorkload):
    """Benign hybrid decoding of the fixture at three inference weights."""

    name = "decode-hybrid"
    n_benign = _FixtureWorkload.n_test
    inference_weights = (0.0, 0.5, 1.0)
    trace_decodes = 50

    def modes(self) -> list[MtlWeights]:
        return [MtlWeights(LAMBDA_T_A, LAMBDA_T_C, lam)
                for lam in self.inference_weights]

    def run(self, state: dict, log: PhaseLog) -> str:
        utts = state["test"]
        rows = []
        for weights in self.modes():
            wer, acc = log.call("eval", lambda _r: len(utts), evaluate_benign,
                                state["params"], utts, weights,
                                max_len=MAX_DECODE_LEN)
            rows.append(_row(state["seed"], weights.lambda_i_C, 0, wer, acc,
                             None, len(utts), 0))
        return rows_to_csv(rows, self.config_hash(state))

    def expected_rows(self) -> int:
        return len(self.inference_weights)


WORKLOADS = {w.name: w for w in (CellMtl3(), AttackDropCtc(), DecodeHybrid())}


# ---------------------------------------------------------------------------
# output checks


def reference_path(workload: str, seed: int) -> Path:
    return REFERENCE_DIR / workload / f"seed-{seed}.csv"


def rows_ok(csv_text: str, reference_text: str | None) -> int | None:
    """1 if the rows equal the stored reference byte for byte, 0 if they
    differ, None when no reference is stored for this seed."""
    if reference_text is None:
        return None
    return int(csv_text == reference_text)


def read_reference(workload: str, seed: int) -> str | None:
    path = reference_path(workload, seed)
    return path.read_text() if path.exists() else None


def sanity_problems(workload, state: dict, csv_text: str) -> list[str]:
    """Checks that hold for every seed, stored reference or not."""
    rows = rows_from_csv(csv_text)
    problems = []
    if len(rows) != workload.expected_rows():
        problems.append(f"{len(rows)} rows, expected {workload.expected_rows()}")
    wanted = {w.lambda_i_C for w in workload.modes()}
    if {r.lambda_i_C for r in rows} != wanted:
        problems.append(f"rows cover lambda_i_C {sorted({r.lambda_i_C for r in rows})}")
    for r in rows:
        if not 0.0 <= r.accent_acc <= 1.0 or r.benign_wer < 0.0:
            problems.append(f"row out of range: {r}")
        if r.adv_twer is not None and r.adv_twer < 0.0:
            problems.append(f"negative AdvTWER: {r}")
    fixture = state.get("fixture")
    if fixture:
        # the fixture generalises across seeds: its benign WER on a fresh
        # test set stays near the figure recorded on its own 200 test
        # utterances, within a margin that widens as 1/sqrt(utterances)
        margin = 0.15 * (fixture["n_test"] / workload.n_benign) ** 0.5
        for r in rows:
            recorded = fixture["benign_test"][repr(r.lambda_i_C)]["wer"]
            if r.benign_wer > recorded + margin:
                problems.append(f"benign WER {r.benign_wer:.3f} at lambda_i_C="
                                f"{r.lambda_i_C} more than {margin:.2f} above the "
                                f"fixture's {recorded:.3f}")
    return problems
