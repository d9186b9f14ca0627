"""Experiment grids over the loss-mixing weights, with CSV reporting.

A grid cell is one trained model: a (lambda_t_A, lambda_t_C, seed)
triple. Each cell is evaluated benign and attacked under one or both
inference modes ("match" keeps the CTC inference weight equal to its
training weight, "drop_ctc" sets it to zero), producing one report row
per snapshot step count. Cells are independent and deterministic, so
they can run in parallel worker processes; aggregation sorts rows into
a canonical order, which makes reruns byte-identical.

AdvTWER is pooled over the attacked samples (total edit errors against
the targets over total target words), like every other corpus metric
here.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import statistics
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from dataclasses import asdict, dataclass, fields, replace
from pathlib import Path
from typing import Iterable, Sequence

from . import autodiff as ad
from .attack import AttackConfig, calibrate, pgd_attack_batch, target_feasible
from .data import (N_ACCENTS, N_WORDS, DatasetSplit, gen_adv_targets,
                   gen_dataset, select_adv_target)
from .decode import joint_greedy_decode
from .losses import MtlWeights
from .metrics import WerStats, edit_distance_words, pooled_wer
from .model import ModelConfig, ModelParams, encode
from .train import TrainConfig, TrainLog, evaluate_benign, train_mtl

ROWS_VERSION = "robustasr-rows v1"
ROW_COLUMNS = ("lambda_t_A", "lambda_t_C", "lambda_i_C", "seed", "attack_steps",
               "benign_wer", "accent_acc", "adv_twer", "n_samples", "n_skipped")


class MissingCellsError(Exception):
    pass


class ConfigError(ValueError):
    pass


def _build(cls, d: dict, where: str = ""):
    """``cls(**d)``, refusing a key that is not a field of ``cls``."""
    unknown = sorted(set(d) - {f.name for f in fields(cls)})
    if unknown:
        raise ConfigError("unknown config key " +
                          ", ".join(repr(where + k) for k in unknown))
    return cls(**d)


@dataclass(frozen=True)
class GridSpec:
    lambda_t_A_values: tuple[float, ...] = (1.0, 0.9, 0.8, 0.7, 0.6, 0.5)
    lambda_t_C_values: tuple[float, ...] = (0.0, 0.3, 0.5, 0.7, 1.0)
    modes: tuple[str, ...] = ("match", "drop_ctc")
    report_steps: tuple[int, ...] = (10, 50, 100, 200)
    seeds: tuple[int, ...] = (0, 1, 2)

    def __post_init__(self):
        if not (self.lambda_t_A_values and self.lambda_t_C_values):
            raise ValueError("weight grids must be nonempty")
        if not self.modes or any(m not in ("match", "drop_ctc") for m in self.modes):
            raise ValueError("modes must be a nonempty subset of {match, drop_ctc}")
        if not self.report_steps or not self.seeds:
            raise ValueError("report_steps and seeds must be nonempty")
        if min(self.report_steps) < 0:
            raise ValueError(f"report_steps {self.report_steps} holds a negative step")


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything one grid run needs; hashes into the report header."""

    grid: GridSpec = GridSpec()
    n_train: int = 2000
    n_valid: int = 200
    n_test: int = 200
    len_range: tuple[int, int] = (2, 6)
    n_targets: int = 12
    epochs: int = 30
    learning_rate: float = 0.05
    batch_size: int = 8
    n_attack: int = 50
    n_eval: int = 200
    epsilon_ratio: float = 0.10
    alpha_fraction: float = 1.0 / 40.0
    max_decode_len: int = 10
    model: ModelConfig = ModelConfig()

    def __post_init__(self):
        for name in ("learning_rate", "epsilon_ratio", "alpha_fraction"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be positive and finite, got {value}")
        for name in ("n_eval", "n_attack", "epochs", "batch_size", "max_decode_len"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True)

    @classmethod
    def from_dict(cls, d: dict) -> "ExperimentConfig":
        d = dict(d)
        if "grid" in d:
            g = {k: tuple(v) if isinstance(v, list) else v
                 for k, v in d["grid"].items()}
            d["grid"] = _build(GridSpec, g, "grid.")
        if "model" in d:
            d["model"] = _build(ModelConfig, d["model"], "model.")
        if "len_range" in d:
            d["len_range"] = tuple(d["len_range"])
        return _build(cls, d)

    def hash(self) -> str:
        return hashlib.sha256(self.to_json().encode()).hexdigest()[:12]


@dataclass
class ReportRow:
    lambda_t_A: float
    lambda_t_C: float
    lambda_i_C: float
    seed: int
    attack_steps: int
    benign_wer: float
    accent_acc: float
    adv_twer: float | None
    n_samples: int
    n_skipped: int

    def sort_key(self):
        return (self.lambda_t_A, self.lambda_t_C, self.lambda_i_C, self.seed,
                self.attack_steps)


def rows_to_csv(rows: Sequence[ReportRow], config_hash: str) -> str:
    lines = [f"# {ROWS_VERSION} config={config_hash}", ",".join(ROW_COLUMNS)]
    for r in sorted(rows, key=ReportRow.sort_key):
        vals = (getattr(r, c) for c in ROW_COLUMNS)
        lines.append(",".join("" if v is None else repr(v) if isinstance(v, float)
                              else str(v) for v in vals))
    return "\n".join(lines) + "\n"


def _cell(column: str, text: str):
    if column in ("seed", "attack_steps", "n_samples", "n_skipped"):
        return int(text)
    return None if column == "adv_twer" and not text else float(text)


def rows_from_csv(text: str) -> list[ReportRow]:
    lines = [(i, l) for i, l in enumerate(text.splitlines(), 1)
             if l and not l.startswith("#")]
    if not lines or lines[0][1] != ",".join(ROW_COLUMNS):
        raise ValueError("unrecognized rows CSV header")
    rows = []
    for i, line in lines[1:]:
        cells = line.split(",")
        try:
            if len(cells) != len(ROW_COLUMNS):
                raise ValueError(f"{len(cells)} fields, not {len(ROW_COLUMNS)}")
            rows.append(ReportRow(*(_cell(c, v) for c, v in zip(ROW_COLUMNS, cells))))
        except ValueError as e:
            raise ValueError(f"rows CSV line {i}: {e}") from None
    return rows


# ---------------------------------------------------------------------------
# attack evaluation


def attack_split(params: ModelParams, utterances, targets, weights: MtlWeights,
                 epsilon: float, alpha: float, report_steps: Sequence[int],
                 max_decode_len: int = 10):
    """Attack the utterances as one batch, decode the snapshots, pool
    AdvTWER per step.

    Returns (pooled AdvTWER per step, attacked count, skipped count).
    Samples whose CTC branch cannot align the target are skipped, never
    silently downgraded to a decoder-only loss.
    """
    steps_sorted = tuple(sorted(set(report_steps)))
    cfg = AttackConfig(epsilon=epsilon, alpha=alpha, steps=steps_sorted[-1],
                       weights=weights, report_at=steps_sorted)
    per_step: dict[int, list[WerStats]] = {s: [] for s in steps_sorted}
    attacked = []
    for utt in utterances:
        target = select_adv_target(utt.transcript, targets)
        if target_feasible(utt.features, target, weights):
            attacked.append((utt.features, target))
    results = pgd_attack_batch(params, [x for x, _ in attacked],
                               [t for _, t in attacked], cfg)
    for (_x, target), result in zip(attacked, results):
        for s in steps_sorted:
            with ad.no_grad():
                hidden = encode(params, ad.constant(result.snapshots[s]))
                hyp = joint_greedy_decode(params, hidden, weights,
                                          max_decode_len).hypothesis
            per_step[s].append(edit_distance_words(target, hyp))
    pooled = {s: pooled_wer(stats) if stats else None
              for s, stats in per_step.items()}
    return pooled, len(attacked), len(utterances) - len(attacked)


def load_config(path=None, seed: int | None = None, run_keys: bool = True
                ) -> tuple[ExperimentConfig, int, MtlWeights]:
    """A config file: ExperimentConfig fields plus the run keys a grid
    sets per cell, ``seed`` (default 0, overridden by the argument) and
    ``weights`` (MtlWeights fields), which ``run_keys=False`` refuses."""
    d = json.loads(Path(path).read_text()) if path else {}
    if not run_keys and {"seed", "weights"} & d.keys():
        raise ConfigError(f"{path}: a grid sets seed and weights itself, "
                          "from grid.seeds and the lambda grids")
    weights = _build(MtlWeights, d.pop("weights", {}), "weights.")
    file_seed = d.pop("seed", 0)
    return ExperimentConfig.from_dict(d), file_seed if seed is None else seed, weights


def make_data(config: ExperimentConfig,
              seed: int) -> tuple[DatasetSplit, list[tuple[int, ...]]]:
    """The seed's three splits and attack targets."""
    ds = gen_dataset(seed, n_train=config.n_train, n_valid=config.n_valid,
                     n_test=config.n_test, len_range=config.len_range,
                     feat_dim=config.model.feat_dim)
    targets = gen_adv_targets(seed, count=config.n_targets,
                              len_range=config.len_range)
    return ds, targets


def _check_output_sizes(model: ModelConfig) -> None:
    """Refuse a model without one output per word and per accent of the data."""
    if model.vocab_size != N_WORDS:
        raise ConfigError(f"model.vocab_size is {model.vocab_size}, "
                          f"the data has {N_WORDS} words")
    if model.n_accents != N_ACCENTS:
        raise ConfigError(f"model.n_accents is {model.n_accents}, "
                          f"the data has {N_ACCENTS} accents")


def train_model(config: ExperimentConfig, weights: MtlWeights, seed: int,
                ds: DatasetSplit) -> tuple[ModelParams, TrainLog]:
    """Train one model on ``ds`` with the training mix of ``weights``."""
    if ds.feat_dim != config.model.feat_dim:
        raise ConfigError(f"data has feat_dim {ds.feat_dim}, "
                          f"model.feat_dim is {config.model.feat_dim}")
    _check_output_sizes(config.model)
    train_cfg = TrainConfig(weights=weights, epochs=config.epochs,
                            learning_rate=config.learning_rate,
                            batch_size=config.batch_size, seed=seed)
    return train_mtl(replace(config.model, seed=seed), train_cfg, ds)


def evaluate_model(config: ExperimentConfig, params: ModelParams, test,
                   targets, weights: MtlWeights) -> list[ReportRow]:
    """Benign WER on ``test[:n_eval]`` and AdvTWER on ``test[:n_attack]``
    at the inference weight of ``weights``, one row per report step; the
    attack ball is calibrated on all of ``test``."""
    _check_output_sizes(params.config)
    epsilon, alpha = calibrate(test, ratio=config.epsilon_ratio,
                               alpha_fraction=config.alpha_fraction)
    benign_wer, accent_acc = evaluate_benign(
        params, test[:config.n_eval], weights, max_len=config.max_decode_len)
    pooled, n_attacked, n_skipped = attack_split(
        params, test[:config.n_attack], targets, weights, epsilon, alpha,
        config.grid.report_steps, max_decode_len=config.max_decode_len)
    return [ReportRow(lambda_t_A=weights.lambda_t_A, lambda_t_C=weights.lambda_t_C,
                      lambda_i_C=weights.lambda_i_C, seed=params.config.seed,
                      attack_steps=step, benign_wer=benign_wer, accent_acc=accent_acc,
                      adv_twer=pooled[step], n_samples=n_attacked, n_skipped=n_skipped)
            for step in sorted(pooled)]


def run_cell(config: ExperimentConfig, lam_a: float, lam_c: float,
             seed: int) -> list[ReportRow]:
    """Train one model and evaluate it under every inference mode."""
    ds, targets = make_data(config, seed)
    params, _log = train_model(config, MtlWeights(lam_a, lam_c), seed, ds)
    rows: list[ReportRow] = []
    # At lambda_t_C=0 both modes infer with lambda_i_C=0: evaluate and
    # attack that model once and emit the rows under each mode.
    done: dict[MtlWeights, list[ReportRow]] = {}
    for mode in config.grid.modes:
        weights = MtlWeights(lam_a, lam_c, lam_c if mode == "match" else 0.0)
        if weights not in done:
            done[weights] = evaluate_model(config, params, ds.test, targets,
                                           weights)
        rows += done[weights]
    return rows


def run_grid(config: ExperimentConfig, workers: int = 1,
             progress=None) -> list[ReportRow]:
    """Cross product of the weight grids and seeds, one training per cell."""
    g = config.grid
    cells = list(itertools.product(g.lambda_t_A_values, g.lambda_t_C_values,
                                   g.seeds))
    rows: list[ReportRow] = []
    with ProcessPoolExecutor(workers) if workers > 1 else nullcontext() as pool:
        results = (pool.map if pool else map)(
            run_cell, itertools.repeat(config), *zip(*cells))
        for i, cell_rows in enumerate(results, 1):
            rows += cell_rows
            if progress:
                progress(i, len(cells))
    rows.sort(key=ReportRow.sort_key)
    return rows


# ---------------------------------------------------------------------------
# aggregation and trend checks


def _median_twer(rows: Iterable[ReportRow], lam_a: float, lam_c: float,
                 lam_i: float, step: int) -> float:
    vals = [r.adv_twer for r in rows
            if r.lambda_t_A == lam_a and r.lambda_t_C == lam_c
            and r.lambda_i_C == lam_i and r.attack_steps == step
            and r.adv_twer is not None]
    if not vals:
        raise MissingCellsError(
            f"no rows for lambda_t_A={lam_a} lambda_t_C={lam_c} "
            f"lambda_i_C={lam_i} steps={step}")
    return statistics.median(vals)


@dataclass
class TrendResult:
    name: str
    description: str
    passed: bool
    details: str


STL_CTC = (1.0, 1.0, 1.0)
STL_DEC = (1.0, 0.0, 0.0)
MTL_MATCH = (1.0, 0.5, 0.5)
MTL_DROP = (1.0, 0.5, 0.0)
ALL3_DROP = (0.7, 0.5, 0.0)


def trend_check(rows: Sequence[ReportRow],
                steps: Sequence[int] = (100, 200),
                tolerance: float = 0.02) -> list[TrendResult]:
    """Robustness-ordering assertions on seed-median AdvTWER.

    Each assertion must hold at every requested step count. Missing
    cells, or no step count at all, raise rather than silently passing.
    """
    if not steps:
        raise MissingCellsError("no attack steps to judge")
    results = []

    def med(cfg, step):
        return _median_twer(rows, *cfg, step)

    checks_a = []
    checks_b = []
    checks_c = []
    checks_d = []
    others = {(r.lambda_t_A, r.lambda_t_C, r.lambda_i_C) for r in rows} - {ALL3_DROP}
    for step in steps:
        stl_ctc = med(STL_CTC, step)
        stl_dec = med(STL_DEC, step)
        checks_a.append((step, stl_ctc, stl_dec, stl_ctc < stl_dec))
        mtl_match = med(MTL_MATCH, step)
        checks_b.append((step, mtl_match, stl_dec,
                         mtl_match <= stl_dec + tolerance))
        mtl_drop = med(MTL_DROP, step)
        checks_c.append((step, mtl_drop, max(stl_ctc, stl_dec),
                         mtl_drop > stl_ctc and mtl_drop > stl_dec))
        all3 = med(ALL3_DROP, step)
        floor = max(med(c, step) for c in others) if others else 0.0
        checks_d.append((step, all3, floor, all3 >= floor - tolerance))

    def pack(name, desc, checks):
        passed = all(ok for *_rest, ok in checks)
        details = "; ".join(f"steps={s}: {x:.4f} vs {y:.4f}"
                            for s, x, y, _ok in checks)
        results.append(TrendResult(name, desc, passed, details))

    pack("a", "STL-CTC is more vulnerable than STL-DEC", checks_a)
    pack("b", "CTC-in-inference MTL does not beat STL-DEC "
              f"(tolerance {tolerance})", checks_b)
    pack("c", "CTC-dropped MTL beats both STL baselines", checks_c)
    pack("d", "all-three-heads MTL is within tolerance of the best "
              "everywhere", checks_d)
    return results


def trend_report(results: Sequence[TrendResult]) -> str:
    lines = []
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        lines.append(f"[{status}] {r.name}: {r.description}")
        lines.append(f"        {r.details}")
    lines.append("overall: " + ("PASS" if all(r.passed for r in results) else "FAIL"))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# table shaping


def _table(rows: Sequence[ReportRow], fixed: dict, axis: str,
           steps: Sequence[int]) -> str:
    """Seed-median AdvTWER, one line per axis value, one column per step."""
    axis_vals = sorted({getattr(r, axis) for r in rows
                        if all(getattr(r, k) == v for k, v in fixed.items())})
    header = [axis] + [f"steps_{s}" for s in steps]
    lines = [",".join(header)]
    for v in axis_vals:
        cells = [repr(v)]
        for s in steps:
            vals = [r.adv_twer for r in rows
                    if getattr(r, axis) == v and r.attack_steps == s
                    and r.adv_twer is not None
                    and all(getattr(r, k) == fv for k, fv in fixed.items())]
            cells.append(repr(statistics.median(vals)) if vals else "")
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def make_tables(rows: Sequence[ReportRow], steps: Sequence[int]) -> dict[str, str]:
    """The three grid summaries plus a long-format CSV for plotting."""
    match_rows = [r for r in rows if r.lambda_i_C == r.lambda_t_C]
    drop_rows = [r for r in rows if r.lambda_i_C == 0.0]
    tables = {
        "table_ctc_decoder_match.csv": _table(
            [r for r in match_rows if r.lambda_t_A == 1.0],
            {"lambda_t_A": 1.0}, "lambda_t_C", steps),
        "table_ctc_decoder_drop.csv": _table(
            [r for r in drop_rows if r.lambda_t_A == 1.0],
            {"lambda_t_A": 1.0}, "lambda_t_C", steps),
        "table_decoder_discriminator.csv": _table(
            [r for r in rows if r.lambda_t_C == 0.0 and r.lambda_i_C == 0.0],
            {"lambda_t_C": 0.0}, "lambda_t_A", steps),
        "table_all_heads.csv": _table(
            [r for r in drop_rows if r.lambda_t_A == 0.7],
            {"lambda_t_A": 0.7}, "lambda_t_C", steps),
    }
    long_lines = ["lambda_t_A,lambda_t_C,lambda_i_C,attack_steps,seed,adv_twer"]
    for r in sorted(rows, key=ReportRow.sort_key):
        if r.adv_twer is None:
            continue
        long_lines.append(
            f"{r.lambda_t_A!r},{r.lambda_t_C!r},{r.lambda_i_C!r},"
            f"{r.attack_steps},{r.seed},{r.adv_twer!r}")
    tables["advtwer_long.csv"] = "\n".join(long_lines) + "\n"
    return tables
