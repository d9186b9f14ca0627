"""Experiment grids over the loss-mixing weights, with CSV reporting.

A grid cell is one trained model: a (lambda_t_A, lambda_t_C, seed)
triple. Each cell is evaluated benign and attacked under one or both
inference modes ("match" keeps the CTC inference weight equal to its
training weight, "drop_ctc" sets it to zero), producing one report row
per snapshot step count. Cells are independent and deterministic, so
they can run in parallel worker processes; aggregation sorts rows into
a canonical order, which makes reruns byte-identical.

AdvTWER is pooled over every utterance attacked, none skipped (edit
errors against the targets over target words), like every other corpus
metric here. The four tables (``TABLES``) and the claims (a)-(d) that
``trend_check`` judges (``CLAIMS``) are data that read one index,
``seed_medians``: the seed-median AdvTWER of each configuration and step.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import operator
import re
import statistics
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from dataclasses import asdict, dataclass, fields, replace
from pathlib import Path
from typing import Iterable, Sequence

from .attack import AttackConfig, calibrate, pgd_attack_batch
from .data import (N_ACCENTS, N_WORDS, DatasetSplit, Utterance, check_int,
                   check_len_range, check_real, gen_adv_targets, gen_dataset,
                   select_adv_target)
from .losses import MtlWeights
from .metrics import edit_distance_words, pooled_wer
from .model import ModelConfig, ModelParams
from .train import TrainConfig, TrainLog, decode_blocks, evaluate_benign, train_mtl

ROWS_VERSION = "robustasr-rows v1"
# the AdvTWER slack that claims (b) and (d) allow
TOLERANCE = 0.02


class MissingCellsError(Exception):
    pass


class ConfigError(ValueError):
    pass


def _build(cls, d: dict, where: str = ""):
    """``cls(**d)`` with JSON lists read as tuples, refusing a section that
    is not an object and a key that is not a field of ``cls``."""
    if not isinstance(d, dict):
        raise ConfigError(f"{where[:-1]} must be a JSON object, got {d!r}")
    unknown = sorted(set(d) - {f.name for f in fields(cls)})
    if unknown:
        raise ConfigError("unknown config key " +
                          ", ".join(repr(where + k) for k in unknown))
    return cls(**{k: tuple(v) if isinstance(v, list) else v for k, v in d.items()})


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
        for name in ("lambda_t_A_values", "lambda_t_C_values"):
            object.__setattr__(self, name, tuple(
                check_real(f"{name} entry", v, unit=True) for v in getattr(self, name)))
        if not self.modes or any(m not in ("match", "drop_ctc") for m in self.modes):
            raise ValueError("modes must be a nonempty subset of {match, drop_ctc}")
        if not self.report_steps or not self.seeds:
            raise ValueError("report_steps and seeds must be nonempty")
        # numpy refuses a negative seed only once the cell's data is generated
        for name in ("report_steps", "seeds"):
            for v in getattr(self, name):
                check_int(f"{name} entry", v, 0)
        # a repeated value trains its cells twice and writes their rows twice
        for name in ("lambda_t_A_values", "lambda_t_C_values", "modes", "seeds"):
            values = getattr(self, name)
            if len(set(values)) != len(values):
                raise ValueError(f"{name} {values} repeats a value")


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
            object.__setattr__(self, name, check_real(name, getattr(self, name)))
        for name in ("n_train", "n_valid", "n_test", "n_targets", "n_eval", "n_attack",
                     "epochs", "batch_size", "max_decode_len"):
            check_int(name, getattr(self, name), 1)
        check_len_range(self.len_range)
        # the attack builds its targets only after training
        n_lengths = self.len_range[1] - self.len_range[0] + 1
        if self.n_targets < n_lengths:
            raise ValueError(f"n_targets must be >= {n_lengths} to cover len_range "
                             f"{self.len_range}, got {self.n_targets}")

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True)

    @classmethod
    def from_dict(cls, d: dict) -> "ExperimentConfig":
        d = dict(d)
        if "grid" in d:
            d["grid"] = _build(GridSpec, d["grid"], "grid.")
        if "model" in d:
            d["model"] = _build(ModelConfig, d["model"], "model.")
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


ROW_COLUMNS = tuple(f.name for f in fields(ReportRow))


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
    if column == "adv_twer" and not text:
        return None
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"{column} must be finite, got {text}")
    return value


def rows_from_csv(text: str) -> list[ReportRow]:
    """The rows of a CSV that ``rows_to_csv`` wrote, refusing another
    version line or column header."""
    lines = text.splitlines()
    if not (lines and re.fullmatch(rf"# {ROWS_VERSION} config=\S+", lines[0])):
        raise ValueError(f"rows CSV line 1: {lines[0] if lines else ''!r} is not "
                         f"'# {ROWS_VERSION} config=<hash>'")
    if lines[1:2] != [",".join(ROW_COLUMNS)]:
        raise ValueError("rows CSV line 2: unrecognized column header")
    rows = []
    for i, line in enumerate(lines[2:], 3):
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
    """Attack every utterance as one batch, decode each report step's
    snapshots through ``decode_blocks``, pool AdvTWER per step.

    Returns (pooled AdvTWER per step, attacked count, skipped count), the
    last always 0 until the rows format drops it. A target the CTC head
    cannot align is refused by ``ctc_loss``'s ``CtcInfeasibleError``.
    """
    cfg = AttackConfig(epsilon=epsilon, alpha=alpha, steps=max(report_steps),
                       weights=weights, report_at=tuple(set(report_steps)))
    chosen = [select_adv_target(utt.transcript, targets) for utt in utterances]
    results = pgd_attack_batch(params, [utt.features for utt in utterances], chosen, cfg)
    pooled = {}
    for s in cfg.report_at:
        decoded, _accents = decode_blocks(
            params, [result.snapshots[s] for result in results], weights,
            max_decode_len)
        pooled[s] = pooled_wer([edit_distance_words(target, res.hypothesis)
                                for target, res in zip(chosen, decoded)])
    return pooled, len(utterances), 0


def load_config(path=None, seed: int | None = None, run_keys: bool = True
                ) -> tuple[ExperimentConfig, int, MtlWeights]:
    """A config file: ExperimentConfig fields plus the run keys a grid
    sets per cell, ``seed`` (default 0, overridden by the argument) and
    ``weights`` (MtlWeights fields), which ``run_keys=False`` refuses.
    A file that is not a JSON object, or a value the fields refuse, is a
    ``ConfigError`` that names the file."""
    if seed is not None and seed < 0:
        raise ConfigError(f"the seed override (--seed) must be >= 0, got {seed}")
    try:
        d = json.loads(Path(path).read_text()) if path else {}
        if not isinstance(d, dict):
            raise ConfigError("not a JSON object")
        if not run_keys and {"seed", "weights"} & d.keys():
            raise ConfigError("a grid sets seed and weights itself, "
                              "from grid.seeds and the lambda grids")
        weights = _build(MtlWeights, d.pop("weights", {}), "weights.")
        file_seed = d.pop("seed", 0)
        check_int("seed", file_seed, 0)
        config = ExperimentConfig.from_dict(d)
    except (TypeError, ValueError) as e:  # bad JSON raises a ValueError too
        raise ConfigError(f"{path}: {e}") from None
    return config, file_seed if seed is None else seed, weights


def make_data(config: ExperimentConfig, seed: int) -> DatasetSplit:
    """The seed's three splits; ``evaluate_model`` derives the attack
    targets from their seed."""
    return gen_dataset(seed, n_train=config.n_train, n_valid=config.n_valid,
                       n_test=config.n_test, len_range=config.len_range,
                       feat_dim=config.model.feat_dim)


def check_model_fits(model: ModelConfig, feat_dim: int) -> None:
    """Refuse a model whose input is not the data's ``feat_dim`` or that
    has not one output per word and per accent of the data."""
    if feat_dim != model.feat_dim:
        raise ConfigError(f"data has feat_dim {feat_dim}, model.feat_dim is {model.feat_dim}")
    if model.vocab_size != N_WORDS:
        raise ConfigError(f"model.vocab_size is {model.vocab_size}, "
                          f"the data has {N_WORDS} words")
    if model.n_accents != N_ACCENTS:
        raise ConfigError(f"model.n_accents is {model.n_accents}, "
                          f"the data has {N_ACCENTS} accents")


def train_model(config: ExperimentConfig, weights: MtlWeights, seed: int,
                ds: DatasetSplit) -> tuple[ModelParams, TrainLog]:
    """Train one model on ``ds`` with the training mix of ``weights``."""
    check_model_fits(config.model, ds.feat_dim)
    train_cfg = TrainConfig(weights=weights, epochs=config.epochs,
                            learning_rate=config.learning_rate,
                            batch_size=config.batch_size, seed=seed)
    return train_mtl(replace(config.model, seed=seed), train_cfg, ds)


def evaluate_model(config: ExperimentConfig, params: ModelParams,
                   test: Sequence[Utterance], seed: int,
                   weights: MtlWeights) -> list[ReportRow]:
    """Benign WER on ``test[:n_eval]`` and AdvTWER on ``test[:n_attack]``
    at the inference weight of ``weights``, one row per report step; the
    attack ball is calibrated on all of ``test``. The attack targets are
    ``gen_adv_targets`` of the data's ``seed`` under ``config``'s
    ``n_targets`` and ``len_range``."""
    check_model_fits(params.config, test[0].features.shape[1])
    targets = gen_adv_targets(seed, count=config.n_targets,
                              len_range=config.len_range)
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
    ds = make_data(config, seed)
    params, _log = train_model(config, MtlWeights(lam_a, lam_c), seed, ds)
    rows: list[ReportRow] = []
    # At lambda_t_C=0 both modes infer with lambda_i_C=0: evaluate and
    # attack that model once and emit the rows under each mode.
    done: dict[MtlWeights, list[ReportRow]] = {}
    for mode in config.grid.modes:
        weights = MtlWeights(lam_a, lam_c, lam_c if mode == "match" else 0.0)
        if weights not in done:
            done[weights] = evaluate_model(config, params, ds.test, ds.seed, weights)
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


class _SeedMedians(dict):
    def __missing__(self, key):
        raise MissingCellsError("no rows for lambda_t_A={} lambda_t_C={} "
                                "lambda_i_C={} steps={}".format(*key))


def seed_medians(rows: Iterable[ReportRow]) -> dict[tuple, float]:
    """The seed-median AdvTWER of each (lambda_t_A, lambda_t_C, lambda_i_C,
    attack_steps) key, over the rows' AdvTWER values that are not None.
    Looking up a key without one raises ``MissingCellsError``."""
    values: dict[tuple, list[float]] = {}
    for r in rows:
        if r.adv_twer is not None:
            key = (r.lambda_t_A, r.lambda_t_C, r.lambda_i_C, r.attack_steps)
            values.setdefault(key, []).append(r.adv_twer)
    return _SeedMedians((key, statistics.median(v)) for key, v in values.items())


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

# The claims as (name, description, subject, rivals, relation, slack): at
# each step, with x the subject's seed median and y the largest of the
# rivals' (0.0 if none), the claim holds if relation(x, y + slack).
# Rivals None are every other configuration in the rows.
CLAIMS = (
    ("a", "STL-CTC is more vulnerable than STL-DEC",
     STL_CTC, (STL_DEC,), operator.lt, 0.0),
    ("b", f"CTC-in-inference MTL does not beat STL-DEC (tolerance {TOLERANCE})",
     MTL_MATCH, (STL_DEC,), operator.le, TOLERANCE),
    ("c", "CTC-dropped MTL beats both STL baselines",
     MTL_DROP, (STL_CTC, STL_DEC), operator.gt, 0.0),
    ("d", "all-three-heads MTL is within tolerance of the best everywhere",
     ALL3_DROP, None, operator.ge, -TOLERANCE),
)


def trend_check(rows: Sequence[ReportRow], steps: Sequence[int]) -> list[TrendResult]:
    """Judge each of ``CLAIMS`` on seed-median AdvTWER: a claim must hold
    at every step of ``steps``. A missing cell, or no step at all, raises
    rather than silently passing."""
    if not steps:
        raise MissingCellsError("no attack steps to judge")
    medians = seed_medians(rows)
    configs = {(r.lambda_t_A, r.lambda_t_C, r.lambda_i_C) for r in rows}
    results = []
    for name, description, subject, rivals, relation, slack in CLAIMS:
        rivals = configs - {subject} if rivals is None else rivals
        checks = []
        for step in steps:
            x = medians[(*subject, step)]
            y = max((medians[(*c, step)] for c in rivals), default=0.0)
            checks.append((step, x, y, relation(x, y + slack)))
        details = "; ".join(f"steps={s}: {x:.4f} vs {y:.4f}" for s, x, y, _ok in checks)
        results.append(TrendResult(name, description, all(ok for *_r, ok in checks), details))
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


# Each summary as (file name, axis, the configurations it reads): one
# line per configuration, keyed by its axis value, which names it alone.
TABLES = (
    ("table_ctc_decoder_match.csv", "lambda_t_C", lambda a, c, i: a == 1.0 and i == c),
    ("table_ctc_decoder_drop.csv", "lambda_t_C", lambda a, _c, i: a == 1.0 and i == 0.0),
    ("table_decoder_discriminator.csv", "lambda_t_A",
     lambda _a, c, i: c == 0.0 and i == 0.0),
    ("table_all_heads.csv", "lambda_t_C", lambda a, _c, i: a == 0.7 and i == 0.0),
)


def make_tables(rows: Sequence[ReportRow], steps: Sequence[int]) -> dict[str, str]:
    """The four grid summaries of seed-median AdvTWER, one column per
    step, plus a long-format CSV for plotting."""
    medians = seed_medians(rows)
    configs = {(r.lambda_t_A, r.lambda_t_C, r.lambda_i_C) for r in rows}
    tables = {}
    for name, axis, reads in TABLES:
        col = ROW_COLUMNS.index(axis)  # a configuration is the rows' first three columns
        lines = [[axis] + [f"steps_{s}" for s in steps]]
        for cfg in sorted((c for c in configs if reads(*c)), key=lambda c: c[col]):
            cells = [medians.get((*cfg, s)) for s in steps]
            lines.append([repr(cfg[col])] + ["" if m is None else repr(m) for m in cells])
        tables[name] = "".join(",".join(line) + "\n" for line in lines)
    tables["advtwer_long.csv"] = "".join(
        ["lambda_t_A,lambda_t_C,lambda_i_C,attack_steps,seed,adv_twer\n"] +
        [f"{r.lambda_t_A!r},{r.lambda_t_C!r},{r.lambda_i_C!r},{r.attack_steps},{r.seed},"
         f"{r.adv_twer!r}\n" for r in sorted(rows, key=ReportRow.sort_key)
         if r.adv_twer is not None])
    return tables
