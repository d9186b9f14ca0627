import json
from dataclasses import replace

import numpy as np
import pytest

from robustasr import experiments
from robustasr.experiments import (
    ALL3_DROP,
    MTL_DROP,
    MTL_MATCH,
    STL_CTC,
    STL_DEC,
    ConfigError,
    ExperimentConfig,
    GridSpec,
    MissingCellsError,
    ReportRow,
    evaluate_model,
    make_data,
    make_tables,
    rows_from_csv,
    rows_to_csv,
    run_grid,
    train_model,
    trend_check,
    trend_report,
)
from robustasr.losses import MtlWeights
from robustasr.model import ModelConfig, init_params


def make_row(cfg, seed, step, twer, **kw):
    la, lc, li = cfg
    defaults = dict(benign_wer=0.1, accent_acc=0.9, n_samples=10, n_skipped=0)
    defaults.update(kw)
    return ReportRow(lambda_t_A=la, lambda_t_C=lc, lambda_i_C=li, seed=seed,
                     attack_steps=step, adv_twer=twer, **defaults)


def synthetic_rows(levels):
    """levels: config -> base AdvTWER; per-seed jitter keeps medians honest."""
    rows = []
    for cfg, base in levels.items():
        for seed in (0, 1, 2):
            for step in (100, 200):
                twer = base + 0.01 * (seed - 1) - (0.005 if step == 200 else 0.0)
                rows.append(make_row(cfg, seed, step, twer))
    return rows


GOOD_LEVELS = {
    STL_CTC: 0.10,
    STL_DEC: 0.40,
    MTL_MATCH: 0.39,
    MTL_DROP: 0.55,
    ALL3_DROP: 0.70,
}


def test_trend_check_all_pass_on_well_ordered_report():
    results = trend_check(synthetic_rows(GOOD_LEVELS))
    assert all(r.passed for r in results)
    text = trend_report(results)
    assert "overall: PASS" in text


def test_trend_check_fails_when_ctc_not_most_vulnerable():
    levels = dict(GOOD_LEVELS)
    levels[STL_CTC] = 0.80
    results = {r.name: r for r in trend_check(synthetic_rows(levels))}
    assert not results["a"].passed


def test_trend_check_fails_when_match_mode_beats_stl_dec():
    levels = dict(GOOD_LEVELS)
    levels[MTL_MATCH] = 0.50  # more than 0.02 above STL-DEC
    results = {r.name: r for r in trend_check(synthetic_rows(levels))}
    assert not results["b"].passed


def test_trend_check_fails_when_drop_mode_does_not_beat_baselines():
    levels = dict(GOOD_LEVELS)
    levels[MTL_DROP] = 0.30
    results = {r.name: r for r in trend_check(synthetic_rows(levels))}
    assert not results["c"].passed


def test_trend_check_fails_when_all_heads_is_not_best():
    levels = dict(GOOD_LEVELS)
    levels[ALL3_DROP] = 0.40
    results = {r.name: r for r in trend_check(synthetic_rows(levels))}
    assert not results["d"].passed


def test_trend_check_missing_cells_raise():
    rows = synthetic_rows({STL_CTC: 0.1, STL_DEC: 0.4})
    with pytest.raises(MissingCellsError):
        trend_check(rows)


def test_trend_check_without_steps_raises():
    with pytest.raises(MissingCellsError, match="no attack steps to judge"):
        trend_check(synthetic_rows(GOOD_LEVELS), steps=())


def test_rows_csv_round_trip():
    rows = synthetic_rows(GOOD_LEVELS)
    rows.append(make_row(STL_DEC, 7, 0, None))  # benign-only row
    text = rows_to_csv(rows, "abc123def456")
    assert text.startswith("# robustasr-rows v1 config=abc123def456\n")
    back = rows_from_csv(text)
    assert len(back) == len(rows)
    assert rows_to_csv(back, "abc123def456") == text
    benign = [r for r in back if r.attack_steps == 0]
    assert benign and benign[0].adv_twer is None


@pytest.mark.parametrize("fields", [11, 9])
def test_rows_from_csv_refuses_a_line_of_another_width(fields):
    lines = rows_to_csv(synthetic_rows(GOOD_LEVELS), "x").splitlines()
    cells = lines[3].split(",")
    lines[3] = ",".join((cells + ["1"])[:fields])
    with pytest.raises(ValueError, match=f"line 4: {fields} fields, not 10"):
        rows_from_csv("\n".join(lines) + "\n")


def test_experiment_config_json_round_trip():
    cfg = ExperimentConfig(
        grid=GridSpec(lambda_t_A_values=(1.0,), lambda_t_C_values=(0.0, 0.5),
                      modes=("match",), report_steps=(5,), seeds=(0,)),
        n_train=10, n_valid=4, n_test=4, epochs=2,
        model=ModelConfig(enc_hidden=8))
    again = ExperimentConfig.from_dict(json.loads(cfg.to_json()))
    assert again == cfg
    assert again.hash() == cfg.hash()


def test_grid_spec_validation():
    with pytest.raises(ValueError):
        GridSpec(lambda_t_A_values=())
    with pytest.raises(ValueError):
        GridSpec(modes=("nope",))


@pytest.mark.parametrize("change, message", [
    ({"grid": {"report_steps": [10, -1]}}, "negative step"),
    ({"epsilon_ratio": 0.0}, "epsilon_ratio must be positive"),
    ({"alpha_fraction": -0.5}, "alpha_fraction must be positive"),
    ({"n_eval": 0}, "n_eval must be >= 1"),
    ({"n_attack": 0}, "n_attack must be >= 1, got 0"),
    ({"n_attack": -1}, "n_attack must be >= 1, got -1"),
    # NaN passes a "<= 0" check: training would read it as a divergence,
    # and the attack would fail only after training
    ({"learning_rate": float("nan")}, "learning_rate must be positive and finite"),
    ({"learning_rate": float("inf")}, "learning_rate must be positive and finite"),
    ({"epsilon_ratio": float("nan")}, "epsilon_ratio must be positive and finite"),
    ({"alpha_fraction": float("nan")}, "alpha_fraction must be positive and finite"),
    # TrainConfig would refuse these only once a cell starts training, and
    # a max_decode_len of 0 reads every hypothesis as empty
    ({"epochs": 0}, "epochs must be >= 1, got 0"),
    ({"batch_size": 0}, "batch_size must be >= 1, got 0"),
    ({"max_decode_len": 0}, "max_decode_len must be >= 1, got 0"),
], ids=["report_steps", "epsilon_ratio", "alpha_fraction", "n_eval", "n_attack_zero",
        "n_attack_negative", "learning_rate_nan", "learning_rate_inf",
        "epsilon_ratio_nan", "alpha_fraction_nan", "epochs", "batch_size",
        "max_decode_len"])
def test_config_refuses_values_the_evaluation_cannot_use(change, message):
    # refused when the config is read, before a cell trains
    with pytest.raises(ValueError, match=message):
        ExperimentConfig.from_dict(change)


TINY_GRID = ExperimentConfig(
    grid=GridSpec(lambda_t_A_values=(1.0,), lambda_t_C_values=(0.0,),
                  modes=("match", "drop_ctc"), report_steps=(1, 2), seeds=(0, 1)),
    n_train=8, n_valid=4, n_test=4, len_range=(2, 3), n_targets=6,
    epochs=1, learning_rate=0.01, n_attack=2, n_eval=4, max_decode_len=6,
    model=ModelConfig(enc_hidden=8, dec_hidden=8, attn_dim=6, emb_dim=6,
                      disc_hidden=6))


def test_run_grid_row_count_and_determinism():
    rows1 = run_grid(TINY_GRID)
    # one cell, 2 seeds, 2 modes, 2 report steps
    assert len(rows1) == 2 * 2 * 2
    rows2 = run_grid(TINY_GRID)
    assert rows_to_csv(rows1, "x") == rows_to_csv(rows2, "x")
    for r in rows1:
        expected_i = r.lambda_t_C if False else 0.0  # lambda_t_C == 0 here
        assert r.lambda_i_C == expected_i
        assert r.n_samples + r.n_skipped == TINY_GRID.n_attack
        assert r.adv_twer is not None


def test_run_grid_process_pool_gives_the_serial_rows():
    serial = rows_to_csv(run_grid(TINY_GRID, workers=1), TINY_GRID.hash())
    assert rows_to_csv(run_grid(TINY_GRID, workers=2), TINY_GRID.hash()) == serial


def _refuses_before_training(field, value, message, monkeypatch):
    config = replace(TINY_GRID, model=replace(TINY_GRID.model, **{field: value}))
    ds, targets = make_data(config, 0)

    def no_training(*args):
        raise AssertionError("train_mtl ran")

    monkeypatch.setattr(experiments, "train_mtl", no_training)
    with pytest.raises(ConfigError, match=message):
        train_model(config, MtlWeights(), 0, ds)
    with pytest.raises(ConfigError, match=message):
        evaluate_model(TINY_GRID, init_params(config.model), ds.test, targets,
                       MtlWeights())


@pytest.mark.parametrize("value", [30, 50])
def test_model_vocab_size_must_match_the_data_vocabulary(value, monkeypatch):
    # one output per word: fewer cannot emit every attack target, and the
    # extra ones are never trained
    _refuses_before_training("vocab_size", value,
                             f"model.vocab_size is {value}, the data has 40 words",
                             monkeypatch)


@pytest.mark.parametrize("value", [1, 3])
def test_model_n_accents_must_match_the_data_accents(value, monkeypatch):
    # one output per accent: fewer cannot take every accent label, and the
    # extra ones are never trained
    _refuses_before_training("n_accents", value,
                             f"model.n_accents is {value}, the data has 2 accents",
                             monkeypatch)


def test_make_tables_shapes():
    rows = synthetic_rows(GOOD_LEVELS)
    tables = make_tables(rows, steps=(100, 200))
    assert set(tables) == {"table_ctc_decoder_match.csv",
                           "table_ctc_decoder_drop.csv",
                           "table_decoder_discriminator.csv",
                           "table_all_heads.csv", "advtwer_long.csv"}
    match = tables["table_ctc_decoder_match.csv"].splitlines()
    assert match[0] == "lambda_t_C,steps_100,steps_200"
    long = tables["advtwer_long.csv"].splitlines()
    assert long[0].startswith("lambda_t_A,")
    assert len(long) == 1 + len(rows)
