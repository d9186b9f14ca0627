import hashlib
import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

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
    attack_split,
    evaluate_model,
    load_config,
    make_data,
    make_tables,
    rows_from_csv,
    rows_to_csv,
    run_grid,
    train_model,
    trend_check,
    trend_report,
)
from robustasr.data import Utterance
from robustasr.losses import CtcInfeasibleError, MtlWeights
from robustasr.model import ModelConfig, init_params

ROOT = Path(__file__).resolve().parent.parent


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
    results = trend_check(synthetic_rows(GOOD_LEVELS), (100, 200))
    assert all(r.passed for r in results)
    text = trend_report(results)
    assert "overall: PASS" in text


def test_trend_check_fails_when_ctc_not_most_vulnerable():
    levels = dict(GOOD_LEVELS)
    levels[STL_CTC] = 0.80
    results = {r.name: r for r in trend_check(synthetic_rows(levels), (100, 200))}
    assert not results["a"].passed


def test_trend_check_fails_when_match_mode_beats_stl_dec():
    levels = dict(GOOD_LEVELS)
    levels[MTL_MATCH] = 0.50  # more than 0.02 above STL-DEC
    results = {r.name: r for r in trend_check(synthetic_rows(levels), (100, 200))}
    assert not results["b"].passed


def test_trend_check_fails_when_drop_mode_does_not_beat_baselines():
    levels = dict(GOOD_LEVELS)
    levels[MTL_DROP] = 0.30
    results = {r.name: r for r in trend_check(synthetic_rows(levels), (100, 200))}
    assert not results["c"].passed


def test_trend_check_fails_when_all_heads_is_not_best():
    levels = dict(GOOD_LEVELS)
    levels[ALL3_DROP] = 0.40
    results = {r.name: r for r in trend_check(synthetic_rows(levels), (100, 200))}
    assert not results["d"].passed


def test_trend_check_missing_cells_raise():
    rows = synthetic_rows({STL_CTC: 0.1, STL_DEC: 0.4})
    with pytest.raises(MissingCellsError):
        trend_check(rows, (100, 200))


def test_trend_report_text_is_pinned():
    # the whole report: each claim's x and y at every step, and the verdicts
    assert trend_report(trend_check(synthetic_rows(GOOD_LEVELS), (100, 200))) == (
        "[PASS] a: STL-CTC is more vulnerable than STL-DEC\n"
        "        steps=100: 0.1000 vs 0.4000; steps=200: 0.0950 vs 0.3950\n"
        "[PASS] b: CTC-in-inference MTL does not beat STL-DEC (tolerance 0.02)\n"
        "        steps=100: 0.3900 vs 0.4000; steps=200: 0.3850 vs 0.3950\n"
        "[PASS] c: CTC-dropped MTL beats both STL baselines\n"
        "        steps=100: 0.5500 vs 0.4000; steps=200: 0.5450 vs 0.3950\n"
        "[PASS] d: all-three-heads MTL is within tolerance of the best everywhere\n"
        "        steps=100: 0.7000 vs 0.5500; steps=200: 0.6950 vs 0.5450\n"
        "overall: PASS\n")
    levels = dict(GOOD_LEVELS)
    levels[MTL_MATCH] = 0.45  # 0.05 above STL-DEC
    levels[ALL3_DROP] = 0.50  # 0.05 below MTL drop
    assert trend_report(trend_check(synthetic_rows(levels), (100, 200))) == (
        "[PASS] a: STL-CTC is more vulnerable than STL-DEC\n"
        "        steps=100: 0.1000 vs 0.4000; steps=200: 0.0950 vs 0.3950\n"
        "[FAIL] b: CTC-in-inference MTL does not beat STL-DEC (tolerance 0.02)\n"
        "        steps=100: 0.4500 vs 0.4000; steps=200: 0.4450 vs 0.3950\n"
        "[PASS] c: CTC-dropped MTL beats both STL baselines\n"
        "        steps=100: 0.5500 vs 0.4000; steps=200: 0.5450 vs 0.3950\n"
        "[FAIL] d: all-three-heads MTL is within tolerance of the best everywhere\n"
        "        steps=100: 0.5000 vs 0.5500; steps=200: 0.4950 vs 0.5450\n"
        "overall: FAIL\n")
    # a cell whose every AdvTWER is None has no median
    rows = [replace(r, adv_twer=None) if r.attack_steps == 200 and
            (r.lambda_t_A, r.lambda_t_C, r.lambda_i_C) == MTL_DROP else r
            for r in synthetic_rows(GOOD_LEVELS)]
    with pytest.raises(MissingCellsError) as e:
        trend_check(rows, (100, 200))
    assert str(e.value) == "no rows for lambda_t_A=1.0 lambda_t_C=0.5 lambda_i_C=0.0 steps=200"


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


@pytest.mark.parametrize("column", ["adv_twer", "benign_wer"])
@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_rows_from_csv_refuses_a_non_finite_number(column, value):
    # a nan AdvTWER would reach the long table while the medians hide it
    lines = rows_to_csv(synthetic_rows(GOOD_LEVELS), "x").splitlines()
    cells = lines[3].split(",")
    cells[experiments.ROW_COLUMNS.index(column)] = value
    lines[3] = ",".join(cells)
    with pytest.raises(ValueError, match=f"rows CSV line 4: {column} must be finite, "
                       f"got {value}"):
        rows_from_csv("\n".join(lines) + "\n")


@pytest.mark.parametrize("first", [
    "# other v9", "# robustasr-rows v2 config=abc123def456", "# robustasr-rows v1",
    "# robustasr-rows v1 config=", ",".join(experiments.ROW_COLUMNS), ""])
def test_rows_from_csv_refuses_another_version_line(first):
    lines = rows_to_csv(synthetic_rows(GOOD_LEVELS), "x").splitlines()
    text = "\n".join([first] + lines[1:]) + "\n"
    with pytest.raises(ValueError, match="rows CSV line 1: .* is not "
                       "'# robustasr-rows v1 config=<hash>'"):
        rows_from_csv(text)
    with pytest.raises(ValueError, match="line 1"):
        rows_from_csv(first)


def test_experiment_config_json_round_trip():
    cfg = ExperimentConfig(
        grid=GridSpec(lambda_t_A_values=(1.0,), lambda_t_C_values=(0.0, 0.5),
                      modes=("match",), report_steps=(5,), seeds=(0,)),
        n_train=10, n_valid=4, n_test=4, epochs=2,
        model=ModelConfig(enc_hidden=8))
    again = ExperimentConfig.from_dict(json.loads(cfg.to_json()))
    assert again == cfg
    assert again.hash() == cfg.hash()
    # the defaults hash as the floats and integers they are stored as
    assert ExperimentConfig().hash() == "56985ccf4e43"


def test_grid_spec_validation():
    with pytest.raises(ValueError):
        GridSpec(lambda_t_A_values=())
    with pytest.raises(ValueError):
        GridSpec(modes=("nope",))
    # each would fail only once a cell reads it, after earlier cells trained
    for name, values in [("lambda_t_A_values", (1.0, 1.5)), ("lambda_t_C_values", (-0.1,)),
                         ("lambda_t_C_values", (float("nan"),))]:
        with pytest.raises(ValueError, match=rf"{name} .* outside \[0, 1\]"):
            GridSpec(**{name: values})
    for name, values in [("lambda_t_A_values", (True,)), ("lambda_t_C_values", ("0.5",))]:
        with pytest.raises(ValueError, match=f"{name} entry must be a real number, "
                                             f"got {values[0]!r}"):
            GridSpec(**{name: values})
    for name, values, bad in [("report_steps", (2.5,), 2.5), ("report_steps", ("10",), "10"),
                              ("report_steps", (False, 10), False), ("seeds", (0, 1.0), 1.0)]:
        with pytest.raises(ValueError, match=f"{name} entry must be an integer, got {bad!r}"):
            GridSpec(**{name: values})
    # numpy refuses a negative seed only once the cell's data is generated
    with pytest.raises(ValueError, match="seeds entry must be >= 0, got -1"):
        GridSpec(seeds=(0, -1))
    # a lambda is stored as a float, so the rows spell 1 and 1.0 alike
    grid = GridSpec(lambda_t_A_values=(1, 0.7), lambda_t_C_values=(0, 0.5, 1))
    assert [repr(v) for v in grid.lambda_t_A_values] == ["1.0", "0.7"]
    assert [repr(v) for v in grid.lambda_t_C_values] == ["0.0", "0.5", "1.0"]
    assert grid == GridSpec(lambda_t_A_values=(1.0, 0.7), lambda_t_C_values=(0.0, 0.5, 1.0))
    # a repeated value trains the same cells twice and writes their rows twice
    for name, values in [("lambda_t_A_values", (1.0, 0.7, 1)),
                         ("lambda_t_C_values", (0.5, 0.5)),
                         ("modes", ("match", "drop_ctc", "match")), ("seeds", (0, 1, 0))]:
        with pytest.raises(ValueError, match=f"{name} .* repeats a value"):
            GridSpec(**{name: values})


@pytest.mark.parametrize("change, message", [
    ({"grid": {"report_steps": [10, -1]}}, "report_steps entry must be >= 0, got -1"),
    ({"epsilon_ratio": 0.0}, "epsilon_ratio must be positive"),
    ({"alpha_fraction": -0.5}, "alpha_fraction must be positive"),
    ({"n_eval": 0}, "n_eval must be >= 1"),
    ({"n_train": 0}, "n_train must be >= 1, got 0"),
    ({"n_valid": 0}, "n_valid must be >= 1, got 0"),
    ({"n_test": -1}, "n_test must be >= 1, got -1"),
    ({"grid": {"lambda_t_A_values": [1.0, 1.5]}}, r"lambda_t_A_values .* outside \[0, 1\]"),
    # a bool or a string is no weight, though True compares as 1
    ({"grid": {"lambda_t_A_values": [True, 0.7]}},
     "lambda_t_A_values entry must be a real number, got True"),
    ({"grid": {"lambda_t_C_values": [0.0, "0.5"]}},
     "lambda_t_C_values entry must be a real number, got '0.5'"),
    ({"grid": {"lambda_t_C_values": [0.0, 0.5, 0.5]}}, "lambda_t_C_values .* repeats a value"),
    ({"grid": {"seeds": [0, 0]}}, "seeds .* repeats a value"),
    ({"grid": {"modes": ["match", "match"]}}, "modes .* repeats a value"),
    ({"grid": {"report_steps": [2.5]}}, "report_steps entry must be an integer, got 2.5"),
    ({"grid": {"seeds": [0, True]}}, "seeds entry must be an integer, got True"),
    ({"grid": {"seeds": [0, -1]}}, "seeds entry must be >= 0, got -1"),
    ({"n_attack": 0}, "n_attack must be >= 1, got 0"),
    ({"n_attack": -1}, "n_attack must be >= 1, got -1"),
    # NaN passes a "<= 0" check: training would read it as a divergence,
    # and the attack would fail only after training
    ({"learning_rate": float("nan")}, "learning_rate must be positive and finite"),
    ({"learning_rate": float("inf")}, "learning_rate must be positive and finite"),
    ({"epsilon_ratio": float("nan")}, "epsilon_ratio must be positive and finite"),
    ({"alpha_fraction": float("nan")}, "alpha_fraction must be positive and finite"),
    # True compares as 1 and would train at a learning rate of 1
    ({"learning_rate": True}, "learning_rate must be a real number, got True"),
    ({"learning_rate": "0.05"}, "learning_rate must be a real number, got '0.05'"),
    ({"epsilon_ratio": True}, "epsilon_ratio must be a real number, got True"),
    ({"epsilon_ratio": [0.1]}, r"epsilon_ratio must be a real number, got \(0.1,\)"),
    ({"alpha_fraction": False}, "alpha_fraction must be a real number, got False"),
    ({"alpha_fraction": None}, "alpha_fraction must be a real number, got None"),
    # TrainConfig would refuse these only once a cell starts training, and
    # a max_decode_len of 0 reads every hypothesis as empty
    ({"epochs": 0}, "epochs must be >= 1, got 0"),
    ({"batch_size": 0}, "batch_size must be >= 1, got 0"),
    ({"max_decode_len": 0}, "max_decode_len must be >= 1, got 0"),
    # the data and the attack targets read len_range only once a cell runs
    ({"len_range": [2]}, r"len_range \(2,\) must be two integers"),
    ({"len_range": [2, 3, 9]}, r"len_range \(2, 3, 9\) must be two integers"),
    ({"len_range": [2.5, 3]}, r"len_range \(2.5, 3\) must be two integers"),
    ({"len_range": [0, 3]}, r"len_range \(0, 3\) must be two integers"),
    ({"len_range": [3, 2]}, r"len_range \(3, 2\) must be two integers"),
    ({"len_range": 5}, "len_range 5 must be two integers"),
    # a section that is not an object
    ({"grid": 5}, "grid must be a JSON object, got 5"),
    ({"model": [8]}, r"model must be a JSON object, got \[8\]"),
    # the attack builds its targets after training: one per length at least
    ({"n_targets": 4}, r"n_targets must be >= 5 to cover len_range \(2, 6\), got 4"),
    # a count that is not an integer fails only inside the stage that reads it
    ({"n_train": 2.5}, "n_train must be an integer, got 2.5"),
    ({"n_valid": True}, "n_valid must be an integer, got True"),
    ({"n_test": "4"}, "n_test must be an integer, got '4'"),
    ({"n_targets": 12.0}, "n_targets must be an integer, got 12.0"),
    ({"n_eval": 1.5}, "n_eval must be an integer, got 1.5"),
    ({"n_attack": False}, "n_attack must be an integer, got False"),
    ({"epochs": 1.5}, "epochs must be an integer, got 1.5"),
    ({"batch_size": 2.0}, "batch_size must be an integer, got 2.0"),
    ({"max_decode_len": 3.5}, "max_decode_len must be an integer, got 3.5"),
    ({"model": {"enc_hidden": 2.5}}, "enc_hidden must be an integer, got 2.5"),
    ({"model": {"enc_layers": True}}, "enc_layers must be an integer, got True"),
    ({"model": {"vocab_size": 0}}, "vocab_size must be >= 1, got 0"),
    # init_params seeds numpy with it
    ({"model": {"seed": -1}}, "seed must be >= 0, got -1"),
    ({"model": {"seed": "x"}}, "seed must be an integer, got 'x'"),
    # the encoder runs forward only
    ({"model": {"bidirectional": True}}, "bidirectional must be false, got True"),
    ({"model": {"bidirectional": "yes"}}, "bidirectional must be false, got 'yes'"),
], ids=["report_steps", "epsilon_ratio", "alpha_fraction", "n_eval", "n_train", "n_valid",
        "n_test", "lambda_t_A_range", "lambda_t_A_bool", "lambda_t_C_str",
        "lambda_t_C_repeated", "seeds_repeated",
        "modes_repeated", "report_steps_float", "seeds_bool", "seeds_negative", "n_attack_zero",
        "n_attack_negative", "learning_rate_nan", "learning_rate_inf",
        "epsilon_ratio_nan", "alpha_fraction_nan", "learning_rate_bool",
        "learning_rate_str", "epsilon_ratio_bool", "epsilon_ratio_list",
        "alpha_fraction_bool", "alpha_fraction_none", "epochs", "batch_size",
        "max_decode_len", "len_range_one", "len_range_three", "len_range_float",
        "len_range_zero", "len_range_reversed", "len_range_scalar", "grid_scalar",
        "model_list", "n_targets",
        "n_train_float", "n_valid_bool", "n_test_str", "n_targets_float", "n_eval_float",
        "n_attack_bool", "epochs_float", "batch_size_float", "max_decode_len_float",
        "model_enc_hidden_float", "model_enc_layers_bool", "model_vocab_size_zero",
        "model_seed_negative", "model_seed_str",
        "model_bidirectional_true", "model_bidirectional_yes"])
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


def test_importing_the_grid_and_the_cli_loads_no_process_pool():
    # only run_grid at workers > 1 needs multiprocessing; every benchmark
    # and CLI process would otherwise carry it
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    out = subprocess.run(
        [sys.executable, "-c", "import sys, robustasr.experiments, robustasr.cli; "
                               "print('multiprocessing' in sys.modules)"],
        env=env, capture_output=True, text=True, check=True).stdout
    assert out.strip() == "False"


# sha256 of the rows CSV of configs/grid_check.json. A change that is
# meant to move the rows updates it and says why in CHANGES.md.
GRID_CHECK_ROWS_SHA256 = "ef4ee15f267f6959498267ed0419311fd9d7ca8ad3d588ffffe416db7daf0ca2"


def test_grid_check_rows_are_unchanged():
    config, _seed, _weights = load_config(ROOT / "configs" / "grid_check.json",
                                          run_keys=False)
    rows = run_grid(config, workers=1)
    csv = rows_to_csv(rows, config.hash())
    assert hashlib.sha256(csv.encode()).hexdigest() == GRID_CHECK_ROWS_SHA256
    # every cell of a seed attacked the same utterances, at every inference
    # weight: what a paired comparison of two cells needs
    assert {r.lambda_i_C for r in rows} == {0.0, 0.5, 1.0}
    assert {(r.n_samples, r.n_skipped) for r in rows} == {(config.n_attack, 0)}


def test_attack_split_attacks_every_utterance_or_refuses_the_batch():
    # the 5-word target aligns to the 12-frame utterance, not to the 4-frame one
    rng = np.random.default_rng(0)
    utts = [Utterance(id=f"u{i}", features=rng.normal(size=(n, TINY_GRID.model.feat_dim)),
                      transcript=(0, 1), accent=0) for i, n in enumerate((12, 4))]
    target = (24, 25, 26, 27, 28)
    params = init_params(TINY_GRID.model)
    for lam in (0.5, 1.0):
        with pytest.raises(CtcInfeasibleError,
                           match=r"^row 1: 5 labels need >= 5 frames, got 4$"):
            attack_split(params, utts, [target], MtlWeights(1.0, 0.5, lam), 0.5, 0.1, (1, 2))
    pooled, n_attacked, n_skipped = attack_split(
        params, utts, [target], MtlWeights(1.0, 0.5, 0.0), 0.5, 0.1, (2, 1))
    assert (n_attacked, n_skipped) == (2, 0)
    assert list(pooled) == [1, 2]
    assert all(twer >= 0.0 for twer in pooled.values())


def _refuses_before_training(field, value, message, monkeypatch):
    config = replace(TINY_GRID, model=replace(TINY_GRID.model, **{field: value}))
    ds = make_data(TINY_GRID, 0)

    def no_training(*args):
        raise AssertionError("train_mtl ran")

    monkeypatch.setattr(experiments, "train_mtl", no_training)
    with pytest.raises(ConfigError, match=message):
        train_model(config, MtlWeights(), 0, ds)
    with pytest.raises(ConfigError, match=message):
        evaluate_model(TINY_GRID, init_params(config.model), ds.test, ds.seed,
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


def test_model_feat_dim_must_match_the_data(monkeypatch):
    # an encoder of another input width fails only inside its first matmul
    _refuses_before_training("feat_dim", 8, "data has feat_dim 16, model.feat_dim is 8",
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


def test_make_tables_content():
    # the bytes of the four summaries on the rows of test_make_tables_shapes
    tables = make_tables(synthetic_rows(GOOD_LEVELS), steps=(100, 200))
    assert {name: tables[name] for name in tables if name != "advtwer_long.csv"} == {
        "table_ctc_decoder_match.csv": "lambda_t_C,steps_100,steps_200\n"
                                       "0.0,0.4,0.395\n0.5,0.39,0.385\n1.0,0.1,0.095\n",
        "table_ctc_decoder_drop.csv": "lambda_t_C,steps_100,steps_200\n"
                                      "0.0,0.4,0.395\n0.5,0.55,0.545\n",
        "table_decoder_discriminator.csv": "lambda_t_A,steps_100,steps_200\n"
                                           "1.0,0.4,0.395\n",
        "table_all_heads.csv": "lambda_t_C,steps_100,steps_200\n0.5,0.7,0.695\n",
    }
