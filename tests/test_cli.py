import hashlib
import json
import re
from pathlib import Path

import pytest

from robustasr.cli import load_config, main
from robustasr.experiments import (ConfigError, ExperimentConfig, GridSpec, ReportRow,
                                   rows_to_csv, run_cell)
from robustasr.losses import MtlWeights
from robustasr.model import ModelConfig

ROOT = Path(__file__).resolve().parents[1]
FIXTURE = ROOT / "perfbench" / "fixture"

MODEL = {"enc_hidden": 6, "enc_layers": 1, "dec_hidden": 6, "attn_dim": 4,
         "emb_dim": 4, "disc_layers": 2, "disc_hidden": 4}
WEIGHTS = {"lambda_t_A": 0.7, "lambda_t_C": 0.5}


def _write(path, obj):
    path.write_text(obj if isinstance(obj, str) else json.dumps(obj))
    return str(path)


def _refused(capsys, argv, message):
    """``main(argv)`` refuses its input: status 2 and one line on stderr,
    ``robustasr: error: `` and a message that ``message`` matches."""
    capsys.readouterr()
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("robustasr: error: ") and err.count("\n") == 1, err
    assert re.search(message, err), err


def test_cli_pipeline_end_to_end(tmp_path):
    data, run = tmp_path / "data", tmp_path / "run"
    gen_cfg = _write(tmp_path / "gen.json", {
        "seed": 1, "n_train": 8, "n_valid": 3, "n_test": 4, "len_range": [2, 3],
        "n_targets": 4})
    train_cfg = _write(tmp_path / "train.json", {
        "weights": WEIGHTS, "epochs": 1, "batch_size": 4, "model": MODEL})
    eval_cfg = _write(tmp_path / "eval.json", {
        "weights": WEIGHTS, "n_eval": 2, "max_decode_len": 4})
    attack_cfg = _write(tmp_path / "attack.json", {
        "weights": WEIGHTS, "grid": {"report_steps": [1, 2]}, "n_attack": 2,
        "n_eval": 2, "max_decode_len": 4})
    # the smallest grid holding every configuration the trend checks read
    grid_cfg = _write(tmp_path / "grid.json", ExperimentConfig(
        grid=GridSpec(lambda_t_A_values=(1.0, 0.7),
                      lambda_t_C_values=(0.0, 0.5, 1.0),
                      report_steps=(1,), seeds=(0,)),
        n_train=6, n_valid=2, n_test=3, len_range=(2, 3), n_targets=4,
        epochs=1, n_attack=1, n_eval=2, max_decode_len=4,
        model=ModelConfig(**MODEL)).to_json())
    ckpt = str(run / "checkpoint.txt")

    assert main(["gen-data", "--config", gen_cfg, "--seed", "3",
                 "--out", str(data)]) == 0
    assert main(["train", "--config", train_cfg, "--data", str(data),
                 "--out", str(run)]) == 0
    assert main(["eval", "--config", eval_cfg, "--data", str(data),
                 "--checkpoint", ckpt, "--out", str(run / "eval.csv")]) == 0
    assert main(["attack", "--config", attack_cfg, "--data", str(data),
                 "--checkpoint", ckpt, "--out", str(run / "attack.csv")]) == 0
    assert main(["grid", "--config", grid_cfg,
                 "--out", str(tmp_path / "grid")]) == 0
    assert main(["report", "--rows", str(tmp_path / "grid" / "rows.csv"),
                 "--out", str(tmp_path / "report")]) == 0

    assert [p.name for p in data.iterdir()] == ["recipe.json"]
    recipe = json.loads((data / "recipe.json").read_text())
    assert (recipe["seed"], recipe["n_train"], recipe["len_range"]) == (3, 8, [2, 3])
    for name in ("checkpoint.txt", "trainlog.csv", "eval.csv", "attack.csv"):
        assert (run / name).is_file()
    # one attack row per grid.report_steps entry
    assert len((run / "attack.csv").read_text().splitlines()) == 1 + 1 + 2
    # 6 cells x 2 modes x 1 step
    assert len((tmp_path / "grid" / "rows.csv").read_text().splitlines()) == 1 + 1 + 12
    for name in ("trend_check.txt", "table_all_heads.csv", "advtwer_long.csv"):
        assert (tmp_path / "report" / name).is_file()


def test_cli_attack_refuses_a_target_the_ctc_head_cannot_align(tmp_path, capsys):
    # A target longer than any test utterance cannot be aligned by the CTC
    # branch (lambda_i_C > 0), so the attack is refused at its first step
    # with the CTC loss's own error, and no rows are written. The data's
    # transcripts hold at most 3 words of at most 6 frames each; the
    # attack's one target has 20 words.
    data, run = tmp_path / "data", tmp_path / "run"
    gen_cfg = _write(tmp_path / "gen.json", {
        "n_train": 4, "n_valid": 2, "n_test": 3, "len_range": [2, 3],
        "n_targets": 2})
    train_cfg = _write(tmp_path / "train.json", {
        "weights": WEIGHTS, "epochs": 1, "batch_size": 4, "model": MODEL})
    attack_cfg = _write(tmp_path / "attack.json", {
        "weights": WEIGHTS, "grid": {"report_steps": [2]}, "n_attack": 3,
        "max_decode_len": 4, "len_range": [20, 20], "n_targets": 1})
    assert main(["gen-data", "--config", gen_cfg, "--seed", "4",
                 "--out", str(data)]) == 0
    assert main(["train", "--config", train_cfg, "--data", str(data),
                 "--out", str(run)]) == 0

    _refused(capsys, ["attack", "--config", attack_cfg, "--data", str(data),
                      "--checkpoint", str(run / "checkpoint.txt"),
                      "--out", str(run / "attack.csv")],
             r"row \d+: 20 labels need >= 21 frames, got \d+$")
    assert not (run / "attack.csv").exists()


def test_cli_eval_and_attack_read_only_the_test_split(tmp_path, capsys):
    # eval and attack regenerate the test split alone: a recipe whose train
    # and valid digests are wrong serves them, and they give the rows they
    # give on the intact directory, while train refuses it
    data, only_test, run = tmp_path / "data", tmp_path / "only_test", tmp_path / "run"
    gen_cfg = _write(tmp_path / "gen.json", {
        "n_train": 4, "n_valid": 2, "n_test": 3, "len_range": [2, 3],
        "n_targets": 2})
    train_cfg = _write(tmp_path / "train.json", {
        "weights": WEIGHTS, "epochs": 1, "batch_size": 4, "model": MODEL})
    cfg = _write(tmp_path / "attack.json", {
        "weights": WEIGHTS, "grid": {"report_steps": [1]}, "n_attack": 2,
        "n_eval": 2, "max_decode_len": 4, "len_range": [2, 3], "n_targets": 2})
    assert main(["gen-data", "--config", gen_cfg, "--seed", "5",
                 "--out", str(data)]) == 0
    assert main(["train", "--config", train_cfg, "--data", str(data),
                 "--out", str(run)]) == 0
    recipe = json.loads((data / "recipe.json").read_text())
    recipe["sha256"].update(train="0" * 64, valid="0" * 64)
    only_test.mkdir()
    _write(only_test / "recipe.json", recipe)
    _refused(capsys, ["train", "--config", train_cfg, "--data", str(only_test),
                      "--out", str(tmp_path / "refused")],
             "the train split regenerates to other bytes")
    ckpt = str(run / "checkpoint.txt")
    for d in (data, only_test):
        for stage in ("eval", "attack"):
            assert main([stage, "--config", cfg, "--data", str(d), "--checkpoint", ckpt,
                         "--out", str(run / f"{stage}-{d.name}.csv")]) == 0
    for stage in ("eval", "attack"):
        assert (run / f"{stage}-only_test.csv").read_text() == \
            (run / f"{stage}-data.csv").read_text()


def test_cli_stages_write_the_rows_of_run_cell(tmp_path):
    # gen-data -> train -> attack on one config give the rows run_cell
    # gives for the same cell in match mode, byte for byte
    config = ExperimentConfig(
        grid=GridSpec(lambda_t_A_values=(0.7,), lambda_t_C_values=(0.5,),
                      modes=("match",), report_steps=(1, 3), seeds=(2,)),
        n_train=8, n_valid=3, n_test=5, len_range=(2, 3), n_targets=4,
        epochs=2, learning_rate=0.02, batch_size=4, n_attack=3, n_eval=4,
        max_decode_len=4, model=ModelConfig(**MODEL))
    cfg = _write(tmp_path / "cell.json", {
        **json.loads(config.to_json()), "seed": 2, "weights": WEIGHTS})
    data, run = tmp_path / "data", tmp_path / "run"
    assert main(["gen-data", "--config", cfg, "--out", str(data)]) == 0
    assert main(["train", "--config", cfg, "--data", str(data),
                 "--out", str(run)]) == 0
    # the checkpoint's bytes are pinned: train regenerates the very data
    # that gen-data generated
    assert hashlib.sha256((run / "checkpoint.txt").read_bytes()).hexdigest() == \
        "9a5a8ba48374c882da39ba094692b513edd4e3b56f32066a26df6a3376782a60"
    assert main(["attack", "--config", cfg, "--data", str(data),
                 "--checkpoint", str(run / "checkpoint.txt"),
                 "--out", str(run / "attack.csv")]) == 0
    expected = rows_to_csv(run_cell(config, 0.7, 0.5, 2), config.hash())
    assert (run / "attack.csv").read_text() == expected


@pytest.mark.parametrize("bad, key", [
    ({"lerning_rate": 0.1}, "'lerning_rate'"),
    ({"model": {"enc_hiden": 4}}, "'model.enc_hiden'"),
    ({"grid": {"seed": [0]}}, "'grid.seed'"),
    ({"weights": {"lambda_i": 0.0}}, "'weights.lambda_i'"),
])
def test_config_unknown_key_fails_naming_it(tmp_path, capsys, bad, key):
    cfg = _write(tmp_path / "bad.json", bad)
    _refused(capsys, ["gen-data", "--config", cfg, "--out", str(tmp_path / "data")], key)
    assert not (tmp_path / "data").exists()


@pytest.mark.parametrize("run_key", [{"seed": 0}, {"weights": WEIGHTS}])
def test_grid_refuses_run_keys(tmp_path, capsys, run_key):
    cfg = _write(tmp_path / "grid.json", run_key)
    _refused(capsys, ["grid", "--config", cfg, "--out", str(tmp_path / "grid")],
             "grid sets seed and weights")


def test_train_refuses_data_of_another_feat_dim(tmp_path, capsys):
    gen_cfg = _write(tmp_path / "gen.json", {
        "n_train": 2, "n_valid": 1, "n_test": 1, "model": {"feat_dim": 8}})
    assert main(["gen-data", "--config", gen_cfg, "--out", str(tmp_path / "data")]) == 0
    _refused(capsys, ["train", "--data", str(tmp_path / "data"),
                      "--out", str(tmp_path / "run")],
             "data has feat_dim 8, model.feat_dim is 16")


def _train_refuses(tmp_path, capsys, field, value, message):
    gen_cfg = _write(tmp_path / "gen.json", {"n_train": 2, "n_valid": 1, "n_test": 1})
    assert main(["gen-data", "--config", gen_cfg, "--out", str(tmp_path / "data")]) == 0
    train_cfg = _write(tmp_path / "train.json", {"model": {field: value}})
    _refused(capsys, ["train", "--config", train_cfg, "--data", str(tmp_path / "data"),
                      "--out", str(tmp_path / "run")], message)
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("value", [30, 50])
def test_train_refuses_a_model_of_another_vocab_size(tmp_path, capsys, value):
    # one output per word of the data, or nothing trains
    _train_refuses(tmp_path, capsys, "vocab_size", value,
                   f"model.vocab_size is {value}, the data has 40 words")


@pytest.mark.parametrize("value", [1, 3])
def test_train_refuses_a_model_of_another_accent_count(tmp_path, capsys, value):
    # one output per accent of the data, or nothing trains
    _train_refuses(tmp_path, capsys, "n_accents", value,
                   f"model.n_accents is {value}, the data has 2 accents")


def test_report_refuses_rows_without_attack_steps(tmp_path, capsys):
    # the rows file of `eval` holds no AdvTWER: no ordering can be judged
    row = ReportRow(lambda_t_A=1.0, lambda_t_C=0.5, lambda_i_C=0.5, seed=0,
                    attack_steps=0, benign_wer=0.2, accent_acc=0.9, adv_twer=None,
                    n_samples=4, n_skipped=0)
    rows = _write(tmp_path / "eval.csv", rows_to_csv([row], "x"))
    _refused(capsys, ["report", "--rows", rows, "--out", str(tmp_path / "report")],
             "no attack steps to judge")
    assert not (tmp_path / "report").exists()


def test_checked_in_configs_load():
    paths = sorted((ROOT / "configs").glob("*.json"))
    assert paths
    for path in paths:
        load_config(path, run_keys=False)


def test_load_config_defaults_and_seed_override(tmp_path, capsys):
    config, seed, weights = load_config(None)
    assert (config, seed, weights) == (ExperimentConfig(), 0, MtlWeights())
    cfg = _write(tmp_path / "c.json", {"seed": 4, "weights": {"lambda_i_C": 0.0}})
    assert load_config(cfg)[1:] == (4, MtlWeights(1.0, 0.5, 0.0))
    assert load_config(cfg, seed=9)[1] == 9
    # the seed is written into the checkpoint config and the rows
    for seed in ("3", True, 3.0):
        cfg = _write(tmp_path / "c.json", {"seed": seed})
        with pytest.raises(ConfigError, match=f"seed must be an integer, got {seed!r}"):
            load_config(cfg)
    # numpy refuses a negative seed only once the data is generated
    cfg = _write(tmp_path / "c.json", {"seed": -1})
    with pytest.raises(ConfigError, match="c.json: seed must be >= 0, got -1"):
        load_config(cfg)
    with pytest.raises(ConfigError, match=r"seed override \(--seed\) must be >= 0, got -2"):
        load_config(None, seed=-2)
    out = tmp_path / "out"
    for argv in (["gen-data", "--seed", "-3", "--out", str(out)],
                 ["train", "--seed", "-3", "--data", str(tmp_path), "--out", str(out)]):
        _refused(capsys, argv, r"\(--seed\) must be >= 0, got -3")
        assert not out.exists()


def test_perfbench_fixture_configs_hold_the_recorded_recipe():
    # the recipe fixture.json and perfbench/README.md record for the
    # checkpoint that make_fixture.py trains with these two files
    data_cfg, data_seed, _ = load_config(FIXTURE / "data.json")
    train_cfg, train_seed, weights = load_config(FIXTURE / "train.json")
    assert data_seed == train_seed == 0
    assert (data_cfg.n_train, data_cfg.n_valid, data_cfg.n_test) == (1000, 200, 200)
    assert data_cfg.model.feat_dim == train_cfg.model.feat_dim
    assert (weights.lambda_t_A, weights.lambda_t_C) == (0.7, 0.5)
    assert (train_cfg.epochs, train_cfg.learning_rate) == (30, 0.02)
    recorded = json.loads((FIXTURE / "fixture.json").read_text())
    assert recorded["weights"] == {"lambda_t_A": 0.7, "lambda_t_C": 0.5}
    assert recorded["n_test"] == data_cfg.n_test


def test_main_refuses_bad_input_in_one_line(tmp_path, capsys):
    # a refused config value, a file that is not a JSON object, a missing
    # data directory or checkpoint, a checkpoint that does not fit the data,
    # and a rows CSV that does not parse:
    # one line that names the cause, status 2, and nothing written
    out = tmp_path / "out"
    for i, (content, message) in enumerate([
            ({"n_train": 0}, "n_train must be >= 1, got 0"),
            ({"weights": {"lambda_t_A": "0.5"}}, "lambda_t_A must be a real number, got '0.5'"),
            ({"weights": {"lambda_t_A": True}}, "lambda_t_A must be a real number, got True"),
            ({"epsilon_ratio": "0.1"}, "epsilon_ratio must be a real number, got '0.1'"),
            # an integer past the largest float is no finite real
            ({"learning_rate": 10 ** 400}, "learning_rate must be positive and finite, got 10+$"),
            ({"weights": 0.5}, "weights must be a JSON object, got 0.5"),
            ("{not json", "Expecting property name"),
            ("[1, 2]", "not a JSON object")]):
        cfg = _write(tmp_path / f"bad{i}.json", content)
        _refused(capsys, ["gen-data", "--config", cfg, "--out", str(out)],
                 f"error: {re.escape(cfg)}: .*{message}")
        assert not out.exists()
    _refused(capsys, ["train", "--data", str(tmp_path / "none"), "--out", str(out)],
             "recipe.json: no such file; a data directory holds the recipe")
    _refused(capsys, ["eval", "--data", str(tmp_path / "none"),
                      "--checkpoint", str(tmp_path / "none.txt")],
             "No such file or directory: .*none.txt")
    assert not out.exists()
    # the CSV an attack wrote with lambda_t_A=True before weights were refused
    row = ReportRow(lambda_t_A=1.0, lambda_t_C=0.5, lambda_i_C=0.5, seed=0,
                    attack_steps=1, benign_wer=0.2, accent_acc=0.9, adv_twer=0.5,
                    n_samples=4, n_skipped=0)
    rows = _write(tmp_path / "rows.csv", rows_to_csv([row], "x").replace("1.0,", "True,", 1))
    _refused(capsys, ["report", "--rows", rows, "--out", str(out)],
             "rows.csv: rows CSV line 3: could not convert string to float: 'True'")
    nan = _write(tmp_path / "nan.csv", rows_to_csv([row], "x").replace("0.5,4,", "nan,4,"))
    _refused(capsys, ["report", "--rows", nan, "--out", str(out)],
             "nan.csv: rows CSV line 3: adv_twer must be finite, got nan")
    # rows without the cells the claims read: no tables without a verdict
    one = _write(tmp_path / "one.csv", rows_to_csv([row], "x"))
    _refused(capsys, ["report", "--rows", one, "--out", str(out)],
             "no rows for lambda_t_A=1.0 lambda_t_C=1.0 lambda_i_C=1.0 steps=1")
    assert not out.exists()
    # argparse refuses a step list as a usage error, with the same status
    with pytest.raises(SystemExit) as e:
        main(["report", "--rows", rows, "--out", str(out), "--steps", "1,x"])
    assert e.value.code == 2
    assert "argument --steps: invalid comma_separated_ints value: '1,x'" in \
        capsys.readouterr().err
    # a diverged training run, in one cell or in a grid
    small = {"n_train": 8, "n_valid": 2, "n_test": 2, "len_range": [2, 3], "n_targets": 4,
             "epochs": 1, "batch_size": 4, "learning_rate": 1e200, "model": MODEL}
    data = tmp_path / "data"
    assert main(["gen-data", "--config", _write(tmp_path / "gen.json", small),
                 "--out", str(data)]) == 0
    _refused(capsys, ["train", "--config", _write(tmp_path / "train.json", small),
                      "--data", str(data), "--out", str(out)],
             "^robustasr: error: non-finite loss at epoch 1, batch 2$")
    grid = {**small, "grid": {"lambda_t_A_values": [1.0], "lambda_t_C_values": [0.5],
                              "report_steps": [1], "seeds": [0]}}
    _refused(capsys, ["grid", "--config", _write(tmp_path / "grid.json", grid),
                      "--out", str(out)],
             "^robustasr: error: non-finite loss at epoch 1, batch 2$")
    # the epoch's one update diverges, and the validation pass meets it
    _refused(capsys, ["train", "--config", _write(tmp_path / "one.json",
                                                  {**small, "batch_size": 8}),
                      "--data", str(data), "--out", str(out)],
             "^robustasr: error: non-finite loss at epoch 1, in the validation pass$")
    assert not out.exists()
    # a checkpoint of another feature dimension than the data's, and a
    # file that is not text
    narrow = tmp_path / "narrow"
    assert main(["gen-data", "--config", _write(tmp_path / "narrow.json",
                                                {**small, "model": {"feat_dim": 8}}),
                 "--out", str(narrow)]) == 0
    for argv in (["eval"], ["attack", "--out", str(out)]):
        _refused(capsys, argv + ["--data", str(narrow),
                                 "--checkpoint", str(FIXTURE / "checkpoint.txt")],
                 "^robustasr: error: data has feat_dim 8, model.feat_dim is 16$")
    noise = tmp_path / "noise.txt"
    noise.write_bytes(b"\xff" * 200)
    _refused(capsys, ["eval", "--data", str(narrow), "--checkpoint", str(noise)],
             f"^robustasr: error: {re.escape(str(noise))}: not a checkpoint file$")
    assert not out.exists()
    # a grid needs at least one worker
    for workers in ("0", "-3"):
        _refused(capsys, ["grid", "--config", _write(tmp_path / "grid.json", grid),
                          "--out", str(out), "--workers", workers],
                 rf"^robustasr: error: the worker count \(--workers\) must be >= 1, "
                 rf"got {workers}$")
        assert not out.exists()


def test_weights_load_as_floats(tmp_path):
    # an integer weight is written into the rows as the float it stands for
    cfg = _write(tmp_path / "c.json", {"weights": {"lambda_t_A": 1, "lambda_t_C": 0}})
    weights = load_config(cfg)[2]
    assert [repr(v) for v in (weights.lambda_t_A, weights.lambda_t_C, weights.lambda_i_C)] \
        == ["1.0", "0.0", "0.0"]
