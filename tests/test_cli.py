import json

from robustasr.cli import main
from robustasr.data import Vocab, save_targets
from robustasr.experiments import ExperimentConfig, GridSpec, rows_from_csv
from robustasr.model import ModelConfig

MODEL = {"enc_hidden": 6, "enc_layers": 1, "dec_hidden": 6, "attn_dim": 4,
         "emb_dim": 4, "disc_layers": 2, "disc_hidden": 4}
WEIGHTS = {"lambda_t_A": 0.7, "lambda_t_C": 0.5}


def _write(path, obj):
    path.write_text(obj if isinstance(obj, str) else json.dumps(obj))
    return str(path)


def test_cli_pipeline_end_to_end(tmp_path):
    data, run = tmp_path / "data", tmp_path / "run"
    gen_cfg = _write(tmp_path / "gen.json", {
        "n_train": 8, "n_valid": 3, "n_test": 4, "len_range": [2, 3],
        "n_targets": 4})
    train_cfg = _write(tmp_path / "train.json", {
        "weights": WEIGHTS, "epochs": 1, "batch_size": 4, "model": MODEL})
    eval_cfg = _write(tmp_path / "eval.json", {
        "weights": WEIGHTS, "n_samples": 2, "max_len": 4})
    attack_cfg = _write(tmp_path / "attack.json", {
        "weights": WEIGHTS, "steps": 2, "report_at": [1], "n_samples": 2,
        "max_len": 4})
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

    for name in ("train.txt", "valid.txt", "test.txt", "targets.txt"):
        assert (data / name).is_file()
    for name in ("checkpoint.txt", "trainlog.csv", "eval.csv", "attack.csv"):
        assert (run / name).is_file()
    # attack rows at the requested step and at the final one
    assert len((run / "attack.csv").read_text().splitlines()) == 1 + 1 + 2
    # 6 cells x 2 modes x 1 step
    assert len((tmp_path / "grid" / "rows.csv").read_text().splitlines()) == 1 + 1 + 12
    for name in ("trend_check.txt", "table_all_heads.csv", "advtwer_long.csv"):
        assert (tmp_path / "report" / name).is_file()


def test_cli_attack_with_every_sample_skipped(tmp_path, capsys):
    # A target longer than any test utterance cannot be aligned by the CTC
    # branch (lambda_i_C > 0), so every sample is skipped and AdvTWER is n/a.
    data, run = tmp_path / "data", tmp_path / "run"
    gen_cfg = _write(tmp_path / "gen.json", {
        "n_train": 4, "n_valid": 2, "n_test": 3, "len_range": [2, 3],
        "n_targets": 2})
    train_cfg = _write(tmp_path / "train.json", {
        "weights": WEIGHTS, "epochs": 1, "batch_size": 4, "model": MODEL})
    attack_cfg = _write(tmp_path / "attack.json", {
        "weights": WEIGHTS, "steps": 2, "n_samples": 3, "max_len": 4})
    assert main(["gen-data", "--config", gen_cfg, "--seed", "4",
                 "--out", str(data)]) == 0
    assert main(["train", "--config", train_cfg, "--data", str(data),
                 "--out", str(run)]) == 0
    vocab = Vocab()
    targets = tmp_path / "long_targets.txt"
    save_targets(targets, [tuple(range(len(vocab.words), vocab.n_words)) * 20], seed=0, vocab=vocab)
    capsys.readouterr()

    assert main(["attack", "--config", attack_cfg, "--data", str(data),
                 "--checkpoint", str(run / "checkpoint.txt"),
                 "--targets", str(targets),
                 "--out", str(run / "attack.csv")]) == 0
    assert "AdvTWER=n/a (attacked 0, skipped 3" in capsys.readouterr().out
    rows = rows_from_csv((run / "attack.csv").read_text())
    assert [(r.adv_twer, r.n_samples, r.n_skipped) for r in rows] == [(None, 0, 3)]
