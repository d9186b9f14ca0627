import numpy as np
import pytest

from robustasr import autodiff as ad
from robustasr.data import DatasetSplit, Utterance, gen_dataset
from robustasr.losses import MtlWeights
from robustasr.model import ModelConfig, init_params
from robustasr.train import (
    TrainConfig,
    TrainingDiverged,
    evaluate_benign,
    sample_losses,
    train_mtl,
)

SMALL_MODEL = ModelConfig(feat_dim=16, enc_hidden=12, enc_layers=1, dec_hidden=12,
                          attn_dim=8, emb_dim=8, disc_hidden=8, seed=0)


@pytest.fixture(scope="module")
def tiny_data():
    return gen_dataset(3, n_train=24, n_valid=8, n_test=8, len_range=(2, 3))


def grads_of(params, prefix):
    return [t.grad for name, t in params.items() if name.startswith(prefix)]


def test_ctc_only_training_gives_discriminator_zero_grads(tiny_data):
    params = init_params(SMALL_MODEL)
    ad.zero_grad(params.leaves())
    w = MtlWeights(1.0, 1.0)
    for utt in tiny_data.train[:4]:
        with ad.tape():
            bd = sample_losses(params, utt, w)
            ad.backward(bd.total)
    assert all(np.all(g == 0.0) for g in grads_of(params, "dis"))
    assert any(np.any(g != 0.0) for g in grads_of(params, "ctc"))
    assert all(np.all(g == 0.0) for g in grads_of(params, "dec"))


def test_dec_only_training_gives_ctc_zero_grads(tiny_data):
    params = init_params(SMALL_MODEL)
    ad.zero_grad(params.leaves())
    w = MtlWeights(1.0, 0.0)
    for utt in tiny_data.train[:4]:
        with ad.tape():
            bd = sample_losses(params, utt, w)
            ad.backward(bd.total)
    assert all(np.all(g == 0.0) for g in grads_of(params, "ctc"))
    assert any(np.any(g != 0.0) for g in grads_of(params, "dec"))


def test_training_reproducible(tiny_data):
    cfg = TrainConfig(weights=MtlWeights(0.8, 0.5), epochs=3,
                      learning_rate=0.01, seed=5)
    p1, log1 = train_mtl(SMALL_MODEL, cfg, tiny_data)
    p2, log2 = train_mtl(SMALL_MODEL, cfg, tiny_data)
    assert log1.rows == log2.rows
    assert log1.selected_epoch == log2.selected_epoch
    for name, _t in p1.items():
        assert np.array_equal(p1[name].data, p2[name].data)


def test_selected_epoch_minimizes_validation_loss(tiny_data):
    cfg = TrainConfig(weights=MtlWeights(1.0, 0.0), epochs=5,
                      learning_rate=0.02, seed=1)
    _params, log = train_mtl(SMALL_MODEL, cfg, tiny_data)
    losses = [r["valid_l_mtl"] for r in log.rows]
    assert log.selected_epoch == int(np.argmin(losses)) + 1


def test_trainlog_csv_round_trip(tmp_path, tiny_data):
    cfg = TrainConfig(weights=MtlWeights(0.7, 0.5), epochs=2,
                      learning_rate=0.01, seed=2)
    _params, log = train_mtl(SMALL_MODEL, cfg, tiny_data)
    path = tmp_path / "trainlog.csv"
    log.to_csv(path)
    lines = path.read_text().splitlines()
    assert lines[0].split(",") == list(log.rows[0])  # header matches row keys
    assert len(lines) == 1 + len(log.rows)
    first = lines[1].split(",")
    assert float(first[4]) == log.rows[0]["train_l_mtl"]


def test_divergence_reports_position(tiny_data):
    bad = Utterance(id="bad", features=np.full((6, 16), np.inf),
                    transcript=(0, 1), accent=0)
    data = DatasetSplit(train=[bad] + tiny_data.train[:3],
                        valid=tiny_data.valid[:2],
                        test=tiny_data.test[:2], seed=0)
    cfg = TrainConfig(weights=MtlWeights(1.0, 0.0), epochs=1,
                      learning_rate=0.01, seed=0)
    with pytest.raises(TrainingDiverged, match=r"epoch 1"):
        train_mtl(SMALL_MODEL, cfg, data)


def test_untrained_model_has_high_wer(tiny_data):
    params = init_params(SMALL_MODEL)
    wer, _acc = evaluate_benign(params, tiny_data.test,
                                MtlWeights(1.0, 0.0, lambda_i_C=0.0))
    assert wer >= 0.8


def test_memorizes_micro_dataset():
    full = gen_dataset(2, n_train=8, n_valid=4, n_test=4, len_range=(2, 3))
    micro = DatasetSplit(train=full.train[:4], valid=full.train[:4],
                         test=full.train[:4], seed=2)
    cfg = TrainConfig(weights=MtlWeights(1.0, 0.0), epochs=500,
                      learning_rate=0.05, seed=1)
    params, _log = train_mtl(ModelConfig(seed=1), cfg, micro)
    wer, _acc = evaluate_benign(params, micro.test,
                                MtlWeights(1.0, 0.0, lambda_i_C=0.0))
    assert wer == 0.0


def test_dec_only_eval_never_scores_ctc(tiny_data):
    from robustasr.decode import CtcPrefixScorer

    params = init_params(SMALL_MODEL)
    before = CtcPrefixScorer.evaluations
    evaluate_benign(params, tiny_data.test[:3], MtlWeights(1.0, 0.5, lambda_i_C=0.0))
    assert CtcPrefixScorer.evaluations == before


def test_training_pass_record_count_guard():
    # Every head is a handful of fused ops (19 records in all). The
    # op-by-op CTC lattice recorded about 190 entries per utterance on its
    # own and the op-by-op accent head 16, so a head that falls back to
    # per-op recording breaks this bound.
    params = init_params(ModelConfig())
    utt = Utterance(id="u", features=np.random.default_rng(0).normal(size=(12, 16)),
                    transcript=(3, 5, 5, 1), accent=1)
    with ad.tape() as tp:
        bd = sample_losses(params, utt, MtlWeights(0.7, 0.5))
        assert len(tp) <= 20
        ad.backward(bd.total)
    assert all(np.isfinite(t.grad).all() for t in params.leaves())
