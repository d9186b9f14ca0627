import math
import tracemalloc

import numpy as np
import pytest

from robustasr import autodiff as ad
from robustasr import model
from robustasr.data import DatasetSplit, Utterance, gen_dataset
from robustasr.decode import joint_greedy_decode
from robustasr.losses import MtlWeights
from robustasr.metrics import accent_accuracy, edit_distance_words, pooled_wer
from robustasr.model import ModelConfig, discriminate, encode, init_params
from robustasr.train import (
    DECODE_BLOCK,
    TrainConfig,
    TrainingDiverged,
    batch_losses,
    decode_blocks,
    evaluate_benign,
    sample_losses,
    train_mtl,
)

from oracles import close_to, count_calls

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


def test_divergence_in_the_validation_pass_names_it(tiny_data):
    # the epoch's one update leaves non-finite weights, which only the
    # validation pass runs on
    data = DatasetSplit(train=tiny_data.train[:4], valid=tiny_data.valid[:2],
                        test=tiny_data.test[:2], seed=0)
    cfg = TrainConfig(weights=MtlWeights(0.7, 0.5), epochs=1, learning_rate=1e200,
                      batch_size=4, seed=0)
    with pytest.raises(TrainingDiverged,
                       match=r"^non-finite loss at epoch 1, in the validation pass$"):
        train_mtl(SMALL_MODEL, cfg, data)


def test_untrained_model_has_high_wer(tiny_data):
    params = init_params(SMALL_MODEL)
    wer, _acc = evaluate_benign(params, tiny_data.test,
                                MtlWeights(1.0, 0.0, lambda_i_C=0.0))
    assert wer >= 0.8


@pytest.fixture(scope="module")
def micro_model():
    full = gen_dataset(2, n_train=8, n_valid=4, n_test=4, len_range=(2, 3))
    micro = DatasetSplit(train=full.train[:4], valid=full.train[:4],
                         test=full.train[:4], seed=2)
    cfg = TrainConfig(weights=MtlWeights(1.0, 0.0), epochs=500,
                      learning_rate=0.05, seed=1)
    params, _log = train_mtl(ModelConfig(seed=1), cfg, micro)
    return params, micro


def test_memorizes_micro_dataset(micro_model):
    params, micro = micro_model
    wer, _acc = evaluate_benign(params, micro.test,
                                MtlWeights(1.0, 0.0, lambda_i_C=0.0))
    assert wer == 0.0


@pytest.mark.parametrize("lam_i", [0.0, 0.5, 1.0])
def test_block_evaluation_equals_the_per_utterance_loop(micro_model, lam_i):
    params, micro = micro_model
    utts = micro.test + gen_dataset(5, n_train=1, n_valid=1,
                                    n_test=2 * DECODE_BLOCK).test
    weights = MtlWeights(1.0, 0.0, lambda_i_C=lam_i)
    stats, pred = [], []
    with ad.no_grad():
        for utt in utts:
            hidden = encode(params, ad.constant(utt.features))
            hyp = joint_greedy_decode(params, hidden, weights, 10).hypothesis
            stats.append(edit_distance_words(utt.transcript, hyp))
            pred.append(int(np.argmax(discriminate(params, hidden[None]).data[0])))
    want = pooled_wer(stats), accent_accuracy(pred, [u.accent for u in utts])
    assert evaluate_benign(params, utts, weights) == want
    # More than two blocks given longest first: the blocks are cut in
    # frame order, and the pooled numbers do not depend on it.
    assert len(utts) > 2 * DECODE_BLOCK
    longest_first = sorted(utts, key=lambda u: -len(u.features))
    assert evaluate_benign(params, longest_first, weights) == want


@pytest.mark.parametrize("lam_i", [0.0, 0.5, 1.0])
def test_decode_blocks_of_a_permutation_are_the_permuted_results(micro_model, lam_i):
    params, micro = micro_model
    feats = [u.features for u in micro.test + gen_dataset(
        6, n_train=1, n_valid=1, n_test=2 * DECODE_BLOCK + 5).test]
    weights = MtlWeights(1.0, 0.0, lambda_i_C=lam_i)
    perm = np.random.default_rng(7).permutation(len(feats))
    results, accents = decode_blocks(params, feats, weights, 10)
    got, got_accents = decode_blocks(params, [feats[i] for i in perm], weights, 10)
    assert len(got) == len(feats) and len({len(x) for x in feats}) > 1
    for k, i in enumerate(perm):
        assert got[k].hypothesis == results[i].hypothesis
        assert got_accents[k] == accents[i]
        assert close_to(got[k].per_step_scores, results[i].per_step_scores, 1e-12)


def test_evaluation_peak_memory_is_that_of_one_block():
    # Decoding a whole split at once would hold every utterance's lattice
    # and decoder arrays together.
    params = init_params(ModelConfig())
    utts = gen_dataset(4, n_train=1, n_valid=1, n_test=4 * DECODE_BLOCK).test
    weights = MtlWeights(1.0, 0.5, lambda_i_C=0.5)

    def peak(block):
        tracemalloc.start()
        try:
            evaluate_benign(params, block, weights)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    one_block = max(peak(utts[i:i + DECODE_BLOCK])
                    for i in range(0, len(utts), DECODE_BLOCK))
    assert peak(utts) <= 1.25 * one_block


def test_dec_only_eval_never_scores_ctc(tiny_data):
    from robustasr.decode import CtcPrefixScorer

    params = init_params(SMALL_MODEL)
    before = CtcPrefixScorer.evaluations
    evaluate_benign(params, tiny_data.test[:3], MtlWeights(1.0, 0.5, lambda_i_C=0.0))
    assert CtcPrefixScorer.evaluations == before


def test_training_pass_record_count_guard():
    # Every head is a handful of fused ops (18 records in all, whatever
    # the batch size). The op-by-op CTC lattice recorded about 190
    # entries per utterance on its own and the op-by-op accent head 16,
    # so a head that falls back to per-op or per-row recording breaks
    # this bound.
    params = init_params(ModelConfig())
    utt = Utterance(id="u", features=np.random.default_rng(0).normal(size=(12, 16)),
                    transcript=(3, 5, 5, 1), accent=1)
    with ad.tape() as tp:
        bd = sample_losses(params, utt, MtlWeights(0.7, 0.5))
        assert len(tp) <= 20
        ad.backward(bd.total)
    assert all(np.isfinite(t.grad).all() for t in params.leaves())
    rng = np.random.default_rng(1)
    for size in (3, 8):
        batch = [Utterance(id=f"u{i}", features=rng.normal(size=(12 - i, 16)),
                           transcript=(3, 5, 5, 1)[:1 + i % 4], accent=i % 2)
                 for i in range(size)]
        with ad.tape() as tp:
            batch_losses(params, batch, MtlWeights(0.7, 0.5))
            assert len(tp) <= 20


@pytest.mark.parametrize("mix, records", [
    ((0.7, 0.5), 15), ((1.0, 0.0), 4), ((1.0, 1.0), 5), ((1.0, 0.5), 9), ((0.7, 0.0), 10),
    ((0.7, 1.0), 11), ((0.0, 0.5), 6)],
    ids=["mtl3", "stl_dec", "stl_ctc", "asr_only", "no_ctc", "no_dec", "dis_only"])
def test_training_batch_record_count(mix, records):
    # A batch's tape at two encoder layers: the encoder (2), the CTC head
    # and loss (2), the decoder loss (1), the accent head (3), a blend's
    # three records for each weight strictly inside (0, 1), and the rows'
    # sum. A head at weight exactly 0 or 1 adds no glue record.
    params = init_params(ModelConfig())
    rng = np.random.default_rng(1)
    batch = [Utterance(id=f"u{i}", features=rng.normal(size=(12 - i, 16)),
                       transcript=(3, 5, 5, 1)[:1 + i], accent=i % 2) for i in range(3)]
    with ad.tape() as tp:
        batch_losses(params, batch, MtlWeights(*mix))
        assert len(tp) == records


@pytest.mark.parametrize("mix, recurrences", [((1.0, 1.0), 0), ((0.0, 0.5), 0),
                                               ((0.7, 0.5), 4)],
                         ids=["stl_ctc", "dis_only", "mtl3"])
def test_a_batch_runs_the_state_recurrence_only_for_the_decoder(mix, recurrences,
                                                                monkeypatch):
    # The decoder's states are run at its first read of the forcing, one
    # step per fed token of the longest transcript; a batch whose decoder
    # takes weight zero runs none.
    calls = count_calls(monkeypatch, model, "_recur")
    rng = np.random.default_rng(1)
    batch = [Utterance(id=f"u{i}", features=rng.normal(size=(12 - i, 16)),
                       transcript=(3, 5, 5, 1)[:1 + i], accent=i % 2) for i in range(3)]
    with ad.tape():
        ad.backward(batch_losses(init_params(ModelConfig()), batch, MtlWeights(*mix)).total)
    assert len(calls) == recurrences


def test_train_config_refuses_a_non_finite_learning_rate():
    # NaN passes a "<= 0" check and would surface as a divergence
    for lr in (math.nan, math.inf):
        with pytest.raises(ValueError, match="learning_rate must be positive and finite"):
            TrainConfig(weights=MtlWeights(), learning_rate=lr)


@pytest.mark.parametrize("field, value, message", [
    # True compares as 1: a learning rate of 1, or one epoch
    ("learning_rate", True, "learning_rate must be a real number, got True"),
    ("learning_rate", "0.05", "learning_rate must be a real number, got '0.05'"),
    ("epochs", True, "epochs must be an integer, got True"),
    ("epochs", 2.0, "epochs must be an integer, got 2.0"),
    ("batch_size", 2.5, "batch_size must be an integer, got 2.5"),
    ("batch_size", False, "batch_size must be an integer, got False"),
    ("seed", 1.0, "seed must be an integer, got 1.0"),
    ("seed", -1, "seed must be >= 0, got -1"),
], ids=["learning_rate_bool", "learning_rate_str", "epochs_bool", "epochs_float",
        "batch_size_float", "batch_size_bool", "seed_float", "seed_negative"])
def test_train_config_refuses_a_value_of_the_wrong_kind(field, value, message):
    with pytest.raises(ValueError, match=message):
        TrainConfig(**{"weights": MtlWeights(), "learning_rate": 0.05, field: value})


@pytest.mark.parametrize("mix", [(1.0, 0.0), (1.0, 1.0), (0.0, 0.0), (0.7, 0.5)],
                         ids=["stl-dec", "stl-ctc", "dis", "mtl-3"])
def test_batch_gradient_is_the_sum_of_its_rows(mix, tiny_data):
    # A padded batch of ragged utterances against each one's batch of one
    batch = tiny_data.train[:5]
    params = init_params(SMALL_MODEL)
    with ad.tape():
        bd = batch_losses(params, batch, MtlWeights(*mix))
        ad.backward(bd.total)
    got = {n: t.grad.copy() for n, t in params.items()}
    ad.zero_grad(params.leaves())
    l_mtl = 0.0
    for utt in batch:
        with ad.tape():
            one = sample_losses(params, utt, MtlWeights(*mix))
            ad.backward(one.total)
        l_mtl += one.l_mtl
    assert abs(bd.l_mtl - l_mtl) <= 1e-12 * abs(l_mtl)
    for name, t in params.items():
        assert close_to(got[name], t.grad), name


def reference_train_mtl(model_config, train_config, data):
    """``train_mtl`` one utterance at a time: ``sample_losses`` and
    ``backward`` of each utterance of a batch, the gradients summed on
    the leaves, then the SGD step; validation one utterance at a time.
    Returns the best-validation parameters, the log rows and the
    selected epoch."""
    params = init_params(model_config)
    weights, size = train_config.weights, train_config.batch_size
    keys = ("l_ctc", "l_dec", "l_dis", "l_mtl")
    rows, best, best_loss, selected = [], None, math.inf, 0
    ad.zero_grad(params.leaves())
    for epoch in range(1, train_config.epochs + 1):
        order = np.random.default_rng([train_config.seed, epoch]).permutation(len(data.train))
        sums = dict.fromkeys(keys, 0.0)
        for i, idx in enumerate(order):
            with ad.tape():
                bd = sample_losses(params, data.train[idx], weights)
                ad.backward(bd.total)
            for k in keys:
                sums[k] += getattr(bd, k)
            if (i + 1) % size == 0 or i == len(order) - 1:
                for t in params.leaves():
                    t.data -= train_config.learning_rate * t.grad
                ad.zero_grad(params.leaves())
        valid = dict.fromkeys(keys, 0.0)
        with ad.no_grad():
            for utt in data.valid:
                bd = sample_losses(params, utt, weights)
                for k in keys:
                    valid[k] += getattr(bd, k) / len(data.valid)
        row = {"epoch": epoch}
        row.update({f"train_{k}": v / len(order) for k, v in sums.items()})
        row.update({f"valid_{k}": v for k, v in valid.items()})
        rows.append(row)
        if valid["l_mtl"] < best_loss:
            best_loss, best, selected = valid["l_mtl"], params.clone(), epoch
    return best, rows, selected


@pytest.mark.parametrize("mix", [(1.0, 0.0), (1.0, 1.0), (1.0, 0.5), (0.7, 0.5)],
                         ids=["stl-dec", "stl-ctc", "mtl", "mtl-3"])
def test_batched_training_equals_the_per_utterance_loop(mix):
    # 21 utterances at batch 8: two full batches and a short one
    data = gen_dataset(6, n_train=21, n_valid=5, n_test=1, len_range=(1, 4))
    cfg = TrainConfig(weights=MtlWeights(*mix), epochs=3, learning_rate=0.05,
                      batch_size=8, seed=4)
    params, log = train_mtl(SMALL_MODEL, cfg, data)
    ref_params, ref_rows, ref_selected = reference_train_mtl(SMALL_MODEL, cfg, data)
    assert log.selected_epoch == ref_selected
    assert len(log.rows) == len(ref_rows)
    for row, ref in zip(log.rows, ref_rows):
        assert row.keys() == ref.keys()
        for k, v in ref.items():
            assert abs(row[k] - v) <= 1e-9 * abs(v), k
    for name, t in params.items():
        assert close_to(t.data, ref_params[name].data, 1e-9), name
