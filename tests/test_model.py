from dataclasses import replace

import numpy as np
import pytest

from robustasr import autodiff as ad
from robustasr.model import (
    CheckpointError,
    ModelConfig,
    decoder_step,
    ctc_head,
    discriminate,
    encode,
    init_params,
    load_checkpoint,
    save_checkpoint,
)

TINY = ModelConfig(feat_dim=3, enc_hidden=4, enc_layers=2, dec_hidden=4,
                   attn_dim=3, emb_dim=3, vocab_size=5, disc_hidden=4, seed=1)


def rel_err(a, b):
    a, b = np.asarray(a, float), np.asarray(b, float)
    denom = np.maximum(1.0, np.maximum(np.abs(a), np.abs(b)))
    return float(np.max(np.abs(a - b) / denom))


@pytest.fixture()
def params():
    return init_params(TINY)


def test_encode_shape_contract(params):
    for t in (1, 2, 7):
        x = ad.constant(np.random.default_rng(t).normal(size=(t, TINY.feat_dim)))
        h = encode(params, x)
        assert h.shape == (t, TINY.enc_hidden)


def test_encode_zero_input_passes_biases_through(params):
    rng = np.random.default_rng(2)
    for layer in range(TINY.enc_layers):
        params[f"enc{layer}.b"].data = rng.normal(size=TINY.enc_hidden)
    x = ad.constant(np.zeros((3, TINY.feat_dim)))
    h = encode(params, x)
    # first frame of layer outputs sees only the bias chain
    b0 = np.tanh(params["enc0.b"].data)
    expect = np.tanh(b0 @ params["enc1.w_in"].data + params["enc1.b"].data)
    assert np.allclose(h.data[0], expect, atol=1e-12)


def test_encode_unidirectional_is_length_equivariant(params):
    rng = np.random.default_rng(3)
    x8 = rng.normal(size=(8, TINY.feat_dim))
    h8 = encode(params, ad.constant(x8)).data
    h5 = encode(params, ad.constant(x8[:5])).data
    assert np.allclose(h8[:5], h5, atol=0)


def test_encode_input_gradient_matches_fd(params):
    rng = np.random.default_rng(4)
    x = ad.leaf(rng.normal(size=(3, TINY.feat_dim)))

    def f(t):
        return ad.sum_(encode(params, t))

    with ad.tape():
        ad.backward(f(x))
    fd = ad.fd_gradient(f, x)
    assert rel_err(x.grad, fd.data) < 1e-6


def _reference_scan(seq, w_in, w_rec, b, d, reverse):
    """The encoder scan recorded op by op, one tape record per numpy call."""
    pre = ad.matmul(seq, w_in)
    n = seq.shape[0]
    order = range(n - 1, -1, -1) if reverse else range(n)
    h = ad.constant(np.zeros(d))
    rows = [None] * n
    for t in order:
        h = ad.tanh(ad.add(ad.add(pre[t], ad.matmul(h, w_rec)), b))
        rows[t] = ad.reshape(h, (1, d))
    return ad.concat(rows, axis=0)


def _reference_encode(params, x):
    cfg = params.config
    seq = x
    for layer in range(cfg.enc_layers):
        w = {name.split(".")[1]: t for name, t in params.items()
             if name.startswith(f"enc{layer}.")}
        out = _reference_scan(seq, w["w_in"], w["w_rec"], w["b"],
                              cfg.enc_hidden, reverse=False)
        if cfg.bidirectional:
            out = ad.add(out, _reference_scan(seq, w["w_in_r"], w["w_rec_r"],
                                              w["b_r"], cfg.enc_hidden,
                                              reverse=True))
        seq = out
    return seq


@pytest.mark.parametrize("bidirectional", [False, True])
def test_encode_bit_identical_to_op_by_op_scan(bidirectional):
    cfg = replace(TINY, bidirectional=bidirectional, enc_layers=3)
    rng = np.random.default_rng(11)
    x0 = rng.normal(size=(9, cfg.feat_dim))
    weight = ad.constant(rng.normal(size=(9, cfg.enc_hidden)))
    results = []
    for enc in (encode, _reference_encode):
        params = init_params(cfg)
        for name in params.names():
            if name.startswith("enc"):
                params[name].data = 2.0 * params[name].data + 0.3
        x = ad.leaf(x0)
        with ad.tape():
            h = enc(params, x)
            ad.backward(ad.sum_(ad.mul(h, weight)))
        results.append((h.data, x.grad, {n: params[n].grad for n in params.names()}))
    (h1, gx1, gp1), (h2, gx2, gp2) = results
    assert np.array_equal(h1, h2)
    assert np.array_equal(gx1, gx2)
    for name in gp1:
        assert np.array_equal(gp1[name], gp2[name]), name


@pytest.mark.parametrize("bidirectional", [False, True])
def test_encode_records_one_op_per_layer_and_direction(bidirectional):
    cfg = replace(TINY, bidirectional=bidirectional)
    params = init_params(cfg)
    x = ad.constant(np.ones((6, cfg.feat_dim)))
    with ad.tape() as tp:
        encode(params, x)
        # bidirectional layers add one record that sums the two directions
        per_layer = 3 if bidirectional else 1
        assert len(tp) == cfg.enc_layers * per_layer


def test_encode_non_finite_recurrent_weight_raises(params):
    params["enc0.w_rec"].data[1, 2] = np.inf
    with pytest.raises(ad.NonFiniteError):
        encode(params, ad.constant(np.ones((4, TINY.feat_dim))))


def test_encode_rejects_empty_and_mismatched_input(params):
    with pytest.raises(ad.ShapeError):
        encode(params, ad.constant(np.zeros((0, TINY.feat_dim))))
    with pytest.raises(ad.ShapeError):
        encode(params, ad.constant(np.zeros((4, TINY.feat_dim + 1))))


def test_ctc_head_rows_normalized(params):
    rng = np.random.default_rng(5)
    h = ad.constant(rng.normal(size=(4, TINY.enc_hidden)))
    logp = ctc_head(params, h)
    assert logp.shape == (4, TINY.vocab_size + 1)
    row_lse = np.log(np.exp(logp.data).sum(axis=1))
    assert np.abs(row_lse).max() < 1e-9


def test_ctc_head_gradient_matches_fd(params):
    rng = np.random.default_rng(6)
    h = ad.leaf(rng.normal(size=(2, TINY.enc_hidden)))

    def f(t):
        return ad.sum_(ad.mul(ctc_head(params, t), ad.constant(_W_CTC)))

    with ad.tape():
        ad.backward(f(h))
    fd = ad.fd_gradient(f, h)
    assert rel_err(h.grad, fd.data) < 1e-6


_W_CTC = np.random.default_rng(60).normal(size=(2, TINY.vocab_size + 1))


def test_decoder_step_normalized_and_deterministic(params):
    rng = np.random.default_rng(7)
    h = ad.constant(rng.normal(size=(5, TINY.enc_hidden)))
    prefix = [TINY.sos, 1, 3]
    a = decoder_step(params, h, prefix)
    b = decoder_step(params, h, prefix)
    assert a.shape == (TINY.vocab_size + 1,)
    assert abs(np.log(np.exp(a.data).sum())) < 1e-9
    assert np.array_equal(a.data, b.data)


def test_decoder_step_requires_sos(params):
    h = ad.constant(np.zeros((2, TINY.enc_hidden)))
    with pytest.raises(ad.ShapeError):
        decoder_step(params, h, [])
    with pytest.raises(ad.ShapeError):
        decoder_step(params, h, [1, 2])


def test_attention_weights_sum_to_one(params):
    # reproduce the internals: weights are exp(log_softmax(scores))
    from robustasr.model import decoder_advance, decoder_start

    rng = np.random.default_rng(8)
    h = ad.constant(rng.normal(size=(6, TINY.enc_hidden)))
    state = decoder_start(params, h)
    logp, state2 = decoder_advance(params, h, state, TINY.sos)
    # the context vector must be a convex combination of hidden rows
    lo = h.data.min(axis=0) - 1e-12
    hi = h.data.max(axis=0) + 1e-12
    scores = np.tanh(state.hproj.data + state2.s.data @ params["attn.w_s"].data) \
        @ params["attn.v"].data
    w = np.exp(scores - scores.max())
    w /= w.sum()
    assert w.sum() == pytest.approx(1.0, abs=1e-12)
    ctx = w @ h.data
    assert np.all(ctx >= lo) and np.all(ctx <= hi)


def test_discriminate_permutation_invariant_and_normalized(params):
    rng = np.random.default_rng(9)
    h = rng.normal(size=(5, TINY.enc_hidden))
    out1 = discriminate(params, ad.constant(h))
    out2 = discriminate(params, ad.constant(h[::-1].copy()))
    assert np.allclose(out1.data, out2.data, atol=1e-12)
    assert abs(np.log(np.exp(out1.data).sum())) < 1e-9
    assert out1.shape == (TINY.n_accents,)


def test_discriminate_gradient_matches_fd(params):
    rng = np.random.default_rng(10)
    h = ad.leaf(rng.normal(size=(3, TINY.enc_hidden)))

    def f(t):
        return ad.neg(discriminate(params, t)[0])

    with ad.tape():
        ad.backward(f(h))
    fd = ad.fd_gradient(f, h)
    assert rel_err(h.grad, fd.data) < 1e-6


def test_init_deterministic():
    a = init_params(ModelConfig(seed=1))
    b = init_params(ModelConfig(seed=1))
    c = init_params(ModelConfig(seed=2))
    assert a.names() == b.names()
    assert all(np.array_equal(a[n].data, b[n].data) for n in a.names())
    assert any(not np.array_equal(a[n].data, c[n].data) for n in a.names())


def test_checkpoint_round_trip_bit_exact(tmp_path, params):
    p = tmp_path / "model.ckpt"
    save_checkpoint(p, params)
    loaded = load_checkpoint(p)
    assert loaded.config == params.config
    assert loaded.names() == params.names()
    for n in params.names():
        assert np.array_equal(loaded[n].data, params[n].data)
    # save -> load -> save is byte identical
    p2 = tmp_path / "model2.ckpt"
    save_checkpoint(p2, loaded)
    assert p.read_bytes() == p2.read_bytes()


def test_checkpoint_truncated_fails(tmp_path, params):
    p = tmp_path / "model.ckpt"
    save_checkpoint(p, params)
    lines = p.read_text().splitlines()
    p.write_text("\n".join(lines[: len(lines) // 2]) + "\n")
    with pytest.raises(CheckpointError):
        load_checkpoint(p)


def test_checkpoint_missing_param_fails(tmp_path, params):
    p = tmp_path / "model.ckpt"
    save_checkpoint(p, params)
    lines = p.read_text().splitlines()
    # drop one whole param block (header + its single bias row)
    idx = next(i for i, l in enumerate(lines) if l.startswith("param ctc.b"))
    del lines[idx:idx + 2]
    p.write_text("\n".join(lines) + "\n")
    with pytest.raises(CheckpointError):
        load_checkpoint(p)


def test_checkpoint_wrong_shape_fails(tmp_path, params):
    p = tmp_path / "model.ckpt"
    save_checkpoint(p, params)
    lines = p.read_text().splitlines()
    idx = lines.index(f"param ctc.b {TINY.vocab_size + 1}")
    lines[idx] = f"param ctc.b {TINY.vocab_size}"
    lines[idx + 1] = " ".join(lines[idx + 1].split()[:-1])
    p.write_text("\n".join(lines) + "\n")
    with pytest.raises(CheckpointError, match="ctc.b"):
        load_checkpoint(p)
