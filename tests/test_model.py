import hashlib
import json
import re
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from robustasr import autodiff as ad
from robustasr.decode import CtcPrefixScorer
from robustasr.losses import MtlWeights, ctc_loss, objective
from robustasr.model import (
    CheckpointError,
    ModelConfig,
    ctc_head,
    decoder_advance,
    decoder_start,
    decoder_teacher_forced,
    discriminate,
    encode,
    init_params,
    load_checkpoint,
    save_checkpoint,
    teacher_forcing,
)

import reference_ops as ro
from decoder_reference import reference_advance, reference_start
from oracles import assert_matches_reference, close_to, fd_gradient

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
    fd = fd_gradient(f, x)
    assert rel_err(x.grad, fd.data) < 1e-6


def _reference_scan(seq, w_in, w_rec, b, d):
    """The encoder scan recorded op by op, one tape record per numpy call."""
    pre = ro.matmul(seq, w_in)
    h = ad.constant(np.zeros(d))
    rows = []
    for t in range(seq.shape[0]):
        h = ro.tanh(ad.add(ad.add(pre[t], ro.matmul(h, w_rec)), b))
        rows.append(ro.reshape(h, (1, d)))
    return ro.concat(rows, axis=0)


def _reference_encode(params, x):
    cfg = params.config
    seq = x
    for layer in range(cfg.enc_layers):
        seq = _reference_scan(seq, params[f"enc{layer}.w_in"],
                              params[f"enc{layer}.w_rec"], params[f"enc{layer}.b"],
                              cfg.enc_hidden)
    return seq


def test_encode_bit_identical_to_op_by_op_scan():
    # forward bit-identical, gradients to 1e-12 (assert_matches_reference)
    cfg = replace(TINY, enc_layers=3)
    rng = np.random.default_rng(11)
    x0 = rng.normal(size=(9, cfg.feat_dim))
    weight = ad.constant(rng.normal(size=(9, cfg.enc_hidden)))
    results = []
    for enc in (encode, _reference_encode):
        params = init_params(cfg)
        for name, _t in params.items():
            if name.startswith("enc"):
                params[name].data = 2.0 * params[name].data + 0.3
        x = ad.leaf(x0)
        with ad.tape():
            h = enc(params, x)
            ad.backward(ad.sum_(ad.mul(h, weight)))
        results.append((h.data, {"x": x.grad, **{n: t.grad for n, t in params.items()}}))
    assert_matches_reference(*results)


def test_encode_records_one_op_per_layer(params):
    x = ad.constant(np.ones((1, 6, TINY.feat_dim)))
    with ad.tape() as tp:
        encode(params, x)
        assert len(tp) == TINY.enc_layers


def test_encode_never_reads_padded_frames(params):
    # Noise in the padded input frames leaves every real frame's state and
    # input gradient byte-identical to a zero-padded batch's, and the
    # padded states exactly zero.
    rng = np.random.default_rng(41)
    lengths = [6, 2, 4, 1]
    pad = np.arange(6) >= np.array(lengths)[:, None]
    clean = rng.normal(size=(4, 6, TINY.feat_dim))
    clean[pad] = 0.0
    noisy = clean.copy()
    noisy[pad] = rng.normal(scale=10.0, size=(int(pad.sum()), TINY.feat_dim))
    weight = rng.normal(size=(4, 6, TINY.enc_hidden))
    runs = []
    for x in (clean, noisy):
        seq = ad.leaf(x)
        with ad.tape():
            out = encode(params, seq, lengths)
            ad.backward(ad.sum_(ad.mul(out, weight)))
        runs.append((out.data, seq.grad))
    (out_clean, g_clean), (out_noisy, g_noisy) = runs
    assert out_noisy[~pad].tobytes() == out_clean[~pad].tobytes()
    assert g_noisy[~pad].tobytes() == g_clean[~pad].tobytes()
    assert np.all(out_noisy[pad] == 0.0) and np.all(g_noisy[pad] == 0.0)


def test_encode_outside_a_tape_records_nothing(params):
    # With no tape open, as under no_grad, nothing is recorded, so no
    # record and none of its arrays outlive the call.
    assert all(t.requires_grad for t in params.leaves())
    out = encode(params, ad.constant(np.ones((4, TINY.feat_dim))))
    assert ad._tape is None and not out.requires_grad


def test_encode_non_finite_recurrent_weight_raises(params):
    params["enc0.w_rec"].data[1, 2] = np.inf
    with pytest.raises(ad.NonFiniteError):
        encode(params, ad.constant(np.ones((4, TINY.feat_dim))))


def test_encode_rejects_empty_and_mismatched_input(params):
    with pytest.raises(ad.ShapeError):
        encode(params, ad.constant(np.zeros((0, TINY.feat_dim))))
    with pytest.raises(ad.ShapeError):
        encode(params, ad.constant(np.zeros((4, TINY.feat_dim + 1))))


@pytest.mark.parametrize("kernel", ["tanh_rnn", "decoder_teacher_forced",
                                    "discriminate", "objective"])
def test_batch_only_kernels_refuse_one_sequence(params, kernel):
    # One utterance enters through encode and the task losses, never here.
    h = ad.constant(np.ones((4, TINY.enc_hidden)))
    x = ad.constant(np.ones((4, TINY.feat_dim)))
    call = {
        "tanh_rnn": lambda: ad.tanh_rnn(x, params["enc0.w_in"], params["enc0.w_rec"],
                                        params["enc0.b"]),
        "decoder_teacher_forced": lambda: decoder_teacher_forced(
            params, h, teacher_forcing(params, [[1]])),
        "discriminate": lambda: discriminate(params, h),
        "objective": lambda: objective(params, x, None, teacher_forcing(params, [[1]]), [0],
                                       MtlWeights()),
    }[kernel]
    with pytest.raises(ad.ShapeError, match=r"\(B, T, \w+\) batch, got \(4, \d+\)$"):
        call()


@pytest.mark.parametrize("lengths", [[4], [4, 0], [4, 5]],
                         ids=["row count", "zero length", "above T"])
@pytest.mark.parametrize("kernel", ["encode", "ctc_loss", "CtcPrefixScorer"])
def test_kernels_refuse_lengths_that_do_not_fit_the_batch(params, kernel, lengths):
    # Every kernel reads its lengths through ad.padding_mask; the message
    # lists them as plain ints, also when they come as a numpy array.
    x = ad.constant(np.ones((2, 4, TINY.feat_dim)))
    logp = ctc_head(params, encode(params, x))
    call = {"encode": lambda: encode(params, x, np.array(lengths)),
            "ctc_loss": lambda: ctc_loss(logp, [[1], [2]], np.array(lengths)),
            "CtcPrefixScorer": lambda: CtcPrefixScorer(logp, np.array(lengths))}[kernel]
    with pytest.raises(ad.ShapeError, match=re.escape(
            f"lengths {lengths} do not fit 2 rows of 4 frames")):
        call()


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
    fd = fd_gradient(f, h)
    assert rel_err(h.grad, fd.data) < 1e-6


_W_CTC = np.random.default_rng(60).normal(size=(2, TINY.vocab_size + 1))


def test_ctc_head_bit_identical_to_op_by_op():
    # The fused head against matmul, bias add and log-softmax recorded
    # one by one: output, input gradient and every parameter gradient
    # through the encoder.
    rng = np.random.default_rng(61)
    x0 = rng.normal(size=(7, TINY.feat_dim))
    bias = rng.normal(size=TINY.vocab_size + 1)
    weight = ad.constant(rng.normal(size=(7, TINY.vocab_size + 1)))
    results = []
    for head in (ctc_head, ro.ctc_head):
        params = init_params(TINY)
        params["ctc.b"].data = bias.copy()
        x = ad.leaf(x0)
        with ad.tape():
            out = head(params, encode(params, x))
            ad.backward(ad.sum_(ad.mul(out, weight)))
        results.append((out.data.tobytes(), x.grad.tobytes(),
                        {n: t.grad.tobytes() for n, t in params.items()}))
    assert results[0] == results[1]


def test_ctc_head_records_one_op_and_skips_constant_terms(params):
    h = ad.leaf(np.random.default_rng(62).normal(size=(5, TINY.enc_hidden)))
    with ad.tape() as tp:
        ctc_head(params, h)
        assert len(tp) == 1
        g = np.ones((5, TINY.vocab_size + 1))
        assert all(t is not None for t in tp[0].backward_fn(g))
        ctc_head(params.frozen(), ad.constant(h.data))
        assert len(tp) == 1  # nothing to differentiate: not recorded
        ctc_head(params.frozen(), h)
        assert tp[1].backward_fn(g)[1:] == (None, None)


@pytest.mark.parametrize("where", ["hidden", "ctc.w", "ctc.b"])
def test_ctc_head_non_finite_raises(params, where):
    h = np.random.default_rng(63).normal(size=(4, TINY.enc_hidden))
    if where == "hidden":
        h[2, 1] = np.nan
    else:
        params[where].data.flat[3] = np.inf
    with pytest.raises(ad.NonFiniteError):
        ctc_head(params, ad.constant(h))


def test_decoder_step_normalized_and_deterministic(params):
    rng = np.random.default_rng(7)
    h = ad.constant(rng.normal(size=(5, TINY.enc_hidden)))

    def run():
        state = decoder_start(params, h)
        for tok in (TINY.sos, 1, 3):
            logp, state = decoder_advance(params, h, state, tok)
        return logp

    a, b = run(), run()
    assert a.shape == (TINY.vocab_size + 1,)
    assert abs(np.log(np.exp(a.data).sum())) < 1e-9
    assert np.array_equal(a.data, b.data)


def test_attention_weights_sum_to_one(params):
    # reproduce the internals: weights are exp(log_softmax(scores))
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
    h = rng.normal(size=(1, 5, TINY.enc_hidden))
    out1 = discriminate(params, ad.constant(h))
    out2 = discriminate(params, ad.constant(h[:, ::-1].copy()))
    assert np.allclose(out1.data, out2.data, atol=1e-12)
    assert abs(np.log(np.exp(out1.data[0]).sum())) < 1e-9
    assert out1.shape == (1, TINY.n_accents)


def test_discriminate_gradient_matches_fd(params):
    rng = np.random.default_rng(10)
    h = ad.leaf(rng.normal(size=(1, 3, TINY.enc_hidden)))

    def f(t):
        return ad.neg(discriminate(params, t)[0, 0])

    with ad.tape():
        ad.backward(f(h))
    fd = fd_gradient(f, h)
    assert rel_err(h.grad, fd.data) < 1e-6


@pytest.mark.parametrize("name", ["dis0.w", "dis0.b", "dis2.w", "dis4.w", "dis4.b"])
def test_discriminate_parameter_gradient_matches_fd(params, name):
    rng = np.random.default_rng(12)
    h = ad.constant(rng.normal(size=(1, 4, TINY.enc_hidden)))
    p = params[name]
    p.data = p.data + rng.normal(scale=0.3, size=p.shape)  # biases start at zero

    def f(t):
        p.data = t.data
        return ad.neg(discriminate(params, h)[0, 1])

    base = p.data.copy()
    fd = fd_gradient(f, ad.constant(base))
    p.data = base
    with ad.tape():
        ad.backward(f(p))
    assert rel_err(p.grad, fd.data) < 1e-6


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_discriminate_non_finite_pre_activation_raises(params, bad):
    # -inf and NaN leave the ReLU as zero and the output finite; the
    # pre-activation check still catches them.
    params["dis1.b"].data[0] = bad
    h = ad.constant(np.random.default_rng(13).normal(size=(1, 3, TINY.enc_hidden)))
    with pytest.raises(ad.NonFiniteError):
        discriminate(params, h)


def test_discriminate_records_one_op_and_skips_constant_terms(params):
    h = ad.leaf(np.random.default_rng(14).normal(size=(1, 3, TINY.enc_hidden)))
    with ad.tape() as tp:
        discriminate(params.frozen(), h)
        (rec,) = tp
        grads = rec.backward_fn(np.array([[0.0, -1.0]]))
    assert grads[0].shape == h.shape
    assert all(g is None for g in grads[1:])


# The masked mean: each row of a padded batch against the B=1 head of
# its unpadded slice, one row of a single frame.
DIS_LENGTHS = [5, 1, 3]


def test_discriminate_batch_rows_match_their_unpadded_slices(params):
    rng = np.random.default_rng(15)
    h = rng.normal(size=(len(DIS_LENGTHS), max(DIS_LENGTHS), TINY.enc_hidden))
    for r, n in enumerate(DIS_LENGTHS):
        h[r, n:] = np.nan  # never read
    out_grad = rng.normal(size=(len(DIS_LENGTHS), TINY.n_accents))
    batch = ad.leaf(h)
    with ad.tape():
        out = discriminate(params, batch, DIS_LENGTHS)
        ad.backward(ad.sum_(ad.mul(out, out_grad)))
    got = {n: t.grad.copy() for n, t in params.items()}
    ad.zero_grad(params.leaves())
    for r, n in enumerate(DIS_LENGTHS):
        one = ad.leaf(h[r:r + 1, :n])
        with ad.tape():
            row = discriminate(params, one)
            ad.backward(ad.sum_(ad.mul(row, out_grad[r])))
        assert close_to(out.data[r], row.data[0])
        assert close_to(batch.grad[r, :n], one.grad[0])
        assert np.all(batch.grad[r, n:] == 0.0)
    for name, t in params.items():  # the sums of the rows' gradients
        if name.startswith("dis"):
            assert close_to(got[name], t.grad), name


def test_discriminate_batch_gradient_matches_fd(params):
    rng = np.random.default_rng(16)
    h = ad.leaf(rng.normal(size=(len(DIS_LENGTHS), max(DIS_LENGTHS), TINY.enc_hidden)))
    out_grad = ad.constant(rng.normal(size=(len(DIS_LENGTHS), TINY.n_accents)))

    def f(t):
        return ad.sum_(ad.mul(discriminate(params, t, DIS_LENGTHS), out_grad))

    with ad.tape():
        ad.backward(f(h))
    assert rel_err(h.grad, fd_gradient(f, h).data) < 1e-6


def test_discriminate_names_a_non_finite_row(params):
    h = np.random.default_rng(17).normal(size=(len(DIS_LENGTHS), max(DIS_LENGTHS),
                                               TINY.enc_hidden))
    h[2, 0, 1] = np.inf
    with pytest.raises(ad.NonFiniteError, match="in row 2$"):
        discriminate(params, ad.constant(h), DIS_LENGTHS)


def test_init_deterministic():
    a = init_params(ModelConfig(seed=1))
    b = init_params(ModelConfig(seed=1))
    c = init_params(ModelConfig(seed=2))
    assert [n for n, _t in a.items()] == [n for n, _t in b.items()]
    assert all(np.array_equal(a[n].data, b[n].data) for n, _t in a.items())
    assert any(not np.array_equal(a[n].data, c[n].data) for n, _t in a.items())


def test_checkpoint_round_trip_bit_exact(tmp_path, params):
    p = tmp_path / "model.ckpt"
    save_checkpoint(p, params)
    loaded = load_checkpoint(p)
    assert loaded.config == params.config
    assert [n for n, _t in loaded.items()] == [n for n, _t in params.items()]
    for n, _t in params.items():
        assert np.array_equal(loaded[n].data, params[n].data)
    # save -> load -> save is byte identical
    p2 = tmp_path / "model2.ckpt"
    save_checkpoint(p2, loaded)
    assert p.read_bytes() == p2.read_bytes()


def test_checkpoint_truncated_fails(tmp_path, params):
    p = tmp_path / "model.ckpt"
    save_checkpoint(p, params)
    raw = p.read_bytes()
    for end in range(0, len(raw) - 1, 3):
        p.write_bytes(raw[:end])
        with pytest.raises(CheckpointError):
            load_checkpoint(p)
    lines = raw.decode().splitlines()
    idx = next(i for i, l in enumerate(lines) if l.startswith("param ctc.b"))
    for bad in ("", f"param ctc.b x{TINY.vocab_size + 1}"):
        p.write_text("\n".join(lines[:idx] + [bad] + lines[idx + 1:]) + "\n")
        with pytest.raises(CheckpointError, match=f"line {idx + 1}"):
            load_checkpoint(p)


@pytest.mark.parametrize("value", [True, "yes", 1])
def test_a_bidirectional_encoder_is_refused(tmp_path, params, value):
    # The encoder runs forward only; the key is kept but must be false.
    message = f"bidirectional must be false, got {re.escape(repr(value))}"
    with pytest.raises(ValueError, match=message):
        ModelConfig(bidirectional=value)
    p = tmp_path / "model.ckpt"
    save_checkpoint(p, params)
    text = p.read_text()
    assert '"bidirectional": false' in text
    p.write_text(text.replace('"bidirectional": false',
                              f'"bidirectional": {json.dumps(value)}'))
    with pytest.raises(CheckpointError, match=f"^{re.escape(str(p))}: bad config: {message}"):
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


def _bad_block(lines, name, edit):
    """``lines`` with the rows of parameter ``name`` passed through ``edit``."""
    idx = next(i for i, l in enumerate(lines) if l.startswith(f"param {name} "))
    n_rows = int(lines[idx].split()[2]) if len(lines[idx].split()) == 4 else 1
    rows = [l.split() for l in lines[idx + 1:idx + 1 + n_rows]]
    edit(rows)
    return lines[:idx + 1] + [" ".join(r) for r in rows] + lines[idx + 1 + n_rows:]


def _set(rows, r, c, value):
    rows[r][c] = value


@pytest.mark.parametrize(("name", "edit"), [
    ("enc0.w_in", lambda rows: _set(rows, 1, 2, "0x1.zzp-3")),  # not hex
    ("enc0.w_in", lambda rows: _set(rows, 2, 0, "")),  # an empty value
    ("ctc.b", lambda rows: _set(rows, 0, 1, "nope")),  # not hex, 1-D
    ("enc0.w_in", lambda rows: rows[1].pop()),  # a row one value short
    ("enc0.w_in", lambda rows: rows[0].append(rows[1].pop())),  # right count, ragged
    ("ctc.b", lambda rows: rows[0].pop()),  # a vector one value short
    ("enc1.w_rec", lambda rows: rows[-1].append("0x1p-1")),  # a row one value long
    # float.fromhex reads these, and eval would fail only inside the encoder
    ("enc0.w_in", lambda rows: _set(rows, 1, 2, "nan")),
    ("ctc.b", lambda rows: _set(rows, 0, 1, "inf")),
    ("enc1.w_rec", lambda rows: _set(rows, 0, 0, "-inf")),
], ids=["not-hex", "empty", "vector-not-hex", "row-short", "ragged", "vector-short",
        "row-long", "nan", "inf", "minus-inf"])
def test_checkpoint_bad_values_name_the_parameter(tmp_path, params, name, edit):
    p = tmp_path / "model.ckpt"
    save_checkpoint(p, params)
    p.write_text("\n".join(_bad_block(p.read_text().splitlines(), name, edit)) + "\n")
    with pytest.raises(CheckpointError, match=f": bad values for {re.escape(name)}: "):
        load_checkpoint(p)


FIXTURE = Path(__file__).resolve().parent.parent / "perfbench" / "fixture" / "checkpoint.txt"


def test_fixture_checkpoint_loads_to_pinned_bytes():
    # Digest of the trained fixture's config and every parameter, in
    # order: any parse must read exactly these values.
    loaded = load_checkpoint(FIXTURE)
    h = hashlib.sha256(loaded.config.to_json().encode())
    for name, t in loaded.items():
        h.update(f"{name} {t.shape}".encode())
        h.update(np.ascontiguousarray(t.data, dtype="<f8").tobytes())
    assert h.hexdigest() == "bb26cea2f72a9ef7cd25d3cecd68076c50496a048c39be528c3bfc0c1379fde0"


def test_a_file_that_is_not_utf8_is_not_a_checkpoint(tmp_path):
    p = tmp_path / "model.ckpt"
    p.write_bytes(np.random.default_rng(0).bytes(200))
    with pytest.raises(CheckpointError, match=f"^{re.escape(str(p))}: not a checkpoint file$"):
        load_checkpoint(p)


def test_checkpoint_repeated_block_fails(tmp_path):
    # A second ctc.b block of zeros would otherwise silently win.
    lines = FIXTURE.read_text().splitlines()
    idx = next(i for i, l in enumerate(lines) if l.startswith("param ctc.b "))
    zeros = " ".join([float(0).hex()] * len(lines[idx + 1].split()))
    lines[-1:] = [lines[idx], zeros, "end"]
    p = tmp_path / "model.ckpt"
    p.write_text("\n".join(lines) + "\n")
    with pytest.raises(CheckpointError, match=f"^{re.escape(str(p))}: repeated block for "
                                              f"ctc.b at line {len(lines) - 2}$"):
        load_checkpoint(p)


# ---------------------------------------------------------------------------
# fused decoder against the op-by-op reference in decoder_reference.py

DEC_PARAMS = ("dec.emb", "dec.w_in", "dec.w_rec", "dec.b", "attn.w_h",
              "attn.b", "attn.w_s", "attn.v", "dec.w_out", "dec.b_out")


def test_decoder_advance_records_nothing_and_matches_reference(params):
    rng = np.random.default_rng(12)
    h = ad.leaf(rng.normal(size=(6, TINY.enc_hidden)))
    tokens = [TINY.sos, 2, 2, 0, TINY.vocab_size - 1]
    with ad.tape() as tp:
        state = decoder_start(params, h)
        fused = []
        for tok in tokens:
            logp, state = decoder_advance(params, h, state, tok)
            fused.append(logp)
        assert len(tp) == 0
    with ad.tape():
        state = reference_start(params, h)
        for tok, got in zip(tokens, fused):
            logp, state = reference_advance(params, h, state, tok)
            assert not got.requires_grad
            assert got.data.tobytes() == logp.data.tobytes()


def test_decoder_advance_rejects_bad_token(params):
    h = ad.constant(np.ones((3, TINY.enc_hidden)))
    state = decoder_start(params, h)
    for tok in (-1, TINY.vocab_size + 1):
        with pytest.raises(ad.ShapeError):
            decoder_advance(params, h, state, tok)
    # One range test covers the token vector, and its message lists it.
    h2 = ad.constant(np.ones((2, 3, TINY.enc_hidden)))
    with pytest.raises(ad.ShapeError, match=re.escape(f"[1, {TINY.vocab_size + 1}]")):
        decoder_advance(params, h2, decoder_start(params, h2),
                        np.array([1, TINY.vocab_size + 1]))


def test_decoder_advance_takes_a_batch_and_refuses_mismatched_shapes():
    # The batch decoder_start accepted used to fail inside numpy at the
    # next decoder_advance.
    params = init_params(ModelConfig())
    h = ad.constant(np.ones((2, 5, 32)))
    state = decoder_start(params, h)
    logp, state = decoder_advance(params, h, state, np.array([ModelConfig().sos] * 2))
    assert logp.shape == (2, ModelConfig().vocab_size + 1)
    assert np.array_equal(logp.data[0], logp.data[1])
    for tokens in (np.array([1, 2, 3]), 1, np.array([[1, 2]])):
        with pytest.raises(ad.ShapeError, match=r"tokens \(.*\) of int.*hidden \(2, 5, 32\)"):
            decoder_advance(params, h, state, tokens)
    with pytest.raises(ad.ShapeError, match=r"tokens \(2,\) of float"):
        decoder_advance(params, h, state, np.array([1.0, 2.0]))
    h4 = ad.constant(np.ones((1, 2, 5, 32)))
    with pytest.raises(ad.ShapeError, match=r"got \(1, 2, 5, 32\)"):
        decoder_start(params, h4)
    with pytest.raises(ad.ShapeError, match=r"tokens \(1,\) .*hidden \(1, 2, 5, 32\)"):
        decoder_advance(params, h4, state, np.array([1]))


@pytest.mark.parametrize("name", ["dec.w_rec", "attn.v", "dec.w_out"])
def test_decoder_non_finite_parameter_raises(params, name):
    params[name].data.flat[1] = np.inf
    h = ad.constant(np.random.default_rng(13).normal(size=(4, TINY.enc_hidden)))
    state = decoder_start(params, h)
    with pytest.raises(ad.NonFiniteError):
        decoder_advance(params, h, state, TINY.sos)
    with pytest.raises(ad.NonFiniteError):
        decoder_teacher_forced(params, h[None], teacher_forcing(params, [[1]]))


def test_teacher_forced_rejects_bad_tokens(params):
    # Targets are word ids: sos/eos (V) and ids outside the vocabulary
    # are refused; an empty target only predicts eos.
    h = ad.constant(np.ones((1, 3, TINY.enc_hidden)))
    for bad in (TINY.vocab_size, TINY.vocab_size + 1, -1):
        with pytest.raises(ValueError, match="word ids"):
            decoder_teacher_forced(params, h, teacher_forcing(params, [[1, bad]]))
    assert decoder_teacher_forced(params, h, teacher_forcing(params, [[]])).shape == (1,)


@pytest.mark.parametrize("name", ("hidden",) + DEC_PARAMS)
def test_teacher_forced_gradient_matches_fd(params, name):
    # A ragged batch: an empty target, a repeated word and padded frames,
    # each row's loss weighted at random.
    rng = np.random.default_rng(14)
    h = ad.leaf(rng.normal(size=(3, 5, TINY.enc_hidden)))
    targets, lengths = [[], [3, 3, 0], [2, 4]], [5, 3, 4]
    weight = ad.constant(rng.normal(size=len(targets)))

    def loss(p, hidden):
        return ad.sum_(ad.mul(decoder_teacher_forced(p, hidden, teacher_forcing(p, targets),
                                                     lengths), weight))

    with ad.tape():
        ad.backward(loss(params, h))
    if name == "hidden":
        fd = fd_gradient(lambda t: loss(params, t), h)
        assert rel_err(h.grad, fd.data) < 1e-6
        return

    def f(t):
        p = params.clone()
        p[name].data = t.data
        return loss(p, h)

    fd = fd_gradient(f, ad.constant(params[name].data))
    assert rel_err(params[name].grad, fd.data) < 1e-6



RAGGED_TARGETS = [[], [3, 3, 0], [2, 4]]


def _ragged_decoder_batch(p, forcing, seed=15):
    """Loss bytes and input-gradient bytes of a ragged batch (an empty
    target, a repeated word, padded frames) under ``forcing``."""
    h = ad.leaf(np.random.default_rng(seed).normal(size=(3, 5, TINY.enc_hidden)))
    with ad.tape():
        loss = decoder_teacher_forced(p, h, forcing, [5, 3, 4])
        ad.backward(ad.sum_(loss))
    return loss.data.tobytes(), h.grad.tobytes()


def test_teacher_forcing_reused_gives_the_same_bits(params):
    # An attack builds the forcing once and reuses it on every step's input.
    forcing = teacher_forcing(params, RAGGED_TARGETS)

    def arrays():
        return [a.tobytes() for a in (forcing.steps, forcing.tok_in, forcing.tok_tgt,
                                      forcing.late, *forcing.states)]

    before = arrays()
    for seed in (15, 16):
        assert _ragged_decoder_batch(params, forcing, seed) == \
            _ragged_decoder_batch(params, teacher_forcing(params, RAGGED_TARGETS), seed)
    assert arrays() == before


def test_teacher_forced_input_gradient_same_bits_with_frozen_parameters(params):
    # Frozen parameters skip the query terms and the state recurrence of
    # the backward; the input gradient does not move.
    frozen = params.frozen()
    assert _ragged_decoder_batch(frozen, teacher_forcing(frozen, RAGGED_TARGETS)) == \
        _ragged_decoder_batch(params, teacher_forcing(params, RAGGED_TARGETS))
    assert params["dec.w_rec"].grad.any()  # the leaf run took the recurrence's terms


def test_teacher_forced_refuses_a_forcing_of_another_batch(params):
    h = ad.constant(np.ones((2, 3, TINY.enc_hidden)))
    with pytest.raises(ad.ShapeError, match="1 token rows for a batch of 2"):
        decoder_teacher_forced(params, h, teacher_forcing(params, [[1]]))
