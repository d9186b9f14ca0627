import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from robustasr import losses
from robustasr import autodiff as ad
from robustasr.data import Utterance
from robustasr.losses import (
    CtcInfeasibleError,
    LossBreakdown,
    MtlWeights,
    ctc_lattice,
    ctc_loss,
    dec_loss,
    dis_loss,
    mix,
    mtl_loss,
    objective,
)
from robustasr.model import (ModelConfig, ctc_framing, ctc_head, encode, init_params,
                            teacher_forcing, word_matrix)
from robustasr.train import sample_losses

import reference_ops as ro
from ctc_reference import reference_ctc_loss
from decoder_reference import reference_dec_loss
from discriminator_reference import reference_discriminate
from oracles import assert_matches_reference, ctc_brute_force, ctc_min_frames, fd_gradient

TINY = ModelConfig(feat_dim=3, enc_hidden=4, enc_layers=1, dec_hidden=4,
                   attn_dim=3, emb_dim=3, vocab_size=4, disc_hidden=4, seed=2)


def rel_err(a, b):
    a, b = np.asarray(a, float), np.asarray(b, float)
    denom = np.maximum(1.0, np.maximum(np.abs(a), np.abs(b)))
    return float(np.max(np.abs(a - b) / denom))


def uniform_logp(t, width):
    return ad.constant(np.full((t, width), -math.log(width)))


def random_logp(t, width, seed):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(t, width))
    x = x - np.log(np.exp(x - x.max(axis=1, keepdims=True)).sum(axis=1, keepdims=True)) \
        - x.max(axis=1, keepdims=True)
    return ad.constant(x)


def batch_ctc_loss(logp, targets, lengths=None):
    """``ctc_lattice`` of a padded (B, T, V+1) batch, its targets framed
    as a ``teacher_forcing`` frames them."""
    return ctc_lattice(logp, ctc_framing(*word_matrix(targets), logp.shape[2] - 1), lengths)


def test_ctc_single_frame_single_label():
    # one word + blank, uniform: only path is the label itself, prob 1/2
    loss = ctc_loss(uniform_logp(1, 2), [0])
    assert float(loss.data) == pytest.approx(math.log(2), abs=1e-12)


def test_ctc_two_frames_single_label():
    # paths a.a, a.blank, blank.a -> 3/4
    loss = ctc_loss(uniform_logp(2, 2), [0])
    assert float(loss.data) == pytest.approx(-math.log(3 / 4), abs=1e-12)


def test_ctc_matches_brute_force_on_random_instances():
    rng = np.random.default_rng(17)
    for trial in range(60):
        width = int(rng.integers(2, 5))  # 1..3 words + blank
        t = int(rng.integers(1, 6))
        n_lab = int(rng.integers(0, 3))
        y = list(rng.integers(0, width - 1, size=n_lab))
        logp = random_logp(t, width, seed=1000 + trial)
        if not y:
            with pytest.raises(ValueError, match="at least one word"):
                ctc_loss(logp, y)
            continue
        if t < ctc_min_frames(y):
            with pytest.raises(CtcInfeasibleError):
                ctc_loss(logp, y)
            continue
        ours = float(ctc_loss(logp, y).data)
        oracle = ctc_brute_force(logp, y)
        assert abs(ours - oracle) < 1e-9


def test_ctc_infeasible_raises_not_inf():
    logp = uniform_logp(2, 3)
    with pytest.raises(CtcInfeasibleError):
        ctc_loss(logp, [0, 1, 0])  # needs 3 frames
    with pytest.raises(CtcInfeasibleError):
        ctc_loss(uniform_logp(2, 3), [1, 1])  # repeat needs a blank between
    with pytest.raises(CtcInfeasibleError):
        ctc_brute_force(uniform_logp(2, 3), [0, 1, 0])


def test_ctc_rejects_special_tokens():
    with pytest.raises(ValueError):
        ctc_loss(uniform_logp(3, 3), [2])  # 2 is the blank column here
    # an empty target: one utterance, and one row of a batch
    with pytest.raises(ValueError, match="row 0: a CTC target must hold at least one word"):
        ctc_loss(uniform_logp(3, 3), [])
    with pytest.raises(ValueError, match="row 1: a CTC target must hold at least one word"):
        batch_ctc_loss(ad.constant(np.zeros((2, 3, 3))), [[0], []])


def test_ctc_brute_force_size_guard():
    with pytest.raises(ValueError):
        ctc_brute_force(np.zeros((30, 5)), [0])


def test_ctc_gradient_matches_fd():
    rng = np.random.default_rng(23)
    raw = rng.normal(size=(5, 4))

    def f(t):
        return ctc_loss(ro.log_softmax(t, axis=1), [0, 2])

    x = ad.leaf(raw)
    with ad.tape():
        ad.backward(f(x))
    fd = fd_gradient(f, x)
    assert rel_err(x.grad, fd.data) < 1e-6


@pytest.fixture()
def params():
    return init_params(TINY)


@pytest.fixture()
def hidden(params):
    # A leaf, so the losses on it record their ops on the tests' tapes.
    rng = np.random.default_rng(31)
    x = ad.constant(rng.normal(size=(6, TINY.feat_dim)))
    with ad.no_grad():
        return ad.leaf(encode(params, x).data)


def test_dec_loss_uniform_head(params, hidden):
    params["dec.w_out"].data[...] = 0.0
    params["dec.b_out"].data[...] = 0.0
    loss = dec_loss(params, hidden, [1, 3])
    assert float(loss.data) == pytest.approx(math.log(TINY.vocab_size + 1), abs=1e-12)


def test_dec_loss_confident_eos_is_zero(params, hidden):
    params["dec.w_out"].data[...] = 0.0
    params["dec.b_out"].data[...] = 0.0
    params["dec.b_out"].data[TINY.eos] = 50.0
    loss = dec_loss(params, hidden, [])  # eos-only target
    assert float(loss.data) == pytest.approx(0.0, abs=1e-12)


def test_dec_loss_rejects_special_tokens(params, hidden):
    with pytest.raises(ValueError):
        dec_loss(params, hidden, [TINY.vocab_size])


def test_dec_loss_gradient_matches_fd(params):
    rng = np.random.default_rng(37)
    x = ad.leaf(rng.normal(size=(4, TINY.feat_dim)))

    def f(t):
        return dec_loss(params, encode(params, t), [2, 0])

    with ad.tape():
        ad.backward(f(x))
    fd = fd_gradient(f, x)
    assert rel_err(x.grad, fd.data) < 1e-6


def test_dis_loss_uniform_and_confident(params, hidden):
    last = TINY.disc_layers - 1
    params[f"dis{last}.w"].data[...] = 0.0
    params[f"dis{last}.b"].data[...] = 0.0
    assert float(dis_loss(params, hidden, 0).data) == pytest.approx(math.log(2), abs=1e-12)
    params[f"dis{last}.b"].data[1] = 60.0
    assert float(dis_loss(params, hidden, 1).data) == pytest.approx(0.0, abs=1e-12)


def test_dis_loss_label_range(params, hidden):
    with pytest.raises(ValueError):
        dis_loss(params, hidden, 2)


def test_dis_loss_gradient_matches_fd(params):
    rng = np.random.default_rng(41)
    x = ad.leaf(rng.normal(size=(3, TINY.feat_dim)))

    def f(t):
        return dis_loss(params, encode(params, t), 1)

    with ad.tape():
        ad.backward(f(x))
    fd = fd_gradient(f, x)
    assert rel_err(x.grad, fd.data) < 1e-6


def test_weights_validation_and_default_inference_weight():
    w = MtlWeights(lambda_t_A=0.8, lambda_t_C=0.3)
    assert w.lambda_i_C == 0.3
    w2 = MtlWeights(lambda_t_A=0.8, lambda_t_C=0.3, lambda_i_C=0.0)
    assert w2.lambda_i_C == 0.0
    with pytest.raises(ValueError):
        MtlWeights(lambda_t_A=1.5, lambda_t_C=0.0)
    # a bool compares as 0 or 1, and the rows CSV would spell it True
    for name, value in [("lambda_t_A", True), ("lambda_t_C", "0.5"), ("lambda_i_C", False),
                        ("lambda_t_A", None)]:
        with pytest.raises(ValueError, match=f"{name} must be a real number, got {value!r}"):
            MtlWeights(**{name: value})
    # each weight is stored as a float, whatever number it was given as
    w3 = MtlWeights(1, 0)
    assert [repr(v) for v in (w3.lambda_t_A, w3.lambda_t_C, w3.lambda_i_C)] == \
        ["1.0", "0.0", "0.0"]


def test_mtl_boundaries_and_arithmetic():
    ctc_only = mtl_loss(MtlWeights(1.0, 1.0), 2.0, 4.0, 1.0)
    assert ctc_only.l_mtl == pytest.approx(2.0, abs=1e-15)
    dec_only = mtl_loss(MtlWeights(1.0, 0.0), 2.0, 4.0, 1.0)
    assert dec_only.l_mtl == pytest.approx(4.0, abs=1e-15)
    mixed = mtl_loss(MtlWeights(0.7, 0.5), 2.0, 4.0, 1.0)
    assert mixed.l_mtl == pytest.approx(0.7 * 3.0 + 0.3 * 1.0, abs=1e-15)


def test_breakdown_affine_identities():
    rng = np.random.default_rng(5)
    for _ in range(20):
        la, lc = rng.uniform(size=2)
        w = MtlWeights(la, lc)
        lc_v, ld_v, ls_v = rng.uniform(0, 5, size=3)
        bd = mtl_loss(w, lc_v, ld_v, ls_v)
        assert abs(bd.l_mtl - (la * (lc * lc_v + (1 - lc) * ld_v) + (1 - la) * ls_v)) < 1e-12


def test_mixing_linear_in_each_weight():
    lc_v, ld_v, ls_v = 2.0, 4.0, 1.0
    for lam_c in (0.0, 0.5, 1.0):
        vals = [mtl_loss(MtlWeights(a, lam_c), lc_v, ld_v, ls_v).l_mtl
                for a in (0.0, 0.5, 1.0)]
        assert vals[1] == pytest.approx((vals[0] + vals[2]) / 2, abs=1e-12)
    for lam_a in (0.0, 0.5, 1.0):
        vals = [mtl_loss(MtlWeights(lam_a, c), lc_v, ld_v, ls_v).l_mtl
                for c in (0.0, 0.5, 1.0)]
        assert vals[1] == pytest.approx((vals[0] + vals[2]) / 2, abs=1e-12)


def test_mtl_total_is_differentiable_through_heads(params):
    rng = np.random.default_rng(43)
    x = ad.leaf(rng.normal(size=(5, TINY.feat_dim)))
    w = MtlWeights(0.7, 0.5)

    def f(t):
        h = encode(params, t)
        bd = mtl_loss(w, ctc_loss(ctc_head(params, h), [1, 2]),
                      dec_loss(params, h, [1, 2]), dis_loss(params, h, 0))
        return bd.total

    with ad.tape():
        ad.backward(f(x))
    fd = fd_gradient(f, x)
    assert rel_err(x.grad, fd.data) < 1e-6


# ---------------------------------------------------------------------------
# the fused teacher-forced decoder matches the op-by-op tape: the forward
# is bit-identical, the gradients agree to 1e-12 (assert_matches_reference)

# Two encoder layers and distinct dimensions. Its test cases keep the id
# "bidir" from when this config also ran a reverse scan, so that their
# names stay comparable across versions.
DEEP = ModelConfig(feat_dim=4, enc_hidden=5, enc_layers=2, dec_hidden=6,
                   attn_dim=3, emb_dim=2, vocab_size=6, disc_hidden=4, seed=8)
TARGETS = ([], [2, 2, 2], [1, 3, 0, 3], [0])


def _grads(cfg, run, frames=7):
    """(loss, {"x": input grad, name: parameter grad}) of one tape."""
    params = init_params(cfg)
    rng = np.random.default_rng(cfg.seed)
    for t in params.leaves():
        t.data = t.data * 2.0 + rng.normal(scale=0.1, size=t.shape)
    x = ad.leaf(rng.normal(size=(frames, cfg.feat_dim)))
    with ad.tape():
        loss = run(params, x)
        ad.backward(loss)
    return loss.data, {"x": x.grad, **{n: t.grad for n, t in params.items()}}


def _bytes(result):
    loss, grads = result
    return loss.tobytes(), {n: g.tobytes() for n, g in grads.items()}


@pytest.mark.parametrize("cfg", [TINY, DEEP], ids=["tiny", "bidir"])
@pytest.mark.parametrize("y", TARGETS, ids=["empty", "repeat", "mixed", "one"])
def test_dec_loss_bit_identical_to_op_by_op(cfg, y):
    fused = _grads(cfg, lambda p, x: dec_loss(p, encode(p, x), y))
    ref = _grads(cfg, lambda p, x: reference_dec_loss(p, encode(p, x), y))
    assert_matches_reference(fused, ref)


MTL3 = MtlWeights(0.7, 0.5)


def _refused_by_ctc(run, y) -> bool:
    """True when ``y`` is empty and ``run`` raises CTC's refusal of it."""
    if y:
        return False
    with pytest.raises(ValueError, match="a CTC target must hold at least one word"):
        run()
    return True


def _sample_losses(y):
    """``sample_losses`` of the input as an utterance: the batch of one."""
    def run(p, x):
        utt = Utterance(id="u", features=x.data, transcript=tuple(y), accent=1)
        return sample_losses(p, utt, MTL3).total
    return run


@pytest.mark.parametrize("cfg", [TINY, DEEP], ids=["tiny", "bidir"])
@pytest.mark.parametrize("y", TARGETS, ids=["empty", "repeat", "mixed", "one"])
def test_training_mix_bit_identical_to_op_by_op(cfg, y):
    # MTL-3 with the discriminator active: hidden's gradient sums the
    # discriminator, decoder and CTC terms. The reference mixes the
    # op-by-op lattice, decoder and accent head on unbatched states.
    def reference(p, x):
        h = encode(p, ad.constant(x.data))
        return mtl_loss(MTL3, reference_ctc_loss(ctc_head(p, h), y),
                        reference_dec_loss(p, h, y),
                        ad.neg(reference_discriminate(p, h)[1])).total

    if _refused_by_ctc(lambda: _grads(cfg, _sample_losses(y)), y):
        return
    assert_matches_reference(_grads(cfg, _sample_losses(y)), _grads(cfg, reference))


@pytest.mark.parametrize("cfg", [TINY, DEEP], ids=["tiny", "bidir"])
@pytest.mark.parametrize("y", TARGETS, ids=["empty", "repeat", "mixed", "one"])
def test_training_mix_with_op_by_op_ctc_head_bit_identical(cfg, y):
    # The fused CTC head inside MTL-3: hidden's gradient takes the head's
    # term where the op-by-op head's matmul added it.
    def reference(p, x):
        h = encode(p, ad.constant(x.data))
        return mtl_loss(MTL3, ctc_loss(ro.ctc_head(p, h), y), dec_loss(p, h, y),
                        dis_loss(p, h, 1)).total

    if _refused_by_ctc(lambda: _grads(cfg, _sample_losses(y)), y):
        return
    assert _bytes(_grads(cfg, reference)) == _bytes(_grads(cfg, _sample_losses(y)))


@pytest.mark.parametrize("lam_i", [0.0, 0.5, 1.0])
@pytest.mark.parametrize("y", TARGETS, ids=["empty", "repeat", "mixed", "one"])
def test_adv_loss_bit_identical_to_op_by_op(lam_i, y, monkeypatch):
    weights = MtlWeights(1.0, lam_i)  # the attack's loss

    def run(p, x):
        return objective(p, x[None], None, teacher_forcing(p, [y]), None, weights).rows[0]

    if lam_i > 0.0 and _refused_by_ctc(lambda: _grads(DEEP, run), y):
        return
    fused = _grads(DEEP, run)
    # the op-by-op references on the batch of one
    monkeypatch.setattr(losses, "decoder_teacher_forced",
                        lambda p, h, f, lengths: reference_dec_loss(p, h[0], y)[None])
    monkeypatch.setattr(losses, "ctc_lattice",
                        lambda logp, framing, lengths: reference_ctc_loss(logp[0], y)[None])
    if lam_i == 1.0:
        # CTC alone, no decoder: the gradients are still bit-identical
        assert _bytes(fused) == _bytes(_grads(DEEP, run))
    else:
        assert_matches_reference(fused, _grads(DEEP, run))


@pytest.mark.parametrize("cfg", [TINY, DEEP], ids=["tiny", "bidir"])
@pytest.mark.parametrize("y", TARGETS, ids=["empty", "repeat", "mixed", "one"])
def test_discriminator_bit_identical_to_op_by_op_in_training_mix(cfg, y, monkeypatch):
    # The MTL (0.7, 0.5) mix with the fused CTC and decoder heads: the
    # hidden states are a leaf here, so their gradient shows the order in
    # which the three heads' terms are added.
    def run():
        params = init_params(cfg)
        rng = np.random.default_rng(cfg.seed)
        for t in params.leaves():
            t.data = t.data * 2.0 + rng.normal(scale=0.1, size=t.shape)
        hidden = ad.leaf(rng.normal(size=(7, cfg.enc_hidden)))
        with ad.tape():
            out = losses.discriminate(params, hidden[None])
            bd = mtl_loss(MtlWeights(0.7, 0.5), ctc_loss(ctc_head(params, hidden), y),
                          dec_loss(params, hidden, y), dis_loss(params, hidden, 1))
            ad.backward(bd.total)
        dis = {n: t.grad.tobytes() for n, t in params.items()
               if n.startswith("dis")}
        return out.data.tobytes(), bd.total.data.tobytes(), hidden.grad.tobytes(), dis

    if _refused_by_ctc(run, y):
        return
    fused = run()
    # the op-by-op reference on the batch of one
    monkeypatch.setattr(losses, "discriminate",
                        lambda p, h, lengths=None: reference_discriminate(p, h[0])[None])
    assert run() == fused


def test_mix_is_exact_at_zero_and_one():
    # The side at weight zero is never read: a nan or an inf there does
    # not reach the blend, and the other side comes back itself, bit for
    # bit (-0.0 included) and with no tape record.
    for side in (2.5, -0.0):
        assert mix(1.0, side, math.nan).hex() == side.hex()
        assert mix(0.0, math.inf, side).hex() == side.hex()
    rows = ad.leaf(np.array([0.3, -0.0, 2.5]))
    with ad.tape() as tp:
        assert mix(1.0, rows, math.nan) is rows
        assert mix(0.0, math.inf, rows) is rows
        assert len(tp) == 0
        blend = mix(0.5, rows, rows)  # inside (0, 1) both sides are read
        assert len(tp) == 3
    assert blend.data.tobytes() == rows.data.tobytes()
    assert math.isnan(mix(0.5, 2.0, math.nan))


def test_dis_loss_records_three_ops(params, hidden):
    batch = hidden[None]
    with ad.tape() as tp:
        dis_loss(params, batch, [1])
        assert len(tp) == 3
        dis_loss(params, hidden, 1)  # one utterance adds its lift's two takes
        assert len(tp) == 3 + (3 + 2)


def test_dec_loss_records_one_op(params, hidden):
    batch = hidden[None]
    with ad.tape() as tp:
        dec_loss(params, batch, [[1, 2, 2, 0]])
        assert len(tp) == 1
        dec_loss(params, hidden, [1, 2, 2, 0])  # one utterance adds its lift's two takes
        assert len(tp) == 1 + (1 + 2)


# ---------------------------------------------------------------------------
# the fused CTC lattice is bit-identical to the op-by-op tape

CTC_TARGETS = ([2, 2, 2], [1, 3, 0, 3], [0], [1, 1, 2, 2], [3, 0, 3, 0, 3])
CTC_IDS = ["repeat", "mixed", "one", "pairs", "alternate"]


@pytest.mark.parametrize("cfg", [TINY, DEEP], ids=["tiny", "bidir"])
@pytest.mark.parametrize("y", CTC_TARGETS, ids=CTC_IDS)
@pytest.mark.parametrize("frames", ["min", 11])
def test_ctc_loss_bit_identical_to_op_by_op(cfg, y, frames):
    # Loss, input gradient and every parameter gradient through the
    # encoder and CTC head; "min" is the shortest feasible utterance.
    t = ctc_min_frames(y) if frames == "min" else frames
    fused = _grads(cfg, lambda p, x: ctc_loss(ctc_head(p, encode(p, x)), y), t)
    ref = _grads(cfg, lambda p, x: reference_ctc_loss(ctc_head(p, encode(p, x)), y), t)
    assert _bytes(fused) == _bytes(ref)


def _logp_grad(loss_fn, logp, y):
    x = ad.leaf(logp)
    with ad.tape():
        loss = ad.mul(loss_fn(x, y), 0.3)
        ad.backward(loss)
    return loss.data.tobytes(), x.grad.tobytes()


def test_ctc_logp_gradient_bit_identical_on_random_lattices():
    # The gradient into logp itself, on sharp and flat lattices whose
    # small weights underflow to exactly zero.
    rng = np.random.default_rng(59)
    for trial in range(80):
        width = int(rng.integers(2, 7))
        y = [int(v) for v in rng.integers(0, width - 1, size=int(rng.integers(1, 6)))]
        t = ctc_min_frames(y) + int(rng.integers(0, 6))
        logp = random_logp(t, width, seed=trial).data * rng.choice([0.1, 1.0, 30.0])
        assert _logp_grad(ctc_loss, logp, y) == _logp_grad(reference_ctc_loss, logp, y)


def test_ctc_loss_records_one_op():
    x = ad.leaf(random_logp(9, 5, seed=3).data[None])
    with ad.tape() as tp:
        batch_ctc_loss(x, [[1, 1, 3, 0]])
        assert len(tp) == 1


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
@pytest.mark.parametrize("frame", [0, 4])
def test_ctc_loss_non_finite_logp_raises(bad, frame):
    logp = random_logp(6, 4, seed=11).data
    logp[frame, 1] = bad
    with pytest.raises(ad.NonFiniteError):
        ctc_loss(ad.leaf(logp), [1, 2])


# Property tests on random small lattices (hypothesis draws the shape,
# target and log-probs; every instance is small enough to enumerate).

@st.composite
def small_lattices(draw):
    width = draw(st.integers(2, 4))
    y = draw(st.lists(st.integers(0, width - 2), min_size=1, max_size=3))
    t = draw(st.integers(ctc_min_frames(y), 5))
    seed = draw(st.integers(0, 2 ** 32 - 1))
    return random_logp(t, width, seed).data, y


@settings(max_examples=40, deadline=None)
@given(small_lattices())
def test_ctc_loss_property_matches_brute_force(case):
    logp, y = case
    assert abs(float(ctc_loss(ad.constant(logp), y).data) - ctc_brute_force(logp, y)) < 1e-9


@settings(max_examples=25, deadline=None)
@given(small_lattices())
def test_ctc_gradient_property_matches_fd(case):
    raw, y = case

    def f(t):
        return ctc_loss(ro.log_softmax(t, axis=1), y)

    x = ad.leaf(raw)
    with ad.tape():
        ad.backward(f(x))
    assert rel_err(x.grad, fd_gradient(f, x).data) < 1e-6


# ---------------------------------------------------------------------------
# the padded lattice: each row of a mixed batch is its own batch of one

# (target, frames): minimum frames, a repeated label, one label, the
# shortest row
MIXED_ROWS = (([0, 1, 2], 3), ([1, 1], 5), ([2], 4), ([1], 2))
MIXED_TARGETS = [y for y, _n in MIXED_ROWS]
MIXED_LENGTHS = [n for _y, n in MIXED_ROWS]


def _mixed_batch(seed, pad_value):
    """(4, 5, 4) per-frame log-probs of MIXED_ROWS, padded with pad_value."""
    batch = np.full((len(MIXED_ROWS), max(MIXED_LENGTHS), 4), pad_value)
    for r, n in enumerate(MIXED_LENGTHS):
        batch[r, :n] = random_logp(n, 4, seed + r).data
    return batch


@st.composite
def ragged_lattices(draw):
    """A padded batch of 1-6 rows, NaN past each row's frames, its targets
    (repeats are common: few words) and frame counts (each row's minimum
    to 6 more), from a flat (x0.1), plain or sharp (x30) lattice: the
    sharper, the more cells underflow to exactly zero weight."""
    width = draw(st.integers(2, 5))
    targets = draw(st.lists(st.lists(st.integers(0, width - 2), min_size=1, max_size=4),
                            min_size=1, max_size=6))
    lengths = [draw(st.integers(ctc_min_frames(y), ctc_min_frames(y) + 6)) for y in targets]
    sharpness = draw(st.sampled_from([0.1, 1.0, 30.0]))
    seed = draw(st.integers(0, 2 ** 32 - 1))
    batch = np.full((len(targets), max(lengths), width), np.nan)
    for r, n in enumerate(lengths):
        batch[r, :n] = random_logp(n, width, seed + r).data * sharpness
    return batch, targets, lengths


@settings(max_examples=60, deadline=None)
@given(ragged_lattices())
@example((_mixed_batch(70, np.nan), MIXED_TARGETS, MIXED_LENGTHS))
def test_padded_lattice_rows_equal_their_batches_of_one(case):
    # NaN padding: frames past a row's length are never read. Each row's
    # loss and gradient are bit-identical to its B=1 run and to the
    # op-by-op tape's, and its padded frames get exactly zero gradient.
    batch, targets, lengths = case
    scale = 0.5 * np.arange(1, len(targets) + 1)  # a distinct output gradient per row
    x = ad.leaf(batch)
    with ad.tape():
        losses = batch_ctc_loss(x, targets, lengths)
        ad.backward(ad.sum_(ad.mul(losses, scale)))
    assert losses.shape == (len(targets),)
    for r, (y, n) in enumerate(zip(targets, lengths)):
        for loss_fn in (ctc_loss, reference_ctc_loss):
            one = ad.leaf(batch[r, :n])
            with ad.tape():
                loss = loss_fn(one, y)
                ad.backward(ad.mul(loss, scale[r]))
            assert losses.data[r].tobytes() == loss.data.tobytes()
            assert x.grad[r, :n].tobytes() == one.grad.tobytes()
        assert np.all(x.grad[r, n:] == 0.0)
        if batch.shape[2] ** n <= 4 ** 5:  # small enough to enumerate
            assert abs(losses.data[r] - ctc_brute_force(batch[r, :n], y)) < 1e-9


def test_padded_lattice_gradient_matches_fd():
    raw = np.random.default_rng(71).normal(size=(len(MIXED_ROWS), max(MIXED_LENGTHS), 4))

    def f(t):
        return ad.sum_(batch_ctc_loss(ro.log_softmax(t, axis=2), MIXED_TARGETS, MIXED_LENGTHS))

    x = ad.leaf(raw)
    with ad.tape():
        ad.backward(f(x))
    assert rel_err(x.grad, fd_gradient(f, x).data) < 1e-6


@pytest.mark.parametrize("row", [0, 1, 3])
def test_padded_lattice_names_a_non_finite_row(row):
    batch = _mixed_batch(72, 0.0)
    batch[row, 1, 3] = np.nan  # the blank column of a frame every row has
    with pytest.raises(ad.NonFiniteError, match=f"in row {row}$"):
        batch_ctc_loss(ad.leaf(batch), MIXED_TARGETS, MIXED_LENGTHS)


def test_padded_lattice_names_an_infeasible_row():
    lengths = [3, 2, 4, 2]  # the repeated label of row 1 needs 3 frames
    with pytest.raises(CtcInfeasibleError, match="row 1: 2 labels need >= 3 frames, got 2"):
        batch_ctc_loss(ad.constant(_mixed_batch(73, 0.0)), MIXED_TARGETS, lengths)
