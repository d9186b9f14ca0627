"""Shared recurrent encoder with CTC, attention-decoder, and accent heads.

Token convention inside the model: ids ``0..V-1`` are word tokens (the
same ids the data vocabulary assigns them). Index ``V`` is overloaded
per surface and the surfaces never mix: it is the blank column of the
CTC head, the eos column of the decoder head, and the sos row of the
decoder embedding table. ``V`` is ``ModelConfig.vocab_size`` and must
equal ``data.N_WORDS``, content and lorem words alike, so adversarial
targets are expressible; ``experiments.train_model`` and
``evaluate_model`` refuse any other value.

The attention decoder's step is two numpy kernels, ``_recur`` (feed a
token to the recurrent state) and ``_attend`` (attend and predict from
any number of states), over a batch of rows, with two paths through
them: ``decoder_teacher_forced`` runs them over target sequences and
records one tape entry with a hand-written backward (the decoder loss,
in training and attacks), and ``decoder_advance`` runs one step of one
row for inference and records nothing. ``decoder_teacher_forced`` and
``discriminate`` take padded batches only (the batch contract is in
``autodiff``); ``encode`` also takes one utterance as the batch of one,
and ``ctc_head`` maps the states of any leading shape.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from typing import NamedTuple, Sequence

import numpy as np

from . import autodiff as ad
from .autodiff import ShapeError, Tensor


class CheckpointError(Exception):
    pass


@dataclass(frozen=True)
class ModelConfig:
    feat_dim: int = 16
    enc_hidden: int = 32
    enc_layers: int = 2
    dec_hidden: int = 32
    attn_dim: int = 32
    emb_dim: int = 16
    vocab_size: int = 40  # data.N_WORDS; +1 per head for blank/eos
    disc_layers: int = 5
    disc_hidden: int = 32
    n_accents: int = 2
    seed: int = 0
    bidirectional: bool = False

    def __post_init__(self):
        for name in ("feat_dim", "enc_hidden", "enc_layers", "dec_hidden",
                     "attn_dim", "emb_dim", "vocab_size", "disc_layers",
                     "disc_hidden", "n_accents"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "ModelConfig":
        return cls(**json.loads(text))

    @property
    def sos(self) -> int:
        return self.vocab_size

    @property
    def eos(self) -> int:
        return self.vocab_size


class ModelParams:
    """Named map of leaf tensors covering the encoder and all heads."""

    def __init__(self, config: ModelConfig, tensors: dict[str, Tensor]):
        self.config = config
        self._tensors = tensors

    def __getitem__(self, name: str) -> Tensor:
        return self._tensors[name]

    def items(self):
        return self._tensors.items()

    def leaves(self) -> list[Tensor]:
        return list(self._tensors.values())

    def clone(self) -> "ModelParams":
        return ModelParams(self.config, {
            k: ad.leaf(v.data.copy()) for k, v in self._tensors.items()})

    def frozen(self) -> "ModelParams":
        """The same arrays as constant tensors: no gradient is computed for them.

        Parameters that are already all constant are returned as they are.
        """
        if not any(t.requires_grad for t in self._tensors.values()):
            return self
        return ModelParams(self.config, {
            k: ad.constant(v.data) for k, v in self._tensors.items()})


_Shapes = list[tuple[str, tuple[int, ...]]]


def _param_shapes(cfg: ModelConfig) -> tuple[_Shapes, _Shapes]:
    """(weights, biases): (name, shape) of every parameter, in a fixed order.

    This is the one place parameters are named. ``init_params`` draws the
    weights from the generator in this order and appends the biases, so
    it is also the checkpoint order.
    """
    d, v1, hh = cfg.enc_hidden, cfg.vocab_size + 1, cfg.disc_hidden
    weights: _Shapes = []
    biases: _Shapes = []
    for layer in range(cfg.enc_layers):
        in_dim = cfg.feat_dim if layer == 0 else d
        for sfx in ("", "_r") if cfg.bidirectional else ("",):
            weights.append((f"enc{layer}.w_in{sfx}", (in_dim, d)))
            weights.append((f"enc{layer}.w_rec{sfx}", (d, d)))
            biases.append((f"enc{layer}.b{sfx}", (d,)))
    weights += [("ctc.w", (d, v1)),
                ("dec.emb", (v1, cfg.emb_dim)),
                ("dec.w_in", (cfg.emb_dim, cfg.dec_hidden)),
                ("dec.w_rec", (cfg.dec_hidden, cfg.dec_hidden)),
                ("attn.w_h", (d, cfg.attn_dim)),
                ("attn.w_s", (cfg.dec_hidden, cfg.attn_dim)),
                ("attn.v", (cfg.attn_dim,)),
                ("dec.w_out", (cfg.dec_hidden + d, v1))]
    biases += [("ctc.b", (v1,)), ("dec.b", (cfg.dec_hidden,)),
               ("attn.b", (cfg.attn_dim,)), ("dec.b_out", (v1,))]
    for i in range(cfg.disc_layers):
        out_dim = cfg.n_accents if i == cfg.disc_layers - 1 else hh
        weights.append((f"dis{i}.w", (d if i == 0 else hh, out_dim)))
        biases.append((f"dis{i}.b", (out_dim,)))
    return weights, biases


def init_params(config: ModelConfig) -> ModelParams:
    """Seeded uniform init scaled by 1/sqrt(fan_in); biases start at zero."""
    rng = np.random.default_rng(config.seed)
    weights, biases = _param_shapes(config)
    tensors: dict[str, Tensor] = {}
    for name, shape in weights:
        scale = 1.0 / np.sqrt(shape[0])
        tensors[name] = ad.leaf(rng.uniform(-scale, scale, size=shape))
    for name, shape in biases:
        tensors[name] = ad.leaf(np.zeros(shape))
    return ModelParams(config, tensors)


# ---------------------------------------------------------------------------
# forward surfaces


def pad_batch(seqs: Sequence[np.ndarray]) -> tuple[np.ndarray, list[int]]:
    """Ragged (T, F) sequences as the zero-padded (B, T_max, F) batch
    ``encode`` takes, with their frame counts."""
    lengths = [len(x) for x in seqs]
    batch = np.zeros((len(seqs), max(lengths), seqs[0].shape[1]))
    for r, x in enumerate(seqs):
        batch[r, :lengths[r]] = x
    return batch, lengths


def encode(params: ModelParams, x: Tensor, lengths=None) -> Tensor:
    """Map a padded (B, T, F) feature batch with per-row frame counts
    ``lengths`` to (B, T, d) hidden states, or one (T, F) utterance to
    (T, d)."""
    cfg = params.config
    if x.ndim == 2:
        return encode(params, x[None])[0]
    if x.ndim != 3 or x.shape[-1] != cfg.feat_dim:
        raise ShapeError(f"encode expects (T, {cfg.feat_dim}) or "
                         f"(B, T, {cfg.feat_dim}), got {x.shape}")
    seq = x
    for layer in range(cfg.enc_layers):
        seq_fwd = ad.tanh_rnn(seq, params[f"enc{layer}.w_in"],
                              params[f"enc{layer}.w_rec"],
                              params[f"enc{layer}.b"], lengths=lengths)
        if cfg.bidirectional:
            seq_bwd = ad.tanh_rnn(seq, params[f"enc{layer}.w_in_r"],
                                  params[f"enc{layer}.w_rec_r"],
                                  params[f"enc{layer}.b_r"], reverse=True,
                                  lengths=lengths)
            seq = ad.add(seq_fwd, seq_bwd)
        else:
            seq = seq_fwd
    return seq


def ctc_head(params: ModelParams, hidden: Tensor) -> Tensor:
    """(T, V+1) normalized log-probs; the last column is blank.

    One tape record. The forward makes the numpy calls of the op-by-op
    head (matmul, bias add, log-softmax over classes) and checks the
    output once: a non-finite product or logit leaves a non-finite
    log-prob. The hand-written backward makes the calls of that tape's
    backward, so values and gradients are bit-identical to it; terms of
    inputs that need no gradient are skipped.

    ``hidden`` is (T, d) or a padded batch (B, T, d): every frame is one
    row of a single (B*T, d) product. Padded frames get log-probs too; a
    loss that ignores them gives them zero gradient.
    """
    cfg = params.config
    if hidden.ndim not in (2, 3) or hidden.shape[-1] != cfg.enc_hidden:
        raise ShapeError(f"ctc_head expects (T, {cfg.enc_hidden}) or "
                         f"(B, T, {cfg.enc_hidden}), got {hidden.shape}")
    w, b = params["ctc.w"], params["ctc.b"]
    h = hidden.data.reshape(-1, cfg.enc_hidden)
    with np.errstate(invalid="ignore", over="ignore"):
        out = ad.log_softmax_array(h @ w.data + b.data, axis=1)
    ad.check_finite(out, "ctc_head")

    def bwd(g):
        g = g.reshape(out.shape)
        g_logits = g - np.exp(out) * g.sum(axis=1, keepdims=True)
        return ((g_logits @ w.data.T).reshape(hidden.shape)
                if hidden.requires_grad else None,
                h.T @ g_logits if w.requires_grad else None,
                g_logits.sum(axis=0) if b.requires_grad else None)

    return ad.record_op("ctc_head", (hidden, w, b),
                        out.reshape(*hidden.shape[:-1], -1), bwd)


class DecoderState:
    """Recurrent state plus the per-utterance attention projection."""

    __slots__ = ("s", "hproj")

    def __init__(self, s: Tensor, hproj: Tensor):
        self.s = s
        self.hproj = hproj


# Decoder parameters in the order the step kernels unpack them.
_STEP_PARAMS = ("dec.emb", "dec.w_in", "dec.w_rec", "dec.b",
                "attn.w_s", "attn.v", "dec.w_out", "dec.b_out")


class _Steps(NamedTuple):
    """Arrays of decoder steps, with leading axes: none for one step of
    one row, (N, B) for N steps of B rows.

    The backward reads s, tanh_att, attn, joint and logp; z, q and
    log_attn are kept for the finiteness check.
    """

    z: np.ndarray  # recurrent pre-activation
    s: np.ndarray  # recurrent state
    q: np.ndarray  # attention query s @ w_s
    tanh_att: np.ndarray  # tanh(hproj + q), one row per frame
    log_attn: np.ndarray  # log attention weights
    attn: np.ndarray
    joint: np.ndarray  # [s, context]
    logp: np.ndarray  # next-token log-probs, eos last


# Attention score of a padded frame: exp(_PAD_SCORE - x) == 0.0 for any
# sane score x, so padded frames get exactly zero attention while every
# array stays finite.
_PAD_SCORE = -1.0e9

# The decoder step is split in two numpy kernels: ``_recur`` feeds one
# token per row to the recurrent state, and ``_attend`` attends and
# predicts from any number of states at once. Inference runs them one
# step of one row at a time, on vectors; teacher forcing runs the
# recurrence step by step, then ``_attend`` once over all steps, which
# takes the attention's per-step Python work out of the loop. At B=1
# their numpy calls make the arithmetic of the step recorded op by op
# (embedding row, two matmuls, two adds, tanh, query, additive
# attention, softmax, context, output layer, log-softmax), in that
# order, so values are bit-identical to it: a stacked matmul makes one
# vector product per step and row. The caller validates the tokens and
# checks the result with ``_check_steps``.


def _recur(arrays, s_prev: np.ndarray, tokens) -> tuple[np.ndarray, np.ndarray]:
    """(z, s) after feeding ``tokens`` (...) to the states ``s_prev`` (..., dec_hidden)."""
    emb, w_in, w_rec, b = arrays[:4]
    z = (emb[tokens] @ w_in + s_prev @ w_rec) + b
    return z, np.tanh(z)


def _attend(arrays, z: np.ndarray, s: np.ndarray, hproj: np.ndarray,
            hidden: np.ndarray, pad: np.ndarray | None) -> _Steps:
    """Attention and next-token log-probs of the states ``s`` (..., dec_hidden).

    ``hproj`` (..., T, attn_dim) and ``hidden`` (..., T, d) broadcast
    against the leading axes of ``s``; ``pad`` is a mask of padded frames
    shaped like the scores' trailing axes, or None.
    """
    w_s, v, w_out, b_out = arrays[4:]
    q = s @ w_s
    tanh_att = hproj + q[..., None, :]
    np.tanh(tanh_att, out=tanh_att)
    scores = tanh_att @ v
    if pad is not None:
        scores[..., pad] = _PAD_SCORE
    log_attn = ad.log_softmax_array(scores, axis=-1)
    attn = np.exp(log_attn)
    # One step of one row is a vector-matrix product; stacked rows
    # attend through (..., 1, T) @ (..., T, d).
    context = attn @ hidden if attn.ndim == 1 else (attn[..., None, :] @ hidden)[..., 0, :]
    joint = np.concatenate([s, context], axis=-1)
    logp = ad.log_softmax_array(joint @ w_out + b_out, axis=-1)
    return _Steps(z, s, q, tanh_att, log_attn, attn, joint, logp)


# Step arrays whose finiteness implies that of every other step array.
_CHECKED = ("z", "q", "log_attn", "joint", "logp")


def _check_steps(st: _Steps) -> None:
    """Raise NonFiniteError where the op-by-op step would have raised."""
    arrays = [getattr(st, name).ravel() for name in _CHECKED]
    if not np.isfinite(np.concatenate(arrays)).all():
        bad = next(name for name in _CHECKED if not np.isfinite(getattr(st, name)).all())
        raise ad.NonFiniteError(f"non-finite values in the decoder step ({bad})")


def _check_token(cfg: ModelConfig, token: int) -> None:
    if not 0 <= token <= cfg.vocab_size:
        raise ShapeError(f"decoder token {token} outside 0..{cfg.vocab_size}")


def _attention_keys(params: ModelParams, hidden: Tensor) -> np.ndarray:
    """hidden @ attn.w_h + attn.b: the (..., T, attn_dim) projection every step reads."""
    cfg = params.config
    if hidden.ndim not in (2, 3) or 0 in hidden.shape[:-1] \
            or hidden.shape[-1] != cfg.enc_hidden:
        raise ShapeError(f"decoder expects a nonempty (T, {cfg.enc_hidden}) "
                         f"hidden sequence or (B, T, {cfg.enc_hidden}) batch, "
                         f"got {hidden.shape}")
    with np.errstate(invalid="ignore", over="ignore"):
        hproj = hidden.data @ params["attn.w_h"].data + params["attn.b"].data
    ad.check_finite(hproj, "attention projection")
    return hproj


def decoder_start(params: ModelParams, hidden: Tensor) -> DecoderState:
    """Zero recurrent state and the attention projection, as constants."""
    return DecoderState(ad.constant(np.zeros(params.config.dec_hidden)),
                        ad.constant(_attention_keys(params, hidden)))


def decoder_advance(params: ModelParams, hidden: Tensor, state: DecoderState,
                    token: int) -> tuple[Tensor, DecoderState]:
    """Feed one token (sos or a word id); return next-token log-probs.

    Attention is additive over the encoder states, conditioned on the
    updated recurrent state. The last output column is eos.

    Inference only: the step runs in numpy (``_recur`` and ``_attend`` on
    vectors, the kernels the teacher-forced loss also runs) and the results
    are constant tensors, so nothing is recorded on the tape and no
    gradient flows back. Training and attacks differentiate the decoder
    through ``decoder_teacher_forced``.
    """
    _check_token(params.config, token)
    arrays = tuple(params[name].data for name in _STEP_PARAMS)
    with np.errstate(invalid="ignore", over="ignore"):
        z, s = _recur(arrays, state.s.data, token)
        step = _attend(arrays, z, s, state.hproj.data, hidden.data, None)
    _check_steps(step)
    return ad.constant(step.logp), DecoderState(ad.constant(s), state.hproj)


def decoder_teacher_forced(params: ModelParams, hidden: Tensor,
                           inputs: Sequence, targets: Sequence,
                           lengths=None) -> Tensor:
    """(B, max N_b) log-probs of each row's ``targets[k]`` after ``inputs[:k + 1]``.

    ``hidden`` is a padded batch (B, T, d) with per-row frame counts
    ``lengths``; ``inputs`` and ``targets`` hold one token sequence per
    row, of N_b >= 1 tokens, and the output is zero past each row's N_b.
    Attention gives padded frames exactly zero weight, and padded steps
    get exactly zero gradient. Runs the recurrence N times and the
    attention and output layer once over all N states, in numpy, and
    records one tape entry. The backward runs the state recurrence and
    the attention's tanh terms step by step; every other term, and each
    gradient, is computed for all steps and rows at once.
    """
    cfg = params.config
    if hidden.ndim != 3:
        raise ShapeError(f"decoder_teacher_forced expects a (B, T, {cfg.enc_hidden}) "
                         f"batch, got {hidden.shape}")
    rows_in = [list(r) for r in inputs]
    rows_tgt = [list(r) for r in targets]
    counts = [len(r) for r in rows_in]
    if (len(rows_tgt) != len(rows_in) or [len(r) for r in rows_tgt] != counts
            or min(counts, default=0) == 0):
        raise ShapeError(f"teacher forcing needs as many inputs as targets in "
                         f"every row, got {counts} and {[len(r) for r in rows_tgt]}")
    for row in (*rows_in, *rows_tgt):
        for tok in row:
            _check_token(cfg, tok)
    hproj = _attention_keys(params, hidden)
    h = hidden.data
    n_rows, n_frames = h.shape[:2]
    if len(counts) != n_rows:
        raise ShapeError(f"{len(counts)} token rows for a batch of {n_rows}")
    pad = ad.padding_mask(lengths, n_rows, n_frames)
    param_inputs = (*(params[name] for name in _STEP_PARAMS),
                    params["attn.w_h"], params["attn.b"])
    # Constant parameters (an attack differentiates only its input) get
    # none of their terms computed.
    train = any(p.requires_grad for p in param_inputs)
    n = max(counts)
    # Step-major tokens. Rows shorter than n feed eos and pick column 0
    # on their padded steps; the picks are zeroed and take no gradient.
    tok_in = np.full((n, n_rows), cfg.eos)
    tok_tgt = np.zeros((n, n_rows), dtype=int)
    for r, (row_in, row_tgt) in enumerate(zip(rows_in, rows_tgt)):
        tok_in[:counts[r], r] = row_in
        tok_tgt[:counts[r], r] = row_tgt
    late = np.arange(n)[:, None] >= np.array(counts) if min(counts) < n else None
    arrays = tuple(params[name].data for name in _STEP_PARAMS)
    z = np.empty((n, n_rows, cfg.dec_hidden))
    s = np.empty((n, n_rows, cfg.dec_hidden))
    s_prev = np.zeros((n_rows, cfg.dec_hidden))
    with np.errstate(invalid="ignore", over="ignore"):
        for k in range(n):
            z[k], s[k] = _recur(arrays, s_prev, tok_in[k])
            s_prev = s[k]
        st = _attend(arrays, z, s, hproj, h, pad)
    _check_steps(st)
    row_idx = np.arange(n_rows)
    step_idx = np.arange(n)[:, None]
    picked = st.logp[step_idx, row_idx, tok_tgt]
    if late is not None:
        picked[late] = 0.0
    emb, w_in, w_rec, _b, w_s, v, w_out, _b_out = arrays
    w_h = params["attn.w_h"].data
    dh = cfg.dec_hidden

    def bwd(g):
        g = g.T
        if late is not None:
            g = np.where(late, 0.0, g)
        g_logp = np.zeros(st.logp.shape)
        g_logp[step_idx, row_idx, tok_tgt] += g
        g_logits = g_logp - np.exp(st.logp) * g_logp.sum(axis=2, keepdims=True)
        g_joint = (w_out @ g_logits[..., None])[..., 0]
        g_ctx = g_joint[..., dh:]
        g_log_attn = (h @ g_ctx[..., None])[..., 0] * st.attn
        g_scores = g_log_attn - st.attn * g_log_attn.sum(axis=2, keepdims=True)
        # The attention's tanh terms, one step at a time: for a batch, a
        # second (N, B, T, attn_dim) array would double what the forward
        # holds. g_hproj adds the steps in order, as a sum over the step
        # axis does, so the values are those of the one-shot sum.
        g_q = np.empty(st.q.shape)
        g_hproj = None
        for k in range(n):
            g_att = st.tanh_att[k] * st.tanh_att[k]
            np.subtract(1.0, g_att, out=g_att)
            g_att *= v
            g_att *= g_scores[k, ..., None]
            g_q[k] = g_att.sum(axis=-2)
            if g_hproj is None:
                g_hproj = g_att
            else:
                g_hproj += g_att
        deriv = 1.0 - st.s * st.s
        # Steps last first: state s_k takes the w_rec term of step k+1.
        g_z = np.empty(st.s.shape)
        g_next = np.zeros((n_rows, dh))
        for k in range(n - 1, -1, -1):
            g_z[k] = (g_next + g_joint[k, :, :dh] + g_q[k] @ w_s.T) * deriv[k]
            g_next = g_z[k] @ w_rec.T
        # Context terms of all steps, (B, T, N) @ (B, N, d), plus the
        # attention-projection term.
        g_hidden = (st.attn.transpose(1, 2, 0) @ g_ctx.transpose(1, 0, 2)
                    + g_hproj @ w_h.T)
        if not train:
            return [None] * 10 + [g_hidden]
        # Padded steps and frames hold zero terms, so each parameter sums
        # over all (step, row) pairs, in the order of ``param_inputs``.
        m = n * n_rows
        gl, gz, gq = g_logits.reshape(m, -1), g_z.reshape(m, dh), g_q.reshape(m, -1)
        s_before = np.concatenate([np.zeros((1, n_rows, dh)), st.s[:-1]])
        g_emb = np.zeros_like(emb)
        np.add.at(g_emb, tok_in.ravel(), gz @ w_in.T)
        flat_hproj = g_hproj.reshape(n_rows * n_frames, -1)
        return [g_emb, emb[tok_in.ravel()].T @ gz,
                s_before.reshape(m, dh).T @ gz, gz.sum(axis=0),
                st.s.reshape(m, dh).T @ gq,
                st.tanh_att.reshape(-1, v.size).T @ g_scores.ravel(),
                st.joint.reshape(m, -1).T @ gl, gl.sum(axis=0),
                h.reshape(n_rows * n_frames, -1).T @ flat_hproj,
                flat_hproj.sum(axis=0), g_hidden]

    return ad.record_op("decoder_teacher_forced", (*param_inputs, hidden),
                        picked.T, bwd)


def discriminate(params: ModelParams, hidden: Tensor, lengths=None) -> Tensor:
    """Accent log-probs from the mean hidden state through the dense stack.

    One tape record. The forward runs in numpy: the mean over frames,
    then per layer a matmul, the bias add and (below the top layer) a
    ReLU, then a log-softmax. The hand-written backward makes the numpy
    calls of the op-by-op tape of those steps, in its order, so values
    and gradients are bit-identical to it; terms of inputs that need no
    gradient are skipped. One finiteness check covers the mean, every
    pre-activation and the output: a ReLU turns NaN and -inf into zero,
    so the output alone would not show a non-finite pre-activation.

    ``hidden`` is a padded batch (B, T, d) with per-row frame counts
    ``lengths``; the output is (B, n_accents), each row from the mean
    over its own frames.
    """
    cfg = params.config
    if hidden.ndim != 3 or 0 in hidden.shape[:-1]:
        raise ShapeError(f"discriminate expects a nonempty (B, T, {cfg.enc_hidden}) "
                         f"batch, got {hidden.shape}")
    layers = [(params[f"dis{i}.w"], params[f"dis{i}.b"])
              for i in range(cfg.disc_layers)]
    top = cfg.disc_layers - 1
    h = hidden.data
    n_rows, n_frames = h.shape[:2]
    pad = ad.padding_mask(lengths, n_rows, n_frames)
    frames = np.full((n_rows, 1), float(n_frames)) if lengths is None \
        else np.asarray(lengths, dtype=float)[:, None]
    with np.errstate(invalid="ignore", over="ignore"):
        mean = (h if pad is None else np.where(pad[..., None], 0.0, h)).sum(axis=1)
        mean /= frames
        acts = [mean]  # the input of each layer, one row per utterance
        pre = []
        masks = []
        for i, (w, b) in enumerate(layers):
            z = acts[i] @ w.data + b.data
            pre.append(z)
            if i < top:
                masks.append(z > 0)
                acts.append(np.where(masks[i], z, 0.0))
        out = ad.log_softmax_array(pre[top], axis=1)
    ad.check_finite_rows(np.concatenate([mean, *pre, out], axis=1), "discriminate")

    def bwd(g):
        g_layers = []
        g_z = g - np.exp(out) * g.sum(axis=1, keepdims=True)
        g_in = None
        for i in range(top, -1, -1):
            w, b = layers[i]
            if i or hidden.requires_grad:
                g_in = g_z @ w.data.T
            g_layers.append((acts[i].T @ g_z if w.requires_grad else None,
                             g_z.sum(axis=0) if b.requires_grad else None))
            if i:
                g_z = g_in * masks[i - 1]
        g_hidden = None
        if hidden.requires_grad:
            g_hidden = np.broadcast_to((g_in / frames)[:, None], h.shape)
            if pad is not None:
                g_hidden = np.where(pad[..., None], 0.0, g_hidden)
        return (g_hidden, *(gr for pair in reversed(g_layers) for gr in pair))

    return ad.record_op("discriminate",
                        (hidden, *(t for pair in layers for t in pair)),
                        out, bwd)


# ---------------------------------------------------------------------------
# checkpoints: readable text, bit-exact values via C99 hex floats


def save_checkpoint(path, params: ModelParams) -> None:
    lines = ["robustasr-checkpoint v1", "config " + params.config.to_json()]
    for name, t in params.items():
        dims = " ".join(str(n) for n in t.shape)
        lines.append(f"param {name} {dims}")
        mat = t.data.reshape(t.shape[0], -1) if t.ndim == 2 else t.data.reshape(1, -1)
        for row in mat:
            lines.append(" ".join(float(v).hex() for v in row))
    lines.append("end")
    with open(path, "w") as f:
        f.write("\n".join(lines) + "\n")


def load_checkpoint(path) -> ModelParams:
    with open(path) as f:
        lines = f.read().splitlines()
    if not lines or lines[0] != "robustasr-checkpoint v1":
        raise CheckpointError(f"{path}: not a checkpoint file")
    if len(lines) < 2 or not lines[1].startswith("config "):
        raise CheckpointError(f"{path}: missing config line")
    if lines[-1] != "end":
        raise CheckpointError(f"{path}: truncated (no end marker)")
    try:
        config = ModelConfig.from_json(lines[1][len("config "):])
    except (TypeError, ValueError) as e:
        raise CheckpointError(f"{path}: bad config: {e}") from e
    tensors: dict[str, Tensor] = {}
    i = 2
    while i < len(lines) - 1:
        head = lines[i].split()
        if len(head) not in (3, 4) or head[0] != "param":
            raise CheckpointError(f"{path}: bad param header at line {i + 1}")
        name = head[1]
        try:
            shape = tuple(int(v) for v in head[2:])
        except ValueError as e:
            raise CheckpointError(f"{path}: bad shape at line {i + 1}: {e}") from e
        n_rows = shape[0] if len(shape) == 2 else 1
        i += 1
        if i + n_rows > len(lines) - 1:
            raise CheckpointError(f"{path}: truncated values for {name}")
        try:
            rows = [[float.fromhex(v) for v in lines[i + r].split()]
                    for r in range(n_rows)]
            arr = np.array(rows, dtype=np.float64).reshape(shape)
        except ValueError as e:
            raise CheckpointError(f"{path}: bad values for {name}: {e}") from e
        tensors[name] = ad.leaf(arr)
        i += n_rows
    weights, biases = _param_shapes(config)
    expected = dict(weights + biases)
    if tensors.keys() != expected.keys():
        missing = expected.keys() - tensors.keys()
        extra = tensors.keys() - expected.keys()
        raise CheckpointError(f"{path}: parameter set mismatch "
                              f"(missing={sorted(missing)}, extra={sorted(extra)})")
    for name, shape in expected.items():
        if tensors[name].shape != shape:
            raise CheckpointError(f"{path}: {name} has shape {tensors[name].shape}, "
                                  f"config needs {shape}")
    return ModelParams(config, tensors)
