"""Shared recurrent encoder with CTC, attention-decoder, and accent heads.

Token convention inside the model: ids ``0..V-1`` are word tokens (the
same ids the data vocabulary assigns them). Index ``V`` is overloaded
per surface and the surfaces never mix: it is the blank column of the
CTC head, the eos column of the decoder head, and the sos row of the
decoder embedding table. ``V`` counts all word tokens, content and
lorem alike, so adversarial targets are expressible.

The attention decoder has one numpy step kernel, ``_decoder_step``, and
two paths through it: ``decoder_teacher_forced`` loops it over a target
sequence and records one tape entry with a hand-written backward (the
decoder loss, in training and attacks), and ``decoder_advance`` runs one
step for inference and records nothing.
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
    vocab_size: int = 40  # word tokens; +1 per head for blank/eos
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


def encode(params: ModelParams, x: Tensor) -> Tensor:
    """Map a (T, F) feature matrix to (T, d) hidden states; T is preserved."""
    cfg = params.config
    if x.ndim != 2 or x.shape[1] != cfg.feat_dim:
        raise ShapeError(f"encode expects (T, {cfg.feat_dim}), got {x.shape}")
    seq = x
    for layer in range(cfg.enc_layers):
        seq_fwd = ad.tanh_rnn(seq, params[f"enc{layer}.w_in"],
                              params[f"enc{layer}.w_rec"],
                              params[f"enc{layer}.b"])
        if cfg.bidirectional:
            seq_bwd = ad.tanh_rnn(seq, params[f"enc{layer}.w_in_r"],
                                  params[f"enc{layer}.w_rec_r"],
                                  params[f"enc{layer}.b_r"], reverse=True)
            seq = ad.add(seq_fwd, seq_bwd)
        else:
            seq = seq_fwd
    return seq


def ctc_head(params: ModelParams, hidden: Tensor) -> Tensor:
    """(T, V+1) normalized log-probs; the last column is blank."""
    cfg = params.config
    if hidden.ndim != 2 or hidden.shape[1] != cfg.enc_hidden:
        raise ShapeError(f"ctc_head expects (T, {cfg.enc_hidden}), got {hidden.shape}")
    logits = ad.add(ad.matmul(hidden, params["ctc.w"]), params["ctc.b"])
    return ad.log_softmax(logits, axis=1)


class DecoderState:
    """Recurrent state plus the per-utterance attention projection."""

    __slots__ = ("s", "hproj")

    def __init__(self, s: Tensor, hproj: Tensor):
        self.s = s
        self.hproj = hproj


# Decoder parameters in the order ``_decoder_step`` unpacks them.
_STEP_PARAMS = ("dec.emb", "dec.w_in", "dec.w_rec", "dec.b",
                "attn.w_s", "attn.v", "dec.w_out", "dec.b_out")


class _Step(NamedTuple):
    """Arrays of one decoder step.

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


def _decoder_step(arrays, s_prev: np.ndarray, hproj: np.ndarray,
                  hidden: np.ndarray, token: int) -> _Step:
    """One decoder step in numpy: feed ``token``, attend, predict.

    ``arrays`` holds the parameter arrays named in ``_STEP_PARAMS``. The
    numpy calls are those of the step recorded op by op (embedding row,
    two matmuls, two adds, tanh, query, additive attention, softmax,
    context, output layer, log-softmax), in that order, so values are
    bit-identical to it. The caller validates ``token`` and checks the
    result with ``_check_steps``.
    """
    emb, w_in, w_rec, b, w_s, v, w_out, b_out = arrays
    z = (emb[token] @ w_in + s_prev @ w_rec) + b
    s = np.tanh(z)
    q = s @ w_s
    tanh_att = np.tanh(hproj + q)
    log_attn = ad.log_softmax_array(tanh_att @ v, axis=0)
    attn = np.exp(log_attn)
    joint = np.concatenate([s, attn @ hidden])
    logp = ad.log_softmax_array(joint @ w_out + b_out, axis=0)
    return _Step(z, s, q, tanh_att, log_attn, attn, joint, logp)


# Step arrays whose finiteness implies that of every other step array.
_CHECKED = ("z", "q", "log_attn", "joint", "logp")


def _check_steps(steps: Sequence[_Step]) -> None:
    """Raise NonFiniteError where the op-by-op step would have raised."""
    arrays = [getattr(st, name) for st in steps for name in _CHECKED]
    if not np.isfinite(np.concatenate(arrays)).all():
        bad = next(name for name in _CHECKED for st in steps
                   if not np.isfinite(getattr(st, name)).all())
        raise ad.NonFiniteError(f"non-finite values in the decoder step ({bad})")


def _check_token(cfg: ModelConfig, token: int) -> None:
    if not 0 <= token <= cfg.vocab_size:
        raise ShapeError(f"decoder token {token} outside 0..{cfg.vocab_size}")


def _attention_keys(params: ModelParams, hidden: Tensor) -> np.ndarray:
    """hidden @ attn.w_h + attn.b: the (T, attn_dim) projection every step reads."""
    cfg = params.config
    if hidden.ndim != 2 or hidden.shape[0] < 1 or hidden.shape[1] != cfg.enc_hidden:
        raise ShapeError(f"decoder expects a nonempty (T, {cfg.enc_hidden}) "
                         f"hidden sequence, got {hidden.shape}")
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

    Inference only: the step runs in numpy (``_decoder_step``, the kernel
    the teacher-forced loss also runs) and the results are constant
    tensors, so nothing is recorded on the tape and no gradient flows
    back. Training and attacks differentiate the decoder through
    ``decoder_teacher_forced``.
    """
    _check_token(params.config, token)
    arrays = tuple(params[name].data for name in _STEP_PARAMS)
    with np.errstate(invalid="ignore", over="ignore"):
        step = _decoder_step(arrays, state.s.data, state.hproj.data,
                             hidden.data, token)
    _check_steps([step])
    return ad.constant(step.logp), DecoderState(ad.constant(step.s), state.hproj)


def decoder_teacher_forced(params: ModelParams, hidden: Tensor,
                           inputs: Sequence[int],
                           targets: Sequence[int]) -> Tensor:
    """(N,) log-probs of ``targets[k]`` after feeding ``inputs[:k + 1]``.

    Runs ``_decoder_step`` N times in numpy and records one tape entry.
    Its hand-written backward walks the steps last first and adds every
    gradient term in the order the op-by-op tape of the same steps adds
    it, so values and gradients are bit-identical to that tape:

    - state s_k takes the w_rec term of step k+1, then its part of the
      output layer's input, then the attention-query term;
    - each parameter takes its per-step terms from step N-1 down to 0;
    - ``hidden`` is listed as an input N+1 times, and the backward returns
      the context term of each step (N-1 down to 0) and then the
      attention-projection term. ``autodiff.backward`` adds them one by
      one after whatever other heads contributed before, as the
      op-by-op tape did; a single pre-summed term would round differently.
    """
    cfg = params.config
    n = len(inputs)
    if n == 0 or len(targets) != n:
        raise ShapeError(f"teacher forcing needs as many inputs as targets, "
                         f"got {n} and {len(targets)}")
    for tok in (*inputs, *targets):
        _check_token(cfg, tok)
    hproj = _attention_keys(params, hidden)
    arrays = tuple(params[name].data for name in _STEP_PARAMS)
    h = hidden.data
    s_prev = np.zeros(cfg.dec_hidden)
    steps = []
    with np.errstate(invalid="ignore", over="ignore"):
        for tok in inputs:
            step = _decoder_step(arrays, s_prev, hproj, h, tok)
            steps.append(step)
            s_prev = step.s
    _check_steps(steps)
    picked = np.array([st.logp[tgt] for st, tgt in zip(steps, targets)])
    emb, w_in, w_rec, _b, w_s, v, w_out, _b_out = arrays
    w_h = params["attn.w_h"].data
    dh = cfg.dec_hidden
    param_inputs = (*(params[name] for name in _STEP_PARAMS),
                    params["attn.w_h"], params["attn.b"])
    # Constant parameters (an attack differentiates only its input) get
    # none of their terms computed.
    train = any(p.requires_grad for p in param_inputs)

    def bwd(g):
        # Parameter sums start at +0.0; that differs from starting at the
        # first term only for a -0.0 term, which the leaf update in
        # ``autodiff.backward`` (grad + term, grad never -0.0) erases.
        g_emb, g_w_in, g_w_rec, g_b, g_w_s, g_v, g_w_out, g_b_out = (
            np.zeros_like(a) if train else None for a in arrays)
        g_hidden = []
        g_hproj = None
        g_s_next = None  # w_rec term of s_k, from step k+1
        for k in range(n - 1, -1, -1):
            st = steps[k]
            g_logp = np.zeros(st.logp.shape)
            g_logp[targets[k]] += g[k]
            g_logits = g_logp - np.exp(st.logp) * g_logp.sum(axis=0, keepdims=True)
            g_joint = w_out @ g_logits
            g_ctx = g_joint[dh:]
            g_hidden.append(st.attn[:, None] * g_ctx)
            g_log_attn = (h @ g_ctx) * st.attn
            g_scores = g_log_attn - st.attn * g_log_attn.sum(axis=0, keepdims=True)
            g_att = g_scores[:, None] * v * (1.0 - st.tanh_att * st.tanh_att)
            g_hproj = g_att if g_hproj is None else g_hproj + g_att
            g_q = g_att.sum(axis=0)
            g_s = g_joint[:dh] if g_s_next is None else g_s_next + g_joint[:dh]
            g_s = g_s + w_s @ g_q
            g_z = g_s * (1.0 - st.s * st.s)
            g_s_next = w_rec @ g_z
            if train:
                g_b_out += g_logits
                g_w_out += st.joint[:, None] * g_logits
                g_v += st.tanh_att.T @ g_scores
                g_w_s += st.s[:, None] * g_q
                g_b += g_z
                s_prev = steps[k - 1].s if k else np.zeros(dh)
                g_w_rec += s_prev[:, None] * g_z
                g_w_in += emb[inputs[k]][:, None] * g_z
                g_emb[inputs[k]] += w_in @ g_z
        g_hidden.append(g_hproj @ w_h.T)
        g_w_h, g_attn_b = (h.T @ g_hproj, g_hproj.sum(axis=0)) if train else (None, None)
        return (g_emb, g_w_in, g_w_rec, g_b, g_w_s, g_v, g_w_out, g_b_out,
                g_w_h, g_attn_b, *g_hidden)

    return ad.record_op("decoder_teacher_forced",
                        (*param_inputs, *(hidden,) * (n + 1)), picked, bwd)


def discriminate(params: ModelParams, hidden: Tensor) -> Tensor:
    """Accent log-probs from the mean hidden state through the dense stack.

    One tape record. The forward runs in numpy: the mean over frames,
    then per layer a matmul, the bias add and (below the top layer) a
    ReLU, then a log-softmax. The hand-written backward makes the numpy
    calls of the op-by-op tape of those steps, in its order, so values
    and gradients are bit-identical to it; terms of inputs that need no
    gradient are skipped. One finiteness check covers the mean, every
    pre-activation and the output: a ReLU turns NaN and -inf into zero,
    so the output alone would not show a non-finite pre-activation.
    """
    cfg = params.config
    if hidden.ndim != 2 or hidden.shape[0] < 1:
        raise ShapeError(f"discriminate expects a nonempty (T, d), got {hidden.shape}")
    layers = [(params[f"dis{i}.w"], params[f"dis{i}.b"])
              for i in range(cfg.disc_layers)]
    top = cfg.disc_layers - 1
    with np.errstate(invalid="ignore", over="ignore"):
        mean = hidden.data.mean(axis=0)
        acts = [mean]  # the input of each layer
        pre = []
        masks = []
        for i, (w, b) in enumerate(layers):
            z = acts[i] @ w.data + b.data
            pre.append(z)
            if i < top:
                masks.append(z > 0)
                acts.append(np.where(masks[i], z, 0.0))
        out = ad.log_softmax_array(pre[top], axis=0)
    ad.check_finite(np.concatenate([mean, *pre, out]), "discriminate")
    shape = hidden.shape

    def bwd(g):
        g_layers = []
        g_z = g - np.exp(out) * g.sum(axis=0, keepdims=True)
        g_in = None
        for i in range(top, -1, -1):
            w, b = layers[i]
            if i or hidden.requires_grad:
                g_in = w.data @ g_z
            g_layers.append((np.outer(acts[i], g_z) if w.requires_grad else None,
                             g_z if b.requires_grad else None))
            if i:
                g_z = g_in * masks[i - 1]
        g_hidden = (np.broadcast_to(np.expand_dims(g_in, 0) / shape[0], shape)
                    if hidden.requires_grad else None)
        return (g_hidden, *(gr for pair in reversed(g_layers) for gr in pair))

    return ad.record_op("discriminate",
                        (hidden, *(t for pair in layers for t in pair)), out, bwd)


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
