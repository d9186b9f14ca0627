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
them. A ``teacher_forcing`` runs ``_recur`` over each row's sos-framed
target at the first read of its ``states``, and
``decoder_teacher_forced`` runs ``_attend`` over those states and
returns the decoder loss (training and attacks) as one tape entry with
a hand-written backward. ``decoder_advance`` runs one step of every row
of a padded batch for inference and records nothing.
``decoder_teacher_forced``, ``discriminate`` and the inference decoder
take padded batches (the batch contract is in ``autodiff``); ``encode``
and the inference decoder also take one utterance as the batch of one,
and ``ctc_head`` maps the states of any leading shape.

The encoder is ``enc_layers`` stacked forward-in-time ``autodiff.tanh_rnn``
scans; ``ModelConfig.bidirectional`` must be False (its comment says why).
"""

from __future__ import annotations

import functools
import itertools
import json
from dataclasses import asdict, dataclass
from typing import NamedTuple, Sequence

import numpy as np

from . import autodiff as ad
from .autodiff import ShapeError, Tensor
from .data import DEFAULT_FEAT_DIM, N_ACCENTS, N_WORDS, check_int


class CheckpointError(Exception):
    pass


@dataclass(frozen=True)
class ModelConfig:
    feat_dim: int = DEFAULT_FEAT_DIM
    enc_hidden: int = 32
    enc_layers: int = 2
    dec_hidden: int = 32
    attn_dim: int = 32
    emb_dim: int = 16
    vocab_size: int = N_WORDS  # +1 per head for blank/eos
    disc_layers: int = 5
    disc_hidden: int = 32
    n_accents: int = N_ACCENTS
    seed: int = 0
    # Must be False. Kept only because the rows' config= hash and the
    # checkpoint config line hold the key; it goes with the next
    # ROWS_VERSION bump, which regenerates those references anyway.
    bidirectional: bool = False

    def __post_init__(self):
        for name in ("feat_dim", "enc_hidden", "enc_layers", "dec_hidden",
                     "attn_dim", "emb_dim", "vocab_size", "disc_layers",
                     "disc_hidden", "n_accents"):
            check_int(name, getattr(self, name), 1)
        check_int("seed", self.seed, 0)
        if self.bidirectional is not False:
            raise ValueError(f"bidirectional must be false, got {self.bidirectional!r}")

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
        weights.append((f"enc{layer}.w_in", (in_dim, d)))
        weights.append((f"enc{layer}.w_rec", (d, d)))
        biases.append((f"enc{layer}.b", (d,)))
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
        seq = ad.tanh_rnn(seq, params[f"enc{layer}.w_in"],
                          params[f"enc{layer}.w_rec"], params[f"enc{layer}.b"],
                          lengths=lengths)
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

    return ad.record_op((hidden, w, b), out.reshape(*hidden.shape[:-1], -1), bwd)


class DecoderState:
    """Per-row recurrent states, attention projections and (B, T)
    padded-frame mask (all False when no frame is padded) of a batch
    being decoded."""

    __slots__ = ("s", "hproj", "pad")

    def __init__(self, s: Tensor, hproj: Tensor, pad: np.ndarray):
        self.s = s
        self.hproj = hproj
        self.pad = pad

    def take(self, rows) -> "DecoderState":
        """The state of the batch's ``rows`` (an index or a boolean mask)."""
        return DecoderState(ad.constant(self.s.data[rows]),
                            ad.constant(self.hproj.data[rows]), self.pad[rows])


# Decoder parameters in the order the step kernels unpack them.
_STEP_PARAMS = ("dec.emb", "dec.w_in", "dec.w_rec", "dec.b",
                "attn.w_s", "attn.v", "dec.w_out", "dec.b_out")


class _Steps(NamedTuple):
    """Arrays of decoder steps, with leading axes: (B,) for one step of B
    rows, (N, B) for N steps of B rows.

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


# The finite log(0) of a padded frame's attention score and of the CTC
# lattice's unreachable states: exp(NEG - x) == 0.0 for any sane x, while
# every array stays finite.
NEG = -1.0e9

# The decoder step is split in two numpy kernels: ``_recur`` feeds one
# token per row to the recurrent state, and ``_attend`` attends and
# predicts from any number of states at once. Inference runs them one
# step at a time over the (B, ...) states of a batch's rows; teacher
# forcing runs the recurrence step by step, then ``_attend`` once over
# all (N, B, ...) steps, which takes the attention's per-step Python
# work out of the loop. At B=1 their numpy calls make the arithmetic of
# the step recorded op by op (embedding row, two matmuls, two adds,
# tanh, query, additive attention, softmax, context, output layer,
# log-softmax), in that order, so values are bit-identical to it: a
# stacked matmul makes one vector product per step and row. The caller
# validates the tokens and checks the result with ``_check_steps``.


def _recur(arrays, s_prev: np.ndarray, tokens) -> tuple[np.ndarray, np.ndarray]:
    """(z, s) after feeding ``tokens`` (...) to the states ``s_prev`` (..., dec_hidden)."""
    emb, w_in, w_rec, b = arrays[:4]
    z = (emb[tokens] @ w_in + s_prev @ w_rec) + b
    return z, np.tanh(z)


def _attend(arrays, z: np.ndarray, s: np.ndarray, hproj: np.ndarray,
            hidden: np.ndarray, pad: np.ndarray) -> _Steps:
    """Attention and next-token log-probs of the states ``s`` (..., dec_hidden).

    ``hproj`` (..., T, attn_dim) and ``hidden`` (..., T, d) broadcast
    against the leading axes of ``s``; ``pad`` is the mask of padded
    frames, shaped like the scores' trailing axes (all False when no
    frame is padded).
    """
    w_s, v, w_out, b_out = arrays[4:]
    q = s @ w_s
    tanh_att = hproj + q[..., None, :]
    np.tanh(tanh_att, out=tanh_att)
    scores = tanh_att @ v
    scores[..., pad] = NEG
    log_attn = ad.log_softmax_array(scores, axis=-1)
    attn = np.exp(log_attn)
    context = (attn[..., None, :] @ hidden)[..., 0, :]
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


def _attention_keys(params: ModelParams, hidden: Tensor) -> np.ndarray:
    """hidden @ attn.w_h + attn.b: the (B, T, attn_dim) projection every step reads."""
    cfg = params.config
    if hidden.ndim != 3 or 0 in hidden.shape[:-1] or hidden.shape[-1] != cfg.enc_hidden:
        raise ShapeError(f"decoder expects a nonempty (T, {cfg.enc_hidden}) "
                         f"hidden sequence or (B, T, {cfg.enc_hidden}) batch, "
                         f"got {hidden.shape}")
    with np.errstate(invalid="ignore", over="ignore"):
        hproj = hidden.data @ params["attn.w_h"].data + params["attn.b"].data
    ad.check_finite(hproj, "attention projection")
    return hproj


def decoder_start(params: ModelParams, hidden: Tensor, lengths=None) -> DecoderState:
    """Zero recurrent states and the attention projection, as constants,
    of a padded (B, T, d) batch with per-row frame counts ``lengths``, or
    of one (T, d) utterance as the batch of one."""
    if hidden.ndim == 2:
        hidden = ad.constant(hidden.data[None])
    hproj = _attention_keys(params, hidden)
    n_rows, n_frames = hidden.shape[:2]
    return DecoderState(ad.constant(np.zeros((n_rows, params.config.dec_hidden))),
                        ad.constant(hproj), ad.padding_mask(lengths, n_rows, n_frames)[1])


def decoder_advance(params: ModelParams, hidden: Tensor, state: DecoderState,
                    tokens) -> tuple[Tensor, DecoderState]:
    """Feed one token (sos or a word id) per row; return the (B, V+1)
    next-token log-probs.

    ``hidden`` is the padded (B, T, d) batch ``state`` was started on and
    ``tokens`` a (B,) integer vector; one (T, d) utterance and one token
    are the batch of one, and give a (V+1,) row. Attention is additive
    over each row's own frames, conditioned on the updated recurrent
    state. The last output column is eos.

    Inference only: the step runs in numpy (``_recur`` and ``_attend`` on
    the rows' states, the kernels the teacher-forced loss also runs) and
    the results are constant tensors, so nothing is recorded on the tape
    and no gradient flows back. Training and attacks differentiate the
    decoder through ``decoder_teacher_forced``.
    """
    if hidden.ndim == 2:
        logp, state = decoder_advance(params, ad.constant(hidden.data[None]), state,
                                      np.array([tokens]))
        return ad.constant(logp.data[0]), state
    tokens = np.asarray(tokens)
    if (hidden.ndim != 3 or tokens.shape != hidden.shape[:1]
            or tokens.dtype.kind not in "iu" or state.s.shape[0] != len(tokens)):
        raise ShapeError(f"decoder_advance takes one integer token per row of a "
                         f"(B, T, d) batch and its state, got tokens {tokens.shape} "
                         f"of {tokens.dtype}, hidden {hidden.shape} and "
                         f"{state.s.shape[0]} state rows")
    if ((tokens < 0) | (tokens > params.config.vocab_size)).any():
        raise ShapeError(f"decoder tokens {tokens.tolist()} not all in "
                         f"0..{params.config.vocab_size}")
    arrays = tuple(params[name].data for name in _STEP_PARAMS)
    with np.errstate(invalid="ignore", over="ignore"):
        z, s = _recur(arrays, state.s.data, tokens)
        step = _attend(arrays, z, s, state.hproj.data, hidden.data, state.pad)
    _check_steps(step)
    return ad.constant(step.logp), DecoderState(ad.constant(s), state.hproj, state.pad)


@dataclass(frozen=True, eq=False)
class TeacherForcing:
    """The part of a teacher-forced decoder pass that depends only on the
    parameters and the targets, never on the encoder states: the token
    framing, and the recurrent states, run on their first read. Arrays
    are step-major, (N, B, ...) for N steps of B rows."""

    params: ModelParams
    rows: list[list[int]]  # each row's word ids
    steps: np.ndarray  # (B,) output steps per row: its words, then eos
    tok_in: np.ndarray  # tokens fed: sos, then the row's words
    tok_tgt: np.ndarray  # tokens predicted: the row's words, then eos
    late: np.ndarray  # steps past a row's own; they take no loss

    @functools.cached_property
    def states(self) -> tuple[np.ndarray, np.ndarray]:
        """(z, s): the recurrent pre-activations and states, run over
        ``tok_in`` once, at the first read, from the parameters' values
        then. A loss whose decoder does not run never reads them."""
        n, n_rows = self.tok_in.shape
        arrays = tuple(self.params[name].data for name in _STEP_PARAMS)
        dh = self.params.config.dec_hidden
        z = np.empty((n, n_rows, dh))
        s = np.empty((n, n_rows, dh))
        s_prev = np.zeros((n_rows, dh))
        with np.errstate(invalid="ignore", over="ignore"):
            for k in range(n):
                z[k], s[k] = _recur(arrays, s_prev, self.tok_in[k])
                s_prev = s[k]
        return z, s


def teacher_forcing(params: ModelParams, targets: Sequence) -> TeacherForcing:
    """Frame each row of word ids in ``targets`` with sos and eos, for the
    decoder's state recurrence over it.

    Row r feeds ``[sos] + targets[r]`` and predicts ``targets[r] + [eos]``;
    an empty row predicts eos at once. Past its steps a row feeds sos and
    picks column 0, and ``late`` marks those steps. The states are those
    of ``params`` at their first read: a forcing is stale once the
    parameters change.
    """
    cfg = params.config
    rows = [list(r) for r in targets]
    if any(tok < 0 or tok >= cfg.vocab_size for row in rows for tok in row):
        raise ValueError("decoder targets must be word ids (no special tokens)")
    n_rows = len(rows)
    steps = np.array([len(row) + 1 for row in rows], dtype=int)
    n = steps.max(initial=0)
    tok_in = np.full((n, n_rows), cfg.sos)
    tok_tgt = np.zeros((n, n_rows), dtype=int)
    for r, row in enumerate(rows):
        tok_in[1:steps[r], r] = row
        tok_tgt[:steps[r], r] = row + [cfg.eos]
    late = np.arange(n)[:, None] >= steps
    return TeacherForcing(params, rows, steps, tok_in, tok_tgt, late)


def decoder_teacher_forced(params: ModelParams, hidden: Tensor, forcing: TeacherForcing,
                           lengths=None) -> Tensor:
    """(B,) decoder loss: each row's teacher-forced negative log-likelihood
    of its target, averaged over its output steps.

    ``hidden`` is a padded batch (B, T, d) with per-row frame counts
    ``lengths``; ``forcing`` is ``teacher_forcing`` of ``params`` and one
    row of word ids per batch row. The recurrent states never see
    ``hidden``, so the forcing holds them: an attack builds it once and
    reuses it on every step, while a training batch builds its own, as
    each update changes the parameters. Row b's loss is divided by its
    output steps, ``forcing.steps[b]``: its words, then eos. Attention
    gives padded frames exactly zero weight, and padded steps get exactly
    zero gradient.

    One tape entry, whatever the targets' lengths; ``losses.dec_loss``
    lifts one utterance to the batch of one, which adds its two ``take``
    records. Runs the attention and output layer once over all N states,
    in numpy. The per-row sum, negation and scaling make the numpy calls
    of those ops recorded one by one, so values and gradients stay
    bit-identical to the op-by-op tape. The backward runs the attention's
    tanh terms step by step, and the state recurrence step by step only
    when a parameter takes a gradient; every other term, and each
    gradient, is computed for all steps and rows at once.
    """
    cfg = params.config
    if hidden.ndim != 3:
        raise ShapeError(f"decoder_teacher_forced expects a (B, T, {cfg.enc_hidden}) "
                         f"batch, got {hidden.shape}")
    hproj = _attention_keys(params, hidden)
    h = hidden.data
    n_rows, n_frames = h.shape[:2]
    if len(forcing.rows) != n_rows:
        raise ShapeError(f"{len(forcing.rows)} token rows for a batch of {n_rows}")
    pad = ad.padding_mask(lengths, n_rows, n_frames)[1]
    param_inputs = (*(params[name] for name in _STEP_PARAMS),
                    params["attn.w_h"], params["attn.b"])
    # Constant parameters (an attack differentiates only its input) get
    # none of their terms computed.
    train = any(p.requires_grad for p in param_inputs)
    tok_in, tok_tgt, late = forcing.tok_in, forcing.tok_tgt, forcing.late
    n = len(tok_in)
    arrays = tuple(params[name].data for name in _STEP_PARAMS)
    with np.errstate(invalid="ignore", over="ignore"):
        st = _attend(arrays, *forcing.states, hproj, h, pad)
    _check_steps(st)
    row_idx = np.arange(n_rows)
    step_idx = np.arange(n)[:, None]
    picked = st.logp[step_idx, row_idx, tok_tgt]
    picked[late] = 0.0
    scale = 1.0 / forcing.steps
    loss = -picked.T.sum(axis=-1) * scale
    emb, w_in, w_rec, _b, w_s, v, w_out, _b_out = arrays
    w_h = params["attn.w_h"].data
    dh = cfg.dec_hidden

    def bwd(g):
        g = np.where(late, 0.0, -(g * scale))
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
        # axis does, so the values are those of the one-shot sum. The
        # query's terms g_q reach only the parameters.
        g_q = np.empty(st.q.shape) if train else None
        g_hproj = None
        for k in range(n):
            g_att = st.tanh_att[k] * st.tanh_att[k]
            np.subtract(1.0, g_att, out=g_att)
            g_att *= v
            g_att *= g_scores[k, ..., None]
            if train:
                g_q[k] = g_att.sum(axis=-2)
            if g_hproj is None:
                g_hproj = g_att
            else:
                g_hproj += g_att
        # Context terms of all steps, (B, T, N) @ (B, N, d), plus the
        # attention-projection term.
        g_hidden = (st.attn.transpose(1, 2, 0) @ g_ctx.transpose(1, 0, 2)
                    + g_hproj @ w_h.T)
        if not train:
            return [None] * 10 + [g_hidden]
        # The state recurrence, steps last first: state s_k takes the w_rec
        # term of step k+1. The states never see the input.
        deriv = 1.0 - st.s * st.s
        g_z = np.empty(st.s.shape)
        g_next = np.zeros((n_rows, dh))
        for k in range(n - 1, -1, -1):
            g_z[k] = (g_next + g_joint[k, :, :dh] + g_q[k] @ w_s.T) * deriv[k]
            g_next = g_z[k] @ w_rec.T
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

    return ad.record_op((*param_inputs, hidden), loss, bwd)


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
    frames, pad = ad.padding_mask(lengths, n_rows, n_frames)
    frames = frames[:, None].astype(float)
    with np.errstate(invalid="ignore", over="ignore"):
        mean = np.where(pad[..., None], 0.0, h).sum(axis=1)
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
            g_hidden = np.where(pad[..., None], 0.0, (g_in / frames)[:, None])
        return (g_hidden, *(gr for pair in reversed(g_layers) for gr in pair))

    return ad.record_op((hidden, *(t for pair in layers for t in pair)), out, bwd)


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
    try:
        with open(path) as f:
            lines = f.read().splitlines()
    except UnicodeDecodeError:
        raise CheckpointError(f"{path}: not a checkpoint file") from None
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
        if name in tensors:
            raise CheckpointError(f"{path}: repeated block for {name} at line {i + 1}")
        try:
            shape = tuple(int(v) for v in head[2:])
        except ValueError as e:
            raise CheckpointError(f"{path}: bad shape at line {i + 1}: {e}") from e
        n_rows = shape[0] if len(shape) == 2 else 1
        i += 1
        if i + n_rows > len(lines) - 1:
            raise CheckpointError(f"{path}: truncated values for {name}")
        rows = [line.split() for line in lines[i:i + n_rows]]
        try:
            for r, row in enumerate(rows):
                if len(row) != shape[-1]:
                    raise ValueError(f"row {r + 1} holds {len(row)} values, "
                                     f"not {shape[-1]}")
            arr = np.fromiter(map(float.fromhex, itertools.chain.from_iterable(rows)),
                              dtype=np.float64).reshape(shape)
            if not np.isfinite(arr).all():
                raise ValueError("holds a non-finite value")
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
