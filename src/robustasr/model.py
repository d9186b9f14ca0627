"""Shared recurrent encoder with CTC, attention-decoder, and accent heads.

Token convention inside the model: ids ``0..V-1`` are word tokens (the
same ids the data vocabulary assigns them). Index ``V`` is overloaded
per surface and the surfaces never mix: it is the blank column of the
CTC head, the eos column of the decoder head, and the sos row of the
decoder embedding table. ``V`` counts all word tokens, content and
lorem alike, so adversarial targets are expressible.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from typing import Sequence

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

    @property
    def blank(self) -> int:
        return self.vocab_size


class ModelParams:
    """Named map of leaf tensors covering the encoder and all heads."""

    def __init__(self, config: ModelConfig, tensors: dict[str, Tensor]):
        self.config = config
        self._tensors = tensors

    def __getitem__(self, name: str) -> Tensor:
        return self._tensors[name]

    def __contains__(self, name: str) -> bool:
        return name in self._tensors

    def names(self) -> list[str]:
        return list(self._tensors)

    def items(self):
        return self._tensors.items()

    def leaves(self) -> list[Tensor]:
        return list(self._tensors.values())

    def clone(self) -> "ModelParams":
        return ModelParams(self.config, {
            k: ad.leaf(v.data.copy()) for k, v in self._tensors.items()})

    def load_values(self, other: "ModelParams") -> None:
        for k, v in other.items():
            self._tensors[k].data = v.data.copy()


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


def decoder_start(params: ModelParams, hidden: Tensor) -> DecoderState:
    hproj = ad.add(ad.matmul(hidden, params["attn.w_h"]), params["attn.b"])
    return DecoderState(ad.constant(np.zeros(params.config.dec_hidden)), hproj)


def decoder_advance(params: ModelParams, hidden: Tensor, state: DecoderState,
                    token: int) -> tuple[Tensor, DecoderState]:
    """Feed one token (sos or a word id); return next-token log-probs.

    Attention is additive over the encoder states, conditioned on the
    updated recurrent state. The last output column is eos.
    """
    cfg = params.config
    emb = ad.reshape(ad.embedding_lookup(params["dec.emb"], [token]),
                     (cfg.emb_dim,))
    s = ad.tanh(ad.add(ad.add(ad.matmul(emb, params["dec.w_in"]),
                              ad.matmul(state.s, params["dec.w_rec"])),
                       params["dec.b"]))
    scores = ad.matmul(ad.tanh(ad.add(state.hproj,
                                      ad.matmul(s, params["attn.w_s"]))),
                       params["attn.v"])
    weights = ad.exp(ad.log_softmax(scores, axis=0))
    context = ad.matmul(weights, hidden)
    logits = ad.add(ad.matmul(ad.concat([s, context]), params["dec.w_out"]),
                    params["dec.b_out"])
    return ad.log_softmax(logits, axis=0), DecoderState(s, state.hproj)


def decoder_step(params: ModelParams, hidden: Tensor,
                 prefix: Sequence[int]) -> Tensor:
    """Next-token log-probs after consuming a prefix that starts with sos."""
    cfg = params.config
    if not prefix:
        raise ShapeError("decoder prefix is empty")
    if prefix[0] != cfg.sos:
        raise ShapeError(f"decoder prefix must start with sos (={cfg.sos})")
    state = decoder_start(params, hidden)
    logp = None
    for tok in prefix:
        logp, state = decoder_advance(params, hidden, state, tok)
    return logp


def discriminate(params: ModelParams, hidden: Tensor) -> Tensor:
    """Accent log-probs from the mean hidden state through the dense stack."""
    cfg = params.config
    if hidden.ndim != 2 or hidden.shape[0] < 1:
        raise ShapeError(f"discriminate expects a nonempty (T, d), got {hidden.shape}")
    h = ad.mean(hidden, axis=0)
    for i in range(cfg.disc_layers):
        h = ad.add(ad.matmul(h, params[f"dis{i}.w"]), params[f"dis{i}.b"])
        if i < cfg.disc_layers - 1:
            h = ad.relu(h)
    return ad.log_softmax(h, axis=0)


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
    except (json.JSONDecodeError, TypeError) as e:
        raise CheckpointError(f"{path}: bad config: {e}") from e
    tensors: dict[str, Tensor] = {}
    i = 2
    while i < len(lines) - 1:
        head = lines[i].split()
        if head[0] != "param" or len(head) not in (3, 4):
            raise CheckpointError(f"{path}: bad param header at line {i + 1}")
        name = head[1]
        shape = tuple(int(v) for v in head[2:])
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
