"""Task losses and their weighted blends.

The CTC loss runs the standard forward recursion over the blank-extended
label sequence entirely in log space, as one fused tape op: the lattice
is a numpy loop over frames with a hand-written backward (the
alpha-gradient recursion, frames last first). Unreachable lattice states
carry a large negative sentinel (``NEG``) instead of -inf: at double
precision the sentinel's contribution underflows to exactly zero in
every logsumexp, so values and gradients are bit-for-bit what a true
-inf would give while every lattice array stays finite, and one
finiteness check over the alphas catches a non-finite input.

Normalization: CTC divides by the label count, the decoder loss by the
number of output steps (targets plus eos). This keeps the mixing weights
scale-balanced across heads.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .model import ModelParams, decoder_teacher_forced, discriminate

NEG = -1.0e9  # exact log(0) stand-in; exp(NEG - x) == 0.0 for any sane x


class CtcInfeasibleError(Exception):
    """The target cannot be aligned to this many frames."""


@dataclass(frozen=True)
class MtlWeights:
    """Training mix (ASR vs discriminator, CTC vs decoder) and inference mix.

    The inference weight defaults to the CTC training weight, matching
    the usual hybrid-inference convention.
    """

    lambda_t_A: float = 1.0
    lambda_t_C: float = 0.5
    lambda_i_C: float | None = None

    def __post_init__(self):
        if self.lambda_i_C is None:
            object.__setattr__(self, "lambda_i_C", self.lambda_t_C)
        for name in ("lambda_t_A", "lambda_t_C", "lambda_i_C"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name}={v} outside [0, 1]")


@dataclass
class LossBreakdown:
    """Scalar loss components in nats; ``total`` is the differentiable blend."""

    l_ctc: float
    l_dec: float
    l_dis: float
    l_asr: float
    l_mtl: float
    total: "Tensor | float" = field(repr=False, default=0.0)


def _as_float(v) -> float:
    return v.item() if isinstance(v, Tensor) else float(v)


def ctc_min_frames(y: Sequence[int]) -> int:
    """Shortest frame count that can emit ``y`` (repeats need a blank between)."""
    return len(y) + sum(1 for i in range(1, len(y)) if y[i] == y[i - 1])


def ctc_loss(logp: Tensor, y: Sequence[int]) -> Tensor:
    """Negative log-probability of all alignments collapsing to ``y``.

    ``logp`` is a (T, V+1) matrix of per-frame log-probs with blank in
    the last column; ``y`` holds word ids only. Normalized by ``|y|``.

    A nonempty ``y`` runs the whole lattice in numpy and records one tape
    entry. The forward makes the numpy calls of the lattice recorded op
    by op (per frame: shift the previous alphas, mask and bias the skip
    row, a 3-row logsumexp, add the emissions). The backward walks the
    frames last first; each frame's gradient into the previous alphas is
    the stay term plus the skip and one-state shift terms.
    """
    t_frames, width = logp.shape
    blank = width - 1
    y = list(y)
    if any(tok < 0 or tok >= blank for tok in y):
        raise ValueError("CTC targets must be word ids (no blank/eos)")
    if t_frames < ctc_min_frames(y):
        raise CtcInfeasibleError(
            f"{len(y)} labels need >= {ctc_min_frames(y)} frames, got {t_frames}")
    if not y:
        # all-blank alignment is the only path
        total = ad.sum_(logp[:, blank])
        return ad.neg(total)

    ext = [blank]
    for tok in y:
        ext.extend((tok, blank))
    n_states = len(ext)
    ext_idx = np.array(ext)
    # states reachable by a skip from two back: odd (label) states whose
    # label differs from the previous label
    skip_ok = np.zeros(n_states)
    for s in range(3, n_states, 2):
        if ext[s] != ext[s - 2]:
            skip_ok[s] = 1.0
    skip_bias = (1.0 - skip_ok) * NEG
    start = np.zeros(n_states)
    start[:2] = 1.0
    start_bias = (1.0 - start) * NEG
    scale = 1.0 / len(y)

    emis = logp.data[:, ext_idx]
    alphas = np.empty((t_frames, n_states))
    weights = np.empty((t_frames, 3, n_states))  # softmax weights; frame 0 unused
    with np.errstate(invalid="ignore", over="ignore"):
        alphas[0] = emis[0] * start + start_bias
        for t in range(1, t_frames):
            prev = alphas[t - 1]
            # rows: stay, advance one state, skip two (masked and biased)
            stacked = np.full((3, n_states), NEG)
            stacked[0] = prev
            stacked[1, 1:] = prev[:-1]
            stacked[2, 2:] = prev[:-2]
            stacked[2] = stacked[2] * skip_ok + skip_bias
            m = stacked.max(axis=0, keepdims=True)
            combined = m + np.log(np.exp(stacked - m).sum(axis=0, keepdims=True))
            np.exp(stacked - combined, out=weights[t])
            np.add(combined[0], emis[t], out=alphas[t])
        last = alphas[-1, -2:]
        m = last.max(keepdims=True)
        tail = m + np.log(np.exp(last - m).sum(keepdims=True))
        w_tail = np.exp(last - tail)
    ad.check_finite(alphas, "ctc_loss lattice")
    ad.check_finite(tail, "ctc_loss tail")
    loss = -tail.reshape(()) * scale

    def bwd(g):
        g_alpha = np.zeros(n_states)
        g_alpha[-2:] += -(g * scale) * w_tail
        g_emis = np.empty((t_frames, n_states))
        for t in range(t_frames - 1, 0, -1):
            g_emis[t] = g_alpha
            gs = g_alpha * weights[t]
            g_alpha = gs[0]
            g_alpha[:-2] += gs[2, 2:] * skip_ok[2:]
            g_alpha[:-1] += gs[1, 1:]
        g_emis[0] = g_alpha * start
        g_logp = np.zeros(logp.shape)
        np.add.at(g_logp, (slice(None), ext_idx), g_emis)
        return (g_logp,)

    return ad.record_op("ctc_loss", (logp,), np.asarray(loss), bwd)


def dec_loss(params: ModelParams, hidden: Tensor, y: Sequence,
             lengths=None) -> Tensor:
    """Teacher-forced decoder negative log-likelihood, averaged per step.

    An empty ``y`` is legal and means "predict eos immediately". The
    decoder runs as one fused op (``model.decoder_teacher_forced``), so
    the loss records four tape entries whatever the length of ``y``.
    A padded batch ``hidden`` (B, T, d) with per-row frame counts
    ``lengths`` takes one target per row in ``y`` and gives the (B,)
    per-row losses.
    """
    cfg = params.config
    batched = hidden.ndim == 3
    rows = [list(r) for r in y] if batched else [list(y)]
    if any(tok < 0 or tok >= cfg.vocab_size for row in rows for tok in row):
        raise ValueError("decoder targets must be word ids (no special tokens)")
    inputs = [[cfg.sos] + row for row in rows]
    targets = [row + [cfg.eos] for row in rows]
    if batched:
        picked = decoder_teacher_forced(params, hidden, inputs, targets, lengths)
        scale = 1.0 / np.array([len(t) for t in targets])
    else:
        picked = decoder_teacher_forced(params, hidden, inputs[0], targets[0])
        scale = 1.0 / len(targets[0])
    return ad.mul(ad.neg(ad.sum_(picked, axis=-1)), scale)


def dis_loss(params: ModelParams, hidden: Tensor, accent: int) -> Tensor:
    """Cross-entropy of the accent discriminator head."""
    if not 0 <= accent < params.config.n_accents:
        raise ValueError(f"accent label {accent} out of range")
    return ad.neg(discriminate(params, hidden)[accent])


def asr_loss(weights: MtlWeights, l_ctc, l_dec):
    """CTC/decoder blend with the training weight."""
    lam = weights.lambda_t_C
    return lam * l_ctc + (1.0 - lam) * l_dec


def mtl_loss(weights: MtlWeights, l_ctc, l_dec, l_dis) -> LossBreakdown:
    """Full training objective: ASR blend against the discriminator.

    Components may be scalar tensors or plain floats (pass 0.0 for a
    head the weights switch off entirely); ``total`` stays differentiable
    whenever any live component is a tensor.
    """
    l_asr = asr_loss(weights, l_ctc, l_dec)
    lam = weights.lambda_t_A
    total = lam * l_asr + (1.0 - lam) * l_dis
    return LossBreakdown(
        l_ctc=_as_float(l_ctc),
        l_dec=_as_float(l_dec),
        l_dis=_as_float(l_dis),
        l_asr=_as_float(l_asr),
        l_mtl=_as_float(total),
        total=total,
    )
