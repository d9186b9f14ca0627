"""Task losses and their weighted blends.

``objective`` is the one loss of training, validation and the attack;
``mix`` is exact at weights 0 and 1, so a head at weight zero is neither
run nor blended.

The CTC loss runs the standard forward recursion over the blank-extended
label sequence entirely in log space, as one fused tape op: the lattice
is a numpy loop over frames with a hand-written backward (the
alpha-gradient recursion, frames last first). Unreachable lattice states
carry a large negative sentinel (``NEG``) instead of -inf: at double
precision the sentinel's contribution underflows to exactly zero in
every logsumexp, so values and gradients are bit-for-bit what a true
-inf would give while every lattice array stays finite, and one
finiteness check over the alphas catches a non-finite input. The
decoder loss is one fused op too, ``model.decoder_teacher_forced`` of a
``model.teacher_forcing``; ``dec_loss`` is the batch-of-one helper that
builds that forcing for one utterance.

Each task loss takes a padded batch (B, T, ·) with per-row frame counts
``lengths`` and one target per row, and gives the (B,) per-row losses
(the batch contract is in ``autodiff``); one utterance and its target
give a scalar, through the batch of one. ``mtl_loss`` blends per-row
losses row by row and sums the rows, so the gradient of a batch is the
sum of its rows' gradients.

Normalization: CTC divides by the label count, the decoder loss by the
number of output steps (targets plus eos). This keeps the mixing weights
scale-balanced across heads.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from . import autodiff as ad
from .autodiff import ShapeError, Tensor
from .data import check_real
from .model import (ModelParams, TeacherForcing, ctc_head, decoder_teacher_forced, discriminate,
                    encode, teacher_forcing)

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
            object.__setattr__(self, name, check_real(name, getattr(self, name), unit=True))


@dataclass
class LossBreakdown:
    """Each head's (B,) per-row losses (0.0 for a head not run), their
    per-row blend ``rows`` and its differentiable sum ``total``. The
    ``l_*`` sums in nats are computed only when read."""

    ctc: "Tensor | float"
    dec: "Tensor | float"
    dis: "Tensor | float"
    rows: "Tensor | float"
    total: "Tensor | float" = field(repr=False)

    l_ctc = property(lambda self: _as_float(self.ctc))
    l_dec = property(lambda self: _as_float(self.dec))
    l_dis = property(lambda self: _as_float(self.dis))
    l_mtl = property(lambda self: _as_float(self.total))


def _as_float(v) -> float:
    return float(v.data.sum()) if isinstance(v, Tensor) else float(v)


def ctc_min_frames(y: Sequence[int]) -> int:
    """Shortest frame count that can emit ``y`` (repeats need a blank between)."""
    return len(y) + sum(1 for i in range(1, len(y)) if y[i] == y[i - 1])


def ctc_loss(logp: Tensor, y: Sequence, lengths=None) -> Tensor:
    """Negative log-probability of all alignments collapsing to each target.

    ``logp`` is a padded batch (B, T, V+1) of per-frame log-probs with
    blank in the last column and per-row frame counts ``lengths``; ``y``
    holds one nonempty target of word ids per row. Each row's loss is
    normalized by its label count. One (T, V+1) matrix and its target
    give a scalar.

    The whole lattice runs in numpy and records one tape entry. It is
    (B, 2 * max |y| + 1) states wide; each row's states past its own are
    never read. The forward makes the numpy calls of the lattice recorded
    op by op (per frame: shift the previous alphas, mask and bias the
    skip row, a 3-row logsumexp, add the emissions). The backward walks
    the frames last first; each frame's gradient into the previous alphas
    is the stay term plus the skip and one-state shift terms. The lattice
    has no products across rows, so every row's loss and gradient are
    bit-identical to its B=1 run. An infeasible or non-finite row raises
    an error that names it.
    """
    if logp.ndim == 2:
        return ctc_loss(logp[None], [y])[0]
    if logp.ndim != 3:
        raise ShapeError(f"ctc_loss expects (T, V+1) or (B, T, V+1), got {logp.shape}")
    lp = logp.data
    rows = [list(r) for r in y]
    n_rows, t_max, width = lp.shape
    if len(rows) != n_rows:
        raise ShapeError(f"{len(rows)} CTC targets for a batch of {n_rows}")
    blank = width - 1
    if any(tok < 0 or tok >= blank for row in rows for tok in row):
        raise ValueError("CTC targets must be word ids (no blank/eos)")
    frames, pad = ad.padding_mask(lengths, n_rows, t_max)
    for r, row in enumerate(rows):
        if not row:
            raise ValueError(f"row {r}: a CTC target must hold at least one word")
        if frames[r] < ctc_min_frames(row):
            raise CtcInfeasibleError(
                f"row {r}: {len(row)} labels need >= {ctc_min_frames(row)} "
                f"frames, got {frames[r]}")
    counts = np.array([len(row) for row in rows])
    n_states = 2 * counts.max() + 1
    # Each row's blank-extended labels, padded with blank states. A skip
    # from two back reaches a label state whose label differs from the
    # previous label.
    ext = np.full((n_rows, n_states), blank)
    skip_ok = np.zeros((n_rows, n_states))
    for r, row in enumerate(rows):
        ext[r, 1:2 * len(row):2] = row
        skip_ok[r, 3:2 * len(row):2] = np.asarray(row[1:]) != np.asarray(row[:-1])
    skip_bias = (1.0 - skip_ok) * NEG
    start = np.zeros(n_states)
    start[:2] = 1.0
    start_bias = (1.0 - start) * NEG
    scale = 1.0 / counts

    emis = np.take_along_axis(lp, ext[:, None, :], axis=2)
    emis[pad] = 0.0  # frames past a row's length: keep its alphas finite
    emis = emis.transpose(1, 0, 2)  # frame-major
    alphas = np.empty((t_max, n_rows, n_states))
    weights = np.empty((t_max, 3, n_rows, n_states))  # softmax weights; frame 0 unused
    # rows: stay, advance one state, skip two (masked and biased)
    stacked = np.full((3, n_rows, n_states), NEG)
    with np.errstate(invalid="ignore", over="ignore"):
        alphas[0] = emis[0] * start + start_bias
        for t in range(1, t_max):
            prev = alphas[t - 1]
            stacked[0] = prev
            stacked[1, :, 1:] = prev[:, :-1]
            stacked[2, :, 2:] = prev[:, :-2]
            stacked[2] = stacked[2] * skip_ok + skip_bias
            m = stacked.max(axis=0, keepdims=True)
            combined = m + np.log(np.exp(stacked - m).sum(axis=0, keepdims=True))
            np.exp(stacked - combined, out=weights[t])
            np.add(combined[0], emis[t], out=alphas[t])
        # each row ends in its last two states at its last frame
        last_t = frames - 1
        row_idx = np.arange(n_rows)
        tail_states = 2 * counts[:, None] + np.array([-1, 0])
        last = alphas[last_t[:, None], row_idx[:, None], tail_states]
        m = last.max(axis=1, keepdims=True)
        tail = m + np.log(np.exp(last - m).sum(axis=1, keepdims=True))
        w_tail = np.exp(last - tail)
    ad.check_finite_rows(alphas.transpose(1, 0, 2), "ctc_loss lattice")
    ad.check_finite_rows(tail, "ctc_loss tail")
    # the rows that end at each frame, for the backward
    ends = {t: np.flatnonzero(last_t == t) for t in set(last_t.tolist())}

    def bwd(g):
        g_tail = -(g * scale)[:, None] * w_tail
        g_alpha = np.zeros((n_rows, n_states))
        g_emis = np.empty((t_max, n_rows, n_states))
        for t in range(t_max - 1, -1, -1):
            if t in ends:
                r = ends[t]
                g_alpha[r[:, None], tail_states[r]] += g_tail[r]
            if t == 0:
                break
            g_emis[t] = g_alpha
            gs = g_alpha * weights[t]
            g_alpha = gs[0]
            g_alpha[:, :-2] += gs[2, :, 2:] * skip_ok[:, 2:]
            g_alpha[:, :-1] += gs[1, :, 1:]
        g_emis[0] = g_alpha * start
        # scatter into the label columns; every frame's state terms add up
        # in state order
        cols = (row_idx[:, None, None] * t_max + np.arange(t_max)[:, None]) * width \
            + ext[:, None, :]
        g_lp = np.bincount(cols.ravel(), weights=g_emis.transpose(1, 0, 2).ravel(),
                           minlength=n_rows * t_max * width)
        return (g_lp.reshape(n_rows, t_max, width),)

    return ad.record_op((logp,), -tail[:, 0] * scale, bwd)


def dec_loss(params: ModelParams, hidden: Tensor, y: Sequence) -> Tensor:
    """Teacher-forced decoder negative log-likelihood, averaged per step.

    ``hidden`` is a batch (B, T, d) of full-length rows and ``y`` holds
    one target of word ids per row; one (T, d) utterance and its target
    give a scalar. An empty target is legal and means "predict eos
    immediately". The loss is one fused op, so a batch records one tape
    entry whatever the length of its targets; one utterance adds the two
    ``take`` records of its lift.
    """
    if hidden.ndim == 2:
        return dec_loss(params, hidden[None], [y])[0]
    return decoder_teacher_forced(params, hidden, teacher_forcing(params, y))


def dis_loss(params: ModelParams, hidden: Tensor, accent, lengths=None) -> Tensor:
    """Cross-entropy of the accent discriminator head.

    ``hidden`` is a padded batch (B, T, d) with per-row frame counts
    ``lengths`` and ``accent`` holds one label per row; one (T, d)
    utterance and its label give a scalar.
    """
    if hidden.ndim == 2:
        return dis_loss(params, hidden[None], [accent])[0]
    accents = list(accent)
    for r, label in enumerate(accents):
        if not 0 <= label < params.config.n_accents:
            raise ValueError(f"accent label {label} out of range in row {r}")
    logp = discriminate(params, hidden, lengths)
    return ad.neg(logp[np.arange(len(accents)), accents])


def mix(lam: float, a, b):
    """``lam * a + (1 - lam) * b``, the blend of two heads in training, in the
    attack and at each decode step. At ``lam`` 1 it is ``a`` itself and at
    0 ``b``, unrecorded, and the other side is never read. Every operation
    rounds monotonically, so a bound on ``a`` bounds the blend computed."""
    if lam == 1.0:
        return a
    if lam == 0.0:
        return b
    return lam * a + (1.0 - lam) * b


def mtl_loss(weights: MtlWeights, l_ctc, l_dec, l_dis) -> LossBreakdown:
    """Full training objective: ASR blend against the discriminator.

    Components may be scalar tensors, (B,) per-row tensors of one batch,
    or plain floats (pass 0.0 for a head the weights switch off
    entirely); ``total`` stays differentiable whenever any live
    component is a tensor, and is the sum of the rows' blends.
    """
    rows = mix(weights.lambda_t_A, mix(weights.lambda_t_C, l_ctc, l_dec), l_dis)
    total = ad.sum_(rows) if isinstance(rows, Tensor) and rows.ndim else rows
    return LossBreakdown(ctc=l_ctc, dec=l_dec, dis=l_dis, rows=rows, total=total)


def objective(params: ModelParams, x: Tensor, lengths, forcing: TeacherForcing,
              accents, weights: MtlWeights) -> LossBreakdown:
    """The loss of training, validation and the attack (which runs it at
    ``MtlWeights(1.0, lambda_i_C)``) on a padded (B, T, F) batch ``x``
    with per-row frame counts ``lengths``.

    ``forcing`` is the ``teacher_forcing`` of ``params`` and the rows'
    targets, whose word rows the CTC loss reads, and ``accents`` holds a
    label per row. The batch is encoded once, and each head runs only at
    a weight above zero in ``mtl_loss``'s blend.
    """
    if x.ndim != 3:
        raise ShapeError(f"objective expects a (B, T, F) batch, got {x.shape}")
    hidden = encode(params, x, lengths)
    lam_a, lam_c = weights.lambda_t_A, weights.lambda_t_C
    l_ctc = ctc_loss(ctc_head(params, hidden), forcing.rows, lengths) \
        if lam_a > 0.0 and lam_c > 0.0 else 0.0
    l_dec = decoder_teacher_forced(params, hidden, forcing, lengths) \
        if lam_a > 0.0 and lam_c < 1.0 else 0.0
    l_dis = dis_loss(params, hidden, accents, lengths) if lam_a < 1.0 else 0.0
    return mtl_loss(weights, l_ctc, l_dec, l_dis)
