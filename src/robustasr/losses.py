"""Task losses and their weighted blends.

``objective`` is the one loss of training, validation and the attack;
``mix`` is exact at weights 0 and 1, so a head at weight zero is neither
run nor blended.

The CTC loss runs the standard forward recursion over the blank-extended
label sequence entirely in log space, as one fused tape op,
``ctc_lattice``: a numpy loop over frames with a hand-written backward
(the alpha-gradient recursion, frames last first). Its target side is a
``model.ctc_framing``, which a ``model.teacher_forcing`` builds once
for all the losses of its targets; ``ctc_loss`` is the one-utterance
helper that frames its target on every call.
An unreachable lattice state carries ``model.NEG``, a large negative
sentinel, plus the log-probs gathered since, instead of -inf; a skip the
labels forbid takes NEG as its bias, so a masked skip term reads NEG
plus the alpha it skips from. A reachable state has a reachable
predecessor, so its logsumexp's max is a real value, and at double
precision every sentinel term's exp underflows to exactly 0 against it.
So the loss and its gradient are bit-for-bit what a true -inf would
give, an unreachable state takes exactly zero gradient, every lattice
array stays finite, and one finiteness check over the alphas catches a
non-finite input. The decoder loss is one fused op too,
``model.decoder_teacher_forced`` of a ``model.teacher_forcing``;
``dec_loss`` is the batch-of-one helper that builds that forcing for
one utterance.

Each task loss takes a padded batch (B, T, ·) with per-row frame counts
``lengths`` and one target per row, and gives the (B,) per-row losses
(the batch contract is in ``autodiff``); the CTC loss takes its targets
framed, as ``ctc_lattice``. One utterance and its target give a scalar,
through the batch of one (``ctc_loss``, ``dec_loss``, ``dis_loss``).
``mtl_loss`` blends per-row losses row by row and sums the rows, so the
gradient of a batch is the sum of its rows' gradients.

Normalization: CTC divides by the label count, the decoder loss by the
number of output steps (targets plus eos). This keeps the mixing weights
scale-balanced across heads.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np
from numpy.lib.stride_tricks import as_strided

from . import autodiff as ad
from .autodiff import ShapeError, Tensor
from .data import check_real
from .model import (NEG, CtcFraming, ModelParams, TeacherForcing, ctc_framing, ctc_head,
                    decoder_teacher_forced, discriminate, encode, teacher_forcing,
                    word_matrix)


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


def ctc_loss(logp: Tensor, y: Sequence[int]) -> Tensor:
    """Negative log-probability of all alignments of one utterance's
    (T, V+1) log-probs ``logp``, blank in the last column, that collapse
    to the nonempty target ``y`` of word ids, normalized by its label
    count: ``ctc_lattice`` of the batch of one, whose lift adds two
    ``take`` records. It frames ``y`` on every call; a
    ``model.teacher_forcing`` frames its targets once for all the losses
    of its batch.
    """
    if logp.ndim != 2:
        raise ShapeError(f"ctc_loss expects one (T, V+1) utterance, got {logp.shape}")
    return ctc_lattice(logp[None], ctc_framing(*word_matrix([y]), logp.shape[1] - 1))[0]


def ctc_lattice(logp: Tensor, framing: CtcFraming, lengths=None) -> Tensor:
    """(B,) CTC loss of a padded batch ``logp`` (B, T, V+1) with per-row
    frame counts ``lengths``, for the targets framed by ``framing``.

    The whole lattice runs in numpy and records one tape entry. It is
    (B, S) states wide; each row's states past its own are never read.
    The alphas sit behind two NEG columns, so a reversed window over a
    frame's padded alphas gives each state its stay, advance and skip
    terms (alphas s, s - 1 and s - 2) as three (B, S) rows. Per frame the
    forward makes 8 numpy calls: one add stacks the three rows with their
    bias (the framing's on the skip row), a logsumexp over them writes
    into preallocated buffers (max, subtract, exp, sum, log, add), and
    one add takes the emissions. The softmax weights of all frames are
    one exp, taken in the backward, so a loss under ``no_grad`` never
    takes it. The backward walks the frames last first at 3 calls each:
    the weighted terms go into a buffer that is zero past the last state,
    and each state's gradient into the previous alphas is its stay term
    plus the skip term of the state two after it, plus the advance term
    of the state after it. These are the op-by-op lattice's sums in its order,
    and the lattice has no products across rows, so every row's loss and
    gradient are bit-identical to the op-by-op tape's and to its B=1 run.
    An infeasible or non-finite row raises an error that names it.
    """
    if logp.ndim != 3:
        raise ShapeError(f"ctc_lattice expects (B, T, V+1), got {logp.shape}")
    lp = logp.data
    n_rows, t_max, width = lp.shape
    ext, counts = framing.ext, framing.counts
    if len(counts) != n_rows:
        raise ShapeError(f"{len(counts)} CTC targets for a batch of {n_rows}")
    frames, pad = ad.padding_mask(lengths, n_rows, t_max)
    short = np.flatnonzero(frames < framing.min_frames)
    if short.size:
        r = short[0]
        raise CtcInfeasibleError(
            f"row {r}: {counts[r]} labels need >= {framing.min_frames[r]} "
            f"frames, got {frames[r]}")
    n_states = ext.shape[1]
    start = np.zeros(n_states)
    start[:2] = 1.0
    start_bias = (1.0 - start) * NEG
    scale = 1.0 / counts
    bias = np.zeros((3, n_rows, n_states))  # of the stay, advance and skip terms
    bias[2] = framing.skip_bias

    row_idx = np.arange(n_rows)
    # (T, B, S) flat index of each frame's state label in logp
    cols = (np.arange(t_max)[:, None, None] + t_max * row_idx[:, None]) * width + ext
    emis = np.take(lp, cols)
    emis[pad.T] = 0.0  # frames past a row's length: keep its alphas finite
    padded = np.full((t_max, n_rows, n_states + 2), NEG)
    alphas = padded[:, :, 2:]
    # (T, 3, B, S): at frame t, each state s's stay, advance and skip
    # terms, alphas s, s - 1 and s - 2: a reversed window over the padding
    step = padded.strides[2]
    terms = as_strided(alphas, (t_max, 3, n_rows, n_states),
                       (padded.strides[0], -step, padded.strides[1], step), writeable=False)
    stacked = np.empty((t_max, 3, n_rows, n_states))  # biased terms; frame 0 unused
    lse = np.empty((t_max, n_rows, n_states))  # their logsumexp
    m = np.empty((n_rows, n_states))
    e = np.empty((3, n_rows, n_states))
    with np.errstate(invalid="ignore", over="ignore"):
        np.add(emis[0] * start, start_bias, out=alphas[0])
        for t in range(1, t_max):
            x, z = stacked[t], lse[t]
            np.add(terms[t - 1], bias, out=x)
            np.maximum.reduce(x, axis=0, out=m)
            np.subtract(x, m, out=e)
            np.exp(e, out=e)
            np.add.reduce(e, axis=0, out=z)
            np.log(z, out=z)
            np.add(m, z, out=z)
            np.add(z, emis[t], out=alphas[t])
        # each row ends in its last two states at its last frame
        last_t = frames - 1
        tail_states = 2 * counts[:, None] + np.array([-1, 0])
        last = alphas[last_t[:, None], row_idx[:, None], tail_states]
        m_tail = last.max(axis=1, keepdims=True)
        tail = m_tail + np.log(np.exp(last - m_tail).sum(axis=1, keepdims=True))
    ad.check_finite_rows(alphas.transpose(1, 0, 2), "ctc_lattice")
    ad.check_finite_rows(tail, "ctc_lattice tail")

    def bwd(g):
        g_tail = -(g * scale)[:, None] * np.exp(last - tail)
        weights = np.exp(stacked[1:] - lse[1:, None])  # frame t's at t - 1
        ends = {t: np.flatnonzero(last_t == t) for t in set(last_t.tolist())}
        g_alphas = np.empty((t_max, n_rows, n_states))
        g_alphas[-1] = 0.0
        # each state's weighted (stay, advance, skip) terms, zero past the
        # last state
        g_terms = np.zeros((3, n_rows, n_states + 2))
        g_own, g_stay = g_terms[:, :, :-2], g_terms[0, :, :-2]
        g_advance, g_skip = g_terms[1, :, 1:-1], g_terms[2, :, 2:]
        for t in range(t_max - 1, -1, -1):
            if t in ends:
                r = ends[t]
                g_alphas[t][r[:, None], tail_states[r]] += g_tail[r]
            if t == 0:
                break
            np.multiply(g_alphas[t], weights[t - 1], out=g_own)
            np.add(g_stay, g_skip, out=g_alphas[t - 1])
            np.add(g_alphas[t - 1], g_advance, out=g_alphas[t - 1])
        g_alphas[0] *= start
        # scatter into the label columns; each frame's state terms add up
        # in state order
        g_lp = np.bincount(cols.ravel(), weights=g_alphas.ravel(),
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
    l_ctc = ctc_lattice(ctc_head(params, hidden), forcing.ctc, lengths) \
        if lam_a > 0.0 and lam_c > 0.0 else 0.0
    l_dec = decoder_teacher_forced(params, hidden, forcing, lengths) \
        if lam_a > 0.0 and lam_c < 1.0 else 0.0
    l_dis = dis_loss(params, hidden, accents, lengths) if lam_a < 1.0 else 0.0
    return mtl_loss(weights, l_ctc, l_dec, l_dis)
