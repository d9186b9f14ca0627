"""Step-synchronous hybrid decoding with one loop for every CTC weight.

The decoder mixes, in the log domain, the incremental CTC prefix score
with the decoder's next-token log-prob at every step (beam width is
fixed at one). Each head is run only when its weight is nonzero: with
the CTC weight at zero the prefix scorer is never constructed, which is
the "drop the CTC head at inference" remedy made structural, and at one
the attention decoder never runs.

Candidate indices run over words ``0..V-1`` plus ``V`` for eos.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .losses import MtlWeights
from .model import ModelParams, ctc_head, decoder_advance, decoder_start

NEGINF = -np.inf


@dataclass
class PrefixState:
    """Per-hypothesis CTC bookkeeping for one utterance."""

    prefix: tuple[int, ...]
    psi: float  # log P(output begins with prefix)
    r_n: np.ndarray  # (T,) log P(paths collapsing exactly to prefix, non-blank end)
    r_b: np.ndarray  # (T,) same but blank-ending


_LOG2 = math.log(2.0)


def _logaddexp(x: float, y: float) -> float:
    """``np.logaddexp`` on two Python floats, bit for bit.

    The branches are those of numpy's ``npy_logaddexp``: equal arguments
    (infinities of one sign included) give ``x + log 2``, a NaN difference
    is returned as is, and otherwise the larger argument takes
    ``log1p(exp(-|x - y|))``. It is about four times cheaper than the
    ufunc on scalars.
    """
    if x == y:
        return x + _LOG2
    tmp = x - y
    if tmp > 0:
        return x + math.log1p(math.exp(-tmp))
    if tmp <= 0:
        return y + math.log1p(math.exp(tmp))
    return tmp


class CtcPrefixScorer:
    """Incremental two-state CTC prefix probabilities over one log-prob matrix.

    The work is split between the two calls of a decode step. ``extend``
    scores every one-word extension at once but keeps no path states:
    each candidate's prefix score is one log-sum over frames of the
    probability of emitting it first at that frame. ``advance`` then runs
    the two-state recursion (non-blank and blank ending) for the one
    token the decoder kept, over Python floats. Scores are bit-identical
    to running the recursion for every candidate.

    ``evaluations`` counts scoring passes across all instances; tests use
    it to prove the decoder-only path never touches CTC scoring.
    """

    evaluations = 0

    def __init__(self, logp):
        self.x = logp.data if isinstance(logp, Tensor) else np.asarray(logp, dtype=float)
        self.n_frames, width = self.x.shape
        self.blank = width - 1
        self.n_words = width - 1
        self._xb = self.x[:, self.blank].tolist()

    def initial_state(self) -> PrefixState:
        r_b = np.cumsum(self.x[:, self.blank])
        r_n = np.full(self.n_frames, NEGINF)
        return PrefixState(prefix=(), psi=0.0, r_n=r_n, r_b=r_b)

    def extend(self, state: PrefixState):
        """Score every one-word extension plus termination.

        Returns ``(psi, eos_score, phi, first)``. ``psi[c]`` is the
        absolute log-probability that the output begins with
        ``state.prefix + (c,)`` and ``eos_score`` the log-probability
        that the output equals ``state.prefix`` exactly. ``phi`` (T, V)
        is, per frame and candidate, the log-probability of the prefix
        paths that a first emission of the candidate at the next frame
        may follow (only blank-ending paths when the candidate repeats
        the last token), and ``first`` (V,) the log-probability of
        emitting the candidate at frame 0. ``advance`` takes both.
        """
        type(self).evaluations += 1
        v = self.n_words
        xw = self.x[:, :v]
        with np.errstate(invalid="ignore"):
            r_sum = np.logaddexp(state.r_b, state.r_n)
            phi = np.repeat(r_sum[:, None], v, axis=1)
            if state.prefix:
                phi[:, state.prefix[-1]] = state.r_b
            # rows[t, c]: log P(prefix then c, first emitted at frame t);
            # the reduction folds the frames in order, left to right.
            rows = np.empty_like(xw)
            rows[0] = NEGINF if state.prefix else xw[0]
            np.add(phi[:-1], xw[1:], out=rows[1:])
            psi = np.logaddexp.reduce(rows, axis=0)
        eos_score = float(np.logaddexp(state.r_b[-1], state.r_n[-1]))
        return psi, eos_score, phi, rows[0]

    def advance(self, state: PrefixState, token: int, psi, phi,
                first) -> PrefixState:
        """The state after appending ``token``, from ``extend``'s results.

        Runs the recursion r_n[t] = x[t, token] + logaddexp(r_n[t-1],
        phi[t-1, token]), r_b[t] = x[t, blank] + logaddexp(r_b[t-1],
        r_n[t-1]) from r_n[0] = first[token], r_b[0] = -inf.
        """
        xw = self.x[:, token].tolist()
        xb = self._xb
        ph = phi[:, token].tolist()
        rn = float(first[token])
        rb = NEGINF
        r_n = [rn]
        r_b = [rb]
        for t in range(1, self.n_frames):
            rn, rb = (xw[t] + _logaddexp(rn, ph[t - 1]),
                      xb[t] + _logaddexp(rb, rn))
            r_n.append(rn)
            r_b.append(rb)
        return PrefixState(prefix=state.prefix + (token,),
                           psi=float(psi[token]),
                           r_n=np.array(r_n), r_b=np.array(r_b))


@dataclass
class DecodeResult:
    hypothesis: tuple[int, ...]
    per_step_scores: list[tuple[float, float, float]]  # (ctc, dec, combined)


def joint_greedy_decode(params: ModelParams, hidden: Tensor,
                        weights: MtlWeights, max_len: int) -> DecodeResult:
    """Beam-1 hybrid decoding mixing CTC prefix scores and decoder scores.

    The CTC component of each step is the increment of the prefix score,
    so it is commensurable with the decoder's per-step log-prob; the
    argmax is unaffected by that choice. At ``lambda_i_C`` 0 the combined
    score is the decoder's row itself (argmax attention decoding) and at
    1 it is prefix-greedy CTC decoding; the unused head's component of
    ``per_step_scores`` reads 0.0.
    """
    lam = weights.lambda_i_C
    cfg = params.config
    unused = np.zeros(cfg.vocab_size + 1)
    hyp: list[int] = []
    steps: list[tuple[float, float, float]] = []
    with ad.no_grad():
        scorer = CtcPrefixScorer(ctc_head(params, hidden)) if lam > 0.0 else None
        state = scorer.initial_state() if scorer else None
        dec_state = decoder_start(params, hidden) if lam < 1.0 else None
        token = cfg.sos
        for _ in range(max_len):
            ctc_inc = dec_scores = unused
            if dec_state is not None:
                dec_logp, dec_state = decoder_advance(params, hidden, dec_state, token)
                dec_scores = dec_logp.data
            if scorer is None:
                combined = dec_scores
            else:
                psi, eos_score, phi, first = scorer.extend(state)
                ctc_inc = np.append(psi, eos_score) - state.psi
                with np.errstate(invalid="ignore"):
                    combined = lam * ctc_inc + (1.0 - lam) * dec_scores
            c = int(np.argmax(combined))
            steps.append((float(ctc_inc[c]), float(dec_scores[c]),
                          float(combined[c])))
            if c == cfg.eos:
                break
            hyp.append(c)
            if scorer is not None:
                state = scorer.advance(state, c, psi, phi, first)
            token = c
    return DecodeResult(hypothesis=tuple(hyp), per_step_scores=steps)
