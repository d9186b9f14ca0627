"""Step-synchronous hybrid decoding with one loop for every CTC weight.

The decoder mixes, in the log domain, the incremental CTC prefix score
with the decoder's next-token log-prob at every step (beam width is
fixed at one). Each head is run only when its weight is nonzero: with
the CTC weight at zero the prefix scorer is never constructed, which is
the "drop the CTC head at inference" remedy made structural, and at one
the attention decoder never runs.

A padded batch of utterances is decoded in lockstep: one CTC head and
one decoder start for the batch, then at every step one decoder step and
one prefix-scoring pass over the rows that have not stopped. A row stops
at eos or after ``max_len`` words, and leaves the batch. One utterance is
the batch of one.

A step needs the exact CTC prefix score of only the candidates that can
still win its argmax. Each candidate's score is a log-sum over frames,
which lies between its largest term and that term plus the log of the
row's frame count (plus slack for rounding). ``CtcPrefixScorer.extend``
computes those bounds for every candidate, then folds the exact score
only where the combined upper bound reaches the row's best combined
lower bound; eos is always exact. On the trained benchmark fixture that
is about 1.1 of 40 words per row and step; on a model that has barely
learned, whose CTC head is flat, most words stay within reach and are
folded. The rest read -inf, so the hypotheses and per-step scores are
those of scoring every candidate.

Candidate indices run over words ``0..V-1`` plus ``V`` for eos.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .losses import MtlWeights
from .model import ModelParams, ctc_head, decoder_advance, decoder_start

NEGINF = -np.inf
# Rounding slack of one logaddexp step, relative to the running sum's size.
_SLACK = 8.0 * np.finfo(float).eps


def _mix(lam: float, ctc_inc, dec):
    """The combined score of a decode step, ``lam`` times the CTC increment
    plus ``1 - lam`` times the decoder's log-prob. Every operation rounds
    monotonically, so a bound on ``ctc_inc`` bounds the score computed."""
    return lam * ctc_inc + (1.0 - lam) * dec


def _fold_bounds(terms, n_frames):
    """Bounds ``(low, high)`` on ``np.logaddexp.reduce(terms, axis=0)``.

    ``terms`` is (T, B, V), and row b has ``n_frames[b]`` terms that may
    be finite; the others are -inf and fold in exactly. The fold is at
    least its largest term ``low``, since each ``logaddexp`` rounds to
    no less than its larger input. It is at most ``low + log n`` plus
    slack for rounding: each of the n steps errs by a few ulp of the
    running sum, whose size ``1 + log n + |low|`` bounds, and no step
    amplifies an earlier error. A column with no finite term folds to
    -inf, and so do both its bounds.
    """
    low = terms.max(axis=0)
    n = n_frames[:, None]
    log_n = np.log(n)
    size = np.abs(low)
    size[np.isinf(size)] = 0.0
    return low, low + log_n + _SLACK * n * (1.0 + log_n + size)


@dataclass
class PrefixState:
    """CTC bookkeeping of one hypothesis per row; the rows' prefixes have
    one length, as they do in lockstep decoding."""

    last: np.ndarray | None  # (B,) last token of each prefix; None while empty
    psi: np.ndarray  # (B,) log P(output begins with prefix)
    r_n: np.ndarray  # (B, T) log P(paths collapsing exactly to prefix, non-blank end)
    r_b: np.ndarray  # (B, T) same but blank-ending

    def take(self, rows) -> "PrefixState":
        """The state of the batch's ``rows`` (an index or a boolean mask)."""
        return PrefixState(None if self.last is None else self.last[rows],
                           self.psi[rows], self.r_n[rows], self.r_b[rows])


class CtcPrefixScorer:
    """Incremental two-state CTC prefix probabilities over a padded batch.

    ``logp`` is (B, T, V+1) with per-row frame counts ``lengths``; the
    padded frames are read as -inf, so they add nothing to any score. One
    (T, V+1) matrix is the batch of one: ``extend`` then returns its row
    and ``advance`` takes one token.

    The work is split between the two calls of a decode step. ``extend``
    scores the one-word extensions of every row at once but keeps no
    path states: each candidate's prefix score is one log-sum over frames
    of the probability of emitting it first at that frame. Given the
    step's decoder row it folds only the candidates that can still win
    the step, and the others read -inf. ``advance`` then runs the
    two-state recursion (non-blank and blank ending) for the one token
    each row kept, frame by frame over (B,) vectors. Every score it
    computes is bit-identical to running the recursion for that
    candidate on the row's own frames.

    ``evaluations`` counts, across all instances, one per row of each
    scoring pass, so a decode adds one per step it scored with CTC; tests
    use it to prove the decoder-only path never touches CTC scoring.
    """

    evaluations = 0

    def __init__(self, logp, lengths=None):
        x = logp.data if isinstance(logp, Tensor) else np.asarray(logp, dtype=float)
        self._one = x.ndim == 2
        if self._one:
            x = x[None]
        n_rows, n_frames, width = x.shape
        self.n_frames, pad = ad.padding_mask(lengths, n_rows, n_frames)
        self.x = np.where(pad[..., None], NEGINF, x)
        self.blank = width - 1
        self.n_words = width - 1

    def take(self, rows) -> "CtcPrefixScorer":
        """The scorer of the batch's ``rows`` (an index or a boolean mask)."""
        return CtcPrefixScorer(self.x[rows], self.n_frames[rows])

    def initial_state(self) -> PrefixState:
        r_b = np.cumsum(self.x[..., self.blank], axis=1)
        return PrefixState(last=None, psi=np.zeros(len(self.x)),
                           r_n=np.full(r_b.shape, NEGINF), r_b=r_b)

    def extend(self, state: PrefixState, lam: float = 1.0, dec=None):
        """Score the one-word extensions plus termination of every row.

        Returns ``(psi, eos_score, phi, first)``. ``psi[b, c]`` is the
        absolute log-probability that row b's output begins with its
        prefix followed by c, and ``eos_score[b]`` the log-probability
        that it equals the prefix exactly, read at the row's last frame.
        ``phi`` (B, T) is, per frame, the log-probability of the prefix
        paths that a first emission of a new token at the next frame may
        follow (a token that repeats the last one may follow only the
        blank-ending paths, ``state.r_b``), and ``first`` (B, V) the
        log-probability of emitting each candidate at frame 0.
        ``advance`` takes both.

        With no decoder row ``dec`` every candidate is scored exactly.
        Given ``dec`` (B, V+1) and the CTC weight ``lam``, a candidate is
        scored exactly only if it can still win the step's combined score
        ``_mix(lam, psi - state.psi, dec)``: its upper bound from
        ``_fold_bounds`` reaches the row's best lower bound, which counts
        eos exactly. The others read -inf, so they lose the argmax as
        they would have lost it scored; the winner, and every candidate
        tied with it, is scored exactly. A NaN bound compares false, so
        a row whose bounds are not finite (a prefix scored -inf makes
        ``psi - state.psi`` NaN) is scored in full.
        """
        n_rows = len(state.psi)
        type(self).evaluations += n_rows
        rows_idx = np.arange(n_rows)
        end = self.n_frames - 1
        eos_score = np.logaddexp(state.r_b[rows_idx, end], state.r_n[rows_idx, end])
        with np.errstate(invalid="ignore"):
            phi = np.logaddexp(state.r_b, state.r_n)
            # terms[t, b, c]: log P(prefix then c, first emitted at frame t).
            # psi folds them over the frames in order, left to right; they
            # are time-major, so that each frame's logaddexp runs over all
            # the (row, candidate) pairs folded at once.
            xw = self.x[..., :self.n_words].transpose(1, 0, 2)
            terms = np.empty(xw.shape)
            terms[0] = xw[0] if state.last is None else NEGINF
            np.add(phi.T[:-1, :, None], xw[1:], out=terms[1:])
            if state.last is not None:
                last = state.last
                terms[1:, rows_idx, last] = (state.r_b[:, :-1]
                                             + self.x[rows_idx, 1:, last]).T
            keep = np.ones((n_rows, self.n_words), bool)
            if dec is not None:
                low, high = _fold_bounds(terms, self.n_frames)
                words, prefix = dec[..., :self.n_words], state.psi[:, None]
                best = np.maximum(_mix(lam, low - prefix, words).max(axis=1),
                                  _mix(lam, eos_score - state.psi, dec[..., self.n_words]))
                keep = ~(_mix(lam, high - prefix, words) < best[:, None])
            kept = np.flatnonzero(keep)
            psi = np.full(keep.shape, NEGINF)
            psi.flat[kept] = np.logaddexp.reduce(
                np.take(terms.reshape(len(terms), -1), kept, axis=1), axis=0)
        if self._one:
            return psi[0], float(eos_score[0]), phi, terms[0]
        return psi, eos_score, phi, terms[0]

    def advance(self, state: PrefixState, tokens, psi, phi, first) -> PrefixState:
        """The state after appending ``tokens`` (B,), from ``extend``'s results.

        Runs, for every row at once, the recursion r_n[t] = x[t, token] +
        logaddexp(r_n[t-1], phi_token[t-1]), r_b[t] = x[t, blank] +
        logaddexp(r_b[t-1], r_n[t-1]) from r_n[0] = first[token],
        r_b[0] = -inf, where phi_token is ``state.r_b`` for a repeated
        token and ``phi`` otherwise.
        """
        if self._one:
            tokens, psi = np.array([tokens]), psi[None]
        tokens = np.asarray(tokens)
        n_rows, n_frames = phi.shape
        rows_idx = np.arange(n_rows)
        # q[t] stacks (phi_token, r_n, r_b) of frame t, and x2[t] the
        # (token, blank) log-probs, so that one logaddexp and one add per
        # frame advance both states of every row.
        q = np.empty((n_frames, 3, n_rows))
        repeat = tokens == state.last if state.last is not None else np.zeros(n_rows, bool)
        q[:, 0] = np.where(repeat[:, None], state.r_b, phi).T
        q[0, 1] = first[rows_idx, tokens]
        q[0, 2] = NEGINF
        x2 = np.stack([self.x[rows_idx, :, tokens], self.x[..., self.blank]], axis=1).T
        for t in range(1, n_frames):
            np.logaddexp(q[t - 1, 1:], q[t - 1, :2], out=q[t, 1:])
            q[t, 1:] += x2[t]
        return PrefixState(last=tokens, psi=psi[rows_idx, tokens],
                           r_n=q[:, 1].T, r_b=q[:, 2].T)


@dataclass
class DecodeResult:
    hypothesis: tuple[int, ...]
    per_step_scores: list[tuple[float, float, float]]  # (ctc, dec, combined)


def joint_greedy_decode(params: ModelParams, hidden: Tensor, weights: MtlWeights,
                        max_len: int, lengths=None) -> list[DecodeResult] | DecodeResult:
    """Beam-1 hybrid decoding mixing CTC prefix scores and decoder scores.

    ``hidden`` is a padded (B, T, d) batch of encoder states with per-row
    frame counts ``lengths``; returns one result per row. One (T, d)
    utterance is the batch of one and returns its one result.

    The CTC component of each step is the increment of the prefix score,
    so it is commensurable with the decoder's per-step log-prob; the
    argmax is unaffected by that choice. At ``lambda_i_C`` 0 the combined
    score is the decoder's row itself (argmax attention decoding) and at
    1 it is prefix-greedy CTC decoding; the unused head's component of
    ``per_step_scores`` reads 0.0.
    """
    if hidden.ndim == 2:
        return joint_greedy_decode(params, ad.constant(hidden.data[None]),
                                   weights, max_len)[0]
    lam = weights.lambda_i_C
    cfg = params.config
    hyps: list[list[int]] = [[] for _ in range(hidden.shape[0])]
    steps: list[list[tuple[float, float, float]]] = [[] for _ in hyps]
    live = np.arange(len(hyps))  # the rows still decoding
    with ad.no_grad():
        scorer = CtcPrefixScorer(ctc_head(params, hidden), lengths) if lam > 0.0 else None
        state = scorer.initial_state() if scorer else None
        dec_state = decoder_start(params, hidden, lengths) if lam < 1.0 else None
        tokens = np.full(len(live), cfg.sos)
        for _ in range(max_len):
            ctc_inc = dec_scores = np.zeros((len(live), cfg.vocab_size + 1))
            if dec_state is not None:
                dec_logp, dec_state = decoder_advance(params, hidden, dec_state, tokens)
                dec_scores = dec_logp.data
            if scorer is None:
                combined = dec_scores
            else:
                psi, eos_score, phi, first = scorer.extend(state, lam, dec_scores)
                ctc_inc = np.concatenate([psi, eos_score[:, None]], axis=1) - state.psi[:, None]
                with np.errstate(invalid="ignore"):
                    combined = _mix(lam, ctc_inc, dec_scores)
            c = np.argmax(combined, axis=1)
            picked = np.arange(len(live)), c
            for r, tok, scores in zip(live.tolist(), c.tolist(), zip(
                    ctc_inc[picked].tolist(), dec_scores[picked].tolist(),
                    combined[picked].tolist())):
                steps[r].append(scores)
                if tok != cfg.eos:
                    hyps[r].append(tok)
            going = c != cfg.eos
            if not going.all():
                live, c = live[going], c[going]
                if not live.size:
                    break
                hidden = ad.constant(hidden.data[going])
                if dec_state is not None:
                    dec_state = dec_state.take(going)
                if scorer is not None:
                    scorer, state = scorer.take(going), state.take(going)
                    psi, phi, first = psi[going], phi[going], first[going]
            if scorer is not None:
                state = scorer.advance(state, c, psi, phi, first)
            tokens = c
    return [DecodeResult(hypothesis=tuple(h), per_step_scores=s)
            for h, s in zip(hyps, steps)]
