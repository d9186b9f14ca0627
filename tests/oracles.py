"""Independent oracles the program's kernels are tested against.

- ``ctc_brute_force`` enumerates every frame-label path for the CTC loss.
- ``ctc_min_frames`` counts the fewest frames a CTC target aligns to, a
  per-label loop beside the program's ``model.ctc_framing``.
- ``ctc_prefix_score`` scores one prefix extension afresh with the
  program's ``CtcPrefixScorer``; the tests check it against brute-force
  path enumeration.
- ``argmax_attention_decode`` is the attention decoder's own argmax loop,
  the reference for hybrid decoding at ``lambda_i_C`` 0.
- ``full_scoring_decode`` is hybrid decoding at a nonzero ``lambda_i_C``
  that folds every CTC candidate exactly, the reference for the pruned
  scoring of ``joint_greedy_decode``.
- ``fd_gradient`` is central finite differences, the oracle for every
  analytic gradient on the tape.
- ``assert_matches_reference`` checks a fused op's contract against its
  op-by-op reference tape: the same forward bytes, gradients within
  1e-12 relative.
- ``close_to`` is the relative comparison the batch contracts use.
- ``count_calls`` logs the calls of a module's function, for the tests
  that pin how often a kernel runs.
"""

import itertools
import math
from typing import Callable, Sequence

import numpy as np

from robustasr import autodiff as ad
from robustasr.autodiff import Tensor
from robustasr.decode import CtcPrefixScorer, DecodeResult
from robustasr.losses import CtcInfeasibleError
from robustasr.model import ctc_head, decoder_advance, decoder_start


def ctc_min_frames(y: Sequence[int]) -> int:
    """Shortest frame count that can emit ``y`` (repeats need a blank between)."""
    return len(y) + sum(1 for i in range(1, len(y)) if y[i] == y[i - 1])


def ctc_brute_force(logp, y: Sequence[int]) -> float:
    """Enumerate every frame-label path and sum those collapsing to ``y``.

    Refuses instances above a million paths. Uses the same per-label
    normalization as ``ctc_loss``.
    """
    lp = logp.data if isinstance(logp, Tensor) else np.asarray(logp, dtype=float)
    t_frames, width = lp.shape
    if width ** t_frames > 10 ** 6:
        raise ValueError(f"{width}^{t_frames} paths is too large to enumerate")
    blank = width - 1
    target = tuple(y)
    prob = 0.0
    for path in itertools.product(range(width), repeat=t_frames):
        prev = None
        collapsed = []
        for lab in path:
            if lab != prev and lab != blank:
                collapsed.append(lab)
            prev = lab
        if tuple(collapsed) == target:
            prob += math.exp(sum(lp[t, lab] for t, lab in enumerate(path)))
    if prob <= 0.0:
        raise CtcInfeasibleError(f"no path collapses to {target}")
    return -math.log(prob) / max(1, len(target))


def ctc_prefix_score(logp, prefix: Sequence[int], candidate: int) -> float:
    """Absolute CTC prefix log-probability of one extension.

    For a word candidate this is log P(output begins with prefix+word);
    for the eos index (= V) it is log P(output equals the prefix). An
    unreachable prefix scores -inf.
    """
    scorer = CtcPrefixScorer(logp)
    state = scorer.initial_state()
    for tok in prefix:
        psi, _eos, phi, first = scorer.extend(state)
        state = scorer.advance(state, tok, psi, phi, first)
    psi, eos_score, _phi, _first = scorer.extend(state)
    if candidate == scorer.n_words:
        return eos_score
    return float(psi[candidate])


def argmax_attention_decode(params, hidden, max_len: int) -> DecodeResult:
    """Argmax decoding with the attention head; stops at eos or max_len."""
    cfg = params.config
    hyp: list[int] = []
    steps: list[tuple[float, float, float]] = []
    with ad.no_grad():
        state = decoder_start(params, hidden)
        token = cfg.sos
        for _ in range(max_len):
            logp, state = decoder_advance(params, hidden, state, token)
            c = int(np.argmax(logp.data))
            val = float(logp.data[c])
            steps.append((0.0, val, val))
            if c == cfg.eos:
                break
            hyp.append(c)
            token = c
    return DecodeResult(hypothesis=tuple(hyp), per_step_scores=steps)


def full_scoring_decode(params, hidden, weights, max_len: int,
                        lengths=None) -> list[DecodeResult]:
    """Hybrid decoding of a padded batch at a nonzero ``lambda_i_C`` whose
    every step scores all CTC candidates, through ``extend(state)``.

    The rows run in lockstep and leave the batch when they stop, as in
    ``joint_greedy_decode``, so the decoder sees the same batches and
    gives the same bytes.
    """
    lam = weights.lambda_i_C
    cfg = params.config
    hyps: list[list[int]] = [[] for _ in range(hidden.shape[0])]
    steps: list[list[tuple[float, float, float]]] = [[] for _ in hyps]
    live = list(range(len(hyps)))
    with ad.no_grad():
        scorer = CtcPrefixScorer(ctc_head(params, hidden), lengths)
        state = scorer.initial_state()
        dec_state = decoder_start(params, hidden, lengths) if lam < 1.0 else None
        tokens = np.full(len(live), cfg.sos)
        for _ in range(max_len):
            dec = np.zeros((len(live), cfg.vocab_size + 1))
            if dec_state is not None:
                logp, dec_state = decoder_advance(params, hidden, dec_state, tokens)
                dec = logp.data
            psi, eos, phi, first = scorer.extend(state)
            ctc = np.concatenate([psi, eos[:, None]], axis=1) - state.psi[:, None]
            with np.errstate(invalid="ignore"):
                combined = lam * ctc + (1.0 - lam) * dec
            c = np.argmax(combined, axis=1)
            for i, (r, tok) in enumerate(zip(live, c.tolist())):
                steps[r].append((float(ctc[i, tok]), float(dec[i, tok]),
                                 float(combined[i, tok])))
                if tok != cfg.eos:
                    hyps[r].append(tok)
            going = c != cfg.eos
            live = [r for r, g in zip(live, going.tolist()) if g]
            if not live:
                break
            hidden = ad.constant(hidden.data[going])
            if dec_state is not None:
                dec_state = dec_state.take(going)
            scorer, state = scorer.take(going), state.take(going)
            state = scorer.advance(state, c[going], psi[going], phi[going], first[going])
            tokens = c[going]
    return [DecodeResult(hypothesis=tuple(h), per_step_scores=s)
            for h, s in zip(hyps, steps)]


def fd_gradient(f: Callable[[Tensor], "Tensor | float"], x: Tensor,
                h: float = 1e-5) -> Tensor:
    """Central finite differences of a scalar function, one coordinate at a time.

    This is the independent oracle the analytic gradients are tested
    against; it never touches the tape.
    """

    def evaluate(values: np.ndarray) -> float:
        with ad.no_grad():
            v = f(Tensor(values))
        return float(v.data) if isinstance(v, Tensor) else float(v)

    g = np.zeros_like(x.data)
    flat = g.ravel()
    base = x.data
    for i in range(base.size):
        up = base.copy()
        down = base.copy()
        up.flat[i] += h
        down.flat[i] -= h
        flat[i] = (evaluate(up) - evaluate(down)) / (2.0 * h)
    return Tensor(g)


def close_to(a, b, tol: float = 1e-12) -> bool:
    """``a``'s largest difference from the reference ``b`` is within
    ``tol`` times ``b``'s largest magnitude."""
    a, b = np.asarray(a, float), np.asarray(b, float)
    return float(np.max(np.abs(a - b))) <= tol * float(np.max(np.abs(b)))


def assert_matches_reference(fused, reference, tol: float = 1e-12) -> None:
    """A fused run against its op-by-op reference, as ``(forward, grads)`` pairs.

    ``forward`` is an array whose bytes must be equal; ``grads`` maps
    names to gradient arrays, each within ``tol`` of the reference's in
    the max norm, relative to the reference's largest magnitude.
    """
    (out, grads), (ref_out, ref_grads) = fused, reference
    assert np.asarray(out).tobytes() == np.asarray(ref_out).tobytes()
    assert grads.keys() == ref_grads.keys()
    for name, g in grads.items():
        assert close_to(g, ref_grads[name], tol), name


def count_calls(monkeypatch, module, name: str) -> list:
    """Patch ``module.name`` to log one entry per call, for the rest of the
    test; return the log."""
    calls, fn = [], getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(1)
        return fn(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls
