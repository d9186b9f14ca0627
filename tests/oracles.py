"""Independent oracles the program's kernels are tested against.

- ``ctc_brute_force`` enumerates every frame-label path for the CTC loss.
- ``ctc_prefix_score`` scores one prefix extension afresh with the
  program's ``CtcPrefixScorer``; the tests check it against brute-force
  path enumeration.
- ``argmax_attention_decode`` is the attention decoder's own argmax loop,
  the reference for hybrid decoding at ``lambda_i_C`` 0.
- ``fd_gradient`` is central finite differences, the oracle for every
  analytic gradient on the tape.
- ``assert_matches_reference`` checks a fused op's contract against its
  op-by-op reference tape: the same forward bytes, gradients within
  1e-12 relative.
- ``close_to`` is the relative comparison the batch contracts use.
"""

import itertools
import math
from typing import Callable, Sequence

import numpy as np

from robustasr import autodiff as ad
from robustasr.autodiff import Tensor
from robustasr.decode import CtcPrefixScorer, DecodeResult
from robustasr.losses import CtcInfeasibleError
from robustasr.model import decoder_advance, decoder_start


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
