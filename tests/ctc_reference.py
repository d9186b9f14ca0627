"""The CTC lattice recorded op by op, one tape record per numpy call.

This is the reference the fused ``robustasr.losses.ctc_loss`` is tested
against: loss values and every gradient must be bit-identical to it.
Feasibility and token checks are the fused loss's; this file only
replays the recursion.
"""

import numpy as np
import reference_ops as ro

from robustasr import autodiff as ad
from robustasr.losses import NEG


def reference_ctc_loss(logp, y):
    t_frames, width = logp.shape
    blank = width - 1
    y = list(y)
    if not y:
        return ad.neg(ad.sum_(logp[:, blank]))

    ext = [blank]
    for tok in y:
        ext.extend((tok, blank))
    n_states = len(ext)
    ext_idx = np.array(ext)
    skip_ok = np.zeros(n_states)
    for s in range(3, n_states, 2):
        if ext[s] != ext[s - 2]:
            skip_ok[s] = 1.0
    skip_mask = ad.constant(skip_ok.reshape(1, n_states))
    skip_bias = ad.constant(((1.0 - skip_ok) * NEG).reshape(1, n_states))

    start = np.zeros(n_states)
    start[:2] = 1.0
    start_mask = ad.constant(start.reshape(1, n_states))
    start_bias = ad.constant(((1.0 - start) * NEG).reshape(1, n_states))

    pad1 = ad.constant(np.full((1, 1), NEG))
    pad2 = ad.constant(np.full((1, 2), NEG))

    emis0 = logp[0:1, ext_idx]
    alpha = ad.add(ad.mul(emis0, start_mask), start_bias)
    for t in range(1, t_frames):
        shifted1 = ro.concat([pad1, alpha[:, : n_states - 1]], axis=1)
        shifted2 = ro.concat([pad2, alpha[:, : n_states - 2]], axis=1)
        shifted2 = ad.add(ad.mul(shifted2, skip_mask), skip_bias)
        stacked = ro.concat([alpha, shifted1, shifted2], axis=0)
        combined = ro.logsumexp(stacked, axis=0, keepdims=True)
        alpha = ad.add(combined, logp[t:t + 1, ext_idx])
    tail = ro.logsumexp(alpha[:, n_states - 2:])
    return ad.mul(ad.neg(tail), 1.0 / len(y))
