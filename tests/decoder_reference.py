"""The attention decoder recorded op by op, one tape record per numpy call.

This is the reference the fused decoder in ``robustasr.model`` is tested
against: ``decoder_advance`` must give bit-identical log-probs, and the
teacher-forced op bit-identical losses and gradients.
"""

import numpy as np
import reference_ops as ro

from robustasr import autodiff as ad
from robustasr.model import DecoderState


def reference_start(params, hidden):
    hproj = ad.add(ro.matmul(hidden, params["attn.w_h"]), params["attn.b"])
    return DecoderState(ad.constant(np.zeros(params.config.dec_hidden)), hproj, None)


def reference_advance(params, hidden, state, token):
    cfg = params.config
    emb = ro.reshape(ro.embedding_lookup(params["dec.emb"], [token]),
                     (cfg.emb_dim,))
    s = ro.tanh(ad.add(ad.add(ro.matmul(emb, params["dec.w_in"]),
                              ro.matmul(state.s, params["dec.w_rec"])),
                       params["dec.b"]))
    scores = ro.matmul(ro.tanh(ad.add(state.hproj,
                                      ro.matmul(s, params["attn.w_s"]))),
                       params["attn.v"])
    weights = ro.exp(ro.log_softmax(scores, axis=0))
    context = ro.matmul(weights, hidden)
    logits = ad.add(ro.matmul(ro.concat([s, context]), params["dec.w_out"]),
                    params["dec.b_out"])
    return ro.log_softmax(logits, axis=0), DecoderState(s, state.hproj, None)


def reference_dec_loss(params, hidden, y):
    cfg = params.config
    y = list(y)
    inputs = [cfg.sos] + y
    targets = y + [cfg.eos]
    state = reference_start(params, hidden)
    picked = []
    for tok_in, tgt in zip(inputs, targets):
        logp, state = reference_advance(params, hidden, state, tok_in)
        picked.append(ro.reshape(logp[tgt], (1,)))
    total = ad.sum_(ro.concat(picked))
    return ad.mul(ad.neg(total), 1.0 / len(targets))
