"""The accent head recorded op by op, one tape record per numpy call.

This is the reference the fused ``robustasr.model.discriminate`` is
tested against: its output and every gradient must be bit-identical.
"""

import reference_ops as ro

from robustasr import autodiff as ad


def reference_discriminate(params, hidden):
    h = ro.mean(hidden, axis=0)
    for i in range(params.config.disc_layers):
        h = ad.add(ro.matmul(h, params[f"dis{i}.w"]), params[f"dis{i}.b"])
        if i < params.config.disc_layers - 1:
            h = ro.relu(h)
    return ro.log_softmax(h, axis=0)
