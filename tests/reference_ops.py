"""Generic autodiff ops that only the op-by-op reference tapes use.

The program runs fused ops (``autodiff.tanh_rnn``, the CTC head, the
decoder, the CTC lattice and the accent head). The op-by-op reference
tapes (``tests/*_reference.py``, ``ctc_head`` below) rebuild each of them
from these generic ops, one tape record per numpy call, and the fused
ops are checked against them byte for byte. Each op is built on
``autodiff.record_op``; the ones whose output can overflow (``matmul``,
``exp``, ``mean``, ``log_softmax``, ``logsumexp``) check it first with
``autodiff.check_finite``. The binary ``matmul`` returns None for the
term of an operand that requires no gradient, as ``autodiff.add`` and
``autodiff.mul`` do.
"""

from typing import Sequence

import numpy as np

from robustasr import autodiff as ad
from robustasr.autodiff import ShapeError, Tensor


def _promote(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _checked(op, inputs, out, backward_fn) -> Tensor:
    ad.check_finite(out, op)
    return ad.record_op(inputs, out, backward_fn)


def matmul(a, b) -> Tensor:
    """Matrix product for 1-D/2-D operands with numpy semantics."""
    a, b = _promote(a), _promote(b)
    if a.ndim not in (1, 2) or b.ndim not in (1, 2):
        raise ShapeError(f"matmul supports 1-D/2-D, got {a.shape} @ {b.shape}")
    try:
        with np.errstate(invalid="ignore", over="ignore"):
            out = a.data @ b.data
    except ValueError as e:
        raise ShapeError(f"matmul: {a.shape} @ {b.shape}") from e
    da, db = a.data, b.data
    na, nb = a.ndim, b.ndim
    ra, rb = a.requires_grad, b.requires_grad

    def bwd(g):
        if na == 2 and nb == 2:
            return (g @ db.T if ra else None), (da.T @ g if rb else None)
        if na == 1 and nb == 2:
            return (db @ g if ra else None), (np.outer(da, g) if rb else None)
        if na == 2 and nb == 1:
            return (np.outer(g, db) if ra else None), (da.T @ g if rb else None)
        return (g * db if ra else None), (g * da if rb else None)  # 1-D dot

    return _checked("matmul", (a, b), np.asarray(out), bwd)


def log_softmax(a, axis: int = -1) -> Tensor:
    a = _promote(a)
    out = ad.log_softmax_array(a.data, axis)
    p = np.exp(out)

    def bwd(g):
        return (g - p * g.sum(axis=axis, keepdims=True),)

    return _checked("log_softmax", (a,), out, bwd)


def ctc_head(params, hidden) -> Tensor:
    """The CTC head op by op: matmul, bias add, log-softmax over classes."""
    logits = ad.add(matmul(hidden, params["ctc.w"]), params["ctc.b"])
    return log_softmax(logits, axis=1)


def tanh(a) -> Tensor:
    a = _promote(a)
    out = np.tanh(a.data)
    return ad.record_op((a,), out, lambda g: (g * (1.0 - out * out),))


def relu(a) -> Tensor:
    a = _promote(a)
    mask = a.data > 0
    return ad.record_op((a,), np.where(mask, a.data, 0.0), lambda g: (g * mask,))


def exp(a) -> Tensor:
    a = _promote(a)
    with np.errstate(over="ignore"):
        out = np.exp(a.data)
    return _checked("exp", (a,), out, lambda g: (g * out,))


def mean(a, axis: int | None = None) -> Tensor:
    a = _promote(a)
    out = a.data.mean(axis=axis)
    shape = a.shape
    count = a.data.size if axis is None else shape[axis]

    def bwd(g):
        if axis is None:
            return (np.broadcast_to(g / count, shape),)
        return (np.broadcast_to(np.expand_dims(g, axis) / count, shape),)

    return _checked("mean", (a,), np.asarray(out), bwd)


def concat(tensors: Sequence, axis: int = 0) -> Tensor:
    ts = [_promote(t) for t in tensors]
    if not ts:
        raise ShapeError("concat of empty list")
    try:
        out = np.concatenate([t.data for t in ts], axis=axis)
    except ValueError as e:
        raise ShapeError(f"concat: {[t.shape for t in ts]}") from e
    sizes = [t.shape[axis] for t in ts]
    cuts = np.cumsum(sizes)[:-1]

    def bwd(g):
        return tuple(np.split(g, cuts, axis=axis))

    return ad.record_op(tuple(ts), out, bwd)


def reshape(a, shape) -> Tensor:
    a = _promote(a)
    old = a.shape
    try:
        out = a.data.reshape(shape)
    except ValueError as e:
        raise ShapeError(f"reshape {old} -> {shape}") from e
    return ad.record_op((a,), out, lambda g: (g.reshape(old),))


def embedding_lookup(table, ids) -> Tensor:
    """Rows of ``table`` selected by an int array; repeated ids accumulate grads."""
    table = _promote(table)
    idx = np.asarray(ids, dtype=np.intp)
    if table.ndim != 2:
        raise ShapeError(f"embedding table must be 2-D, got {table.shape}")
    if idx.size and (idx.min() < 0 or idx.max() >= table.shape[0]):
        raise ShapeError(f"embedding ids out of range for {table.shape[0]} rows")
    out = table.data[idx]
    shape = table.shape

    def bwd(g):
        z = np.zeros(shape)
        np.add.at(z, idx, g)
        return (z,)

    return ad.record_op((table,), out, bwd)


def logsumexp(a, axis: int | None = None, keepdims: bool = False) -> Tensor:
    """Overflow-safe log-sum-exp reduction."""
    a = _promote(a)
    da = a.data
    m = da.max(axis=axis, keepdims=True)
    out_k = m + np.log(np.exp(da - m).sum(axis=axis, keepdims=True))
    out = out_k if keepdims else np.squeeze(out_k, axis=axis) if axis is not None else out_k.reshape(())
    w = np.exp(da - out_k)  # softmax weights

    def bwd(g):
        gk = g if keepdims or axis is None else np.expand_dims(g, axis)
        return (gk * w,)

    return _checked("logsumexp", (a,), np.asarray(out), bwd)
