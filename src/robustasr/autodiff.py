"""Dense float64 tensors with reverse-mode automatic differentiation.

Values live in numpy arrays. Every operation whose inputs require
gradients is recorded, in execution order, on the innermost open tape
(with no tape open, as under ``no_grad``, nothing is recorded);
``backward`` replays that tape in exact reverse order and accumulates
gradients into leaf tensors. The op set is only what the program runs:
``add``, ``mul``, ``neg``, ``sum_`` (of all elements) and ``take``
(broadcasting covers scalar scaling), plus one fused tanh-RNN scan for
the encoder. Everything is double precision. ``record_op`` is the one
recording path: every op, here and elsewhere, records through it.

A fused op runs a whole loop in numpy and records one tape entry whose
backward is written by hand. ``tanh_rnn`` (the encoder scan) is one;
the others are defined through ``record_op`` in other modules: the CTC
head, the teacher-forced decoder loss and the accent head in ``model``,
and the CTC lattice in ``losses``. Every fused op keeps one contract with
the same computation recorded op by op (the references in
``tests/*_reference.py``): forward values are bit-identical to it;
gradients agree with it to 1e-12 relative in the max norm, because a
backward adds the same terms in its own order (a parameter's terms of
all frames or steps as one product); and a rerun is bit-identical. The
fused backwards and those of the binary
ops (``add``, ``mul``) return None instead of computing the term of an
input that requires no gradient, such as a model parameter held
constant during an attack.

Batch contract. ``tanh_rnn`` and the fused ops of ``model`` and
``losses`` that read frames (the teacher-forced decoder, the accent head
and the CTC lattice) take padded batches only: (B, T, ...) arrays whose
row r holds ``lengths[r]`` real frames (default: all T) followed by
padding. Each kernel reads its lengths only through ``padding_mask``,
which checks them and returns the rows' frame counts and the padded-frame
mask, all False when no frame is padded; a kernel has one masked path,
padded or not. Padded frames never feed a real frame's value, ``tanh_rnn``
returns them as zero, and they get exactly zero gradient. At B > 1 a
(B, d) @ (d, d) product rounds differently from B vector products, so
each row agrees with its own batch of one to about 1e-12 relative, and a
parameter gradient is the sum of the rows'. One utterance is the batch
of one: ``model.encode`` and the task losses in ``losses`` lift it with
``x[None]`` and read the result's row ``[0]``, two ``take`` records when
they are recorded.

Decoding, which records nothing, keeps the same contract:
``decode.joint_greedy_decode``, ``decode.CtcPrefixScorer`` and
``model.decoder_start``/``decoder_advance`` take a padded batch with
per-row lengths and step its rows in lockstep, dropping a row once it
stops. Attention gives padded frames zero weight, and the prefix scorer
reads them as -inf. The prefix lattice has no cross-row products, so on
the same log-probs each prefix score the scorer computes is bit-identical
to scoring the row's own frames alone; every other score agrees with the
row's batch of one to about 1e-12 relative. At each step the scorer
folds exactly only the candidates whose score bounds say they can still
win, and the others read -inf, so hypotheses and per-step scores are
byte-identical to scoring every candidate. One utterance is the batch of
one here too.

The tape stack and the recording flag are plain module state, one per
process; parallel work runs in separate processes, never in threads that
share a tape.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Callable, Sequence

import numpy as np

Array = np.ndarray


class AutodiffError(Exception):
    pass


class ShapeError(AutodiffError):
    pass


class NonFiniteError(AutodiffError):
    pass


# ---------------------------------------------------------------------------
# tensors and tape


class Tensor:
    """A float64 array plus gradient bookkeeping.

    Leaves are built with ``requires_grad=True`` and carry a same-shape
    ``grad`` accumulator; op outputs propagate the flag but manage their
    gradients transiently during ``backward``.
    """

    __slots__ = ("data", "requires_grad", "grad", "_from_op", "_tape")

    def __init__(self, values, requires_grad: bool = False):
        self.data = np.asarray(values, dtype=np.float64)
        self.requires_grad = requires_grad
        self.grad = np.zeros_like(self.data) if requires_grad else None
        self._from_op = False
        self._tape = None

    @property
    def shape(self) -> tuple:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def __repr__(self) -> str:
        flag = ", grad" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}{flag})"

    # operator sugar; floats/arrays are promoted to constant tensors
    def __add__(self, other):
        return add(self, other)

    def __radd__(self, other):
        return add(other, self)

    def __mul__(self, other):
        return mul(self, other)

    def __rmul__(self, other):
        return mul(other, self)

    def __getitem__(self, key):
        return take(self, key)


class _Record:
    __slots__ = ("inputs", "output", "backward_fn")

    def __init__(self, inputs, output, backward_fn):
        self.inputs = inputs
        self.output = output
        self.backward_fn = backward_fn


class Tape:
    """Ordered operation log; every record's inputs precede it."""

    def __init__(self):
        self.records: list[_Record] = []

    def __len__(self) -> int:
        return len(self.records)

    def clear(self) -> None:
        self.records.clear()


_stack: list[Tape] = []
_enabled = True


@contextmanager
def tape():
    """Push a fresh tape for one forward/backward pass."""
    t = Tape()
    _stack.append(t)
    try:
        yield t
    finally:
        _stack.pop()
        t.clear()


@contextmanager
def no_grad():
    """Disable recording (inference paths)."""
    global _enabled
    prev = _enabled
    _enabled = False
    try:
        yield
    finally:
        _enabled = prev


def constant(values) -> Tensor:
    return Tensor(values)


def leaf(values) -> Tensor:
    return Tensor(values, requires_grad=True)


def _promote(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def check_finite(out: Array, op: str) -> None:
    if not np.isfinite(out).all():
        raise NonFiniteError(f"non-finite values produced by '{op}'")


def check_finite_rows(out: Array, op: str) -> None:
    """``check_finite`` of a batch whose first axis holds its rows; the
    error names the first non-finite row."""
    if not np.isfinite(out).all():
        ok = np.isfinite(out).reshape(len(out), -1).all(axis=1)
        raise NonFiniteError(f"non-finite values produced by '{op}' "
                             f"in row {int(np.argmin(ok))}")


def record_op(inputs: Sequence[Tensor], out: Array,
              backward_fn: Callable[[Array], tuple]) -> Tensor:
    """Wrap ``out`` as the result of an op on ``inputs``: the one recording path.

    ``backward_fn`` maps the output gradient to one gradient (or None) per
    entry of ``inputs``. Nothing is recorded with no tape open, under
    ``no_grad``, or when no input requires gradients. The caller checks
    finiteness itself, with ``check_finite``.
    """
    t = Tensor(out)
    t._from_op = True
    if _enabled and _stack and any(i.requires_grad for i in inputs):
        t.requires_grad = True
        tp = _stack[-1]
        t._tape = tp
        tp.records.append(_Record(tuple(inputs), t, backward_fn))
    return t


def _unbroadcast(g: Array, shape: tuple) -> Array:
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g


# ---------------------------------------------------------------------------
# forward ops


def add(a, b) -> Tensor:
    a, b = _promote(a), _promote(b)
    try:
        out = a.data + b.data
    except ValueError as e:
        raise ShapeError(f"add: {a.shape} vs {b.shape}") from e
    check_finite(out, "add")
    sa, sb = a.shape, b.shape
    ra, rb = a.requires_grad, b.requires_grad
    return record_op((a, b), out, lambda g: (_unbroadcast(g, sa) if ra else None,
                                             _unbroadcast(g, sb) if rb else None))


def mul(a, b) -> Tensor:
    a, b = _promote(a), _promote(b)
    try:
        out = a.data * b.data
    except ValueError as e:
        raise ShapeError(f"mul: {a.shape} vs {b.shape}") from e
    check_finite(out, "mul")
    da, db = a.data, b.data
    sa, sb = a.shape, b.shape
    ra, rb = a.requires_grad, b.requires_grad
    return record_op((a, b), out, lambda g: (_unbroadcast(g * db, sa) if ra else None,
                                             _unbroadcast(g * da, sb) if rb else None))


def neg(a) -> Tensor:
    a = _promote(a)
    return record_op((a,), -a.data, lambda g: (-g,))


def sum_(a) -> Tensor:
    """Sum of all elements."""
    a = _promote(a)
    shape = a.shape
    return record_op((a,), np.asarray(a.data.sum()), lambda g: (np.broadcast_to(g, shape),))


def take(a, key) -> Tensor:
    """Basic or integer-array indexing; gradient scatters back (duplicates add)."""
    a = _promote(a)
    try:
        out = np.asarray(a.data[key])
    except IndexError as e:
        raise ShapeError(f"take: bad index for shape {a.shape}") from e
    shape = a.shape

    def bwd(g):
        z = np.zeros(shape)
        np.add.at(z, key, g)
        return (z,)

    return record_op((a,), out, bwd)


def log_softmax_array(x: Array, axis: int = -1) -> Array:
    """Overflow-safe log-softmax of a plain array (no tape)."""
    s = x - x.max(axis=axis, keepdims=True)
    return s - np.log(np.exp(s).sum(axis=axis, keepdims=True))


def padding_mask(lengths, rows: int, frames: int) -> tuple[Array, Array]:
    """Per-row frame counts (rows,) and the (rows, frames) mask of the
    frames past them.

    ``lengths`` holds one frame count per row, each in 1..frames; None
    means every row is ``frames`` long, and the mask is then all False.
    This is the one place a batch's lengths are read: every kernel that
    takes them masks through its result, padded or not.
    """
    counts = np.full(rows, frames) if lengths is None else np.asarray(lengths)
    if counts.shape != (rows,) or (counts < 1).any() or (counts > frames).any():
        raise ShapeError(f"lengths {counts.tolist()} do not fit {rows} rows "
                         f"of {frames} frames")
    return counts, np.arange(frames) >= counts[:, None]


def tanh_rnn(seq, w_in, w_rec, b, reverse: bool = False, lengths=None) -> Tensor:
    """Elman scan h_t = tanh(x_t W_in + h_prev W_rec + b) as one tape record.

    ``seq`` is a padded batch (B, T, F), T >= 1, with per-row frame counts
    ``lengths``; the output (B, T, d) holds at frame t the state after
    frame t. h_prev starts at zero before each row's first frame (its own
    last frame when ``reverse``), padded frames never feed a real frame's
    state, and their output is exactly zero. The backward pass is
    backpropagation through time. At B=1 the forward makes the numpy calls
    of the op-by-op scan (matmul, take, matmul, add, add, tanh per frame),
    so its values are bit-identical to it.
    """
    seq, w_in, w_rec, b = (_promote(v) for v in (seq, w_in, w_rec, b))
    if seq.ndim != 3 or 0 in seq.shape[:-1]:
        raise ShapeError(f"tanh_rnn expects a nonempty (B, T, F) batch, got {seq.shape}")
    if w_in.ndim != 2 or w_in.shape[0] != seq.shape[-1]:
        raise ShapeError(f"tanh_rnn: w_in {w_in.shape} does not fit input {seq.shape}")
    d = w_in.shape[1]
    if w_rec.shape != (d, d) or b.shape != (d,):
        raise ShapeError(f"tanh_rnn: w_rec {w_rec.shape} and b {b.shape} "
                         f"must be ({d}, {d}) and ({d},)")
    x = seq.data
    rows, n = x.shape[:2]
    counts, dead = padding_mask(lengths, rows, n)
    dead = dead.T
    wi, wr = w_in.data, w_rec.data
    order = range(n - 1, -1, -1) if reverse else range(n)
    # The scan runs time-major: frame t of every row is one (B, d) block,
    # built in place in z[t]: the recurrent product, then the input
    # projection, then the bias. The bias is broadcast to a (B, d) block
    # once, so no frame's add broadcasts.
    bias = np.broadcast_to(b.data, (rows, d)).copy()
    # A forward scan reaches a row's padding only after its real frames,
    # so the padded states are left to run and zeroed once at the end. A
    # reverse scan meets the padding first: the rows whose last real frame
    # is t restart from a zero state there.
    restart = {int(t) - 1: np.flatnonzero(counts == t)
               for t in np.unique(counts[counts < n])} if reverse else {}
    with np.errstate(invalid="ignore", over="ignore"):
        pre = x @ wi
        check_finite(pre, "tanh_rnn input projection")
        pre = pre.transpose(1, 0, 2)
        z = np.empty((n, rows, d))
        out = np.empty((n, rows, d))
        h = np.zeros((rows, d))
        for t in order:
            if t in restart:
                h[restart[t]] = 0.0
            zt = np.dot(h, wr, out=z[t])
            zt += pre[t]
            zt += bias
            h = np.tanh(zt, out=out[t])
        out[dead] = 0.0
    check_finite(z, "tanh_rnn pre-activation")

    def bwd(g):
        # Frames in reverse of the forward order: dh = W_rec dz_next + g_t,
        # dz = dh (1 - h^2), which is zero on padded frames. The gradient
        # is copied time-major, contiguous.
        g = np.ascontiguousarray(g.transpose(1, 0, 2))
        deriv = 1.0 - out * out
        deriv[dead] = 0.0
        wr_t = wr.T
        dpre = np.empty((n, rows, d))
        buf = np.empty((rows, d))
        dz = None
        for t in reversed(order):
            dh = g[t]
            if dz is not None:
                dh = np.dot(dz, wr_t, out=buf)
                dh += g[t]
            dz = np.multiply(dh, deriv[t], out=dpre[t])
        # Each gradient is one product over all frames and rows; terms for
        # inputs that take no gradient (a constant input, or constant
        # weights under attack) are skipped.
        flat = dpre.reshape(n * rows, d)
        g_seq = dwi = dwr = db = None
        if seq.requires_grad:
            g_seq = (flat @ wi.T).reshape(n, rows, -1).transpose(1, 0, 2)
        if w_in.requires_grad:
            dwi = x.transpose(1, 0, 2).reshape(n * rows, -1).T @ flat
        if w_rec.requires_grad:
            # The state each frame read: zero for the first, else the one
            # before.
            h_prev = np.zeros_like(out)
            if reverse:
                h_prev[:-1] = out[1:]
            else:
                h_prev[1:] = out[:-1]
            dwr = h_prev.reshape(n * rows, d).T @ flat
        if b.requires_grad:
            db = flat.sum(axis=0)
        return (g_seq, dwi, dwr, db)

    return record_op((seq, w_in, w_rec, b), out.transpose(1, 0, 2), bwd)


# ---------------------------------------------------------------------------
# reverse pass


def backward(loss: Tensor) -> None:
    """Accumulate d(loss)/d(leaf) into every requires-grad leaf.

    Repeated calls without ``zero_grad`` keep accumulating. A constant
    loss (no gradient history) is a no-op.
    """
    if not isinstance(loss, Tensor):
        raise AutodiffError("backward expects a Tensor")
    if loss.size != 1:
        raise ShapeError(f"backward needs a scalar loss, got shape {loss.shape}")
    if not loss.requires_grad:
        return
    if not loss._from_op:
        loss.grad = loss.grad + np.ones_like(loss.data)
        return
    grads: dict[int, Array] = {id(loss): np.ones_like(loss.data)}
    tensors: dict[int, Tensor] = {id(loss): loss}
    for rec in reversed(loss._tape.records):  # record_op set it with requires_grad
        gout = grads.pop(id(rec.output), None)
        if gout is None:
            continue
        tensors.pop(id(rec.output), None)
        gins = rec.backward_fn(gout)
        for t, g in zip(rec.inputs, gins):
            if not t.requires_grad or g is None:
                continue
            k = id(t)
            if k in grads:
                grads[k] = grads[k] + g
            else:
                grads[k] = g
                tensors[k] = t
    for k, g in grads.items():
        t = tensors[k]
        if t._from_op:  # produced on some other tape; gradient stops here
            continue
        if t.grad is None:
            t.grad = np.zeros_like(t.data)
        t.grad = t.grad + np.asarray(g, dtype=np.float64).reshape(t.shape)


def zero_grad(params) -> None:
    for t in params:
        if t.grad is None:
            t.grad = np.zeros_like(t.data)
        else:
            t.grad[...] = 0.0

