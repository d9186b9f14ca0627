"""Dense float64 tensors with reverse-mode automatic differentiation.

Values live in numpy arrays. Every operation whose inputs require
gradients is recorded, in execution order, on the innermost open tape;
``backward`` replays that tape in exact reverse order and accumulates
gradients into leaf tensors. The op set is only what the program runs:
``add``, ``mul``, ``neg``, ``sum_`` and ``take`` (broadcasting covers
scalar scaling), plus one fused tanh-RNN scan for the encoder.
Everything is double precision.

A fused op runs a whole loop in numpy and records one tape entry whose
backward is written by hand. ``tanh_rnn`` (the encoder scan) is one;
``record_op`` lets other modules define their own: the CTC head, the
teacher-forced attention decoder and the accent head in ``model``, and
the CTC lattice in ``losses``. Every fused op keeps one contract with
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
padding. Padded frames are never read, or hold a zero state, and get
exactly zero gradient. At B > 1 a (B, d) @ (d, d) product rounds
differently from B vector products, so each row agrees with its own
batch of one to about 1e-12 relative, and a parameter gradient is the
sum of the rows'. One utterance is the batch of one: ``model.encode``
and the task losses in ``losses`` lift it with ``x[None]`` and read the
result's row ``[0]``, two ``take`` records when they are recorded.

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


_stack: list[Tape] = [Tape()]
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


def record_op(op: str, inputs: Sequence[Tensor], out: Array,
              backward_fn: Callable[[Array], tuple]) -> Tensor:
    """Wrap ``out`` as the result of a fused op defined outside this module.

    ``backward_fn`` maps the output gradient to one gradient (or None) per
    entry of ``inputs``. Nothing is recorded under ``no_grad`` or when no
    input requires gradients. The caller checks finiteness itself, with
    ``check_finite``.
    """
    return _emit(op, inputs, out, backward_fn, check=False)


def _emit(op: str, inputs: Sequence[Tensor], out: Array,
          backward_fn: Callable[[Array], tuple], check: bool = True) -> Tensor:
    if check:
        check_finite(out, op)
    t = Tensor(out)
    t._from_op = True
    if _enabled and any(i.requires_grad for i in inputs):
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
    sa, sb = a.shape, b.shape
    ra, rb = a.requires_grad, b.requires_grad
    return _emit("add", (a, b), out,
                 lambda g: (_unbroadcast(g, sa) if ra else None,
                            _unbroadcast(g, sb) if rb else None))


def mul(a, b) -> Tensor:
    a, b = _promote(a), _promote(b)
    try:
        out = a.data * b.data
    except ValueError as e:
        raise ShapeError(f"mul: {a.shape} vs {b.shape}") from e
    da, db = a.data, b.data
    sa, sb = a.shape, b.shape
    ra, rb = a.requires_grad, b.requires_grad
    return _emit("mul", (a, b), out,
                 lambda g: (_unbroadcast(g * db, sa) if ra else None,
                            _unbroadcast(g * da, sb) if rb else None))


def neg(a) -> Tensor:
    a = _promote(a)
    return _emit("neg", (a,), -a.data, lambda g: (-g,), check=False)


def sum_(a, axis: int | None = None) -> Tensor:
    """Sum of all elements, or over one axis."""
    a = _promote(a)
    shape = a.shape
    if axis is None:
        return _emit("sum", (a,), np.asarray(a.data.sum()),
                     lambda g: (np.broadcast_to(g, shape),))
    return _emit("sum", (a,), a.data.sum(axis=axis),
                 lambda g: (np.broadcast_to(np.expand_dims(g, axis), shape),))


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

    return _emit("take", (a,), out, bwd, check=False)


def log_softmax_array(x: Array, axis: int = -1) -> Array:
    """Overflow-safe log-softmax of a plain array (no tape)."""
    s = x - x.max(axis=axis, keepdims=True)
    return s - np.log(np.exp(s).sum(axis=axis, keepdims=True))


def padding_mask(lengths, rows: int, frames: int) -> Array | None:
    """(rows, frames) mask of the frames past each row's length.

    ``lengths`` holds one frame count per row, each in 1..frames; None
    means every row is ``frames`` long. Returns None when no frame is
    padded.
    """
    if lengths is None:
        return None
    shortest = min(lengths, default=0)
    if len(lengths) != rows or shortest < 1 or max(lengths) > frames:
        raise ShapeError(f"lengths {list(lengths)} do not fit {rows} rows "
                         f"of {frames} frames")
    if shortest == frames:
        return None
    return np.arange(frames) >= np.asarray(lengths)[:, None]


def tanh_rnn(seq, w_in, w_rec, b, reverse: bool = False, lengths=None) -> Tensor:
    """Elman scan h_t = tanh(x_t W_in + h_prev W_rec + b) as one tape record.

    ``seq`` is a padded batch (B, T, F), T >= 1, with per-row frame counts
    ``lengths``; the output (B, T, d) holds at frame t the state after
    frame t. h_prev starts at zero before each row's first frame (its own
    last frame when ``reverse``), and padded frames keep a zero state. The
    backward pass is backpropagation through time. At B=1 the forward
    makes the numpy calls of the op-by-op scan (matmul, take, matmul, add,
    add, tanh per frame), so its values are bit-identical to it.
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
    dead = padding_mask(lengths, rows, n)
    wi, wr = w_in.data, w_rec.data
    order = range(n - 1, -1, -1) if reverse else range(n)
    # The scan runs time-major: frame t of every row is one (B, d) block.
    # The bias is added as a (1, d) row: numpy broadcasts it into a block
    # in place about twice as fast as a (d,) vector.
    bias = b.data[None]
    if dead is not None:
        dead = dead.T
    with np.errstate(invalid="ignore", over="ignore"):
        pre = x @ wi
        check_finite(pre, "tanh_rnn input projection")
        pre = pre.transpose(1, 0, 2)
        z = np.empty((n, rows, d))
        out = np.empty((n, rows, d))
        h = np.zeros((rows, d))
        for t in order:
            zt = z[t]
            np.add(pre[t], h @ wr, out=zt)
            zt += bias
            h = np.tanh(zt, out=out[t])
            if dead is not None:
                h[dead[t]] = 0.0
    check_finite(z, "tanh_rnn pre-activation")

    def bwd(g):
        # Frames in reverse of the forward order: dh = W_rec dz_next + g_t,
        # dz = dh (1 - h^2), which is zero on padded frames. The gradient
        # is copied time-major, contiguous.
        g = np.ascontiguousarray(g.transpose(1, 0, 2))
        deriv = 1.0 - out * out
        if dead is not None:
            deriv[dead] = 0.0
        wr_t = wr.T
        dpre = np.empty((n, rows, d))
        dz = None
        for t in reversed(order):
            dh = g[t] if dz is None else dz @ wr_t + g[t]
            dz = dpre[t] = dh * deriv[t]
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

    return _emit("tanh_rnn", (seq, w_in, w_rec, b), out.transpose(1, 0, 2),
                 bwd, check=False)


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
    tp = loss._tape
    if tp is None:
        return
    grads: dict[int, Array] = {id(loss): np.ones_like(loss.data)}
    tensors: dict[int, Tensor] = {id(loss): loss}
    for rec in reversed(tp.records):
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

