"""Dense float64 tensors with reverse-mode automatic differentiation.

Values live in numpy arrays. Every operation whose inputs require
gradients is recorded, in execution order, on the innermost open tape;
``backward`` replays that tape in exact reverse order and accumulates
gradients into leaf tensors. The op set is only what the program runs:
``add``, ``mul``, ``neg``, ``matmul``, ``sum_``, ``take`` and
``log_softmax`` (broadcasting covers bias-add and scalar scaling), plus
one fused tanh-RNN scan for the encoder. Everything is double precision.

A fused op runs a whole loop in numpy and records one tape entry whose
backward is written by hand. ``tanh_rnn`` (the encoder scan) is one;
``record_op`` lets other modules define their own: the teacher-forced
attention decoder and the accent head in ``model``, and the CTC lattice
in ``losses``. An input may appear in a record more than once:
``backward`` adds the gradients the record returns for it in list order,
so a fused op can reproduce the summation order of the op-by-op tape it
replaces. The fused backwards and those of the binary ops (``add``,
``mul``, ``matmul``) return None instead of computing the term of an
input that requires no gradient, such as a model parameter held constant
during an attack.

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

    def item(self) -> float:
        if self.data.size != 1:
            raise ShapeError(f"item() on tensor of shape {self.shape}")
        return float(self.data.reshape(()))

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

    return _emit("matmul", (a, b), np.asarray(out), bwd)


def sum_(a) -> Tensor:
    """Sum of all elements."""
    a = _promote(a)
    shape = a.shape
    return _emit("sum", (a,), np.asarray(a.data.sum()),
                 lambda g: (np.broadcast_to(g, shape),))


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


def log_softmax(a, axis: int = -1) -> Tensor:
    a = _promote(a)
    out = log_softmax_array(a.data, axis)
    p = np.exp(out)

    def bwd(g):
        return (g - p * g.sum(axis=axis, keepdims=True),)

    return _emit("log_softmax", (a,), out, bwd)


def tanh_rnn(seq, w_in, w_rec, b, reverse: bool = False) -> Tensor:
    """Elman scan h_t = tanh(x_t W_in + h_prev W_rec + b) as one tape record.

    ``seq`` is (T, F) with T >= 1; the output is (T, d) with row t the
    state after frame t. h_prev starts at zero before the first frame
    (frame 0, or frame T-1 when ``reverse``). The backward pass is
    backpropagation through time. Forward and backward make the numpy
    calls an op-by-op scan (matmul, take, matmul, add, add, tanh per
    frame) would make, in the order its tape would make them, so results
    are bit-identical to recording that scan.
    """
    seq, w_in, w_rec, b = (_promote(v) for v in (seq, w_in, w_rec, b))
    if seq.ndim != 2 or seq.shape[0] == 0:
        raise ShapeError(f"tanh_rnn expects a nonempty (T, F) sequence, got {seq.shape}")
    if w_in.ndim != 2 or w_in.shape[0] != seq.shape[1]:
        raise ShapeError(f"tanh_rnn: w_in {w_in.shape} does not fit input {seq.shape}")
    d = w_in.shape[1]
    if w_rec.shape != (d, d) or b.shape != (d,):
        raise ShapeError(f"tanh_rnn: w_rec {w_rec.shape} and b {b.shape} "
                         f"must be ({d}, {d}) and ({d},)")
    x, wi, wr, bias = seq.data, w_in.data, w_rec.data, b.data
    n = x.shape[0]
    order = range(n - 1, -1, -1) if reverse else range(n)
    with np.errstate(invalid="ignore", over="ignore"):
        pre = x @ wi
        check_finite(pre, "tanh_rnn input projection")
        z = np.empty((n, d))
        out = np.empty((n, d))
        h = np.zeros(d)
        for t in order:
            zt = z[t]
            np.add(pre[t], h @ wr, out=zt)
            zt += bias
            h = np.tanh(zt, out=out[t])
    check_finite(z, "tanh_rnn pre-activation")

    def bwd(g):
        # Frames in reverse of the forward order: dh = W_rec dz_next + g_t,
        # dz = dh (1 - h^2).
        deriv = 1.0 - out * out
        dpre = np.empty((n, d))
        dz = None
        for t in reversed(order):
            dh = g[t] if dz is None else wr @ dz + g[t]
            dz = dpre[t] = dh * deriv[t]
        # Terms for inputs that take no gradient (a constant input, or
        # constant weights under attack) are skipped.
        dwr = db = None
        if w_rec.requires_grad or b.requires_grad:
            # The state each frame read: zero for the first, else the one
            # before.
            h_prev = np.zeros((n, d))
            if reverse:
                h_prev[:-1] = out[1:]
            else:
                h_prev[1:] = out[:-1]
            outer = h_prev[:, :, None] * dpre[:, None, :]
            # Per-frame W_rec and b terms are summed one frame at a time,
            # last frame first, as the op-by-op tape adds them.
            back = reversed(order)
            first = next(back)
            dwr, db = outer[first].copy(), dpre[first].copy()
            for t in back:
                dwr += outer[t]
                db += dpre[t]
        return (dpre @ wi.T if seq.requires_grad else None,
                x.T @ dpre if w_in.requires_grad else None, dwr, db)

    return _emit("tanh_rnn", (seq, w_in, w_rec, b), out, bwd, check=False)


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


def fd_gradient(f: Callable[[Tensor], "Tensor | float"], x: Tensor,
                h: float = 1e-5) -> Tensor:
    """Central finite differences of a scalar function, one coordinate at a time.

    This is the independent oracle the analytic gradients are tested
    against; it never touches the tape.
    """

    def evaluate(values: Array) -> float:
        with no_grad():
            v = f(Tensor(values))
        return v.item() if isinstance(v, Tensor) else float(v)

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
