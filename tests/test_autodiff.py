import math

import numpy as np
import pytest
import reference_ops as ro
from oracles import fd_gradient

from robustasr import autodiff as ad


def rel_err(a, b):
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    denom = np.maximum(1.0, np.maximum(np.abs(a), np.abs(b)))
    return float(np.max(np.abs(a - b) / denom)) if a.size else 0.0


def test_log_softmax_symmetry():
    out = ro.log_softmax(ad.constant([0.0, 0.0]), axis=0)
    assert np.allclose(out.data, [-math.log(2), -math.log(2)], atol=1e-15)


def test_logsumexp_single_element():
    for a in (-3.25, 0.0, 7.5):
        assert float(ro.logsumexp(ad.constant([a])).data) == pytest.approx(a, abs=1e-15)


def test_logsumexp_overflow_safe():
    out = ro.logsumexp(ad.constant([1000.0, 1000.0]))
    assert float(out.data) == pytest.approx(1000.0 + math.log(2), abs=1e-12)


def test_matmul_identity():
    rng = np.random.default_rng(0)
    m = rng.normal(size=(3, 3))
    out = ro.matmul(ad.constant(np.eye(3)), ad.constant(m))
    assert np.array_equal(out.data, np.eye(3) @ m)


def test_backward_square_sum():
    x = ad.leaf([1.0, 2.0])
    with ad.tape():
        loss = ad.sum_(ad.mul(x, x))
        ad.backward(loss)
    assert np.allclose(x.grad, [2.0, 4.0], atol=1e-15)


def test_backward_constant_noop():
    c = ad.constant(3.0)
    ad.backward(c)  # no leaves anywhere; must not raise


def test_backward_requires_scalar():
    x = ad.leaf([1.0, 2.0])
    with ad.tape():
        y = ad.mul(x, x)
        with pytest.raises(ad.ShapeError):
            ad.backward(y)


def test_backward_accumulates_without_zero_grad():
    x = ad.leaf([3.0])
    with ad.tape():
        loss = ad.sum_(ad.mul(x, x))
        ad.backward(loss)
        ad.backward(loss)
    assert np.allclose(x.grad, [12.0])
    ad.zero_grad([x])
    assert np.allclose(x.grad, [0.0])


def test_three_layer_tanh_network_matches_fd():
    rng = np.random.default_rng(7)
    ws = [ad.leaf(rng.normal(scale=0.5, size=(4, 4))) for _ in range(3)]
    x0 = rng.normal(size=(1, 4))

    def net(x):
        h = x
        for w in ws:
            h = ro.tanh(ro.matmul(h, w))
        return ad.sum_(h)

    x = ad.leaf(x0)
    with ad.tape():
        loss = net(x)
        ad.backward(loss)
    fd = fd_gradient(net, x, h=1e-5)
    assert rel_err(x.grad, fd.data) < 1e-6
    for w in ws:
        fd_w = fd_gradient(lambda v, w=w: _swap_eval(net, x, w, v), w, h=1e-5)
        assert rel_err(w.grad, fd_w.data) < 1e-6


def _swap_eval(net, x, param, values):
    saved = param.data
    param.data = values.data
    try:
        return net(x)
    finally:
        param.data = saved


def test_fd_gradient_of_sum_is_ones():
    x = ad.leaf(np.arange(6.0).reshape(2, 3))
    fd = fd_gradient(lambda t: ad.sum_(t), x)
    assert np.allclose(fd.data, np.ones((2, 3)), atol=1e-9)


def test_fd_gradient_of_square_at_three():
    x = ad.leaf([3.0])
    fd = fd_gradient(lambda t: ad.sum_(ad.mul(t, t)), x)
    assert fd.data[0] == pytest.approx(6.0, abs=1e-8)


def test_fd_matches_backward_on_log_softmax_nll():
    rng = np.random.default_rng(3)
    x = ad.leaf(rng.normal(size=(5,)))

    def nll(t):
        return ad.neg(ro.log_softmax(t, axis=0)[2])

    with ad.tape():
        loss = nll(x)
        ad.backward(loss)
    fd = fd_gradient(nll, x)
    assert rel_err(x.grad, fd.data) < 1e-6


OPS = {
    "add": lambda a, b: ad.add(a, b),
    "mul": lambda a, b: ad.mul(a, b),
    "matmul": lambda a, b: ro.matmul(a, b),
    "tanh": lambda a, b: ro.tanh(a),
    "relu": lambda a, b: ro.relu(a),
    "exp": lambda a, b: ro.exp(a),
    "neg": lambda a, b: ad.neg(a),
    "mean": lambda a, b: ro.mean(a, axis=0),
    "concat": lambda a, b: ro.concat([a, b], axis=0),
    "take": lambda a, b: a[1:3],
    "reshape": lambda a, b: ro.reshape(a, (2, 2)) if a.size == 4 else a,
    "log_softmax": lambda a, b: ro.log_softmax(a, axis=0),
    "logsumexp": lambda a, b: ro.logsumexp(a),
}


@pytest.mark.parametrize("name", sorted(OPS))
def test_gradient_check_per_op(name):
    rng = np.random.default_rng(hash(name) % (2**32))
    op = OPS[name]
    for trial in range(3):
        if name == "matmul":
            a = ad.leaf(rng.normal(size=(3, 4)))
            b = ad.leaf(rng.normal(size=(4, 2)))
        else:
            a = ad.leaf(rng.normal(size=(4,)))
            b = ad.leaf(rng.normal(size=(4,)))

        def scalar_fn_a(t):
            return ad.sum_(ad.mul(op(t, b), 1.0))

        def scalar_fn_b(t):
            return ad.sum_(ad.mul(op(a, t), 1.0))

        with ad.tape():
            loss = scalar_fn_a(a)
            ad.backward(loss)
        fd = fd_gradient(scalar_fn_a, a)
        assert rel_err(a.grad, fd.data) < 1e-6, f"{name}: d/da mismatch"

        if name in ("add", "mul", "matmul", "concat"):
            ad.zero_grad([a, b])
            with ad.tape():
                loss = scalar_fn_b(b)
                ad.backward(loss)
            fd = fd_gradient(scalar_fn_b, b)
            assert rel_err(b.grad, fd.data) < 1e-6, f"{name}: d/db mismatch"


def test_embedding_lookup_gradient_accumulates_duplicates():
    table = ad.leaf(np.arange(12.0).reshape(4, 3))
    with ad.tape():
        out = ro.embedding_lookup(table, [1, 1, 3])
        ad.backward(ad.sum_(out))
    expect = np.zeros((4, 3))
    expect[1] = 2.0
    expect[3] = 1.0
    assert np.array_equal(table.grad, expect)


def test_broadcast_bias_add_gradient():
    rng = np.random.default_rng(11)
    h = ad.leaf(rng.normal(size=(5, 3)))
    b = ad.leaf(rng.normal(size=(3,)))
    w = rng.normal(size=(5, 3))
    with ad.tape():
        loss = ad.sum_(ad.mul(ad.add(h, b), ad.constant(w)))
        ad.backward(loss)
    # bias grad is the column sum of the weighting matrix
    assert b.grad.shape == (3,)
    assert np.allclose(b.grad, w.sum(axis=0), atol=1e-12)
    assert np.allclose(h.grad, w, atol=1e-12)


def test_determinism_bit_identical():
    rng = np.random.default_rng(5)
    x0 = rng.normal(size=(6,))
    w0 = rng.normal(size=(6, 6))

    def run():
        x = ad.leaf(x0.copy())
        w = ad.constant(w0.copy())
        with ad.tape():
            loss = ro.logsumexp(ro.tanh(ro.matmul(x, w)))
            ad.backward(loss)
        return float(loss.data), x.grad.copy()

    l1, g1 = run()
    l2, g2 = run()
    assert l1 == l2
    assert np.array_equal(g1, g2)


def test_shape_mismatch_raises():
    with pytest.raises(ad.ShapeError):
        ro.matmul(ad.constant(np.ones((2, 3))), ad.constant(np.ones((2, 3))))
    with pytest.raises(ad.ShapeError):
        ad.add(ad.constant(np.ones((2, 3))), ad.constant(np.ones((4,))))


def test_non_finite_raises():
    with pytest.raises(ad.NonFiniteError):
        ro.exp(ad.constant([1e6]))
    with pytest.raises(ad.NonFiniteError):
        ad.add(ad.constant([np.inf]), 1.0)


def _rnn_inputs(rng, t=5, f=3, d=4):
    """A batch of one (1, t, f) sequence and the scan's weights."""
    return [ad.leaf(rng.normal(scale=0.6, size=s))
            for s in ((1, t, f), (f, d), (d, d), (d,))]


@pytest.mark.parametrize("reverse", [False, True])
def test_tanh_rnn_gradient_matches_fd_for_every_input(reverse):
    rng = np.random.default_rng(12 + reverse)
    inputs = _rnn_inputs(rng)
    weight = ad.constant(rng.normal(size=(1, 5, 4)))

    def loss_with(i, t):
        args = list(inputs)
        args[i] = t
        return ad.sum_(ad.mul(ad.tanh_rnn(*args, reverse=reverse), weight))

    with ad.tape():
        ad.backward(loss_with(0, inputs[0]))
    for i, x in enumerate(inputs):
        fd = fd_gradient(lambda t, i=i: loss_with(i, t), x)
        assert rel_err(x.grad, fd.data) < 1e-6, f"input {i}"


def test_tanh_rnn_rejects_empty_and_mismatched_shapes():
    rng = np.random.default_rng(15)
    seq, w_in, w_rec, b = _rnn_inputs(rng)
    with pytest.raises(ad.ShapeError):
        ad.tanh_rnn(np.zeros((1, 0, 3)), w_in, w_rec, b)
    with pytest.raises(ad.ShapeError):
        ad.tanh_rnn(np.zeros(3), w_in, w_rec, b)
    with pytest.raises(ad.ShapeError):
        ad.tanh_rnn(np.zeros((1, 5, 2)), w_in, w_rec, b)
    with pytest.raises(ad.ShapeError):
        ad.tanh_rnn(seq, w_in, np.zeros((4, 3)), b)
    with pytest.raises(ad.ShapeError):
        ad.tanh_rnn(seq, w_in, w_rec, np.zeros(3))


def test_tanh_rnn_non_finite_raises():
    rng = np.random.default_rng(16)
    seq, w_in, w_rec, b = _rnn_inputs(rng)
    w_big = w_rec.data.copy()
    w_big[0, 0] = np.inf
    with pytest.raises(ad.NonFiniteError):
        ad.tanh_rnn(seq, w_in, w_big, b)
    x_nan = seq.data.copy()
    x_nan[0, 2, 1] = np.nan
    with pytest.raises(ad.NonFiniteError):
        ad.tanh_rnn(x_nan, w_in, w_rec, b)
    with ad.no_grad(), pytest.raises(ad.NonFiniteError):
        ad.tanh_rnn(seq, w_in, w_rec, np.full(4, np.inf))


@pytest.mark.parametrize("op", ["add", "mul", "matmul"])
@pytest.mark.parametrize("shapes", [((2, 3), (3, 2)), ((3,), (3, 2)),
                                    ((2, 3), (3,)), ((3,), (3,))],
                         ids=["2x2", "1x2", "2x1", "1x1"])
def test_binary_op_skips_the_term_of_a_constant_operand(op, shapes):
    rng = np.random.default_rng(21)
    sa, sb = shapes
    if op != "matmul":
        sb = sa
    a_val, b_val = rng.normal(size=sa), rng.normal(size=sb)
    fn = getattr(ro if op == "matmul" else ad, op)
    with ad.tape() as tp:
        out = fn(ad.leaf(a_val), ad.leaf(b_val))
        g = rng.normal(size=out.shape)
        want = tp.records[0].backward_fn(g)
        fn(ad.constant(a_val), ad.leaf(b_val))
        fn(ad.leaf(a_val), ad.constant(b_val))
        left_const = tp.records[1].backward_fn(g)
        right_const = tp.records[2].backward_fn(g)
    assert left_const[0] is None and right_const[1] is None
    assert np.asarray(left_const[1]).tobytes() == np.asarray(want[1]).tobytes()
    assert np.asarray(right_const[0]).tobytes() == np.asarray(want[0]).tobytes()


@pytest.mark.parametrize("reverse", [False, True])
def test_tanh_rnn_batch_rows_match_single_scans(reverse):
    # Each row of a padded batch is its own scan: the same states (a
    # reverse scan starts at the row's last frame), zero past its length,
    # and the same input gradient, zero on padded frames.
    rng = np.random.default_rng(31)
    _, w_in, w_rec, b = (ad.constant(t.data) for t in _rnn_inputs(rng))
    lengths = [5, 2, 4]
    batch = np.zeros((3, 5, 3))
    rows = [rng.normal(size=(n, 3)) for n in lengths]
    for r, x in enumerate(rows):
        batch[r, :len(x)] = x
    weight = rng.normal(size=(3, 5, 4))
    seq = ad.leaf(batch)
    with ad.tape():
        out = ad.tanh_rnn(seq, w_in, w_rec, b, reverse=reverse, lengths=lengths)
        ad.backward(ad.sum_(ad.mul(out, weight)))
    for r, (x, n) in enumerate(zip(rows, lengths)):
        one = ad.leaf(x[None])
        with ad.tape():
            single = ad.tanh_rnn(one, w_in, w_rec, b, reverse=reverse)
            ad.backward(ad.sum_(ad.mul(single, weight[r:r + 1, :n])))
        assert rel_err(out.data[r, :n], single.data[0]) < 1e-12
        assert np.all(out.data[r, n:] == 0.0)
        assert rel_err(seq.grad[r, :n], one.grad[0]) < 1e-12
        assert np.all(seq.grad[r, n:] == 0.0)


def test_tanh_rnn_batch_refuses_bad_lengths_and_sums_row_gradients():
    rng = np.random.default_rng(32)
    _, w_in, w_rec, b = _rnn_inputs(rng)
    weights = (w_in, w_rec, b)
    batch = np.zeros((2, 5, 3))
    for lengths in ([5], [5, 0], [5, 6]):
        with pytest.raises(ad.ShapeError):
            ad.tanh_rnn(batch, *weights, lengths=lengths)
    # A padded batch's weight gradients are the sums of its rows' B=1
    # gradients, in either direction.
    lengths = [5, 3]
    batch[0] = rng.normal(size=(5, 3))
    batch[1, :3] = rng.normal(size=(3, 3))
    weight = rng.normal(size=(2, 5, 4))
    for reverse in (False, True):
        ad.zero_grad(weights)
        with ad.tape():
            out = ad.tanh_rnn(batch, *weights, reverse=reverse, lengths=lengths)
            ad.backward(ad.sum_(ad.mul(out, weight)))
        got = [t.grad.copy() for t in weights]
        ad.zero_grad(weights)
        for r, n in enumerate(lengths):
            with ad.tape():
                single = ad.tanh_rnn(batch[r:r + 1, :n], *weights, reverse=reverse)
                ad.backward(ad.sum_(ad.mul(single, weight[r:r + 1, :n])))
        for g, t in zip(got, weights):
            assert np.max(np.abs(g - t.grad)) <= 1e-12 * np.max(np.abs(t.grad))
