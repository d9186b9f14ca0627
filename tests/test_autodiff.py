import math

import numpy as np
import pytest

from robustasr import autodiff as ad


def rel_err(a, b):
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    denom = np.maximum(1.0, np.maximum(np.abs(a), np.abs(b)))
    return float(np.max(np.abs(a - b) / denom)) if a.size else 0.0


def test_log_softmax_symmetry():
    out = ad.log_softmax(ad.constant([0.0, 0.0]), axis=0)
    assert np.allclose(out.data, [-math.log(2), -math.log(2)], atol=1e-15)


def test_logsumexp_single_element():
    for a in (-3.25, 0.0, 7.5):
        assert ad.logsumexp(ad.constant([a])).item() == pytest.approx(a, abs=1e-15)


def test_logsumexp_overflow_safe():
    out = ad.logsumexp(ad.constant([1000.0, 1000.0]))
    assert out.item() == pytest.approx(1000.0 + math.log(2), abs=1e-12)


def test_matmul_identity():
    rng = np.random.default_rng(0)
    m = rng.normal(size=(3, 3))
    out = ad.matmul(ad.constant(np.eye(3)), ad.constant(m))
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
            h = ad.tanh(ad.matmul(h, w))
        return ad.sum_(h)

    x = ad.leaf(x0)
    with ad.tape():
        loss = net(x)
        ad.backward(loss)
    fd = ad.fd_gradient(net, x, h=1e-5)
    assert rel_err(x.grad, fd.data) < 1e-6
    for w in ws:
        fd_w = ad.fd_gradient(lambda v, w=w: _swap_eval(net, x, w, v), w, h=1e-5)
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
    fd = ad.fd_gradient(lambda t: ad.sum_(t), x)
    assert np.allclose(fd.data, np.ones((2, 3)), atol=1e-9)


def test_fd_gradient_of_square_at_three():
    x = ad.leaf([3.0])
    fd = ad.fd_gradient(lambda t: ad.sum_(ad.mul(t, t)), x)
    assert fd.data[0] == pytest.approx(6.0, abs=1e-8)


def test_fd_matches_backward_on_log_softmax_nll():
    rng = np.random.default_rng(3)
    x = ad.leaf(rng.normal(size=(5,)))

    def nll(t):
        return ad.neg(ad.log_softmax(t, axis=0)[2])

    with ad.tape():
        loss = nll(x)
        ad.backward(loss)
    fd = ad.fd_gradient(nll, x)
    assert rel_err(x.grad, fd.data) < 1e-6


OPS = {
    "add": lambda a, b: ad.add(a, b),
    "sub": lambda a, b: ad.sub(a, b),
    "mul": lambda a, b: ad.mul(a, b),
    "matmul": lambda a, b: ad.matmul(a, b),
    "tanh": lambda a, b: ad.tanh(a),
    "relu": lambda a, b: ad.relu(a),
    "exp": lambda a, b: ad.exp(a),
    "log": lambda a, b: ad.log(ad.add(ad.mul(a, a), 0.5)),
    "neg": lambda a, b: ad.neg(a),
    "mean": lambda a, b: ad.mean(a, axis=0),
    "concat": lambda a, b: ad.concat([a, b], axis=0),
    "take": lambda a, b: a[1:3],
    "reshape": lambda a, b: ad.reshape(a, (2, 2)) if a.size == 4 else a,
    "log_softmax": lambda a, b: ad.log_softmax(a, axis=0),
    "logsumexp": lambda a, b: ad.logsumexp(a),
    "l2_norm": lambda a, b: ad.l2_norm(a),
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
        fd = ad.fd_gradient(scalar_fn_a, a)
        assert rel_err(a.grad, fd.data) < 1e-6, f"{name}: d/da mismatch"

        if name in ("add", "sub", "mul", "matmul", "concat"):
            ad.zero_grad([a, b])
            with ad.tape():
                loss = scalar_fn_b(b)
                ad.backward(loss)
            fd = ad.fd_gradient(scalar_fn_b, b)
            assert rel_err(b.grad, fd.data) < 1e-6, f"{name}: d/db mismatch"


def test_embedding_lookup_gradient_accumulates_duplicates():
    table = ad.leaf(np.arange(12.0).reshape(4, 3))
    with ad.tape():
        out = ad.embedding_lookup(table, [1, 1, 3])
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
            loss = ad.logsumexp(ad.tanh(ad.matmul(x, w)))
            ad.backward(loss)
        return loss.item(), x.grad.copy()

    l1, g1 = run()
    l2, g2 = run()
    assert l1 == l2
    assert np.array_equal(g1, g2)


def test_shape_mismatch_raises():
    with pytest.raises(ad.ShapeError):
        ad.matmul(ad.constant(np.ones((2, 3))), ad.constant(np.ones((2, 3))))
    with pytest.raises(ad.ShapeError):
        ad.add(ad.constant(np.ones((2, 3))), ad.constant(np.ones((4,))))


def test_non_finite_raises():
    with pytest.raises(ad.NonFiniteError):
        ad.exp(ad.constant([1e6]))
    with pytest.raises(ad.NonFiniteError):
        ad.log(ad.constant([-1.0]))


def _rnn_inputs(rng, t=5, f=3, d=4):
    return [ad.leaf(rng.normal(scale=0.6, size=s))
            for s in ((t, f), (f, d), (d, d), (d,))]


@pytest.mark.parametrize("reverse", [False, True])
def test_tanh_rnn_gradient_matches_fd_for_every_input(reverse):
    rng = np.random.default_rng(12 + reverse)
    inputs = _rnn_inputs(rng)
    weight = ad.constant(rng.normal(size=(5, 4)))

    def loss_with(i, t):
        args = list(inputs)
        args[i] = t
        return ad.sum_(ad.mul(ad.tanh_rnn(*args, reverse=reverse), weight))

    with ad.tape():
        ad.backward(loss_with(0, inputs[0]))
    for i, x in enumerate(inputs):
        fd = ad.fd_gradient(lambda t, i=i: loss_with(i, t), x)
        assert rel_err(x.grad, fd.data) < 1e-6, f"input {i}"


def test_tanh_rnn_rejects_empty_and_mismatched_shapes():
    rng = np.random.default_rng(15)
    seq, w_in, w_rec, b = _rnn_inputs(rng)
    with pytest.raises(ad.ShapeError):
        ad.tanh_rnn(np.zeros((0, 3)), w_in, w_rec, b)
    with pytest.raises(ad.ShapeError):
        ad.tanh_rnn(np.zeros(3), w_in, w_rec, b)
    with pytest.raises(ad.ShapeError):
        ad.tanh_rnn(np.zeros((5, 2)), w_in, w_rec, b)
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
    x_nan[2, 1] = np.nan
    with pytest.raises(ad.NonFiniteError):
        ad.tanh_rnn(x_nan, w_in, w_rec, b)
    with ad.no_grad(), pytest.raises(ad.NonFiniteError):
        ad.tanh_rnn(seq, w_in, w_rec, np.full(4, np.inf))
