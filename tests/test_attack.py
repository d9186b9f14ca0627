import hashlib
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from oracles import close_to, count_calls, ctc_min_frames, fd_gradient

from robustasr import autodiff as ad
from robustasr import model
from robustasr.attack import (
    AttackConfig,
    PerturbationResult,
    calibrate,
    l2_norm,
    l2_step,
    pgd_attack,
    pgd_attack_batch,
    pgd_step,
    project_l2,
    target_feasible,
)
from robustasr.data import gen_adv_targets, gen_dataset, select_adv_target
from robustasr.decode import joint_greedy_decode
from robustasr.losses import CtcInfeasibleError, MtlWeights, ctc_loss, dec_loss, objective
from robustasr.model import (ModelConfig, ctc_head, decoder_teacher_forced, encode, init_params,
                             load_checkpoint, teacher_forcing)

TINY = ModelConfig(feat_dim=3, enc_hidden=4, enc_layers=1, dec_hidden=4,
                   attn_dim=3, emb_dim=3, vocab_size=4, disc_hidden=4, seed=5)


def rel_err(a, b):
    a, b = np.asarray(a, float), np.asarray(b, float)
    denom = np.maximum(1.0, np.maximum(np.abs(a), np.abs(b)))
    return float(np.max(np.abs(a - b) / denom))


@pytest.fixture()
def params():
    return init_params(TINY)


def test_config_validation():
    w = MtlWeights(1.0, 0.5)
    with pytest.raises(ValueError):
        AttackConfig(epsilon=0.0, alpha=0.1, steps=5, weights=w)
    with pytest.raises(ValueError):
        AttackConfig(epsilon=1.0, alpha=-1.0, steps=5, weights=w)
    with pytest.raises(ValueError):
        AttackConfig(epsilon=1.0, alpha=0.1, steps=5, weights=w, report_at=(9,))
    cfg = AttackConfig(epsilon=1.0, alpha=0.1, steps=5, weights=w,
                       report_at=(5, 0))
    assert cfg.report_at == (0, 5)


@pytest.mark.parametrize("field, value, message", [
    # True compares as 1: one step, or a ball of radius 1
    ("steps", True, "steps must be an integer, got True"),
    ("steps", 2.0, "steps must be an integer, got 2.0"),
    ("steps", -1, "steps must be >= 0, got -1"),
    ("epsilon", True, "epsilon must be a real number, got True"),
    ("alpha", "0.1", "alpha must be a real number, got '0.1'"),
], ids=["steps_bool", "steps_float", "steps_negative", "epsilon_bool", "alpha_str"])
def test_config_refuses_a_value_of_the_wrong_kind(field, value, message):
    kwargs = {"epsilon": 1.0, "alpha": 0.1, "steps": 3, field: value}
    with pytest.raises(ValueError, match=message):
        AttackConfig(weights=MtlWeights(1.0, 0.5), **kwargs)


@pytest.mark.parametrize("name", ["epsilon", "alpha"])
@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_config_refuses_a_non_finite_epsilon_or_alpha(name, value):
    # NaN passes a "<= 0" check
    kwargs = {"epsilon": 1.0, "alpha": 0.1, name: value}
    with pytest.raises(ValueError, match=f"{name} must be positive and finite, got {value}"):
        AttackConfig(steps=3, weights=MtlWeights(1.0, 0.5), **kwargs)


def test_adv_loss_boundaries(params):
    rng = np.random.default_rng(1)
    x_np = rng.normal(size=(6, TINY.feat_dim))
    target = [1, 2]
    x = ad.constant(x_np)
    # the attack's loss is the objective at MtlWeights(1.0, lambda_i_C)
    dec_only = objective(params, x[None], None, teacher_forcing(params, [target]), None,
                         MtlWeights(1.0, 0.0)).rows
    assert float(dec_only.data[0]) == pytest.approx(
        float(dec_loss(params, encode(params, x), target).data), abs=1e-12)
    ctc_only = objective(params, x[None], None, teacher_forcing(params, [target]), None,
                         MtlWeights(1.0, 1.0)).rows
    assert float(ctc_only.data[0]) == pytest.approx(
        float(ctc_loss(ctc_head(params, encode(params, x)), target).data), abs=1e-12)


def test_adv_loss_input_gradient_matches_fd(params):
    rng = np.random.default_rng(2)
    x = ad.leaf(rng.normal(size=(5, TINY.feat_dim)))
    w = MtlWeights(1.0, 0.6)

    def f(t):
        return objective(params, t[None], None, teacher_forcing(params, [[0, 3]]), None,
                         w).rows[0]

    with ad.tape():
        ad.backward(f(x))
    fd = fd_gradient(f, x)
    assert rel_err(x.grad, fd.data) < 1e-6


def test_adv_loss_infeasible_target(params):
    x = ad.constant(np.zeros((2, TINY.feat_dim)))
    with pytest.raises(CtcInfeasibleError):
        objective(params, x[None], None, teacher_forcing(params, [[0, 1, 2]]), None,
                  MtlWeights(1.0, 1.0))
    assert not target_feasible(np.zeros((2, TINY.feat_dim)), [0, 1, 2],
                               MtlWeights(1.0, 1.0))
    assert target_feasible(np.zeros((2, TINY.feat_dim)), [0, 1, 2],
                           MtlWeights(1.0, 0.0, lambda_i_C=0.0))


@st.composite
def float_arrays(draw):
    """A float array of up to three axes, contiguous or a strided view."""
    shape = draw(st.lists(st.integers(1, 7), min_size=0, max_size=3))
    values = draw(st.lists(st.floats(-1e6, 1e6, allow_subnormal=True),
                           min_size=int(np.prod(shape)), max_size=int(np.prod(shape))))
    a = np.array(values, dtype=float).reshape(shape)
    view = draw(st.sampled_from(["plain", "transposed", "stepped", "reversed"]))
    if view == "transposed":
        return a.T
    if view == "stepped" and a.ndim:
        return a[..., ::2]
    if view == "reversed" and a.ndim:
        return a[::-1]
    return a


@settings(max_examples=200, deadline=None)
@given(float_arrays())
@example(np.zeros((2, 3)))
@example(np.full((4, 4), 1e-160)[:, ::3])  # the squares underflow
@example(np.array([3.0, 4.0]))
def test_l2_norm_is_numpy_norm_bit_for_bit(a):
    assert np.float64(l2_norm(a)).tobytes() == np.linalg.norm(a).tobytes()


def test_project_l2():
    inside = np.array([1.0, 0.0])
    same, norm = project_l2(inside, 2.0)
    assert same is inside and norm == 1.0
    out, norm = project_l2(np.array([3.0, 4.0]), 2.0)
    assert np.allclose(out, [1.2, 1.6], atol=1e-12)
    assert norm == float(np.linalg.norm(out))  # of the scaled copy, not epsilon
    zero = np.zeros(3)
    same, norm = project_l2(zero, 2.0)
    assert same is zero and norm == 0.0


def test_l2_step_quadratic_moves_alpha_toward_target():
    # loss = 0.5 * ||x - t||^2 has gradient x - t
    x = np.array([3.0, 0.0])
    t = np.array([0.0, 0.0])
    delta = np.zeros(2)
    alpha = 0.25
    new_delta, step_norm = l2_step(delta, x + delta - t, epsilon=10.0, alpha=alpha)
    moved = np.linalg.norm((x + new_delta) - x)
    assert moved == pytest.approx(alpha, abs=1e-12)
    # strictly toward the target
    assert np.linalg.norm(x + new_delta - t) == pytest.approx(3.0 - alpha, abs=1e-12)
    assert step_norm == pytest.approx(alpha, abs=1e-12)


def test_l2_step_zero_alpha_and_zero_grad():
    delta = np.array([0.5, 0.5])
    same, norm = l2_step(delta, np.array([1.0, 1.0]), epsilon=1.0, alpha=0.0)
    assert np.array_equal(same, delta) and norm == 0.0
    same2, norm2 = l2_step(delta, np.zeros(2), epsilon=1.0, alpha=0.3)
    assert np.array_equal(same2, delta) and norm2 == 0.0


def test_pgd_step_magnitude_exact(params):
    rng = np.random.default_rng(3)
    x = rng.normal(size=(6, TINY.feat_dim))
    cfg = AttackConfig(epsilon=5.0, alpha=0.05, steps=1,
                       weights=MtlWeights(1.0, 0.5))
    out = pgd_step(params, x, np.zeros_like(x), [1], cfg)
    assert out.converged_at is None  # a nonzero gradient
    assert abs(out.step_norms[0] - cfg.alpha) < 1e-12
    # with a huge ball, the projected move equals the raw step
    assert np.linalg.norm(out.delta) == pytest.approx(cfg.alpha, abs=1e-12)


def test_pgd_step_refuses_a_nonzero_start(params):
    x = np.random.default_rng(3).normal(size=(6, TINY.feat_dim))
    cfg = AttackConfig(epsilon=5.0, alpha=0.05, steps=1, weights=MtlWeights(1.0, 0.5))
    delta = np.zeros_like(x)
    delta[2, 1] = 1e-3
    with pytest.raises(ValueError, match="nonzero delta"):
        pgd_step(params, x, delta, [1], cfg)


def test_pgd_attack_zero_steps_is_identity(params):
    rng = np.random.default_rng(4)
    x = rng.normal(size=(5, TINY.feat_dim))
    cfg = AttackConfig(epsilon=1.0, alpha=0.1, steps=0,
                       weights=MtlWeights(1.0, 0.0, lambda_i_C=0.0))
    res = pgd_attack(params, x, [2], cfg)
    assert np.array_equal(res.delta, np.zeros_like(x))
    assert len(res.loss_trace) == 1 and np.isfinite(res.loss_trace[0])


# Row r of a ragged batch attacks ROW_TARGETS[r]; a single row is the
# one-utterance attack.
ROW_TARGETS = ([0, 2], [1], [3, 3], [2, 0, 1])


@st.composite
def pgd_cases(draw):
    epsilon = draw(st.floats(1e-3, 3.0))
    alpha = epsilon * draw(st.floats(1e-3, 1.0))
    lengths = draw(st.one_of(st.just((7,)), st.lists(st.integers(4, 9), min_size=2,
                                                     max_size=4).map(tuple)))
    return (epsilon, alpha, draw(st.integers(1, 15)),
            draw(st.sampled_from([0.0, 0.5, 1.0])), lengths)


@settings(max_examples=25, deadline=None)
@given(pgd_cases())
@example((0.3, 0.05, 25, 0.5, (7,)))
@example((0.3, 0.05, 25, 0.5, (7, 4, 9)))
@example((1e-3, 1e-3, 12, 0.0, (5, 9, 4, 6)))
def test_pgd_attack_invariants_and_determinism(case):
    epsilon, alpha, steps, lam, lengths = case
    params = init_params(TINY)
    rng = np.random.default_rng(5)
    xs = [rng.normal(size=(n, TINY.feat_dim)) for n in lengths]
    targets = ROW_TARGETS[:len(xs)]
    report_at = (0, min(10, steps), steps)
    cfg = AttackConfig(epsilon=epsilon, alpha=alpha, steps=steps,
                       weights=MtlWeights(1.0, 0.5, lambda_i_C=lam), report_at=report_at)

    def run():
        if len(xs) == 1:
            return [pgd_attack(params, xs[0], targets[0], cfg)]
        return pgd_attack_batch(params, xs, targets, cfg)

    results = run()
    assert len(results) == len(xs)
    for x, res in zip(xs, results):
        taken = steps if res.converged_at is None else res.converged_at
        assert len(res.step_norms) == len(res.delta_norms) == taken
        assert len(res.loss_trace) == taken + 1 + (res.converged_at is not None)
        assert all(np.isfinite(v) for v in res.loss_trace)
        assert all(n <= epsilon * (1.0 + 1e-12) for n in res.delta_norms)
        # the reused norm is the one a fresh computation gives
        assert res.delta_norms[-1:] == [float(np.linalg.norm(res.delta))][:taken]
        assert all(abs(s - alpha) <= 1e-12 * alpha for s in res.step_norms)
        assert res.delta.shape == x.shape
        assert set(res.snapshots) == set(report_at)
        assert np.array_equal(res.snapshots[0], x)
        if res.converged_at is not None:
            assert all(np.array_equal(res.snapshots[r], x + res.delta)
                       for r in report_at if r > res.converged_at)
    for res, res2 in zip(results, run()):
        for a, b in ((res.delta, res2.delta), (res.loss_trace, res2.loss_trace),
                     (res.delta_norms, res2.delta_norms), (res.step_norms, res2.step_norms)):
            assert np.asarray(a).tobytes() == np.asarray(b).tobytes()
        assert res.converged_at == res2.converged_at
        assert all(res.snapshots[r].tobytes() == res2.snapshots[r].tobytes()
                   for r in report_at)


def test_pgd_batch_row_stops_on_zero_gradient_while_others_step():
    # Huge features saturate the encoder's tanh, so row 1's input gradient
    # is exactly zero: it stops at step 0 while row 0 steps on alone, as
    # its own one-utterance attack does.
    params = init_params(TINY)
    rng = np.random.default_rng(17)
    xs = [rng.normal(size=(6, TINY.feat_dim)), 1e8 * rng.normal(size=(4, TINY.feat_dim))]
    cfg = AttackConfig(epsilon=1.0, alpha=0.1, steps=5, report_at=(0, 3, 5),
                       weights=MtlWeights(1.0, 0.5, lambda_i_C=0.0))
    moving, stopped = pgd_attack_batch(params, xs, [[1], [2, 0]], cfg)
    assert stopped.converged_at == 0
    assert stopped.step_norms == [] and len(stopped.loss_trace) == 2
    assert all(np.array_equal(stopped.snapshots[r], xs[1]) for r in (0, 3, 5))
    alone = pgd_attack(params, xs[0], [1], cfg)
    assert moving.converged_at is None and len(moving.step_norms) == 5
    assert rel_err(moving.delta, alone.delta) < 1e-12
    assert rel_err(moving.loss_trace, alone.loss_trace) < 1e-12


def test_pgd_batch_row_bytes_do_not_depend_on_another_row_stopping():
    # The batch keeps its shape when row 1 stops, so row 0 runs the same
    # arithmetic whether its neighbour stops at step 0 or steps on.
    params = init_params(TINY)
    rng = np.random.default_rng(17)
    x0, other = rng.normal(size=(6, TINY.feat_dim)), rng.normal(size=(4, TINY.feat_dim))
    cfg = AttackConfig(epsilon=1.0, alpha=0.1, steps=5,
                       weights=MtlWeights(1.0, 0.5, lambda_i_C=0.5))
    targets = [[1], [2, 0]]
    row, stopped = pgd_attack_batch(params, [x0, 1e8 * other], targets, cfg)
    ref, stepping = pgd_attack_batch(params, [x0, other], targets, cfg)
    assert stopped.converged_at == 0 and stepping.converged_at is None
    assert row.converged_at is None
    for a, b in ((row.delta, ref.delta), (row.step_norms, ref.step_norms),
                 (row.loss_trace, ref.loss_trace)):
        assert np.asarray(a).tobytes() == np.asarray(b).tobytes()


def test_calibrate_uses_median_norm():
    class Utt:
        def __init__(self, f):
            self.features = f

    utts = [Utt(np.ones((1, 4)) * s) for s in (1.0, 2.0, 3.0)]
    eps, alpha = calibrate(utts, ratio=0.1)
    assert eps == pytest.approx(0.1 * np.linalg.norm(np.ones((1, 4)) * 2))
    assert alpha == pytest.approx(eps / 40.0)


# Two encoder layers and distinct dimensions. Its test cases keep the id
# "bidir" from when this config also ran a reverse scan, so that their
# names stay comparable across versions.
DEEP = ModelConfig(feat_dim=4, enc_hidden=5, enc_layers=2, dec_hidden=6,
                   attn_dim=3, emb_dim=2, vocab_size=6, disc_hidden=4, seed=8)


@pytest.mark.parametrize("cfg", [TINY, DEEP], ids=["tiny", "bidir"])
@pytest.mark.parametrize("lam_i", [0.0, 0.5, 1.0])
def test_pgd_differentiates_only_its_input(cfg, lam_i):
    params = init_params(cfg)
    rng = np.random.default_rng(13)
    for t in params.leaves():
        t.grad = rng.normal(size=t.shape)
    before = {n: t.grad.tobytes() for n, t in params.items()}
    x = rng.normal(size=(7, cfg.feat_dim))
    target = [1, 1, 3]
    attack_cfg = AttackConfig(epsilon=1.0, alpha=0.1, steps=4,
                              weights=MtlWeights(1.0, 0.5, lambda_i_C=lam_i))
    result = pgd_attack(params, x, target, attack_cfg)
    assert {n: t.grad.tobytes() for n, t in params.items()} == before

    # The same steps, differentiating requires-grad parameters as well,
    # give byte-identical input gradients, losses and perturbation.
    delta, trace = np.zeros_like(x), []
    for _ in range(attack_cfg.steps):
        grads = []
        for p in (params, params.frozen()):
            x_adv = ad.leaf(x + delta)
            with ad.tape():
                loss = objective(p, x_adv[None], None, teacher_forcing(p, [target]), None,
                                 MtlWeights(1.0, lam_i)).rows[0]
                ad.backward(loss)
            grads.append(x_adv.grad.tobytes())
        assert grads[0] == grads[1]
        trace.append(float(loss.data))
        delta, _ = l2_step(delta, x_adv.grad, attack_cfg.epsilon, attack_cfg.alpha)
    assert result.delta.tobytes() == delta.tobytes()
    assert result.loss_trace[:-1] == trace


@pytest.mark.parametrize("lam_i, records", [(0.0, 4), (0.5, 9), (1.0, 5)])
def test_pgd_step_record_count(lam_i, records, monkeypatch):
    # One step's tape at DEEP's two encoder layers: the encoder, then the
    # decoder loss (1), the CTC head and loss (2), or both and the blend's
    # three records, and the rows' sum. A head at weight zero adds
    # nothing, and the objective adds no glue records to the step.
    seen, backward = [], ad.backward

    def counted(loss):
        seen.append(len(ad._tape))
        backward(loss)

    monkeypatch.setattr(ad, "backward", counted)
    x = np.random.default_rng(3).normal(size=(6, DEEP.feat_dim))
    cfg = AttackConfig(epsilon=1.0, alpha=0.1, steps=1,
                       weights=MtlWeights(0.7, 0.5, lambda_i_C=lam_i))
    pgd_step(init_params(DEEP), x, np.zeros_like(x), [1, 3], cfg)
    pgd_attack_batch(init_params(DEEP), [x, x[:4]], [[1, 3], [2]], cfg)
    assert seen == [records, records]


@pytest.mark.parametrize("lam_i", [0.0, 0.5, 1.0])
def test_pgd_attack_runs_the_state_recurrence_at_most_once(lam_i, monkeypatch):
    # The forcing's states are run at the decoder's first read and kept
    # for every later step; at lambda_i_C = 1 the decoder never runs.
    calls = count_calls(monkeypatch, model, "_recur")
    params, targets = init_params(DEEP), [[1, 3], [2]]
    teacher_forcing(params, targets).states
    assert len(calls) == 3  # sos, then the longest target's two words
    calls.clear()
    x = np.random.default_rng(3).normal(size=(6, DEEP.feat_dim))
    cfg = AttackConfig(epsilon=1.0, alpha=0.1, steps=5,
                       weights=MtlWeights(0.7, 0.5, lambda_i_C=lam_i))
    pgd_attack_batch(params, [x, x[:4]], targets, cfg)
    assert len(calls) == (0 if lam_i == 1.0 else 3)


@pytest.mark.parametrize("lam_i, framings", [(0.0, 0), (0.5, 1), (1.0, 1)])
def test_pgd_attack_frames_the_ctc_targets_at_most_once(lam_i, framings, monkeypatch):
    # The forcing frames the targets for the CTC lattice at the CTC head's
    # first read and keeps the framing for every later step and the final
    # loss; at lambda_i_C = 0 the CTC head never runs.
    calls = count_calls(monkeypatch, model, "ctc_framing")
    x = np.random.default_rng(3).normal(size=(6, DEEP.feat_dim))
    cfg = AttackConfig(epsilon=1.0, alpha=0.1, steps=5,
                       weights=MtlWeights(0.7, 0.5, lambda_i_C=lam_i))
    pgd_attack_batch(init_params(DEEP), [x, x[:4]], [[1, 3], [2]], cfg)
    assert len(calls) == framings


def test_frozen_params_freeze_once(params):
    f = params.frozen()
    assert f is not params and f.frozen() is f
    assert not any(t.requires_grad for t in f.leaves())
    assert all(f[n].data is t.data for n, t in params.items())


@pytest.mark.parametrize("lam_i", [0.0, 0.5, 1.0])
def test_pgd_attack_same_bytes_from_frozen_params(params, lam_i):
    x = np.random.default_rng(31).normal(size=(7, TINY.feat_dim))
    cfg = AttackConfig(epsilon=1.0, alpha=0.1, steps=5, report_at=(0, 2, 5),
                       weights=MtlWeights(1.0, 0.5, lambda_i_C=lam_i))
    a = pgd_attack(params, x, [1, 3], cfg)
    b = pgd_attack(params.frozen(), x, [1, 3], cfg)
    assert a.delta.tobytes() == b.delta.tobytes()
    assert a.loss_trace == b.loss_trace
    assert {k: v.tobytes() for k, v in a.snapshots.items()} == \
        {k: v.tobytes() for k, v in b.snapshots.items()}


# ---------------------------------------------------------------------------
# batches against batches of one


def _pad(xs):
    """(B, T_max, F) zero-padded batch of ragged (T, F) inputs."""
    out = np.zeros((len(xs), max(len(x) for x in xs), xs[0].shape[1]))
    for r, x in enumerate(xs):
        out[r, :len(x)] = x
    return out


@st.composite
def ragged_batches(draw):
    cfg = draw(st.sampled_from([TINY, DEEP]))
    lam = draw(st.sampled_from([0.0, 0.5, 1.0]))
    targets = draw(st.lists(st.lists(st.integers(0, cfg.vocab_size - 1), max_size=3),
                            min_size=1, max_size=5))
    lengths = [draw(st.integers(max(1, ctc_min_frames(t)), 8)) for t in targets]
    return cfg, lam, targets, lengths, draw(st.integers(0, 2 ** 32 - 1))


@settings(max_examples=40, deadline=None)
@given(ragged_batches())
@example((DEEP, 0.5, [[], [1, 1, 3], [2]], [5, 8, 2], 0))
@example((TINY, 1.0, [[3], []], [1, 3], 1))
def test_batched_adv_loss_matches_batch_of_one(case):
    cfg, lam, targets, lengths, seed = case
    params = init_params(cfg).frozen()
    rng = np.random.default_rng(seed)
    xs = [rng.normal(size=(n, cfg.feat_dim)) for n in lengths]
    weights = MtlWeights(1.0, lam)
    x = ad.leaf(_pad(xs))
    forcing = teacher_forcing(params, targets)
    if lam > 0.0 and not all(targets):
        with pytest.raises(ValueError, match="a CTC target must hold at least one word"):
            objective(params, x, lengths, forcing, None, weights)
        return
    with ad.tape():
        losses = objective(params, x, lengths, forcing, None, weights).rows
        ad.backward(ad.sum_(losses))
    assert losses.shape == (len(xs),)
    for r, (x_r, target, n) in enumerate(zip(xs, targets, lengths)):
        one = ad.leaf(x_r)
        with ad.tape():
            loss = objective(params, one[None], None, teacher_forcing(params, [target]), None,
                             weights).rows[0]
            ad.backward(loss)
        assert close_to(losses.data[r], loss.data, 1e-12)
        assert close_to(x.grad[r, :n], one.grad, 1e-12)
        assert np.all(x.grad[r, n:] == 0.0)  # padded frames


@pytest.mark.parametrize("lam_i", [0.0, 0.5, 1.0])
def test_batched_row_gradient_matches_fd(lam_i):
    # Row 1 is padded; its loss's finite differences over its whole
    # padded input, padded frames included, match the batched gradient.
    params = init_params(DEEP).frozen()
    rng = np.random.default_rng(23)
    lengths = [7, 4, 6]
    targets = [[1, 1, 3], [2, 0], [3]]
    x_pad = _pad([rng.normal(size=(n, DEEP.feat_dim)) for n in lengths])
    weights = MtlWeights(1.0, lam_i)
    forcing = teacher_forcing(params, targets)

    def row_loss(t):
        batch = x_pad.copy()
        batch[1] = t.data
        return float(objective(params, ad.constant(batch), lengths, forcing, None,
                               weights).rows.data[1])

    x = ad.leaf(x_pad)
    with ad.tape():
        ad.backward(objective(params, x, lengths, forcing, None, weights).total)
    fd = fd_gradient(row_loss, ad.constant(x_pad[1]))
    assert rel_err(x.grad[1], fd.data) < 1e-6
    assert np.all(x.grad[1, 4:] == 0.0)


def test_batch_parameter_gradients_sum_the_rows():
    # Encoder and decoder parameter gradients of a padded batch's summed
    # decoder loss equal the sums of its rows' B=1 gradients.
    params = init_params(DEEP)
    rng = np.random.default_rng(24)
    lengths = [5, 3]
    targets = [[1], [2, 3]]
    xs = [rng.normal(size=(n, DEEP.feat_dim)) for n in lengths]
    with ad.tape():
        hidden = encode(params, ad.constant(_pad(xs)), lengths)
        ad.backward(ad.sum_(decoder_teacher_forced(params, hidden,
                                                   teacher_forcing(params, targets), lengths)))
    got = {n: t.grad.copy() for n, t in params.items()}
    ad.zero_grad(params.leaves())
    for x, target in zip(xs, targets):
        with ad.tape():
            ad.backward(dec_loss(params, encode(params, ad.constant(x)), target))
    for name, t in params.items():
        assert close_to(got[name], t.grad, 1e-12), name


FIXTURE = Path(__file__).resolve().parent.parent / "perfbench" / "fixture" / "checkpoint.txt"


def test_batched_attack_follows_single_trajectories_on_the_fixture():
    # The drop-CTC attack of ten test utterances for 200 steps, batched
    # and one utterance at a time, on the trained fixture checkpoint.
    params = load_checkpoint(FIXTURE)
    test = gen_dataset(3, n_train=1, n_valid=1, n_test=10).test
    targets = [select_adv_target(u.transcript, gen_adv_targets(3)) for u in test]
    epsilon, alpha = calibrate(test)
    weights = MtlWeights(0.7, 0.5, lambda_i_C=0.0)
    cfg = AttackConfig(epsilon=epsilon, alpha=alpha, steps=200, weights=weights,
                       report_at=(10, 50, 100, 200))
    batched = pgd_attack_batch(params, [u.features for u in test], targets, cfg)

    def hypothesis(x):
        with ad.no_grad():
            return joint_greedy_decode(params, encode(params, ad.constant(x)),
                                       weights, 10).hypothesis

    for utt, target, res in zip(test, targets, batched):
        alone = pgd_attack(params, utt.features, target, cfg)
        assert close_to(res.delta, alone.delta, 1e-9)
        assert res.converged_at == alone.converged_at
        for r in cfg.report_at:
            assert hypothesis(res.snapshots[r]) == hypothesis(alone.snapshots[r])


# sha256 of each mode's deltas, loss traces, step norms and delta norms,
# row after row, as float64 bytes
PGD_PINS = {
    0.0: "99ca07b4b4fbd59420b6fbff5bc7a0955c31680ab7235e6236dcd43841e83650",
    0.5: "10a9cb6b71b137f3dc7551a3ed1b955b011423b64473bec3b3a9fa5424948020",
    1.0: "023335dbe4727988ac19f0d2ec06045139ec83c7475efe8ef5f1048cf2a16bfd",
}


@pytest.mark.parametrize("lam_i", sorted(PGD_PINS))
def test_pgd_attack_batch_bytes_are_pinned_on_the_fixture(lam_i):
    # 50 steps on ten test utterances of seed 3; no row stops early.
    params = load_checkpoint(FIXTURE)
    test = gen_dataset(3, n_train=1, n_valid=1, n_test=10).test
    targets = [select_adv_target(u.transcript, gen_adv_targets(3)) for u in test]
    epsilon, alpha = calibrate(test)
    cfg = AttackConfig(epsilon=epsilon, alpha=alpha, steps=50,
                       weights=MtlWeights(0.7, 0.5, lambda_i_C=lam_i))
    results = pgd_attack_batch(params, [u.features for u in test], targets, cfg)
    digest = hashlib.sha256()
    for res in results:
        assert res.converged_at is None
        for values in (res.delta, res.loss_trace, res.step_norms, res.delta_norms):
            digest.update(np.asarray(values, dtype=float).tobytes())
    assert digest.hexdigest() == PGD_PINS[lam_i]
