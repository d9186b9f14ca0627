"""Targeted projected gradient descent in the L2 threat model.

Each iteration takes a step of exact L2 magnitude alpha against the
gradient of the inference loss (the attack *minimizes* the loss toward
the chosen target transcription), then projects the accumulated
perturbation back onto the epsilon-ball around the original input.
Initialization is the zero perturbation, so runs are fully
deterministic.

``pgd_attack_batch`` attacks several utterances at once. Each step pads
the rows still stepping to (B, T_max, F) and runs one tape and one
backward of their summed losses: one encoder scan and one decoder pass
for the whole batch, under the batch contract stated in ``autodiff``.
The step, projection, zero-gradient stop, loss trace and snapshots stay
per row; ``pgd_attack`` and ``pgd_step`` are the batch of one.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .autodiff import ShapeError, Tensor
from .losses import MtlWeights, ctc_loss, ctc_min_frames, dec_loss
from .model import ModelParams, ctc_head, encode, pad_batch


@dataclass(frozen=True)
class AttackConfig:
    epsilon: float
    alpha: float
    steps: int
    weights: MtlWeights
    report_at: tuple[int, ...] = ()

    def __post_init__(self):
        for name in ("epsilon", "alpha"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be positive and finite, got {value}")
        if self.steps < 0:
            raise ValueError("steps must be >= 0")
        if any(r < 0 or r > self.steps for r in self.report_at):
            raise ValueError("report_at entries must lie in [0, steps]")
        object.__setattr__(self, "report_at", tuple(sorted(self.report_at)))


@dataclass
class PerturbationResult:
    x_adv: np.ndarray
    delta: np.ndarray
    loss_trace: list[float]  # entry k = inference loss after k steps
    snapshots: dict[int, np.ndarray] = field(default_factory=dict)
    delta_norms: list[float] = field(default_factory=list)
    step_norms: list[float] = field(default_factory=list)  # pre-projection
    converged_at: int | None = None


def adv_loss(params: ModelParams, x: Tensor, target, weights: MtlWeights,
             lengths=None) -> Tensor:
    """Inference loss toward the attacker's transcription.

    Mixes the CTC and decoder losses with the *inference* weight; heads
    with exactly zero weight are never evaluated, mirroring how the
    decode under attack uses them. ``x`` is a padded batch (B, T, F) with
    per-row frame counts ``lengths``; ``target`` holds one target per
    row, and the result is the (B,) per-row losses.
    """
    if x.ndim != 3:
        raise ShapeError(f"adv_loss expects a (B, T, F) batch, got {x.shape}")
    lam = weights.lambda_i_C
    hidden = encode(params, x, lengths)
    if lam == 0.0:
        return dec_loss(params, hidden, target, lengths)
    l_ctc = ctc_loss(ctc_head(params, hidden), target, lengths)
    if lam == 1.0:
        return l_ctc
    return lam * l_ctc + (1.0 - lam) * dec_loss(params, hidden, target, lengths)


def target_feasible(x: np.ndarray, target, weights: MtlWeights) -> bool:
    """False when the CTC branch is active but the sample is too short."""
    if weights.lambda_i_C == 0.0:
        return True
    return x.shape[0] >= ctc_min_frames(list(target))


def project_l2(delta: np.ndarray, epsilon: float) -> np.ndarray:
    norm = float(np.linalg.norm(delta))
    if norm <= epsilon:
        return delta
    return delta * (epsilon / norm)


def l2_step(delta: np.ndarray, grad: np.ndarray, epsilon: float,
            alpha: float) -> tuple[np.ndarray, float]:
    """One descent step of magnitude alpha, then the ball projection.

    Returns the projected perturbation and the pre-projection step norm
    (== alpha whenever the gradient is nonzero; a zero gradient leaves
    the perturbation untouched).
    """
    grad_norm = float(np.linalg.norm(grad))
    if grad_norm == 0.0 or alpha == 0.0:
        return delta, 0.0
    step = grad * (-alpha / grad_norm)
    return project_l2(delta + step, epsilon), float(np.linalg.norm(step))


@dataclass
class PgdStep:
    delta: np.ndarray
    grad_norm: float
    loss: float
    step_norm: float


def _batch_step(params: ModelParams, x: np.ndarray, delta: np.ndarray,
                lengths: list[int], targets, config: AttackConfig) -> list[PgdStep]:
    """One PGD step of each row of a padded batch: one tape, one backward."""
    x_adv = ad.leaf(x + delta)
    with ad.tape():
        losses = adv_loss(params, x_adv, targets, config.weights, lengths)
        ad.backward(ad.sum_(losses))
    out = []
    for r, n in enumerate(lengths):
        grad, row_delta = x_adv.grad[r, :n], delta[r, :n]
        grad_norm = float(np.linalg.norm(grad))
        loss = float(losses.data[r])
        if grad_norm == 0.0:
            out.append(PgdStep(delta=row_delta, grad_norm=0.0, loss=loss, step_norm=0.0))
            continue
        new_delta, step_norm = l2_step(row_delta, grad, config.epsilon, config.alpha)
        out.append(PgdStep(delta=new_delta, grad_norm=grad_norm, loss=loss,
                           step_norm=step_norm))
    return out


def pgd_step(params: ModelParams, x: np.ndarray, delta: np.ndarray, target,
             config: AttackConfig) -> PgdStep:
    """Gradient of the inference loss at x+delta, step, project.

    A zero gradient is reported via ``grad_norm == 0`` with the
    perturbation unchanged; callers treat it as convergence. Only the
    input is differentiated: the model enters as constants, so no
    parameter gradient is computed and ``params[...].grad`` is untouched.
    It is the batch step at B=1.
    """
    return _batch_step(params.frozen(), x[None], delta[None], [x.shape[0]],
                       [target], config)[0]


def pgd_attack(params: ModelParams, x: np.ndarray, target,
               config: AttackConfig) -> PerturbationResult:
    """Iterate perturbation and projection from a zero start.

    ``loss_trace[k]`` is the inference loss after k steps; snapshots of
    x_adv are taken at every requested step count. Infeasible CTC
    targets surface as the loss's own error. It is ``pgd_attack_batch``
    of one utterance.
    """
    return pgd_attack_batch(params, [x], [target], config)[0]


def pgd_attack_batch(params: ModelParams, xs, targets,
                     config: AttackConfig) -> list[PerturbationResult]:
    """``pgd_attack`` of each (x, target) pair, batched over the rows.

    Every step pads the rows that have not stopped on a zero gradient to
    the longest of them and takes one batched step.
    """
    xs = [np.asarray(x, dtype=float) for x in xs]
    if not xs:
        return []
    params = params.frozen()  # once, not on every step
    x_pad, lengths = pad_batch(xs)
    lengths = np.array(lengths)
    delta = np.zeros_like(x_pad)
    results = [PerturbationResult(x_adv=x.copy(), delta=np.zeros_like(x), loss_trace=[])
               for x in xs]
    if 0 in config.report_at:
        for res, x in zip(results, xs):
            res.snapshots[0] = x.copy()
    live = np.arange(len(xs))
    for k in range(1, config.steps + 1):
        if not live.size:
            break
        frames = lengths[live].max()
        steps = _batch_step(params, x_pad[live, :frames], delta[live, :frames],
                            list(lengths[live]), [targets[r] for r in live], config)
        for r, out in zip(live, steps):
            res, x, n = results[r], xs[r], lengths[r]
            res.loss_trace.append(out.loss)  # loss at delta before this step
            if out.grad_norm == 0.0:
                res.converged_at = k - 1
                for s in config.report_at:
                    if s >= k:
                        res.snapshots.setdefault(s, x + delta[r, :n])
                continue
            delta[r, :n] = out.delta
            res.step_norms.append(out.step_norm)
            res.delta_norms.append(float(np.linalg.norm(out.delta)))
            if k in config.report_at:
                res.snapshots[k] = x + out.delta
        live = np.array([r for r in live if results[r].converged_at is None], dtype=int)
    with ad.no_grad():
        final = adv_loss(params, ad.constant(x_pad + delta), targets,
                         config.weights, list(lengths))
    for r, (res, x) in enumerate(zip(results, xs)):
        res.loss_trace.append(float(final.data[r]))
        res.delta = delta[r, :lengths[r]].copy()
        res.x_adv = x + res.delta
    return results


def calibrate(test_utterances, ratio: float = 0.10,
              alpha_fraction: float = 1.0 / 40.0) -> tuple[float, float]:
    """Scale the ball to the data: epsilon is a fixed fraction of the
    median test-sample feature norm, alpha a fixed fraction of epsilon."""
    epsilon = ratio * statistics.median(
        float(np.linalg.norm(u.features)) for u in test_utterances)
    return epsilon, epsilon * alpha_fraction
