"""Targeted projected gradient descent in the L2 threat model.

Each iteration takes a step of exact L2 magnitude alpha against the
gradient of the inference loss (the attack *minimizes* the loss toward
the chosen target transcription), then projects the accumulated
perturbation back onto the epsilon-ball around the original input.
Initialization is the zero perturbation, so runs are fully
deterministic.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .losses import MtlWeights, ctc_loss, ctc_min_frames, dec_loss
from .model import ModelParams, ctc_head, encode


@dataclass(frozen=True)
class AttackConfig:
    epsilon: float
    alpha: float
    steps: int
    weights: MtlWeights
    report_at: tuple[int, ...] = ()

    def __post_init__(self):
        if self.epsilon <= 0:
            raise ValueError("epsilon must be positive")
        if self.alpha <= 0:
            raise ValueError("alpha must be positive")
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


def adv_loss(params: ModelParams, x: Tensor, target, weights: MtlWeights) -> Tensor:
    """Inference loss toward the attacker's transcription.

    Mixes the CTC and decoder losses with the *inference* weight; heads
    with exactly zero weight are never evaluated, mirroring how the
    decode under attack uses them.
    """
    lam = weights.lambda_i_C
    hidden = encode(params, x)
    if lam == 0.0:
        return dec_loss(params, hidden, target)
    l_ctc = ctc_loss(ctc_head(params, hidden), target)
    if lam == 1.0:
        return l_ctc
    return lam * l_ctc + (1.0 - lam) * dec_loss(params, hidden, target)


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


def pgd_step(params: ModelParams, x: np.ndarray, delta: np.ndarray, target,
             config: AttackConfig) -> PgdStep:
    """Gradient of the inference loss at x+delta, step, project.

    A zero gradient is reported via ``grad_norm == 0`` with the
    perturbation unchanged; callers treat it as convergence. Only the
    input is differentiated: the model enters as constants, so no
    parameter gradient is computed and ``params[...].grad`` is untouched.
    """
    x_adv = ad.leaf(x + delta)
    with ad.tape():
        loss = adv_loss(params.frozen(), x_adv, target, config.weights)
        ad.backward(loss)
    grad = x_adv.grad
    grad_norm = float(np.linalg.norm(grad))
    if grad_norm == 0.0:
        return PgdStep(delta=delta, grad_norm=0.0, loss=loss.item(), step_norm=0.0)
    new_delta, step_norm = l2_step(delta, grad, config.epsilon, config.alpha)
    return PgdStep(delta=new_delta, grad_norm=grad_norm, loss=loss.item(),
                   step_norm=step_norm)


def pgd_attack(params: ModelParams, x: np.ndarray, target,
               config: AttackConfig) -> PerturbationResult:
    """Iterate perturbation and projection from a zero start.

    ``loss_trace[k]`` is the inference loss after k steps; snapshots of
    x_adv are taken at every requested step count. Infeasible CTC
    targets surface as the loss's own error.
    """
    x = np.asarray(x, dtype=float)
    params = params.frozen()  # once, not on every step
    delta = np.zeros_like(x)
    result = PerturbationResult(x_adv=x.copy(), delta=delta, loss_trace=[])
    if 0 in config.report_at:
        result.snapshots[0] = x.copy()
    for k in range(1, config.steps + 1):
        out = pgd_step(params, x, delta, target, config)
        result.loss_trace.append(out.loss)  # loss at delta before this step
        if out.grad_norm == 0.0:
            result.converged_at = k - 1
            for r in config.report_at:
                if r >= k:
                    result.snapshots.setdefault(r, x + delta)
            break
        delta = out.delta
        result.step_norms.append(out.step_norm)
        result.delta_norms.append(float(np.linalg.norm(delta)))
        if k in config.report_at:
            result.snapshots[k] = x + delta
    with ad.no_grad():
        final = adv_loss(params, ad.constant(x + delta), target, config.weights)
    result.loss_trace.append(final.item())
    result.delta = delta
    result.x_adv = x + delta
    return result


def calibrate(test_utterances, ratio: float = 0.10,
              alpha_fraction: float = 1.0 / 40.0) -> tuple[float, float]:
    """Scale the ball to the data: epsilon is a fixed fraction of the
    median test-sample feature norm, alpha a fixed fraction of epsilon."""
    epsilon = ratio * statistics.median(
        float(np.linalg.norm(u.features)) for u in test_utterances)
    return epsilon, epsilon * alpha_fraction
