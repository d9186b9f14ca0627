"""Targeted projected gradient descent in the L2 threat model.

Each iteration takes a step of exact L2 magnitude alpha against the
gradient of the inference loss (the attack *minimizes* the loss toward
the chosen target transcription), then projects the accumulated
perturbation back onto the epsilon-ball around the original input.
Initialization is the zero perturbation, so runs are fully
deterministic.

``pgd_attack_batch`` holds the one PGD step loop and attacks several
utterances at once. Each step runs one tape and one backward of the
rows' summed losses over the padded (B, T_max, F) batch: one encoder
scan and one decoder pass for the whole batch, under the batch contract
stated in ``autodiff``. Then one pass over the rows takes each row's
loss, gradient norm, zero-gradient stop, step and projection; a row
that has stopped is skipped before any of it. ``pgd_attack`` is the
batch of one, and ``pgd_step`` its first step (one step, no snapshots,
from the zero start), kept for ``perfbench`` and the tests.

The loss is ``losses.objective`` at ``MtlWeights(1.0, lambda_i_C)``.
What the perturbation cannot change is built once per attack, not per
step: the frozen parameters, the one padding of the rows, the
objective's weights, and the target side of both sequence heads
(``model.teacher_forcing``: the decoder's token framing; the decoder's
recurrent states, which never see the input and are run at the
decoder's first read, so never at lambda_i_C = 1; and the CTC framing,
built at the CTC head's first read, so never at lambda_i_C = 0). Each
step runs the encoder, the CTC lattice and the decoder's attention and
output layer, their input-only backward, and the per-row step and
projection.

A row stops at its first exactly zero input gradient: its perturbation,
loss trace and norms stop there, and it keeps its place in the batch,
where its input, and so its zero gradient, no longer change. The batch
keeps its shape from the first step to the last, so one row's bytes do
not depend on another row stopping, and the loop ends once every row
has stopped.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass, field, replace

import numpy as np

from . import autodiff as ad
from .data import check_int, check_real
from .losses import MtlWeights, objective
from .model import ModelParams, ctc_framing, pad_batch, teacher_forcing, word_matrix


@dataclass(frozen=True)
class AttackConfig:
    epsilon: float
    alpha: float
    steps: int
    weights: MtlWeights
    report_at: tuple[int, ...] = ()

    def __post_init__(self):
        for name in ("epsilon", "alpha"):
            object.__setattr__(self, name, check_real(name, getattr(self, name)))
        check_int("steps", self.steps, 0)
        if any(r < 0 or r > self.steps for r in self.report_at):
            raise ValueError("report_at entries must lie in [0, steps]")
        object.__setattr__(self, "report_at", tuple(sorted(self.report_at)))


@dataclass
class PerturbationResult:
    delta: np.ndarray
    loss_trace: list[float]  # entry k = inference loss after k steps
    snapshots: dict[int, np.ndarray] = field(default_factory=dict)
    delta_norms: list[float] = field(default_factory=list)
    step_norms: list[float] = field(default_factory=list)  # pre-projection
    converged_at: int | None = None


def target_feasible(x: np.ndarray, target, weights: MtlWeights) -> bool:
    """False when the CTC branch is active but the sample is too short.
    Only ``perfbench`` calls it; an attack refuses such a target through
    ``losses.ctc_lattice``'s own ``CtcInfeasibleError``."""
    if weights.lambda_i_C == 0.0:
        return True
    # the fewest frames of a target do not depend on the blank's id
    words, counts = word_matrix([target])
    return x.shape[0] >= ctc_framing(words, counts, words.max(initial=0) + 1).min_frames[0]


def l2_norm(a: np.ndarray) -> float:
    """``np.linalg.norm(a)`` of a float array, bit for bit: the square
    root of the dot product of its elements in memory order, which is
    numpy's arithmetic for it, without the wrapper's per-call cost."""
    f = a.ravel(order="K")
    return math.sqrt(f.dot(f))


def project_l2(delta: np.ndarray, epsilon: float) -> tuple[np.ndarray, float]:
    """``delta`` scaled back onto the epsilon-ball if it left it, and the
    norm of what is returned: the one already computed when ``delta``
    stays inside, else that of the scaled copy."""
    norm = l2_norm(delta)
    if norm <= epsilon:
        return delta, norm
    projected = delta * (epsilon / norm)
    return projected, l2_norm(projected)


def _descend(delta: np.ndarray, grad: np.ndarray, grad_norm: float, epsilon: float,
             alpha: float) -> tuple[np.ndarray, float, float]:
    """``l2_step`` given the gradient's norm ``grad_norm``; it also returns
    the norm of the new perturbation."""
    if grad_norm == 0.0 or alpha == 0.0:
        return delta, 0.0, l2_norm(delta)
    step = grad * (-alpha / grad_norm)
    projected, norm = project_l2(delta + step, epsilon)
    return projected, l2_norm(step), norm


def l2_step(delta: np.ndarray, grad: np.ndarray, epsilon: float,
            alpha: float) -> tuple[np.ndarray, float]:
    """One descent step of magnitude alpha, then the ball projection.

    Returns the projected perturbation and the pre-projection step norm
    (== alpha whenever the gradient is nonzero; a zero gradient leaves
    the perturbation untouched).
    """
    return _descend(delta, grad, l2_norm(grad), epsilon, alpha)[:2]


def pgd_step(params: ModelParams, x: np.ndarray, delta: np.ndarray, target,
             config: AttackConfig) -> PerturbationResult:
    """The first step of ``pgd_attack``: ``pgd_attack`` of one step and no
    snapshots. ``delta`` must be the zero start; a zero gradient shows as
    ``converged_at == 0`` with the perturbation unchanged."""
    if np.any(delta):
        raise ValueError("pgd_step takes the zero start; got a nonzero delta")
    return pgd_attack(params, x, target, replace(config, steps=1, report_at=()))


def pgd_attack(params: ModelParams, x: np.ndarray, target,
               config: AttackConfig) -> PerturbationResult:
    """Iterate perturbation and projection from a zero start.

    ``loss_trace[k]`` is the inference loss after k steps; snapshots of
    the perturbed input x + delta are taken at every requested step
    count. Infeasible CTC targets surface as the loss's own error. It is
    ``pgd_attack_batch`` of one utterance.
    """
    return pgd_attack_batch(params, [x], [target], config)[0]


def pgd_attack_batch(params: ModelParams, xs, targets,
                     config: AttackConfig) -> list[PerturbationResult]:
    """``pgd_attack`` of each (x, target) pair, batched over the rows.

    The rows are padded once to the longest of them, and every step is
    one batched step of the whole padding; a row that has stopped on a
    zero gradient keeps its place and its perturbation. At each report
    step every row's snapshot is x plus its current delta, so a stopped
    row's later snapshots are its last input.
    """
    xs = [np.asarray(x, dtype=float) for x in xs]
    if not xs:
        return []
    params = params.frozen()  # once, not on every step
    x_pad, lengths = pad_batch(xs)
    delta = np.zeros_like(x_pad)
    forcing = teacher_forcing(params, targets)
    weights = MtlWeights(1.0, config.weights.lambda_i_C)
    epsilon, alpha = config.epsilon, config.alpha
    # Each row's delta is a view of its padded row until the attack ends.
    results = [PerturbationResult(delta=delta[r, :n], loss_trace=[])
               for r, n in enumerate(lengths)]
    for k in range(config.steps + 1):
        done = k == config.steps or all(res.converged_at is not None for res in results)
        for s in config.report_at:
            if s == k or (done and s > k):
                for res, x in zip(results, xs):
                    res.snapshots[s] = x + res.delta
        if done:
            break
        x_adv = ad.leaf(x_pad + delta)
        with ad.tape():
            bd = objective(params, x_adv, lengths, forcing, None, weights)
            ad.backward(bd.total)
        for r, (res, n, loss) in enumerate(zip(results, lengths, bd.rows.data.tolist())):
            if res.converged_at is not None:
                continue
            res.loss_trace.append(loss)  # loss at delta before this step
            grad = x_adv.grad[r, :n]
            grad_norm = l2_norm(grad)
            if grad_norm == 0.0:
                res.converged_at = k
                continue
            new_delta, step_norm, delta_norm = _descend(res.delta, grad, grad_norm,
                                                        epsilon, alpha)
            res.delta[:] = new_delta
            res.step_norms.append(step_norm)
            res.delta_norms.append(delta_norm)
    with ad.no_grad():
        final = objective(params, ad.constant(x_pad + delta), lengths, forcing, None,
                          weights).rows.data
    for r, res in enumerate(results):
        res.loss_trace.append(float(final[r]))
        res.delta = res.delta.copy()
    return results


def calibrate(test_utterances, ratio: float = 0.10,
              alpha_fraction: float = 1.0 / 40.0) -> tuple[float, float]:
    """Scale the ball to the data: epsilon is a fixed fraction of the
    median test-sample feature norm, alpha a fixed fraction of epsilon."""
    epsilon = ratio * statistics.median(
        l2_norm(u.features) for u in test_utterances)
    return epsilon, epsilon * alpha_fraction
