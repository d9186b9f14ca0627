"""Joint training of all heads with weight-modulated loss mixing.

Plain SGD with a fixed learning rate. A batch is a list of utterances
processed one by one with gradient accumulation (summed), then a single
update; variable-length sequences never need padding that way. After
every epoch the validation objective is computed with the same weights,
and the returned parameters are the snapshot with the lowest validation
loss seen across all epochs.

Heads whose mixing weight is exactly zero are skipped entirely, so
their parameters provably receive zero gradient.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .autodiff import NonFiniteError
from .data import Utterance
from .decode import joint_greedy_decode
from .losses import LossBreakdown, MtlWeights, ctc_loss, dec_loss, dis_loss, mtl_loss
from .metrics import accent_accuracy, edit_distance_words, pooled_wer
from .model import ModelConfig, ModelParams, ctc_head, discriminate, encode, init_params


class TrainingDiverged(Exception):
    pass


@dataclass(frozen=True)
class TrainConfig:
    weights: MtlWeights
    learning_rate: float
    epochs: int = 30
    batch_size: int = 8
    seed: int = 0

    def __post_init__(self):
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")


@dataclass
class TrainLog:
    rows: list[dict] = field(default_factory=list)
    selected_epoch: int = 0

    COLUMNS = ("epoch",
               "train_l_ctc", "train_l_dec", "train_l_dis", "train_l_mtl",
               "valid_l_ctc", "valid_l_dec", "valid_l_dis", "valid_l_mtl")

    def to_csv(self, path) -> None:
        lines = [",".join(self.COLUMNS)]
        for row in self.rows:
            lines.append(",".join(
                str(row["epoch"]) if c == "epoch" else repr(row[c])
                for c in self.COLUMNS))
        with open(path, "w") as f:
            f.write("\n".join(lines) + "\n")


def sample_losses(params: ModelParams, utt: Utterance,
                  weights: MtlWeights) -> LossBreakdown:
    """Forward one utterance through the encoder and the active heads."""
    x = ad.constant(utt.features)
    hidden = encode(params, x)
    lam_a, lam_c = weights.lambda_t_A, weights.lambda_t_C
    l_ctc = ctc_loss(ctc_head(params, hidden), utt.transcript) \
        if lam_a > 0.0 and lam_c > 0.0 else 0.0
    l_dec = dec_loss(params, hidden, utt.transcript) \
        if lam_a > 0.0 and lam_c < 1.0 else 0.0
    l_dis = dis_loss(params, hidden, utt.accent) if lam_a < 1.0 else 0.0
    return mtl_loss(weights, l_ctc, l_dec, l_dis)


def _mean_breakdown(params, utts, weights) -> dict:
    sums = {"l_ctc": 0.0, "l_dec": 0.0, "l_dis": 0.0, "l_mtl": 0.0}
    with ad.no_grad():
        for utt in utts:
            bd = sample_losses(params, utt, weights)
            for key in sums:
                sums[key] += getattr(bd, key)
    return {k: v / len(utts) for k, v in sums.items()}


def train_mtl(model_config: ModelConfig, train_config: TrainConfig,
              data) -> tuple[ModelParams, TrainLog]:
    """SGD over the training split; returns the best-validation snapshot."""
    params = init_params(model_config)
    weights = train_config.weights
    log = TrainLog()
    best: ModelParams | None = None
    best_loss = math.inf
    n = len(data.train)
    ad.zero_grad(params.leaves())
    for epoch in range(1, train_config.epochs + 1):
        rng = np.random.default_rng([train_config.seed, epoch])
        order = rng.permutation(n)
        sums = {"l_ctc": 0.0, "l_dec": 0.0, "l_dis": 0.0, "l_mtl": 0.0}
        pending = 0
        for i, idx in enumerate(order):
            utt = data.train[int(idx)]
            try:
                with ad.tape():
                    bd = sample_losses(params, utt, weights)
                    if isinstance(bd.total, ad.Tensor):
                        ad.backward(bd.total)
                if not math.isfinite(bd.l_mtl):
                    raise NonFiniteError(f"l_mtl = {bd.l_mtl}")
            except NonFiniteError as e:
                raise TrainingDiverged(
                    f"non-finite loss at epoch {epoch}, batch {i // train_config.batch_size}"
                ) from e
            for key in sums:
                sums[key] += getattr(bd, key)
            pending += 1
            if pending == train_config.batch_size or i == n - 1:
                for t in params.leaves():
                    t.data -= train_config.learning_rate * t.grad
                ad.zero_grad(params.leaves())
                pending = 0
        valid = _mean_breakdown(params, data.valid, weights)
        row = {"epoch": epoch}
        row.update({f"train_{k}": v / n for k, v in sums.items()})
        row.update({f"valid_{k}": v for k, v in valid.items()})
        log.rows.append(row)
        if valid["l_mtl"] < best_loss:
            best_loss = valid["l_mtl"]
            best = params.clone()
            log.selected_epoch = epoch
    assert best is not None
    return best, log


def evaluate_benign(params: ModelParams, utterances, weights: MtlWeights,
                    max_len: int = 10) -> tuple[float, float]:
    """Pooled WER from joint decoding plus accent accuracy, no attack."""
    stats = []
    pred_acc = []
    gold_acc = []
    with ad.no_grad():
        for utt in utterances:
            hidden = encode(params, ad.constant(utt.features))
            res = joint_greedy_decode(params, hidden, weights, max_len)
            stats.append(edit_distance_words(utt.transcript, res.hypothesis))
            pred_acc.append(int(np.argmax(discriminate(params, hidden).data)))
            gold_acc.append(utt.accent)
    return pooled_wer(stats), accent_accuracy(pred_acc, gold_acc)
