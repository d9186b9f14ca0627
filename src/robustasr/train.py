"""Joint training of all heads with weight-modulated loss mixing.

Plain SGD with a fixed learning rate. A batch is a consecutive slice of
the epoch's permutation of the training split. Its utterances are
zero-padded to the longest and run as one padded batch: one tape, one
forward through the encoder and the active heads, each row masked to
its own frames, and one backward of the summed loss, so the update is
the sum of the rows' gradients. After every epoch the validation
objective is computed with the same weights, in batches of the same
size, and the returned parameters are the snapshot with the lowest
validation loss seen across all epochs.

Heads whose mixing weight is exactly zero are skipped entirely, so
their parameters provably receive zero gradient.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from . import autodiff as ad
from .autodiff import NonFiniteError
from .data import Utterance
from .decode import joint_greedy_decode
from .losses import LossBreakdown, MtlWeights, ctc_loss, dec_loss, dis_loss, mtl_loss
from .metrics import accent_accuracy, edit_distance_words, pooled_wer
from .model import (ModelConfig, ModelParams, ctc_head, discriminate, encode,
                    init_params, pad_batch)


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
        if not (math.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise ValueError(f"learning_rate must be positive and finite, "
                             f"got {self.learning_rate}")
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


def batch_losses(params: ModelParams, utts: Sequence[Utterance],
                 weights: MtlWeights) -> LossBreakdown:
    """Forward a padded batch of utterances through the encoder and the
    active heads; the breakdown sums the rows' losses."""
    x, lengths = pad_batch([u.features for u in utts])
    hidden = encode(params, ad.constant(x), lengths)
    targets = [u.transcript for u in utts]
    lam_a, lam_c = weights.lambda_t_A, weights.lambda_t_C
    l_ctc = ctc_loss(ctc_head(params, hidden), targets, lengths) \
        if lam_a > 0.0 and lam_c > 0.0 else 0.0
    l_dec = dec_loss(params, hidden, targets, lengths) \
        if lam_a > 0.0 and lam_c < 1.0 else 0.0
    l_dis = dis_loss(params, hidden, [u.accent for u in utts], lengths) \
        if lam_a < 1.0 else 0.0
    return mtl_loss(weights, l_ctc, l_dec, l_dis)


def sample_losses(params: ModelParams, utt: Utterance,
                  weights: MtlWeights) -> LossBreakdown:
    """Forward one utterance through the encoder and the active heads:
    the batch of one."""
    return batch_losses(params, [utt], weights)


def _mean_breakdown(params, utts, weights, batch_size: int) -> dict:
    sums = {"l_ctc": 0.0, "l_dec": 0.0, "l_dis": 0.0, "l_mtl": 0.0}
    with ad.no_grad():
        for start in range(0, len(utts), batch_size):
            bd = batch_losses(params, utts[start:start + batch_size], weights)
            for key in sums:
                sums[key] += getattr(bd, key)
    return {k: v / len(utts) for k, v in sums.items()}


def train_mtl(model_config: ModelConfig, train_config: TrainConfig,
              data) -> tuple[ModelParams, TrainLog]:
    """SGD over the training split; returns the best-validation snapshot."""
    params = init_params(model_config)
    weights = train_config.weights
    size = train_config.batch_size
    log = TrainLog()
    best: ModelParams | None = None
    best_loss = math.inf
    n = len(data.train)
    ad.zero_grad(params.leaves())
    for epoch in range(1, train_config.epochs + 1):
        rng = np.random.default_rng([train_config.seed, epoch])
        order = rng.permutation(n)
        sums = {"l_ctc": 0.0, "l_dec": 0.0, "l_dis": 0.0, "l_mtl": 0.0}
        for start in range(0, n, size):
            batch = [data.train[int(i)] for i in order[start:start + size]]
            try:
                with ad.tape():
                    bd = batch_losses(params, batch, weights)
                    if isinstance(bd.total, ad.Tensor):
                        ad.backward(bd.total)
                if not math.isfinite(bd.l_mtl):
                    raise NonFiniteError(f"l_mtl = {bd.l_mtl}")
            except NonFiniteError as e:
                raise TrainingDiverged(
                    f"non-finite loss at epoch {epoch}, batch {start // size}"
                ) from e
            for key in sums:
                sums[key] += getattr(bd, key)
            for t in params.leaves():
                t.data -= train_config.learning_rate * t.grad
            ad.zero_grad(params.leaves())
        valid = _mean_breakdown(params, data.valid, weights, size)
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
            batch = encode(params, ad.constant(utt.features[None]))
            res = joint_greedy_decode(params, batch[0], weights, max_len)
            stats.append(edit_distance_words(utt.transcript, res.hypothesis))
            pred_acc.append(int(np.argmax(discriminate(params, batch).data[0])))
            gold_acc.append(utt.accent)
    return pooled_wer(stats), accent_accuracy(pred_acc, gold_acc)
