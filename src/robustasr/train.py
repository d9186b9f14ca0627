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

Heads whose mixing weight is exactly zero are skipped entirely by
``losses.objective``, so their parameters provably receive zero gradient.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from . import autodiff as ad
from .autodiff import NonFiniteError
from .data import Utterance, check_int, check_real
from .decode import DecodeResult, joint_greedy_decode
from .losses import LossBreakdown, MtlWeights, objective
from .metrics import accent_accuracy, edit_distance_words, pooled_wer
from .model import (ModelConfig, ModelParams, discriminate, encode, init_params, pad_batch,
                    teacher_forcing)


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
        object.__setattr__(self, "learning_rate",
                           check_real("learning_rate", self.learning_rate))
        check_int("epochs", self.epochs, 1)
        check_int("batch_size", self.batch_size, 1)
        check_int("seed", self.seed, 0)


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
    """``losses.objective`` of a padded batch of utterances, each with its
    own transcript and accent."""
    x, lengths = pad_batch([u.features for u in utts])
    forcing = teacher_forcing(params, [u.transcript for u in utts])
    return objective(params, ad.constant(x), lengths, forcing, [u.accent for u in utts],
                     weights)


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
                    ad.backward(bd.total)
                if not math.isfinite(bd.l_mtl):
                    raise NonFiniteError(f"l_mtl = {bd.l_mtl}")
            except NonFiniteError as e:
                raise TrainingDiverged(
                    f"non-finite loss at epoch {epoch}, batch {start // size + 1}"
                ) from e
            for key in sums:
                sums[key] += getattr(bd, key)
            for t in params.leaves():
                t.data -= train_config.learning_rate * t.grad
            ad.zero_grad(params.leaves())
        try:
            valid = _mean_breakdown(params, data.valid, weights, size)
        except NonFiniteError as e:
            raise TrainingDiverged(
                f"non-finite loss at epoch {epoch}, in the validation pass") from e
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


# Sequences decoded in one lockstep block by ``decode_blocks``. A
# block's arrays scale with its size, so a whole split at once would raise
# the peak memory of a decode; 16 rows already take most of the per-step
# Python work out of decoding. Blocks are cut from the sequences in order
# of frame count, so each is padded only to its own longest.
DECODE_BLOCK = 16


def decode_blocks(params: ModelParams, features: Sequence[np.ndarray],
                  weights: MtlWeights, max_len: int
                  ) -> tuple[list[DecodeResult], list[int]]:
    """Hybrid-decode and classify (T, F) feature sequences, no recording.

    The sequences are ordered by frame count (a stable sort, so ties keep
    their input order) and cut into blocks of ``DECODE_BLOCK``; each block
    is one padded ``encode``, one ``joint_greedy_decode`` and one
    ``discriminate``. Returns each input's ``DecodeResult`` and predicted
    accent, in input order.
    """
    order = sorted(range(len(features)), key=lambda i: len(features[i]))
    results: list[DecodeResult] = [None] * len(features)
    accents = [0] * len(features)
    with ad.no_grad():
        for start in range(0, len(order), DECODE_BLOCK):
            block = order[start:start + DECODE_BLOCK]
            x, lengths = pad_batch([features[i] for i in block])
            hidden = encode(params, ad.constant(x), lengths)
            decoded = joint_greedy_decode(params, hidden, weights, max_len, lengths)
            pred = np.argmax(discriminate(params, hidden, lengths).data, axis=1)
            for i, res, accent in zip(block, decoded, pred.tolist()):
                results[i] = res
                accents[i] = accent
    return results, accents


def evaluate_benign(params: ModelParams, utterances, weights: MtlWeights,
                    max_len: int = 10) -> tuple[float, float]:
    """Pooled WER from joint decoding plus accent accuracy, no attack.

    The utterances go through ``decode_blocks``; both numbers are pooled,
    so they do not depend on the order it decodes them in.
    """
    results, accents = decode_blocks(params, [u.features for u in utterances],
                                     weights, max_len)
    stats = [edit_distance_words(u.transcript, res.hypothesis)
             for u, res in zip(utterances, results)]
    return pooled_wer(stats), accent_accuracy(accents, [u.accent for u in utterances])
