"""Word error rate and accent accuracy.

WER follows the standard convention and may exceed 1.0 when the
hypothesis inserts more words than the reference holds. Corpus numbers
are pooled (total errors over total reference words), never averaged
per utterance; AdvTWER is the same edit distance measured against the
attacker's target and pooled in ``experiments.attack_split``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence


@dataclass(frozen=True)
class WerStats:
    errors: int  # edit distance: substitutions + deletions + insertions
    ref_len: int


def edit_distance_words(ref: Sequence, hyp: Sequence) -> WerStats:
    """Unit-cost Levenshtein distance of two token sequences."""
    if len(ref) == 0:
        raise ValueError("empty reference")
    row = list(range(len(hyp) + 1))  # distances from ref[:i] to each hyp prefix
    for i, r in enumerate(ref, 1):
        prev, row = row, [i]
        for j, h in enumerate(hyp, 1):
            row.append(min(prev[j - 1] + (r != h), prev[j] + 1, row[j - 1] + 1))
    return WerStats(errors=row[-1], ref_len=len(ref))


def accent_accuracy(pred_labels: Sequence[int], gold_labels: Sequence[int]) -> float:
    if len(pred_labels) != len(gold_labels):
        raise ValueError("label sequences differ in length")
    if not gold_labels:
        raise ValueError("no labels")
    hits = sum(p == g for p, g in zip(pred_labels, gold_labels))
    return hits / len(gold_labels)


def pooled_wer(stats: Sequence[WerStats]) -> float:
    """Corpus WER: total errors divided by total reference words."""
    total_ref = sum(s.ref_len for s in stats)
    if total_ref == 0:
        raise ValueError("no reference words")
    return sum(s.errors for s in stats) / total_ref
