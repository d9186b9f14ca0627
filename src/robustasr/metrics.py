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
    substitutions: int
    deletions: int
    insertions: int
    ref_len: int

    @property
    def errors(self) -> int:
        return self.substitutions + self.deletions + self.insertions


def edit_distance_words(ref: Sequence, hyp: Sequence) -> WerStats:
    """Unit-cost Levenshtein alignment of two token sequences.

    Backtrace ties are resolved substitution-first, then deletion, then
    insertion, so the (S, D, I) split is canonical.
    """
    n, m = len(ref), len(hyp)
    if n == 0:
        raise ValueError("empty reference")
    d = [[0] * (m + 1) for _ in range(n + 1)]
    for i in range(n + 1):
        d[i][0] = i
    for j in range(m + 1):
        d[0][j] = j
    for i in range(1, n + 1):
        ri = ref[i - 1]
        for j in range(1, m + 1):
            sub = d[i - 1][j - 1] + (ri != hyp[j - 1])
            dele = d[i - 1][j] + 1
            ins = d[i][j - 1] + 1
            d[i][j] = min(sub, dele, ins)
    s = dels = ins = 0
    i, j = n, m
    while i > 0 or j > 0:
        if i > 0 and j > 0 and d[i][j] == d[i - 1][j - 1] + (ref[i - 1] != hyp[j - 1]):
            s += ref[i - 1] != hyp[j - 1]
            i -= 1
            j -= 1
        elif i > 0 and d[i][j] == d[i - 1][j] + 1:
            dels += 1
            i -= 1
        else:
            ins += 1
            j -= 1
    return WerStats(substitutions=s, deletions=dels, insertions=ins, ref_len=n)


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
