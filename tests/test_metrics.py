import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from robustasr.metrics import (
    WerStats,
    accent_accuracy,
    edit_distance_words,
    pooled_wer,
)


def naive_distance(a, b):
    """Plain recursive Levenshtein, the oracle for the DP."""
    if not a:
        return len(b)
    if not b:
        return len(a)
    if a[0] == b[0]:
        return naive_distance(a[1:], b[1:])
    return 1 + min(
        naive_distance(a[1:], b[1:]),
        naive_distance(a[1:], b),
        naive_distance(a, b[1:]),
    )


def test_identical_sequences_zero():
    st = edit_distance_words(["a", "b", "c"], ["a", "b", "c"])
    assert pooled_wer([st]) == 0.0
    assert st.errors == 0


def test_single_substitution_quarter():
    st = edit_distance_words(list("abcd"), list("abxd"))
    assert pooled_wer([st]) == 0.25
    assert st.errors == 1


def test_empty_reference_raises():
    with pytest.raises(ValueError):
        edit_distance_words([], ["a"])


def test_distance_matches_oracle():
    rng = np.random.default_rng(42)
    for _ in range(200):
        ref = list(rng.integers(0, 4, size=rng.integers(1, 7)))
        hyp = list(rng.integers(0, 4, size=rng.integers(0, 7)))
        assert edit_distance_words(ref, hyp) == WerStats(naive_distance(ref, hyp), len(ref))


words = st.lists(st.integers(0, 3), max_size=3)


@settings(max_examples=200, deadline=None)
@given(words, words, words, words)
def test_distance_with_shared_ends_matches_oracle(prefix, ref_mid, hyp_mid, suffix):
    # A shared prefix and suffix around the middles, which may share
    # words with the ends or be empty; the hypothesis is a tuple, as
    # decoding gives it.
    ref, hyp = prefix + ref_mid + suffix, prefix + hyp_mid + suffix
    assume(ref)
    assert edit_distance_words(ref, tuple(hyp)) == WerStats(naive_distance(ref, hyp), len(ref))


def test_triangle_consistency():
    rng = np.random.default_rng(9)
    for _ in range(50):
        a, b, c = (list(rng.integers(0, 3, size=rng.integers(1, 6))) for _ in range(3))
        dab = edit_distance_words(a, b).errors
        dbc = edit_distance_words(b, c).errors
        dac = edit_distance_words(a, c).errors
        assert dac <= dab + dbc


def test_wer_can_exceed_one():
    st = edit_distance_words(["a"], ["a", "b", "c"])
    assert pooled_wer([st]) == 2.0


def test_accent_accuracy():
    assert accent_accuracy([0, 1, 1], [0, 1, 1]) == 1.0
    assert accent_accuracy([1, 0, 0], [0, 1, 1]) == 0.0
    assert accent_accuracy([0, 1], [0, 0]) == 0.5
    with pytest.raises(ValueError):
        accent_accuracy([0], [0, 1])


def test_pooled_wer_is_error_weighted():
    stats = [
        WerStats(errors=1, ref_len=1),
        WerStats(errors=0, ref_len=9),
    ]
    assert pooled_wer(stats) == pytest.approx(0.1)
