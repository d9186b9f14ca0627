import hashlib

import numpy as np
import pytest

from robustasr.data import (
    CONTENT_IDS,
    CONTENT_WORDS,
    LOREM_WORDS,
    N_WORDS,
    VOCAB_HASH,
    DataError,
    gen_adv_targets,
    gen_dataset,
    load_dataset,
    load_split,
    render_utterance,
    save_dataset,
    select_adv_target,
    to_ids,
    to_words,
)


def test_vocabularies_disjoint():
    assert not (set(CONTENT_WORDS) & set(LOREM_WORDS))


def test_vocabulary_hash_and_ids():
    # data files carry this hash; a new one would refuse every file written before
    assert VOCAB_HASH == "e5db6376219b"
    assert N_WORDS == 40 and CONTENT_IDS == range(24)
    assert to_ids(["alpha", "yankee", "lorem", "veniam"]) == [0, 23, 24, 39]
    assert to_words([0, 23, 24, 39]) == ["alpha", "yankee", "lorem", "veniam"]
    with pytest.raises(DataError, match="unknown word 'zulu'"):
        to_ids(["alpha", "zulu"])
    with pytest.raises(DataError, match="token id 40 is not a word"):
        to_words([0, 40])


def test_render_deterministic():
    toks = (1, 5, 9)
    a = render_utterance(toks, 0, np.random.default_rng(3))
    b = render_utterance(toks, 0, np.random.default_rng(3))
    assert np.array_equal(a, b)


def test_render_accents_differ_without_noise():
    toks = (2, 7)
    a = render_utterance(toks, 0, np.random.default_rng(1), noise_sigma=0.0)
    b = render_utterance(toks, 1, np.random.default_rng(1), noise_sigma=0.0)
    assert a.shape == b.shape  # same rng -> same frame counts
    assert not np.allclose(a, b)


def test_render_rejects_non_content_tokens():
    with pytest.raises(DataError):
        render_utterance((len(CONTENT_WORDS),), 0, np.random.default_rng(0))
    with pytest.raises(DataError):
        render_utterance((), 0, np.random.default_rng(0))


def test_render_frame_counts_and_magnitude():
    rng = np.random.default_rng(8)
    toks = (0, 1, 2, 3)
    feats = render_utterance(toks, 1, rng)
    assert 3 * len(toks) <= feats.shape[0] <= 6 * len(toks)
    assert feats.shape[0] >= 2 * len(toks) + 1  # CTC alignment always feasible
    assert np.abs(feats).max() < 10.0


def test_accent_probe_separability():
    """A least-squares linear probe on mean features must nail the accent."""
    rng = np.random.default_rng(123)
    feats, labels = [], []
    for i in range(1000):
        toks = tuple(int(t) for t in rng.integers(0, len(CONTENT_WORDS), size=3))
        z = i % 2
        feats.append(render_utterance(toks, z, rng).mean(axis=0))
        labels.append(z)
    x = np.column_stack([np.array(feats), np.ones(len(feats))])
    y = np.array(labels) * 2.0 - 1.0
    w, *_ = np.linalg.lstsq(x[:500], y[:500], rcond=None)
    pred = (x[500:] @ w > 0).astype(int)
    acc = (pred == np.array(labels[500:])).mean()
    assert acc > 0.95


def test_gen_dataset_deterministic():
    a = gen_dataset(7, n_train=20, n_valid=5, n_test=5)
    b = gen_dataset(7, n_train=20, n_valid=5, n_test=5)
    for sa, sb in zip((a.train, a.valid, a.test), (b.train, b.valid, b.test)):
        assert [u.id for u in sa] == [u.id for u in sb]
        for ua, ub in zip(sa, sb):
            assert ua.transcript == ub.transcript
            assert ua.accent == ub.accent
            assert np.array_equal(ua.features, ub.features)


def test_gen_dataset_accent_balance_and_disjoint_ids():
    ds = gen_dataset(11, n_train=31, n_valid=10, n_test=9)
    for part in (ds.train, ds.valid, ds.test):
        ones = sum(u.accent for u in part)
        assert abs(ones - (len(part) - ones)) <= 1
    ids = [u.id for u in ds.train + ds.valid + ds.test]
    assert len(ids) == len(set(ids))


def test_gen_adv_targets_properties():
    len_range = (2, 6)
    targets = gen_adv_targets(9, count=12, len_range=len_range)
    lorem = set(range(len(CONTENT_WORDS), N_WORDS))
    assert all(t in lorem for tgt in targets for t in tgt)
    lengths = {len(t) for t in targets}
    assert lengths >= set(range(len_range[0], len_range[1] + 1))
    for tgt in targets:
        assert not (set(to_words(tgt)) & set(CONTENT_WORDS))
    assert targets == gen_adv_targets(9, count=12, len_range=len_range)


@pytest.mark.parametrize("len_range", [(0, 3), (3, 2), (-1, 0)])
def test_generators_refuse_a_length_range_with_empty_or_no_lengths(len_range):
    with pytest.raises(DataError, match=rf"len_range \({len_range[0]}, {len_range[1]}\)"):
        gen_adv_targets(0, len_range=len_range)
    with pytest.raises(DataError, match=rf"len_range \({len_range[0]}, {len_range[1]}\)"):
        gen_dataset(0, n_train=1, n_valid=1, n_test=1, len_range=len_range)


def test_select_adv_target_closest_length():
    t3, t5, t9 = (1,) * 3, (2,) * 5, (3,) * 9
    assert select_adv_target((0,) * 5, [t3, t5, t9]) == t5


def test_select_adv_target_tie_breaks_low_index():
    t3, t5 = (1,) * 3, (2,) * 5
    assert select_adv_target((0,) * 4, [t3, t5]) == t3


def test_select_adv_target_single_candidate():
    only = (4, 4)
    assert select_adv_target((0, 0, 0), [only]) == only


def test_dataset_round_trip_byte_exact(tmp_path):
    ds = gen_dataset(5, n_train=6, n_valid=3, n_test=3)
    d1 = tmp_path / "a"
    d2 = tmp_path / "b"
    save_dataset(d1, ds)
    loaded = load_dataset(d1)
    assert loaded.seed == ds.seed
    for sa, sb in zip((ds.train, ds.valid, ds.test),
                      (loaded.train, loaded.valid, loaded.test)):
        for ua, ub in zip(sa, sb):
            assert ua.id == ub.id and ua.accent == ub.accent
            assert ua.transcript == ub.transcript
            assert np.array_equal(ua.features, ub.features)
    save_dataset(d2, loaded)
    for name in ("train.txt", "valid.txt", "test.txt"):
        assert (d1 / name).read_bytes() == (d2 / name).read_bytes()


def _cuts(path):
    """Every prefix of the file at ``path``, written back in turn."""
    raw = path.read_bytes()
    for end in range(len(raw)):
        path.write_bytes(raw[:end])
        yield
    path.write_bytes(raw)


def test_load_truncated_split_fails(tmp_path):
    ds = gen_dataset(5, n_train=2, n_valid=1, n_test=1, len_range=(2, 2), feat_dim=3)
    save_dataset(tmp_path, ds)
    path = tmp_path / "train.txt"
    loaded = []
    for _ in _cuts(path):
        try:
            utts, _meta = load_split(path)
        except DataError:
            continue
        loaded.append(len(utts))
    # no cut loads, not even one at an utterance boundary: the end line is gone
    assert loaded == []

    lines = path.read_text().splitlines()
    malformed = [(0, lines[0].replace(" vocab", " hash")),  # header field
                 (2, "one"),  # accent
                 (2, "5"),  # accent out of range
                 (3, ""),  # empty transcript
                 (3, lines[3] + " lorem"),  # transcript with a lorem word
                 (4, "0"),  # frame count
                 (5, " ".join(lines[5].split()[:-1]))]  # ragged feature row
    for i, bad in malformed:
        path.write_text("\n".join(lines[:i] + [bad] + lines[i + 1:]) + "\n")
        with pytest.raises(DataError, match=f"line {i + 1}"):
            load_split(path)
    # a file written under another vocabulary is refused
    path.write_text("\n".join([lines[0].replace(VOCAB_HASH, "0" * 12)] + lines[1:]) + "\n")
    with pytest.raises(DataError, match="vocab hash mismatch"):
        load_split(path)
    path.write_text(lines[0] + "\nend\n")
    with pytest.raises(DataError, match="no utterances"):
        load_dataset(tmp_path)

    # a file of the previous format is refused by its tag, not as truncated
    path.write_text(lines[0].replace(" v2 ", " v1 ") + "\n" + "\n".join(lines[1:-1]) + "\n")
    with pytest.raises(DataError, match="format toyspeech v1 is not read"):
        load_split(path)


# The generated bytes are the data contract: every grid cell, checkpoint
# and stored benchmark row is built from them. A change to the
# generator's draw order, arithmetic or output types fails here.
DATASET_SHA256 = {
    (0, 16): "c5de815dc0fe0c3d11bf7af08e7d47240330f04172a7ce1b79b38fbac26dd66d",
    (7, 16): "640c7a32c05522184281974fc68440b0ca44ab7ca427922f3b3fc76198cea114",
    (0, 3): "6abd362a08577dbe519bf6cf28c015e284f25941158c4413d9a213a883f413ed",
    (7, 3): "a2a2c4ad2bc1d9795ad31c64afbdb7f9ab7c39119ce5ac8e1c603254b048b982",
}
RENDER_SHA256 = {
    0.0: "c8c96a2d16e4f4b0b7352c668371d12a1f6eedcb9e1d8cfecad20653c34188b7",
    0.05: "0ab98821168807a4b4bed090fc3661a910e0eecddeb5fc1da1d7cc9ae471a03b",
}


def _sha256(arrays, *values):
    h = hashlib.sha256(repr(values).encode())
    for a in arrays:
        h.update(repr(a.shape).encode())
        h.update(np.ascontiguousarray(a, dtype="<f8").tobytes())
    return h.hexdigest()


@pytest.mark.parametrize(("seed", "feat_dim"), list(DATASET_SHA256))
def test_gen_dataset_bytes_are_pinned(seed, feat_dim):
    ds = gen_dataset(seed, n_train=40, n_valid=10, n_test=10, feat_dim=feat_dim)
    utts = ds.train + ds.valid + ds.test
    assert all(type(t) is int for u in utts for t in u.transcript)
    got = _sha256([u.features for u in utts],
                  [(u.id, u.transcript, u.accent) for u in utts])
    assert got == DATASET_SHA256[seed, feat_dim]


@pytest.mark.parametrize("noise_sigma", list(RENDER_SHA256))
def test_render_utterance_bytes_are_pinned(noise_sigma):
    rng = np.random.default_rng(42)
    feats = [render_utterance(tokens, accent, rng, noise_sigma=noise_sigma)
             for tokens, accent in (((0, 5, 23, 11), 0), ((23, 23, 4), 1), ((9,), 1))]
    assert _sha256(feats) == RENDER_SHA256[noise_sigma]


@pytest.mark.parametrize("accent", [-1, 2, 0.5])
def test_render_refuses_an_accent_outside_the_set(accent):
    with pytest.raises(DataError, match=f"accent must be in 0..1, got {accent}$"):
        render_utterance((0, 1), accent, np.random.default_rng(0))
