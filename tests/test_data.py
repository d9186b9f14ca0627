import hashlib
import json

import numpy as np
import pytest

from robustasr.data import (
    CONTENT_IDS,
    CONTENT_WORDS,
    LOREM_WORDS,
    N_WORDS,
    NOISE_SIGMA,
    RECIPE,
    WORDS,
    DataError,
    gen_adv_targets,
    gen_dataset,
    load_dataset,
    load_test_split,
    render_utterance,
    save_dataset,
    select_adv_target,
)


def test_vocabularies_disjoint():
    assert not (set(CONTENT_WORDS) & set(LOREM_WORDS))


def test_vocabulary_ids():
    assert N_WORDS == 40 and CONTENT_IDS == range(24)
    assert [WORDS.index(w) for w in ("alpha", "yankee", "lorem", "veniam")] == \
        [0, 23, 24, 39]


def test_render_deterministic():
    toks = (1, 5, 9)
    a = render_utterance(toks, 0, np.random.default_rng(3))
    b = render_utterance(toks, 0, np.random.default_rng(3))
    assert np.array_equal(a, b)


def test_render_accents_differ_without_noise():
    # Two generators in the same state draw the same frame counts and the
    # same noise, so the renderings differ by the accents' maps alone.
    toks = (2, 7)
    a = render_utterance(toks, 0, np.random.default_rng(1))
    b = render_utterance(toks, 1, np.random.default_rng(1))
    assert a.shape == b.shape
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
    assert targets == gen_adv_targets(9, count=12, len_range=len_range)


@pytest.mark.parametrize("len_range", [(0, 3), (3, 2), (-1, 0)])
def test_generators_refuse_a_length_range_with_empty_or_no_lengths(len_range):
    with pytest.raises(DataError, match=rf"len_range \({len_range[0]}, {len_range[1]}\)"):
        gen_adv_targets(0, len_range=len_range)
    with pytest.raises(DataError, match=rf"len_range \({len_range[0]}, {len_range[1]}\)"):
        gen_dataset(0, n_train=1, n_valid=1, n_test=1, len_range=len_range)


@pytest.mark.parametrize("value, message", [
    (0, "must be >= 1, got 0"),
    (True, "must be an integer, got True"),
    (2.5, "must be an integer, got 2.5"),
    ("3", "must be an integer, got '3'"),
])
@pytest.mark.parametrize("name", ["n_train", "n_valid", "n_test", "count"])
def test_generators_refuse_a_count_that_is_no_positive_integer(name, value, message):
    # a bool compares as 1, and a float or a string fails only inside numpy
    with pytest.raises(DataError, match=f"^{name} {message}$"):
        if name == "count":
            gen_adv_targets(0, count=value, len_range=(2, 2))
        else:
            gen_dataset(0, **{"n_train": 1, "n_valid": 1, "n_test": 1, name: value})


def test_gen_adv_targets_refuses_a_count_below_the_lengths_it_covers():
    with pytest.raises(DataError, match=r"^count must be >= 5, got 4$"):
        gen_adv_targets(0, count=4, len_range=(2, 6))


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
    # a data directory is one recipe file, from which the loaders
    # regenerate the bytes gen_dataset gave
    ds = gen_dataset(5, n_train=6, n_valid=3, n_test=4, len_range=(2, 3), feat_dim=5)
    save_dataset(tmp_path / "a", ds, (2, 3))
    assert [p.name for p in (tmp_path / "a").iterdir()] == [RECIPE]
    recipe = json.loads((tmp_path / "a" / RECIPE).read_text())
    # the digest of each split is the one the pinned-bytes test below takes
    assert recipe["sha256"] == {
        name: _sha256([u.features for u in getattr(ds, name)],
                      [(u.id, u.transcript, u.accent) for u in getattr(ds, name)])
        for name in ("train", "valid", "test")}
    loaded = load_dataset(tmp_path / "a")
    assert (loaded.seed, loaded.feat_dim) == (5, 5)
    for sa, sb in zip((ds.train, ds.valid, ds.test),
                      (loaded.train, loaded.valid, loaded.test)):
        assert len(sa) == len(sb)
        for ua, ub in zip(sa, sb):
            assert ua.id == ub.id and ua.accent == ub.accent
            assert ua.transcript == ub.transcript
            assert np.array_equal(ua.features, ub.features)
    test, seed = load_test_split(tmp_path / "a")
    assert seed == 5 and [u.id for u in test] == [u.id for u in ds.test]
    assert all(np.array_equal(a.features, b.features) for a, b in zip(test, ds.test))
    save_dataset(tmp_path / "b", loaded, (2, 3))
    assert (tmp_path / "a" / RECIPE).read_bytes() == (tmp_path / "b" / RECIPE).read_bytes()


def test_load_refuses_a_bad_recipe(tmp_path):
    ds = gen_dataset(5, n_train=3, n_valid=2, n_test=2, len_range=(2, 3), feat_dim=3)
    save_dataset(tmp_path, ds, (2, 3))
    path = tmp_path / RECIPE
    good = json.loads(path.read_text())

    def refused(message, loader=load_dataset):
        with pytest.raises(DataError, match=message) as e:
            loader(tmp_path)
        assert str(e.value).startswith(f"{path}: ")

    # every cut into the JSON text is refused, before anything is generated
    raw = path.read_bytes()
    assert raw.endswith(b"}\n")
    for end in range(len(raw) - 1):
        path.write_bytes(raw[:end])
        refused("not JSON")
    path.write_text("[]")
    refused("not a JSON object")

    def edited(**change):
        path.write_text(json.dumps({**good, **change}))

    edited(n_tests=2)
    refused("unknown key 'n_tests'")
    path.write_text(json.dumps({k: v for k, v in good.items() if k != "feat_dim"}))
    refused("missing key 'feat_dim'")
    for key, bad, message in [("seed", "5", "an integer, got '5'"), ("seed", -1, ">= 0, got -1"),
                              ("n_train", 3.0, "an integer, got 3.0"),
                              ("n_valid", True, "an integer, got True"),
                              ("n_test", 0, ">= 1, got 0"),
                              ("feat_dim", None, "an integer, got None")]:
        edited(**{key: bad})
        refused(f"{key} must be {message}")
    edited(len_range=[3, 2])
    refused(r"len_range \(3, 2\) must be two integers")
    edited(sha256={"train": good["sha256"]["train"]})
    refused("sha256 must map each of train, valid, test to a digest")
    edited(format="robustasr-data v0")
    refused("format 'robustasr-data v0' is not read, only 'robustasr-data v1'; "
            "rerun gen-data")

    # a recipe whose digest does not match the regenerated bytes, here
    # one that records another seed's data
    other = tmp_path / "other"
    save_dataset(other, gen_dataset(6, n_train=3, n_valid=2, n_test=2,
                                    len_range=(2, 3), feat_dim=3), (2, 3))
    edited(sha256=json.loads((other / RECIPE).read_text())["sha256"])
    refused("the train split regenerates to other bytes than the ones its sha256 "
            "records; rerun gen-data")
    refused("the test split regenerates to other bytes", load_test_split)
    edited(sha256={**good["sha256"], "valid": good["sha256"]["train"]})
    refused("the valid split regenerates")
    load_test_split(tmp_path)  # the test split alone still matches

    # a directory of split files from before recipes names the missing file
    path.unlink()
    for name in ("train", "valid", "test"):
        (tmp_path / f"{name}.txt").write_text("toyspeech v2 F=3\nend\n")
    for loader in (load_dataset, load_test_split):
        refused("no such file; a data directory holds the recipe that gen-data "
                "writes, so rerun gen-data", loader)


# The generated bytes are the data contract: every grid cell, checkpoint
# and stored benchmark row is built from them. A change to the
# generator's draw order, arithmetic or output types fails here.
DATASET_SHA256 = {
    (0, 16): "c5de815dc0fe0c3d11bf7af08e7d47240330f04172a7ce1b79b38fbac26dd66d",
    (7, 16): "640c7a32c05522184281974fc68440b0ca44ab7ca427922f3b3fc76198cea114",
    (0, 3): "6abd362a08577dbe519bf6cf28c015e284f25941158c4413d9a213a883f413ed",
    (7, 3): "a2a2c4ad2bc1d9795ad31c64afbdb7f9ab7c39119ce5ac8e1c603254b048b982",
}
# keyed by the noise level the pinned bytes were rendered at
RENDER_SHA256 = {
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
    assert NOISE_SIGMA == noise_sigma
    rng = np.random.default_rng(42)
    feats = [render_utterance(tokens, accent, rng)
             for tokens, accent in (((0, 5, 23, 11), 0), ((23, 23, 4), 1), ((9,), 1))]
    assert _sha256(feats) == RENDER_SHA256[noise_sigma]


@pytest.mark.parametrize("accent", [-1, 2, 0.5])
def test_render_refuses_an_accent_outside_the_set(accent):
    with pytest.raises(DataError, match=f"accent must be in 0..1, got {accent}$"):
        render_utterance((0, 1), accent, np.random.default_rng(0))
