"""Deterministic synthetic accented-speech features and attack targets.

The vocabulary is fixed and lives here: ``WORDS`` is the content words,
then the lorem words, and a token id is a word's index in it. So is the
accent set, ``N_ACCENTS`` labels ``0..N_ACCENTS-1``. The model has one
output per word and one per accent (``ModelConfig.vocab_size`` must
equal ``N_WORDS`` and ``n_accents`` must equal ``N_ACCENTS``).

Each content word owns a fixed unit-norm prototype vector; an utterance
renders every word as a short run of frames, rotates them through the
accent's fixed linear map, and adds a little Gaussian noise. Training
transcripts use content words only. Attack target transcriptions come
from the lorem words, which share no word with the content words, so a
targeted attack is never accidentally "correct".

Everything is pure and seed-driven: the same (seed, config) always
yields byte-identical datasets and target sets. So a data directory
stores no features, only its recipe (``RECIPE``): the ``gen_dataset``
arguments and a sha256 of each split. Loading regenerates the splits it
needs and refuses one whose bytes differ from the recorded ones;
``gen_adv_targets`` rebuilds the targets from the recorded seed.

Those bytes are a contract, so the generator's draws are fixed: each
split has one generator, which shuffles the accents and then, per
utterance, draws one length and one ``size=length`` token array, and per
word one frame count and one block of noise (``render_utterance``). The
accent-rotated prototypes involve no draw; ``_world`` computes each once
per ``feat_dim`` and rendering adds the cached row to the noise.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
import sys
from dataclasses import dataclass
from typing import Sequence

import numpy as np

CONTENT_WORDS = (
    "alpha", "bravo", "charlie", "delta", "echo", "foxtrot", "golf", "hotel",
    "india", "juliett", "kilo", "lima", "mike", "november", "oscar", "papa",
    "quebec", "romeo", "sierra", "tango", "uniform", "victor", "whiskey",
    "yankee",
)

LOREM_WORDS = (
    "lorem", "ipsum", "dolor", "amet", "consectetur", "adipiscing", "elit",
    "sed", "eiusmod", "tempor", "incididunt", "labore", "dolore", "magna",
    "aliqua", "veniam",
)

WORDS = CONTENT_WORDS + LOREM_WORDS
N_WORDS = len(WORDS)
CONTENT_IDS = range(len(CONTENT_WORDS))
N_ACCENTS = 2

DEFAULT_FEAT_DIM = 16
NOISE_SIGMA = 0.05
FRAMES_PER_WORD = (3, 6)  # inclusive range
_WORLD_SEED = 20240917  # fixes prototypes and accent maps across datasets


class DataError(ValueError):
    pass


@functools.cache
def _world(feat_dim: int) -> np.ndarray:
    """The fixed geometry of the feature space, built once per
    ``feat_dim``: each content word's unit-norm prototype through each
    accent's orthogonal map, the frame every rendering of that word
    centres on, as a read-only (N_ACCENTS, n_content, F) table.

    Each row is its own vector-matrix product: the one matrix product
    ``prototypes @ map`` rounds some rows differently, which would change
    every generated byte."""
    rng = np.random.default_rng([_WORLD_SEED, feat_dim])
    # prototypes share a strong common direction so the two accent
    # rotations displace every utterance consistently; the residual
    # word-specific parts keep the words themselves distinguishable
    common = rng.normal(size=feat_dim)
    common /= np.linalg.norm(common)
    protos = 1.5 * common + rng.normal(size=(len(CONTENT_WORDS), feat_dim))
    protos /= np.linalg.norm(protos, axis=1, keepdims=True)
    maps = [np.linalg.qr(rng.normal(size=(feat_dim, feat_dim)))[0]
            for _ in range(N_ACCENTS)]
    rotated = np.array([[protos[tok] @ m for tok in CONTENT_IDS] for m in maps])
    rotated.flags.writeable = False
    return rotated


@dataclass(frozen=True)
class Utterance:
    id: str
    features: np.ndarray  # (T, F)
    transcript: tuple[int, ...]  # content-word ids
    accent: int  # 0..N_ACCENTS-1

    @property
    def n_frames(self) -> int:
        return self.features.shape[0]


@dataclass
class DatasetSplit:
    train: list[Utterance]
    valid: list[Utterance]
    test: list[Utterance]
    seed: int
    feat_dim: int = DEFAULT_FEAT_DIM


def render_utterance(tokens: Sequence[int], accent: int, rng: np.random.Generator,
                     feat_dim: int = DEFAULT_FEAT_DIM) -> np.ndarray:
    """Emit 3..6 frames per word: accent-rotated prototype plus noise.

    The draws from ``rng`` are the data contract, so they are fixed: per
    word one frame count ``n`` from ``integers``, then one
    ``normal(scale=NOISE_SIGMA, size=(n, F))``. The word's rotated
    prototype comes from a per-``feat_dim`` cache and is added in place to
    that noise."""
    if not tokens:
        raise DataError("empty transcript")
    if accent not in range(N_ACCENTS):
        raise DataError(f"accent must be in 0..{N_ACCENTS - 1}, got {accent}")
    rotated = _world(feat_dim)[accent]
    frames = []
    for tok in tokens:
        if tok not in CONTENT_IDS:
            raise DataError(f"token id {tok} is not a content word")
        n = int(rng.integers(FRAMES_PER_WORD[0], FRAMES_PER_WORD[1] + 1))
        word = rng.normal(scale=NOISE_SIGMA, size=(n, feat_dim))
        word += rotated[tok]
        frames.append(word)
    return np.concatenate(frames, axis=0)


def _gen_split(name: str, n: int, len_range: tuple[int, int], seed: int,
               feat_dim: int) -> list[Utterance]:
    rng = np.random.default_rng([seed, {"train": 1, "valid": 2, "test": 3}[name]])
    accents = np.array([i % N_ACCENTS for i in range(n)])
    rng.shuffle(accents)
    utts = []
    for i, accent in enumerate(accents.tolist()):
        length = int(rng.integers(len_range[0], len_range[1] + 1))
        tokens = tuple(rng.integers(0, len(CONTENT_WORDS), size=length).tolist())
        feats = render_utterance(tokens, accent, rng, feat_dim)
        utts.append(Utterance(id=f"{name}-{i:05d}", features=feats,
                              transcript=tokens, accent=accent))
    return utts


def check_int(name: str, value, least: int) -> None:
    """Refuse a config value that is not an integer >= ``least``; a bool
    is no integer, though it compares as 0 or 1."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < least:
        raise ValueError(f"{name} must be >= {least}, got {value}")


def check_real(name: str, value, unit: bool = False) -> float:
    """The float of a config value that is a real number, positive and
    finite (an integer past the largest float is not), or in [0, 1] under
    ``unit``; a bool is no number. Stored as a float, 1 and 1.0 write and
    hash alike."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{name} must be a real number, got {value!r}")
    if unit and not 0.0 <= value <= 1.0:
        raise ValueError(f"{name}={value} outside [0, 1]")
    if not unit and not 0 < value <= sys.float_info.max:
        raise ValueError(f"{name} must be positive and finite, got {value}")
    return float(value)


def check_len_range(len_range: tuple[int, int]) -> None:
    """Refuse a transcript length range that is not two integers
    ``lower, upper`` with 1 <= lower <= upper."""
    pair = isinstance(len_range, (tuple, list))
    if not (pair and len(len_range) == 2
            and all(isinstance(n, (int, np.integer)) and not isinstance(n, bool)
                    for n in len_range)
            and 1 <= len_range[0] <= len_range[1]):
        raise DataError(f"len_range {tuple(len_range) if pair else len_range!r} "
                        f"must be two integers with 1 <= lower <= upper")


def _check_count(name: str, value, least: int) -> None:
    """``check_int(name, value, least)``, refusing as a ``DataError``."""
    try:
        check_int(name, value, least)
    except ValueError as e:
        raise DataError(str(e)) from None


def gen_dataset(seed: int, n_train: int = 2000, n_valid: int = 200,
                n_test: int = 200, len_range: tuple[int, int] = (2, 6),
                feat_dim: int = DEFAULT_FEAT_DIM) -> DatasetSplit:
    """Three disjoint splits with balanced accents, deterministic per seed."""
    for name, n in (("n_train", n_train), ("n_valid", n_valid), ("n_test", n_test)):
        _check_count(name, n, 1)
    check_len_range(len_range)
    return DatasetSplit(
        train=_gen_split("train", n_train, len_range, seed, feat_dim),
        valid=_gen_split("valid", n_valid, len_range, seed, feat_dim),
        test=_gen_split("test", n_test, len_range, seed, feat_dim),
        seed=seed,
        feat_dim=feat_dim,
    )


def gen_adv_targets(seed: int, count: int = 12,
                    len_range: tuple[int, int] = (2, 6)) -> list[tuple[int, ...]]:
    """Fixed lorem-ipsum transcriptions; lengths cycle through len_range."""
    check_len_range(len_range)
    lengths = list(range(len_range[0], len_range[1] + 1))
    _check_count("count", count, len(lengths))  # a target of every length
    rng = np.random.default_rng([seed, 4])
    lo = len(CONTENT_WORDS)
    targets = []
    for i in range(count):
        length = lengths[i % len(lengths)]
        toks = tuple(int(lo + t) for t in rng.integers(0, len(LOREM_WORDS),
                                                       size=length))
        targets.append(toks)
    return targets


def select_adv_target(original: Sequence[int],
                      targets: Sequence[tuple[int, ...]]) -> tuple[int, ...]:
    """Pick the target whose length is closest to the original; first wins ties."""
    if not targets:
        raise DataError("no adversarial targets")
    best = min(range(len(targets)),
               key=lambda i: (abs(len(targets[i]) - len(original)), i))
    return tuple(targets[best])


# ---------------------------------------------------------------------------
# persistence: a data directory holds the recipe that regenerates it

RECIPE = "recipe.json"
RECIPE_TAG = "robustasr-data v1"
_SPLITS = ("train", "valid", "test")
_RECIPE_INTS = ("seed", "n_train", "n_valid", "n_test", "feat_dim")
_RECIPE_KEYS = {"format", *_RECIPE_INTS, "len_range", "sha256"}


def _sha256(utts: Sequence[Utterance]) -> str:
    """A split's digest: the repr of its (id, transcript, accent) list,
    then each utterance's feature shape and little-endian float64 bytes."""
    h = hashlib.sha256(repr(([(u.id, u.transcript, u.accent) for u in utts],)).encode())
    for u in utts:
        h.update(repr(u.features.shape).encode())
        h.update(np.ascontiguousarray(u.features, dtype="<f8").tobytes())
    return h.hexdigest()


def save_dataset(outdir, ds: DatasetSplit, len_range: tuple[int, int]) -> None:
    """Write ``outdir/RECIPE``: the ``gen_dataset`` arguments that made
    ``ds`` (its seed, split sizes and ``feat_dim``, and ``len_range``),
    ``RECIPE_TAG`` and the sha256 of each split."""
    recipe = {"format": RECIPE_TAG, "seed": ds.seed, "n_train": len(ds.train),
              "n_valid": len(ds.valid), "n_test": len(ds.test),
              "len_range": list(len_range), "feat_dim": ds.feat_dim,
              "sha256": {name: _sha256(getattr(ds, name)) for name in _SPLITS}}
    os.makedirs(outdir, exist_ok=True)
    with open(os.path.join(outdir, RECIPE), "w") as f:
        f.write(json.dumps(recipe, indent=2) + "\n")


def _read_recipe(outdir) -> tuple[str, dict]:
    """The path and contents of ``outdir/RECIPE``, refusing a missing,
    unknown or ill-typed key and another format tag."""
    path = os.path.join(outdir, RECIPE)
    try:
        with open(path) as f:
            recipe = json.load(f)
    except FileNotFoundError:
        raise DataError(f"{path}: no such file; a data directory holds the recipe "
                        "that gen-data writes, so rerun gen-data") from None
    except ValueError as e:
        raise DataError(f"{path}: not JSON: {e}") from None
    if not isinstance(recipe, dict):
        raise DataError(f"{path}: not a JSON object")
    for problem, keys in (("missing", _RECIPE_KEYS - recipe.keys()),
                          ("unknown", recipe.keys() - _RECIPE_KEYS)):
        if keys:
            raise DataError(f"{path}: {problem} key " + ", ".join(map(repr, sorted(keys))))
    if recipe["format"] != RECIPE_TAG:
        raise DataError(f"{path}: format {recipe['format']!r} is not read, only "
                        f"{RECIPE_TAG!r}; rerun gen-data")
    try:
        for key in _RECIPE_INTS:
            check_int(key, recipe[key], 0 if key == "seed" else 1)
        check_len_range(recipe["len_range"])
    except ValueError as e:
        raise DataError(f"{path}: {e}") from None
    digests = recipe["sha256"]
    if not (isinstance(digests, dict) and sorted(digests) == sorted(_SPLITS)
            and all(isinstance(d, str) for d in digests.values())):
        raise DataError(f"{path}: sha256 must map each of {', '.join(_SPLITS)} "
                        f"to a digest, got {digests!r}")
    return path, recipe


def _regenerate(path: str, recipe: dict, name: str) -> list[Utterance]:
    """Split ``name`` of ``recipe``, refused unless its bytes are the ones
    whose digest the recipe records."""
    utts = _gen_split(name, recipe[f"n_{name}"], recipe["len_range"], recipe["seed"],
                      recipe["feat_dim"])
    if _sha256(utts) != recipe["sha256"][name]:
        raise DataError(f"{path}: the {name} split regenerates to other bytes than "
                        "the ones its sha256 records; rerun gen-data")
    return utts


def load_test_split(outdir) -> tuple[list[Utterance], int]:
    """The test split of a data directory and the data's seed; only that
    split is regenerated."""
    path, recipe = _read_recipe(outdir)
    return _regenerate(path, recipe, "test"), recipe["seed"]


def load_dataset(outdir) -> DatasetSplit:
    """The three splits of a data directory, regenerated from the recipe
    that ``save_dataset`` wrote and checked against its digests."""
    path, recipe = _read_recipe(outdir)
    splits = {name: _regenerate(path, recipe, name) for name in _SPLITS}
    return DatasetSplit(**splits, seed=recipe["seed"], feat_dim=recipe["feat_dim"])
