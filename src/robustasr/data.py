"""Deterministic synthetic accented-speech features and attack targets.

The vocabulary is fixed and lives here: ``WORDS`` is the content words,
then the lorem words, and a token id is a word's index in it. So is the
accent set, ``N_ACCENTS`` labels ``0..N_ACCENTS-1``. The model has one
output per word and one per accent (``ModelConfig.vocab_size`` must
equal ``N_WORDS`` and ``n_accents`` must equal ``N_ACCENTS``), and every
data file carries ``VOCAB_HASH`` so that files written under another
vocabulary are refused.

Each content word owns a fixed unit-norm prototype vector; an utterance
renders every word as a short run of frames, rotates them through the
accent's fixed linear map, and adds a little Gaussian noise. Training
transcripts use content words only. Attack target transcriptions come
from the lorem words, which share no word with the content words, so a
targeted attack is never accidentally "correct".

Everything is pure and seed-driven: the same (seed, config) always
yields byte-identical datasets and target sets. Only the splits are
saved; each split file records its seed, from which ``gen_adv_targets``
rebuilds the targets.
"""

from __future__ import annotations

import functools
import hashlib
import os
from dataclasses import dataclass
from typing import Iterable, Sequence

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
VOCAB_HASH = hashlib.sha256(("\x1f".join(CONTENT_WORDS) + "\x1e" +
                             "\x1f".join(LOREM_WORDS)).encode()).hexdigest()[:12]
_IDS = {w: i for i, w in enumerate(WORDS)}
N_ACCENTS = 2
_ACCENT_LINES = tuple(str(a) for a in range(N_ACCENTS))

DEFAULT_FEAT_DIM = 16
NOISE_SIGMA = 0.05
FRAMES_PER_WORD = (3, 6)  # inclusive range
_WORLD_SEED = 20240917  # fixes prototypes and accent maps across datasets
SPLIT_TAG = "toyspeech v2"  # v2: a final "end" line


class DataError(ValueError):
    pass


def to_ids(words: Sequence[str]) -> list[int]:
    try:
        return [_IDS[w] for w in words]
    except KeyError as e:
        raise DataError(f"unknown word {e.args[0]!r}") from None


def to_words(tokens: Sequence[int]) -> list[str]:
    for t in tokens:
        if t not in range(N_WORDS):
            raise DataError(f"token id {t} is not a word")
    return [WORDS[t] for t in tokens]


@functools.cache
def _world(feat_dim: int) -> tuple[np.ndarray, np.ndarray]:
    """The fixed geometry of the feature space: the content words'
    prototypes (n_content, F), unit rows, and the accents' orthogonal maps
    (N_ACCENTS, F, F). Built once per ``feat_dim``; read-only."""
    rng = np.random.default_rng([_WORLD_SEED, feat_dim])
    # prototypes share a strong common direction so the two accent
    # rotations displace every utterance consistently; the residual
    # word-specific parts keep the words themselves distinguishable
    common = rng.normal(size=feat_dim)
    common /= np.linalg.norm(common)
    protos = 1.5 * common + rng.normal(size=(len(CONTENT_WORDS), feat_dim))
    protos /= np.linalg.norm(protos, axis=1, keepdims=True)
    maps = np.stack([np.linalg.qr(rng.normal(size=(feat_dim, feat_dim)))[0]
                     for _ in range(N_ACCENTS)])
    protos.flags.writeable = maps.flags.writeable = False
    return protos, maps


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
                     feat_dim: int = DEFAULT_FEAT_DIM,
                     noise_sigma: float = NOISE_SIGMA) -> np.ndarray:
    """Emit 3..6 frames per word: accent-rotated prototype plus noise."""
    if not tokens:
        raise DataError("empty transcript")
    if accent not in range(N_ACCENTS):
        raise DataError(f"accent must be in 0..{N_ACCENTS - 1}, got {accent}")
    prototypes, accent_maps = _world(feat_dim)
    frames = []
    for tok in tokens:
        if tok not in CONTENT_IDS:
            raise DataError(f"token id {tok} is not a content word")
        n = int(rng.integers(FRAMES_PER_WORD[0], FRAMES_PER_WORD[1] + 1))
        base = prototypes[tok] @ accent_maps[accent]
        noise = rng.normal(scale=noise_sigma, size=(n, feat_dim)) if noise_sigma > 0 else 0.0
        frames.append(np.broadcast_to(base, (n, feat_dim)) + noise)
    return np.concatenate(frames, axis=0)


def _gen_split(name: str, n: int, len_range: tuple[int, int], seed: int,
               feat_dim: int) -> list[Utterance]:
    rng = np.random.default_rng([seed, {"train": 1, "valid": 2, "test": 3}[name]])
    accents = np.array([i % N_ACCENTS for i in range(n)])
    rng.shuffle(accents)
    utts = []
    for i in range(n):
        length = int(rng.integers(len_range[0], len_range[1] + 1))
        tokens = tuple(int(t) for t in rng.integers(0, len(CONTENT_WORDS), size=length))
        feats = render_utterance(tokens, int(accents[i]), rng, feat_dim)
        utts.append(Utterance(id=f"{name}-{i:05d}", features=feats,
                              transcript=tokens, accent=int(accents[i])))
    return utts


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


def gen_dataset(seed: int, n_train: int = 2000, n_valid: int = 200,
                n_test: int = 200, len_range: tuple[int, int] = (2, 6),
                feat_dim: int = DEFAULT_FEAT_DIM) -> DatasetSplit:
    """Three disjoint splits with balanced accents, deterministic per seed."""
    if min(n_train, n_valid, n_test) < 1:
        raise DataError("split sizes must be >= 1")
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
    if count < len(lengths):
        raise DataError(f"need at least {len(lengths)} targets to cover {len_range}")
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
# persistence: line-oriented text, byte-exact round trips


def _fmt(x: float) -> str:
    return repr(float(x))


def save_split(path, utts: Iterable[Utterance], feat_dim: int, seed: int,
               split_name: str) -> None:
    """A header line (``SPLIT_TAG`` and ``key=value`` fields), one record
    per utterance and an ``end`` line."""
    lines = [f"{SPLIT_TAG} F={feat_dim} vocab={VOCAB_HASH} seed={seed} "
             f"split={split_name}"]
    for u in utts:
        lines.append(u.id)
        lines.append(str(u.accent))
        lines.append(" ".join(to_words(u.transcript)))
        lines.append(str(u.n_frames))
        for row in u.features:
            lines.append(" ".join(_fmt(v) for v in row))
    lines.append("end")
    with open(path, "w") as f:
        f.write("\n".join(lines) + "\n")


def _parse(path, lines: list[str], i: int, parse):
    """``parse(lines[i])``, failing with a DataError that names the line."""
    try:
        return parse(lines[i])
    except (ValueError, KeyError) as e:
        raise DataError(f"{path}: line {i + 1}: {type(e).__name__}: {e}") from None


def _feature_row(line: str, feat_dim: int) -> np.ndarray:
    return np.array([float(v) for v in line.split()]).reshape(feat_dim)


def _accent(line: str) -> int:
    if line not in _ACCENT_LINES:
        raise DataError(f"accent must be in 0..{N_ACCENTS - 1}, got {line!r}")
    return int(line)


def _words(line: str) -> tuple[int, ...]:
    """A nonempty transcript of content words."""
    tokens = tuple(to_ids(line.split()))
    if not tokens:
        raise DataError("empty transcript")
    if any(t not in CONTENT_IDS for t in tokens):
        raise DataError(f"{line!r} holds a word outside ids {CONTENT_IDS}")
    return tokens


def load_split(path) -> tuple[list[Utterance], dict]:
    """The utterances and header fields of a file ``save_split`` wrote,
    refusing another format version or vocabulary. Those files end in an
    ``end`` line and a newline, so a file that does not was cut short,
    even at a record boundary."""
    with open(path) as f:
        text = f.read()
    if not text:
        raise DataError(f"{path}: empty file")
    lines = text.splitlines()
    head = lines[0].split()[:2]
    if head != SPLIT_TAG.split():
        raise DataError(f"{path}: format {' '.join(head)} is not read, only "
                        f"{SPLIT_TAG}; regenerate the file" if head[:1] == SPLIT_TAG.split()[:1]
                        else f"{path}: bad header {lines[0]!r}")
    if lines[-1] != "end" or not text.endswith("\n"):
        raise DataError(f"{path}: truncated (no end line)")
    lines.pop()

    def header(line):
        meta = dict(kv.split("=", 1) for kv in line.split()[2:])
        return int(meta["F"]), meta["vocab"], int(meta["seed"]), meta["split"]

    feat_dim, vocab, seed, split_name = _parse(path, lines, 0, header)
    if vocab != VOCAB_HASH:
        raise DataError(f"{path}: vocab hash mismatch")
    utts = []
    i = 1
    while i < len(lines):
        if i + 4 > len(lines):
            raise DataError(f"{path}: truncated utterance header at line {i + 1}")
        uid = lines[i]
        accent = _parse(path, lines, i + 1, _accent)
        tokens = _parse(path, lines, i + 2, _words)
        n = _parse(path, lines, i + 3, int)
        i += 4
        if not 0 < n <= len(lines) - i:
            raise DataError(f"{path}: line {i}: {uid} has {n} frames, "
                            f"{len(lines) - i} lines follow")
        feats = np.array([_parse(path, lines, i + t, lambda l: _feature_row(l, feat_dim))
                          for t in range(n)])
        i += n
        utts.append(Utterance(id=uid, features=feats, transcript=tokens,
                              accent=accent))
    if not utts:
        raise DataError(f"{path}: no utterances")
    return utts, {"feat_dim": feat_dim, "seed": seed, "split": split_name}


def save_dataset(outdir, ds: DatasetSplit) -> None:
    os.makedirs(outdir, exist_ok=True)
    for name in ("train", "valid", "test"):
        save_split(os.path.join(outdir, f"{name}.txt"), getattr(ds, name),
                   ds.feat_dim, ds.seed, name)


def load_dataset(outdir) -> DatasetSplit:
    parts = {}
    meta = None
    for name in ("train", "valid", "test"):
        parts[name], meta = load_split(os.path.join(outdir, f"{name}.txt"))
    return DatasetSplit(train=parts["train"], valid=parts["valid"],
                        test=parts["test"], seed=meta["seed"],
                        feat_dim=meta["feat_dim"])
