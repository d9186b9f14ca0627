import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import argmax_attention_decode, ctc_prefix_score
from prefix_reference import ReferencePrefixScorer

from robustasr import autodiff as ad
from robustasr.decode import (
    CtcPrefixScorer,
    _logaddexp,
    joint_greedy_decode,
)
from robustasr.losses import MtlWeights
from robustasr.model import ModelConfig, encode, init_params

TINY = ModelConfig(feat_dim=3, enc_hidden=4, enc_layers=1, dec_hidden=4,
                   attn_dim=3, emb_dim=3, vocab_size=4, disc_hidden=4, seed=3)


def norm_logp(raw):
    raw = np.asarray(raw, dtype=float)
    m = raw.max(axis=1, keepdims=True)
    return raw - m - np.log(np.exp(raw - m).sum(axis=1, keepdims=True))


def peaked_logp(frame_peaks, width, strength=8.0):
    raw = np.zeros((len(frame_peaks), width))
    for t, lab in enumerate(frame_peaks):
        raw[t, lab] = strength
    return norm_logp(raw)


# --- CTC prefix scoring ------------------------------------------------------


def brute_begins_with(lp, prefix):
    """P(collapsed output begins with prefix), by full path enumeration."""
    t_frames, width = lp.shape
    blank = width - 1
    total = 0.0
    for path in itertools.product(range(width), repeat=t_frames):
        prev = None
        out = []
        for lab in path:
            if lab != prev and lab != blank:
                out.append(lab)
            prev = lab
        if tuple(out[:len(prefix)]) == tuple(prefix):
            total += math.exp(sum(lp[t, lab] for t, lab in enumerate(path)))
    return total


def brute_equals(lp, seq):
    t_frames, width = lp.shape
    blank = width - 1
    total = 0.0
    for path in itertools.product(range(width), repeat=t_frames):
        prev = None
        out = []
        for lab in path:
            if lab != prev and lab != blank:
                out.append(lab)
            prev = lab
        if tuple(out) == tuple(seq):
            total += math.exp(sum(lp[t, lab] for t, lab in enumerate(path)))
    return total


def test_prefix_score_single_frame_uniform():
    lp = np.full((1, 2), -math.log(2))  # one word 'a' + blank
    assert ctc_prefix_score(lp, (), 0) == pytest.approx(math.log(0.5), abs=1e-12)
    # eos after "a": the sequence is exactly "a"
    assert ctc_prefix_score(lp, (0,), 1) == pytest.approx(math.log(0.5), abs=1e-12)


def test_prefix_score_matches_brute_force():
    rng = np.random.default_rng(71)
    for trial in range(50):
        width = int(rng.integers(2, 4))
        t = int(rng.integers(1, 5))
        lp = norm_logp(rng.normal(size=(t, width)))
        n_words = width - 1
        for plen in range(0, min(t, 3) + 1):
            prefix = tuple(rng.integers(0, n_words, size=plen))
            for cand in range(n_words + 1):
                got = ctc_prefix_score(lp, prefix, cand)
                if cand == n_words:
                    want = brute_equals(lp, prefix)
                else:
                    want = brute_begins_with(lp, prefix + (cand,))
                if want == 0.0:
                    assert got == -np.inf
                else:
                    assert abs(got - math.log(want)) < 1e-9


def test_full_sequence_probabilities_sum_to_one():
    rng = np.random.default_rng(5)
    lp = norm_logp(rng.normal(size=(3, 3)))  # 2 words + blank
    total = 0.0
    for length in range(0, 4):
        for seq in itertools.product(range(2), repeat=length):
            score = ctc_prefix_score(lp, seq, 2)  # eos index = n_words
            if score > -np.inf:
                total += math.exp(score)
    assert total == pytest.approx(1.0, abs=1e-9)


def test_prefix_longer_than_frames_is_impossible():
    lp = np.full((1, 2), -math.log(2))
    assert ctc_prefix_score(lp, (0,), 0) == -np.inf


@st.composite
def prefix_cases(draw):
    width = draw(st.integers(2, 4))
    t = draw(st.integers(1, 4))
    prefix = tuple(draw(st.lists(st.integers(0, width - 2), max_size=3)))
    candidate = draw(st.integers(0, width - 1))
    seed = draw(st.integers(0, 2 ** 32 - 1))
    return norm_logp(np.random.default_rng(seed).normal(size=(t, width))), prefix, candidate


@settings(max_examples=60, deadline=None)
@given(prefix_cases())
def test_prefix_score_property_matches_brute_force(case):
    lp, prefix, cand = case
    if cand == lp.shape[1] - 1:  # eos: the output equals the prefix
        want = brute_equals(lp, prefix)
    else:
        want = brute_begins_with(lp, prefix + (cand,))
    got = ctc_prefix_score(lp, prefix, cand)
    if want == 0.0:
        assert got == -np.inf
    else:
        assert abs(got - math.log(want)) < 1e-9


# --- the lazy scorer is bit-identical to the full recursion -------------------


def test_logaddexp_mirror_bit_identical_to_numpy():
    rng = np.random.default_rng(17)
    n = 100_000
    x = rng.normal(size=n) * rng.choice([1e-3, 1.0, 30.0, 1e3], size=n)
    y = rng.normal(size=n) * rng.choice([1e-3, 1.0, 30.0, 1e3], size=n)
    y[:5000] = x[:5000]  # equal arguments
    y[5000:10000] = x[5000:10000] + rng.normal(size=5000) * 1e-12
    special = [np.inf, -np.inf, np.nan, 0.0, -0.0, 1.0, -1.0, -745.0, 709.0]
    pairs = list(itertools.product(special, repeat=2))
    x = np.concatenate([x, [a for a, _ in pairs]])
    y = np.concatenate([y, [b for _, b in pairs]])
    with np.errstate(invalid="ignore"):
        want = np.logaddexp(x, y)
    got = np.array([_logaddexp(a, b) for a, b in zip(x.tolist(), y.tolist())])
    assert got.tobytes() == want.tobytes()


def random_lattice(rng, kind, t, width):
    raw = rng.normal(size=(t, width))
    if kind == "sharp":
        return norm_logp(raw * 30.0)
    if kind == "flat":
        return norm_logp(raw * 0.1)
    lp = norm_logp(raw)
    lp[rng.random(size=lp.shape) < 0.3] = -np.inf  # unreachable emissions
    return lp


@pytest.mark.parametrize("kind", ["sharp", "flat", "neginf"])
def test_lazy_scorer_bit_identical_to_full_recursion(kind):
    rng = np.random.default_rng({"sharp": 1, "flat": 2, "neginf": 3}[kind])
    for trial in range(40):
        t = 1 if trial < 5 else int(rng.integers(2, 12))
        width = int(rng.integers(2, 7))
        lp = random_lattice(rng, kind, t, width)
        lazy, ref = CtcPrefixScorer(lp), ReferencePrefixScorer(lp)
        state, ref_state = lazy.initial_state(), ref.initial_state()
        for _step in range(t + 2):  # runs past the reachable prefixes
            psi, eos, phi, first = lazy.extend(state)
            ref_psi, ref_eos, r_n, r_b = ref.extend(ref_state)
            assert psi.tobytes() == ref_psi.tobytes()
            assert np.float64(eos).tobytes() == np.float64(ref_eos).tobytes()
            if state.prefix and rng.random() < 0.4:
                c = state.prefix[-1]  # a repeated token
            else:
                c = int(rng.integers(0, width - 1))
            state = lazy.advance(state, c, psi, phi, first)
            ref_state = ref.advance(ref_state, c, ref_psi, r_n, r_b)
            assert state.prefix == ref_state.prefix
            assert np.float64(state.psi).tobytes() == np.float64(ref_state.psi).tobytes()
            assert state.r_n.tobytes() == ref_state.r_n.tobytes()
            assert state.r_b.tobytes() == ref_state.r_b.tobytes()


# --- joint decoding ----------------------------------------------------------


@pytest.fixture()
def params():
    return init_params(TINY)


def random_hidden(params, t, seed):
    rng = np.random.default_rng(seed)
    x = ad.constant(rng.normal(size=(t, TINY.feat_dim)))
    return encode(params, x)


def decode_at_zero(params, h, max_len):
    return joint_greedy_decode(params, h, MtlWeights(1.0, 0.5, lambda_i_C=0.0),
                               max_len)


def test_joint_at_zero_matches_attention_decode(params):
    for seed in range(20):
        h = random_hidden(params, 4 + seed % 5, seed)
        joint = decode_at_zero(params, h, max_len=6)
        att = argmax_attention_decode(params, h, max_len=6)
        assert joint.hypothesis == att.hypothesis
        assert (np.array(joint.per_step_scores).tobytes()
                == np.array(att.per_step_scores).tobytes())


def test_joint_at_zero_never_scores_ctc(params):
    before = CtcPrefixScorer.evaluations
    h = random_hidden(params, 5, 99)
    joint_greedy_decode(params, h, MtlWeights(1.0, 0.5, lambda_i_C=0.0), max_len=6)
    assert CtcPrefixScorer.evaluations == before
    joint_greedy_decode(params, h, MtlWeights(1.0, 0.5, lambda_i_C=0.5), max_len=6)
    assert CtcPrefixScorer.evaluations > before


@pytest.mark.parametrize("seed", range(6))
def test_joint_scores_ctc_once_per_step(params, seed):
    h = random_hidden(params, 3 + seed, seed)
    before = CtcPrefixScorer.evaluations
    res = joint_greedy_decode(params, h, MtlWeights(1.0, 0.5, lambda_i_C=0.5), max_len=6)
    assert CtcPrefixScorer.evaluations - before == len(res.per_step_scores)


def test_joint_at_one_is_prefix_greedy_ctc():
    # the CTC head's weights are the identity, so its log-probs are the
    # hidden rows: hand-chosen peaked matrices (words a=0, b=1, blank=2)
    cfg = ModelConfig(feat_dim=3, enc_hidden=3, enc_layers=1, dec_hidden=4,
                      attn_dim=3, emb_dim=3, vocab_size=2, disc_hidden=4, seed=4)
    params = init_params(cfg)
    params["ctc.w"].data = np.eye(3)
    params["ctc.b"].data[...] = 0.0
    w = MtlWeights(1.0, 1.0, lambda_i_C=1.0)
    cases = [([0, 2, 1], (0, 1)),
             ([2, 0, 0, 2, 1], (0, 1)),  # repeats collapse
             ([2, 2, 2], ()),  # all blank
             ([0, 2, 0], (0, 0))]  # a blank separates repeats
    for peaks, want in cases:
        lp = peaked_logp(peaks, 3)
        # oracle: greedy over brute-force prefix probabilities
        prefix: tuple[int, ...] = ()
        for _ in range(5):
            scores = [brute_begins_with(lp, prefix + (c,)) for c in range(2)]
            scores.append(brute_equals(lp, prefix))
            best = int(np.argmax(scores))
            if best == 2:
                break
            prefix = prefix + (best,)
        res = joint_greedy_decode(params, ad.constant(lp), w, max_len=5)
        assert res.hypothesis == prefix == want, peaks


def test_per_step_combined_identity(params):
    for lam in (0.0, 0.3, 0.7, 1.0):
        h = random_hidden(params, 6, int(lam * 10))
        w = MtlWeights(1.0, 0.5, lambda_i_C=lam)
        res = joint_greedy_decode(params, h, w, max_len=5)
        assert res.per_step_scores
        for ctc_c, dec_c, comb in res.per_step_scores:
            assert comb == pytest.approx(lam * ctc_c + (1 - lam) * dec_c,
                                         abs=1e-12)


def test_attention_decode_eos_immediately(params):
    params["dec.w_out"].data[...] = 0.0
    params["dec.b_out"].data[...] = 0.0
    params["dec.b_out"].data[TINY.eos] = 50.0
    h = random_hidden(params, 4, 7)
    assert decode_at_zero(params, h, max_len=5).hypothesis == ()


def test_attention_decode_max_len_cap(params):
    params["dec.w_out"].data[...] = 0.0
    params["dec.b_out"].data[...] = 0.0
    params["dec.b_out"].data[1] = 50.0  # always emit word 1, never eos
    h = random_hidden(params, 4, 8)
    assert decode_at_zero(params, h, max_len=3).hypothesis == (1, 1, 1)


def test_attention_decode_deterministic(params):
    h = random_hidden(params, 5, 11)
    a = decode_at_zero(params, h, max_len=6)
    b = decode_at_zero(params, h, max_len=6)
    assert a == b
