import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from oracles import argmax_attention_decode, close_to, ctc_prefix_score
from prefix_reference import ReferencePrefixScorer

from robustasr import autodiff as ad
from robustasr.decode import CtcPrefixScorer, joint_greedy_decode
from robustasr.losses import MtlWeights
from robustasr.model import ModelConfig, encode, init_params, pad_batch

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
    # A ragged batch, scored in lockstep, against the full recursion on
    # each row's own unpadded lattice; a batch of one goes through the
    # (T, V+1) lift.
    rng = np.random.default_rng({"sharp": 1, "flat": 2, "neginf": 3}[kind])
    for trial in range(40):
        width = int(rng.integers(2, 7))
        n_rows = 1 if trial % 4 == 0 else int(rng.integers(2, 6))
        lengths = [1 if trial < 5 else int(rng.integers(1, 12)) for _ in range(n_rows)]
        lps = [random_lattice(rng, kind, t, width) for t in lengths]
        if n_rows == 1:
            lazy = CtcPrefixScorer(lps[0])
        else:
            batch = rng.normal(size=(n_rows, max(lengths), width))  # padding is ignored
            for r, lp in enumerate(lps):
                batch[r, :lengths[r]] = lp
            lazy = CtcPrefixScorer(batch, lengths)
        refs = [ReferencePrefixScorer(lp) for lp in lps]
        state, ref_states = lazy.initial_state(), [ref.initial_state() for ref in refs]
        for _step in range(max(lengths) + 2):  # runs past the reachable prefixes
            psi, eos, phi, first = lazy.extend(state)
            psi, eos = np.atleast_2d(psi), np.atleast_1d(eos)
            tokens = []
            for r, (ref, ref_state) in enumerate(zip(refs, ref_states)):
                ref_psi, ref_eos, r_n, r_b = ref.extend(ref_state)
                assert psi[r].tobytes() == ref_psi.tobytes()
                assert eos[r].tobytes() == np.float64(ref_eos).tobytes()
                if ref_state.prefix and rng.random() < 0.4:
                    c = ref_state.prefix[-1]  # a repeated token
                else:
                    c = int(rng.integers(0, width - 1))
                tokens.append(c)
                ref_states[r] = ref.advance(ref_state, c, ref_psi, r_n, r_b)
            state = lazy.advance(state, tokens[0] if n_rows == 1 else tokens,
                                 psi[0] if n_rows == 1 else psi, phi, first)
            assert state.last.tolist() == tokens
            for r, (t, ref_state) in enumerate(zip(lengths, ref_states)):
                assert state.psi[r].tobytes() == np.float64(ref_state.psi).tobytes()
                assert state.r_n[r, :t].tobytes() == ref_state.r_n.tobytes()
                assert state.r_b[r, :t].tobytes() == ref_state.r_b.tobytes()


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
    # A batch counts one evaluation per row and step it scored.
    xs = [np.random.default_rng(seed + r).normal(size=(3 + r, TINY.feat_dim))
          for r in range(4)]
    x, lengths = pad_batch(xs)
    with ad.no_grad():
        hidden = encode(params, ad.constant(x), lengths)
    before = CtcPrefixScorer.evaluations
    results = joint_greedy_decode(params, hidden, MtlWeights(1.0, 0.5, lambda_i_C=0.5),
                                  6, lengths)
    assert (CtcPrefixScorer.evaluations - before
            == sum(len(r.per_step_scores) for r in results))


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


# --- a batch decodes as its batches of one -------------------------------------


@st.composite
def decode_batches(draw):
    lam = draw(st.sampled_from([0.0, 0.5, 1.0]))
    lengths = draw(st.lists(st.integers(1, 9), min_size=1, max_size=6))
    max_len = draw(st.integers(1, 6))
    eos_bias = draw(st.sampled_from([-2.0, 0.0, 2.0]))
    return lam, lengths, max_len, eos_bias, draw(st.integers(0, 2 ** 32 - 1))


@settings(max_examples=40, deadline=None)
@given(decode_batches())
@example((0.0, [9, 2, 5, 1], 6, 0.0, 1))
@example((0.5, [1, 7, 4], 4, 0.0, 2))
@example((1.0, [3, 8, 1, 6], 6, 0.0, 3))
def test_batched_decode_matches_batch_of_one(case):
    # Rows stop at different steps, some at eos and some at max_len; the
    # eos bias moves where. Each row must decode as its batch of one.
    lam, lengths, max_len, eos_bias, seed = case
    params = init_params(TINY)
    params["dec.b_out"].data[TINY.eos] = eos_bias
    params["ctc.b"].data[TINY.vocab_size] = eos_bias  # the blank column
    rng = np.random.default_rng(seed)
    xs = [rng.normal(size=(n, TINY.feat_dim)) for n in lengths]
    weights = MtlWeights(1.0, 0.5, lambda_i_C=lam)
    x, _ = pad_batch(xs)
    with ad.no_grad():
        hidden = encode(params, ad.constant(x), lengths)
        ones = [joint_greedy_decode(params, encode(params, ad.constant(x_r)), weights,
                                    max_len) for x_r in xs]
    results = joint_greedy_decode(params, hidden, weights, max_len, lengths)
    assert len(results) == len(xs)
    for res, one in zip(results, ones):
        assert res.hypothesis == one.hypothesis
        assert len(res.per_step_scores) == len(one.per_step_scores)
        assert close_to(res.per_step_scores, one.per_step_scores, 1e-12)
