"""Per-layer measurements for the traced run.

Spans wrap direct calls to the layer functions, made in the order that
``train.sample_losses``, ``attack.pgd_step`` and
``decode.joint_greedy_decode`` make them, on a fixed sample of the
workload's own inputs. Tape-record counts are taken at the same span
boundaries. Each replay is checked against the function it mirrors, so a
change to those functions that the replay no longer follows shows up as
an incorrect run rather than as misleading timings.
"""

from __future__ import annotations

import math
import statistics

import numpy as np

from robustasr import autodiff as ad
from robustasr.attack import AttackConfig, l2_step, pgd_attack, pgd_step, target_feasible
from robustasr.data import select_adv_target
from robustasr.decode import CtcPrefixScorer, joint_greedy_decode
from robustasr.experiments import rows_from_csv
from robustasr.losses import MtlWeights, ctc_loss, dec_loss, dis_loss, mtl_loss
from robustasr.metrics import edit_distance_words
from robustasr.model import ctc_head, decoder_advance, decoder_start, encode
from robustasr.train import sample_losses

from spans import percentiles
from workloads import LAMBDA_T_A, LAMBDA_T_C, MAX_DECODE_LEN

# utterances per sample; PGD replays run PGD_STEPS steps on each
TRAIN_SAMPLE = 8
PGD_SAMPLE = 2
PGD_STEPS = 10


def tag(lambda_i_C: float) -> str:
    return {0.0: "lic0", 0.5: "lic05", 1.0: "lic1"}[lambda_i_C]


# ---------------------------------------------------------------------------
# replays


def replay_train_utterance(tracer, params, utt, weights: MtlWeights) -> list[str]:
    lam_a, lam_c = weights.lambda_t_A, weights.lambda_t_C
    with tracer.span("train.utt_fwdbwd") as outer, ad.tape() as tp:
        with tracer.span("model.encode") as s:
            hidden = encode(params, ad.constant(utt.features))
        s["records"] = len(tp)
        l_ctc = l_dec = l_dis = 0.0
        if lam_a > 0.0 and lam_c > 0.0:
            n0 = len(tp)
            with tracer.span("losses.ctc") as s:
                l_ctc = ctc_loss(ctc_head(params, hidden), utt.transcript)
            s["records"] = len(tp) - n0
        if lam_a > 0.0 and lam_c < 1.0:
            n0 = len(tp)
            with tracer.span("losses.dec") as s:
                l_dec = dec_loss(params, hidden, utt.transcript)
            s["records"] = len(tp) - n0
        if lam_a < 1.0:
            n0 = len(tp)
            with tracer.span("losses.dis") as s:
                l_dis = dis_loss(params, hidden, utt.accent)
            s["records"] = len(tp) - n0
        bd = mtl_loss(weights, l_ctc, l_dec, l_dis)
        outer["records"] = len(tp)
        with tracer.span("autodiff.backward.train_utt"):
            ad.backward(bd.total)
    with ad.no_grad(), ad.tape():
        expected = sample_losses(params, utt, weights).l_mtl
    if not math.isclose(bd.l_mtl, expected, rel_tol=1e-9):
        return [f"train replay loss {bd.l_mtl!r} != sample_losses {expected!r}"]
    return []


def replay_pgd_step(tracer, params, x, delta, target, cfg: AttackConfig):
    lam = cfg.weights.lambda_i_C
    with tracer.span(f"attack.pgd_step.{tag(lam)}") as outer:
        x_adv = ad.leaf(x + delta)
        with ad.tape() as tp:
            with tracer.span("model.encode") as s:
                hidden = encode(params, x_adv)
            s["records"] = len(tp)
            if lam == 0.0:
                n0 = len(tp)
                with tracer.span("losses.dec") as s:
                    loss = dec_loss(params, hidden, target)
                s["records"] = len(tp) - n0
            else:
                n0 = len(tp)
                with tracer.span("losses.ctc") as s:
                    loss = ctc_loss(ctc_head(params, hidden), target)
                s["records"] = len(tp) - n0
                if lam < 1.0:
                    n0 = len(tp)
                    with tracer.span("losses.dec") as s:
                        l_dec = dec_loss(params, hidden, target)
                    s["records"] = len(tp) - n0
                    loss = lam * loss + (1.0 - lam) * l_dec
            outer["records"] = len(tp)
            with tracer.span("autodiff.backward.pgd_step"):
                ad.backward(loss)
        new_delta, _norm = l2_step(delta, x_adv.grad, cfg.epsilon, cfg.alpha)
    return new_delta


def replay_decode(tracer, params, hidden, lam: float):
    """Beam-1 hybrid decoding, step for step as joint_greedy_decode does it."""
    cfg = params.config
    hyp: list[int] = []
    steps = 0
    token = cfg.sos
    if lam == 0.0:
        state = decoder_start(params, hidden)
        for _ in range(MAX_DECODE_LEN):
            with tracer.span("model.decoder_advance.nograd"):
                logp, state = decoder_advance(params, hidden, state, token)
            steps += 1
            c = int(np.argmax(logp.data))
            if c == cfg.eos:
                break
            hyp.append(c)
            token = c
        return tuple(hyp), steps
    scorer = CtcPrefixScorer(ctc_head(params, hidden))
    state = scorer.initial_state()
    dec_state = decoder_start(params, hidden) if lam < 1.0 else None
    for _ in range(MAX_DECODE_LEN):
        with tracer.span("decode.prefix_extend"):
            psi, eos_score, r_n, r_b = scorer.extend(state)
        ctc_inc = np.append(psi, eos_score) - state.psi
        dec_next = None
        dec_scores = np.zeros(cfg.vocab_size + 1)
        if dec_state is not None:
            with tracer.span("model.decoder_advance.nograd"):
                dec_logp, dec_next = decoder_advance(params, hidden, dec_state, token)
            dec_scores = dec_logp.data
        with np.errstate(invalid="ignore"):
            combined = lam * ctc_inc + (1.0 - lam) * dec_scores
        steps += 1
        c = int(np.argmax(combined))
        if c == cfg.eos:
            break
        hyp.append(c)
        state = scorer.advance(state, c, psi, r_n, r_b)
        dec_state = dec_next
        token = c
    return tuple(hyp), steps


def replay_eval_utterance(tracer, params, utt, weights: MtlWeights) -> list[str]:
    name = tag(weights.lambda_i_C)
    with ad.no_grad(), ad.tape():
        with tracer.span("model.encode.nograd"):
            hidden = encode(params, ad.constant(utt.features))
        with tracer.span(f"decode.utt.{name}") as s:
            hyp, steps = replay_decode(tracer, params, hidden, weights.lambda_i_C)
        s["steps"] = steps
        with tracer.span("metrics.edit_distance"):
            edit_distance_words(utt.transcript, hyp)
        expected = joint_greedy_decode(params, hidden, weights, MAX_DECODE_LEN)
    if expected.hypothesis != hyp or len(expected.per_step_scores) != steps:
        return [f"decode replay of {utt.id} at {name} differs from joint_greedy_decode"]
    return []


def attack_utterance(tracer, params, utt, target, cfg: AttackConfig,
                     report_steps) -> bool:
    """pgd_attack plus the snapshot decodes attack_split makes after it;
    True if the attack stopped early on a zero gradient."""
    with tracer.span("attack.pgd_attack"):
        result = pgd_attack(params, utt.features, target, cfg)
    with tracer.span("attack.snapshot_decode"):
        for s in report_steps:
            with ad.no_grad(), ad.tape():
                hidden = encode(params, ad.constant(result.snapshots[s]))
                joint_greedy_decode(params, hidden, cfg.weights, MAX_DECODE_LEN)
    return result.converged_at is not None


# ---------------------------------------------------------------------------
# the sample


def sample(workload, state: dict, tracer) -> tuple[list[str], dict]:
    """Run the layer replays on the workload's own inputs.

    Returns (problems, extras) where extras holds the non-span metrics.
    """
    params = state["params"]
    problems: list[str] = []
    extras = {"converged_early": []}
    if "data" in state:  # trains: replay training passes on trained weights
        weights = MtlWeights(LAMBDA_T_A, LAMBDA_T_C)
        for utt in state["data"].train[:TRAIN_SAMPLE]:
            problems += replay_train_utterance(tracer, params.clone(), utt, weights)
    test = state["data"].test if "data" in state else state["test"]
    report_steps = getattr(workload, "report_steps", None)
    for weights in workload.modes():
        if report_steps:
            cfg = AttackConfig(epsilon=state["epsilon"], alpha=state["alpha"],
                               steps=max(report_steps), weights=weights,
                               report_at=report_steps)
            feasible = [u for u in test if target_feasible(
                u.features, select_adv_target(u.transcript, state["targets"]),
                weights)][:PGD_SAMPLE]
            for utt in feasible:
                target = select_adv_target(utt.transcript, state["targets"])
                extras["converged_early"].append(
                    attack_utterance(tracer, params, utt, target, cfg, report_steps))
                delta = np.zeros_like(utt.features)
                first = pgd_step(params, utt.features, delta, target, cfg).delta
                for k in range(PGD_STEPS):
                    delta = replay_pgd_step(tracer, params, utt.features, delta,
                                            target, cfg)
                    if k == 0 and not np.allclose(delta, first, rtol=1e-9, atol=1e-12):
                        problems.append(f"pgd replay step differs from pgd_step on {utt.id}")
        for utt in test[:workload.trace_decodes]:
            problems += replay_eval_utterance(tracer, params, utt, weights)
    return problems, extras


# ---------------------------------------------------------------------------
# metric assembly

# (metric, span names, unit, scale to unit, self time only)
TIMINGS = (
    ("autodiff.backward_ms.train_utt", ("autodiff.backward.train_utt",), "ms", 1e3, False),
    ("autodiff.backward_ms.pgd_step", ("autodiff.backward.pgd_step",), "ms", 1e3, False),
    ("model.encode_ms", ("model.encode",), "ms", 1e3, False),
    ("model.encode_ms.nograd", ("model.encode.nograd",), "ms", 1e3, False),
    ("model.decoder_advance_ms.nograd", ("model.decoder_advance.nograd",), "ms", 1e3, False),
    ("losses.ctc_ms", ("losses.ctc",), "ms", 1e3, False),
    ("losses.dec_ms", ("losses.dec",), "ms", 1e3, False),
    ("losses.dis_ms", ("losses.dis",), "ms", 1e3, False),
    ("train.utt_fwdbwd_ms", ("train.utt_fwdbwd",), "ms", 1e3, False),
    ("attack.pgd_step_ms.lic0", ("attack.pgd_step.lic0",), "ms", 1e3, False),
    ("attack.pgd_step_ms.lic05", ("attack.pgd_step.lic05",), "ms", 1e3, False),
    ("attack.pgd_step_self_ms", ("attack.pgd_step.lic0", "attack.pgd_step.lic05",
                                 "attack.pgd_step.lic1"), "ms", 1e3, True),
    ("decode.utt_ms.lic0", ("decode.utt.lic0",), "ms", 1e3, False),
    ("decode.utt_ms.lic05", ("decode.utt.lic05",), "ms", 1e3, False),
    ("decode.utt_ms.lic1", ("decode.utt.lic1",), "ms", 1e3, False),
    ("decode.prefix_extend_ms", ("decode.prefix_extend",), "ms", 1e3, False),
    ("metrics.edit_distance_us", ("metrics.edit_distance",), "us", 1e6, False),
    ("data.gen_dataset_s", ("data.gen_dataset",), "s", 1.0, False),
    ("model.load_checkpoint_s", ("model.load_checkpoint",), "s", 1.0, False),
)

# (metric, span names, span field averaged per call)
COUNTS = (
    ("autodiff.records.train_utt", ("train.utt_fwdbwd",), "records"),
    ("autodiff.records.pgd_step", ("attack.pgd_step.lic0", "attack.pgd_step.lic05",
                                   "attack.pgd_step.lic1"), "records"),
    ("model.records.encode", ("model.encode",), "records"),
    ("losses.records.ctc", ("losses.ctc",), "records"),
    ("losses.records.dec", ("losses.dec",), "records"),
    ("losses.records.dis", ("losses.dis",), "records"),
    ("decode.steps_per_utt.lic0", ("decode.utt.lic0",), "steps"),
    ("decode.steps_per_utt.lic05", ("decode.utt.lic05",), "steps"),
    ("decode.steps_per_utt.lic1", ("decode.utt.lic1",), "steps"),
)

# metrics that must repeat exactly across runs of one seed
EXACT = tuple(m for m, *_ in COUNTS) + ("decode.prefix_extend_calls",)


def metric_units() -> dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    units = {}
    for name, _spans, unit, _scale, _own in TIMINGS:
        units.update({f"{name}.p50": unit, f"{name}.p90": unit, f"{name}.n": "count"})
    units.update({name: "count" for name, *_ in COUNTS})
    units.update({"decode.prefix_extend_calls": "count",
                  "attack.feasible_ratio": "ratio",
                  "attack.converged_early": "ratio",
                  "attack.snapshot_decode_share": "ratio",
                  "trace.overhead_frac": "ratio"})
    return units


def metrics(tracer, extras: dict, csv_text: str, prefix_calls: int,
            overhead_frac: float) -> dict[str, float]:
    out: dict[str, float] = {}
    own = tracer.self_times()
    for name, spans, _unit, scale, self_only in TIMINGS:
        vals = [own[i] if self_only else rec["end"] - rec["start"]
                for i, rec in enumerate(tracer.spans) if rec["name"] in spans]
        out[f"{name}.p50"], out[f"{name}.p90"], out[f"{name}.n"] = percentiles(vals, scale)
    for name, spans, key in COUNTS:
        vals = [rec[key] for rec in tracer.spans if rec["name"] in spans]
        out[name] = statistics.fmean(vals) if vals else 0.0
    out["decode.prefix_extend_calls"] = prefix_calls
    attacked = [r for r in rows_from_csv(csv_text) if r.attack_steps > 0]
    per_mode = {r.lambda_i_C: r for r in attacked}.values()
    tried = sum(r.n_samples + r.n_skipped for r in per_mode)
    out["attack.feasible_ratio"] = (sum(r.n_samples for r in per_mode) / tried
                                    if tried else 0.0)
    runs = extras["converged_early"]
    out["attack.converged_early"] = sum(runs) / len(runs) if runs else 0.0
    attack_s = sum(tracer.durations("attack.pgd_attack"))
    decode_s = sum(tracer.durations("attack.snapshot_decode"))
    out["attack.snapshot_decode_share"] = (decode_s / (attack_s + decode_s)
                                           if attack_s + decode_s else 0.0)
    out["trace.overhead_frac"] = overhead_frac
    return out
