"""Acceptance gate: exact property suites plus directional desk-scale trends.

Criteria covered, one test (or parametrized group) each:

1. gradient suite over every differentiable primitive
2. objective identities (a-d), with (d) an exhaustive-enumeration check of
   the policy-gradient / reverse-KL equivalence on V=6 toys
3. single-step KL descent on a frozen probe batch, 5 seeds
4. gap narrowing versus base student and all baselines (>= 2 of 3 seeds)
5. acoustic-skill forgetting smaller for every lambda variant (>= 2 of 3)
6. SFT text degradation, or an explicit DEVIATION record
7. bit-identical reruns (metrics and final checkpoint hash)
8. corpus rejection rate versus an exact enumeration/binomial oracle, and
   every admitted example's speech decoding to exactly its text prompt, with
   the reference answer an independent oracle computes from that prompt

Criteria 4-6 share one three-seed pipeline run (session-scoped fixture).
"""

from __future__ import annotations

import hashlib
import json
from itertools import product
from pathlib import Path

import numpy as np
import pytest

from xopd_lab import autodiff as ad
from xopd_lab.autodiff import Tensor
from xopd_lab.corpus import (
    DEFAULT_DIFFICULTY,
    EOS,
    VOCAB,
    PairedExample,
    SpeechCodec,
    build_dataset,
    decode_speech,
    generate_task,
)
from xopd_lab.model import (
    ModelConfig,
    Prompt,
    TeacherModel,
    completion_log_probs,
    init_student_from_teacher,
)
from xopd_lab.objective import xopd_loss
from xopd_lab.optim import Adam
from xopd_lab.pipeline import DEFAULT_SIZES, PipelineConfig, reproduce_paper_trends
from xopd_lab.rollout import (
    TEXT,
    Trajectory,
    collect_rollouts,
    rollout_pairs,
)
from xopd_lab.trainer import TrainConfig, clone_student, run_method

from gradcheck import check_op, op_cases
from oracles import enumerate_completions, naive_answer, naive_token_logps, trajectories_of

# ---------------------------------------------------------------------------
# Criterion 1: gradient suite
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("case", op_cases(), ids=lambda c: c[0])
def test_criterion_1_gradient_suite(case):
    name, build, n_inputs, shapes_fn = case
    worst = check_op(name, build, n_inputs, shapes_fn)
    assert worst < 1e-4, f"{name}: worst rel error {worst:.3e}"


# ---------------------------------------------------------------------------
# Criterion 2: objective identities
# ---------------------------------------------------------------------------

TOY_CFG = ModelConfig(
    text_vocab_size=6,
    speech_vocab_size=8,
    embed_dim=8,
    n_layers=1,
    n_heads=2,
    max_seq_len=16,
    speech_embed_dim=4,
)


def _toy_pair(seed: int, spread: float = 0.3):
    teacher = TeacherModel.init(TOY_CFG, seed)
    rng = np.random.default_rng([seed, 11])
    for p in teacher.params.values():
        p.data += rng.normal(0.0, spread, p.data.shape)
    student = init_student_from_teacher(teacher, TOY_CFG, seed + 1)
    rng = np.random.default_rng([seed, 12])
    for p in student.params.values():
        p.data += rng.normal(0.0, spread, p.data.shape)
    return teacher, student


def _toy_example() -> PairedExample:
    return PairedExample(
        example_id="toy-0",
        family="REASONING",
        difficulty=1,
        text_prompt=[4, 5],
        speech_prompt=[1, 2, 3],
        reference_answer=[4],
        label=None,
    )


def _seq_logp(model, prompt: Prompt, tokens: list[int]) -> np.ndarray:
    """Per-token log-probs from the independent one-sequence forward."""
    return naive_token_logps(model, prompt.modality, prompt.tokens, list(tokens))


def test_criterion_2a_in_modal_advantage_zero_for_identical_policies():
    teacher, _ = _toy_pair(3)
    twin = init_student_from_teacher(teacher, TOY_CFG, 9)
    ex = _toy_example()
    rollouts = collect_rollouts(twin, [ex], n=4, seed=0, max_new=4, modalities=(TEXT,))
    report, _ = xopd_loss(rollout_pairs(rollouts, [ex]), teacher, twin, 1.0)
    adv = report.advantages[TEXT]
    assert adv.size == sum(len(t.tokens) for t in trajectories_of(rollouts, TEXT))
    assert np.abs(adv).max() <= 1e-12


def test_criterion_2b_importance_ratios_one_at_sampling_point(monkeypatch):
    teacher, student = _toy_pair(4)
    ex = _toy_example()
    rollouts = collect_rollouts(student, [ex], n=6, seed=1, max_new=4, modalities=(TEXT,))
    # xopd_loss forms the per-token ratios with one ad.exp per modality.
    ratios = []
    real_exp = ad.exp

    def spy(a):
        out = real_exp(a)
        ratios.append(out.data.copy())
        return out

    monkeypatch.setattr(ad, "exp", spy)
    xopd_loss(rollout_pairs(rollouts, [ex]), teacher, student, 1.0)
    r = np.concatenate(ratios)
    assert r.size == sum(len(t.tokens) for t in trajectories_of(rollouts, TEXT))
    assert np.allclose(r, 1.0, rtol=0, atol=1e-9)


def test_criterion_2c_loss_affine_in_lambda_with_endpoint_equality():
    teacher, student = _toy_pair(5)
    ex = _toy_example()
    rollouts = collect_rollouts(student, [ex], n=4, seed=2, max_new=4)
    totals = {}
    reports = {}
    for lam in (0.0, 0.25, 0.5, 0.75, 1.0):
        report, _ = xopd_loss(rollout_pairs(rollouts, [ex]), teacher, student, lam)
        totals[lam] = report.loss_total
        reports[lam] = report
    for lam in (0.25, 0.5, 0.75):
        blended = lam * totals[1.0] + (1.0 - lam) * totals[0.0]
        assert abs(totals[lam] - blended) <= 1e-12
    assert abs(totals[1.0] - reports[1.0].loss_im) <= 1e-12
    assert abs(totals[0.0] - reports[0.0].loss_cm) <= 1e-12


def test_criterion_2d_expected_gradient_matches_exact_reverse_kl_gradient():
    """On a V=6 toy, the exhaustive-enumeration expectation of the L_im
    policy gradient equals the exact gradient of -sum_t KL(student||teacher)
    with prefix weights frozen at the sampling policy.

    Enumeration runs over fixed-length |y| = 3 completions (the per-token
    1/|y| weighting makes the identity exact only at fixed length)."""
    teacher, student = _toy_pair(0)
    prompt = Prompt(TEXT, [4, 5])
    ex = _toy_example()
    V, L = TOY_CFG.text_vocab_size, 3

    expected = {k: np.zeros_like(p.data) for k, p in student.params.items()}
    kl_terms = []
    for y in product(range(V), repeat=L):
        y = list(y)
        lp_old = _seq_logp(student, prompt, y)
        p_y = float(np.exp(lp_old.sum()))

        traj = Trajectory(TEXT, y, list(lp_old))
        for p in student.params.values():
            p.zero_grad()
        # xopd_loss leaves the gradient of -L_im in .grad (exactly negated).
        xopd_loss([(ex, traj)], teacher, student, 1.0)
        for k, p in student.params.items():
            if p.grad is not None:
                expected[k] -= p_y * p.grad

        # One row per completion token on both sides, so the rows align.
        s_logp = completion_log_probs(student, [(prompt, y)])
        with ad.no_grad():
            t_logp = completion_log_probs(teacher, [(prompt, y)]).data
        kl = ad.sum_all(ad.mul(ad.exp(s_logp), ad.sub(s_logp, Tensor(t_logp))))
        kl_terms.append(ad.scale(kl, -p_y / L))

    objective = kl_terms[0]
    for term in kl_terms[1:]:
        objective = ad.add(objective, term)
    for p in student.params.values():
        p.zero_grad()
    objective.backward()

    worst = 0.0
    for k, p in student.params.items():
        exact = p.grad if p.grad is not None else np.zeros_like(p.data)
        worst = max(worst, float(np.max(np.abs(expected[k] - exact))))
    assert worst <= 1e-6, f"max abs gradient difference {worst:.3e}"


# ---------------------------------------------------------------------------
# Criterion 3: KL descent after one small-lr step
# ---------------------------------------------------------------------------


def _exhaustive_reverse_kl(student, teacher, prompt: Prompt, max_len: int) -> float:
    kl = 0.0
    for y in enumerate_completions(TOY_CFG.text_vocab_size, max_len, EOS):
        s = _seq_logp(student, prompt, list(y)).sum()
        t = _seq_logp(teacher, prompt, list(y)).sum()
        kl += np.exp(s) * (s - t)
    return float(kl)


@pytest.mark.parametrize("seed", range(5))
def test_criterion_3_single_step_reduces_exhaustive_reverse_kl(seed):
    teacher, student = _toy_pair(seed)
    prompt = Prompt(TEXT, [4, 5])
    ex = _toy_example()
    before = _exhaustive_reverse_kl(student, teacher, prompt, 3)

    rollouts = collect_rollouts(student, [ex], n=64, seed=seed, max_new=3, modalities=(TEXT,))
    for p in student.params.values():
        p.zero_grad()
    # xopd_loss runs the backward of the minimized loss, -L_im.
    xopd_loss(rollout_pairs(rollouts, [ex]), teacher, student, 1.0)
    Adam(student.backbone_params(), lr=1e-4).step()

    after = _exhaustive_reverse_kl(student, teacher, prompt, 3)
    assert after < before, f"seed {seed}: KL {before:.6f} -> {after:.6f}"


# ---------------------------------------------------------------------------
# Criteria 4-6: three-seed trend reproduction (one shared pipeline run)
# ---------------------------------------------------------------------------


@pytest.fixture(scope="session")
def trend_report(tmp_path_factory) -> dict:
    out = tmp_path_factory.mktemp("trends")
    return reproduce_paper_trends(PipelineConfig(), out)


def _per_seed_numbers(trend_report: dict) -> str:
    """Each seed's speech, text and acoustic drops, one line per seed."""
    return "\n".join(
        f"seed {seed}: {json.dumps(check['numbers'], sort_keys=True)}"
        for seed, check in zip(trend_report["seeds"], trend_report["per_seed_checks"])
    )


@pytest.mark.trend
def test_criterion_4_gap_narrowing(trend_report):
    crit = trend_report["criteria"]["gap_narrowing"]
    assert crit["ok"], (
        f"gap narrowing held on {crit['passes']}/{crit['of']} seeds\n"
        + _per_seed_numbers(trend_report)
    )


@pytest.mark.trend
def test_criterion_5_forgetting(trend_report):
    crit = trend_report["criteria"]["forgetting"]
    assert crit["ok"], (
        f"forgetting advantage held on {crit['passes']}/{crit['of']} seeds\n"
        + _per_seed_numbers(trend_report)
    )


@pytest.mark.trend
def test_criterion_6_sft_text_degradation_or_deviation_record(trend_report):
    crit = trend_report["criteria"]["sft_text_worsens"]
    n = crit["of"]
    need = 2 if n >= 3 else n
    if crit["passes"] < need:
        assert any(
            d.get("type") == "DEVIATION" and d.get("criterion") == "baseline_text_degradation"
            for d in trend_report["deviations"]
        ), "SFT text degradation unmet without an explicit DEVIATION record"
    assert crit["ok"]


# ---------------------------------------------------------------------------
# Criterion 7: bit-identical reruns
# ---------------------------------------------------------------------------


def test_criterion_7_rerun_is_bit_identical(tmp_path, tiny_teacher, tiny_student, small_dataset):
    cfg = TrainConfig(
        method="xopd", lam=0.5, n_rollouts=2, batch_size=4, steps=3, max_new=5, seed=7
    )
    outputs = []
    for run in ("a", "b"):
        out = tmp_path / run
        student = clone_student(tiny_student)
        run_method(cfg, student, tiny_teacher, small_dataset, out_dir=out)
        outputs.append(
            (
                (out / "metrics.jsonl").read_bytes(),
                hashlib.sha256((out / "checkpoints" / "final.ckpt").read_bytes()).hexdigest(),
                json.loads((out / "manifest.json").read_text())["final_params_hash"],
            )
        )
    assert outputs[0] == outputs[1]


# ---------------------------------------------------------------------------
# Criterion 8: corpus rejection rate versus enumeration oracle; exact round
# trip and oracle answers
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def default_dataset():
    return build_dataset(DEFAULT_SIZES, SpeechCodec(), seed=0)


def _exact_decode_table(codec: SpeechCodec) -> np.ndarray:
    """decoded[f0, f1, f2]: majority-vote decode of one frame group, built
    by exhaustive enumeration of all S^3 observable groups."""
    S, pat = codec.speech_vocab_size, codec._patterns
    eq = [(np.arange(S)[:, None] == pat[None, :, j]).astype(np.int8) for j in range(3)]
    decoded = np.empty((S, S, S), dtype=np.int16)
    for n0 in range(S):
        scores = eq[0][n0][None, None, :] + eq[1][:, None, :] + eq[2][None, :, :]
        decoded[n0] = np.argmax(scores, axis=-1)
    return decoded


def _token_correct_prob(codec, decoded, token: int, label: int | None) -> float:
    """Exact P(decode == token) under per-frame corruption probability eps,
    summing over every randomized-frame subset (corrupt frames are uniform)."""
    eps, S = codec.noise_rate, codec.speech_vocab_size
    base = list(codec._patterns[token])
    if label is not None:
        base[-1] = (base[-1] + 1 + label) % S
    total = 0.0
    for mask in range(8):
        hit = [j for j in range(3) if mask >> j & 1]
        weight = eps ** len(hit) * (1.0 - eps) ** (3 - len(hit))
        idx = tuple(slice(None) if j in hit else base[j] for j in range(3))
        total += weight * float((decoded[idx] == token).mean())
    return total


def test_criterion_8_rejection_rate_matches_binomial_oracle(default_dataset):
    codec = SpeechCodec()
    decoded = _exact_decode_table(codec)
    cache: dict[tuple[int, int | None], float] = {}

    def reject_prob(prompt: list[int], label: int | None) -> float:
        # Admission needs the whole prompt back, so rejection means "any
        # token decodes wrong".
        keep = 1.0
        for t in prompt:
            key = (t, label)
            if key not in cache:
                cache[key] = _token_correct_prob(codec, decoded, t, label)
            keep *= cache[key]
        return 1.0 - keep

    # Expected rejection per family over its prompt distribution, then
    # attempt-weighted (a family with rejection rho needs quota/(1-rho)
    # attempts in expectation).
    n_mc = 800
    rho = {}
    for idx, (fam, (lo, hi)) in enumerate(sorted(DEFAULT_DIFFICULTY.items())):
        total = 0.0
        for i in range(n_mc):
            rng = np.random.default_rng([555, idx, i])
            prompt, _, label = generate_task(fam, int(rng.integers(lo, hi + 1)), rng)
            total += reject_prob(prompt, label)
        rho[fam] = total / n_mc

    attempts = {f: sum(DEFAULT_SIZES[f]) / (1.0 - rho[f]) for f in DEFAULT_SIZES}
    predicted = sum(attempts[f] * rho[f] for f in attempts) / sum(attempts.values())

    measured = default_dataset.manifest["rejection_rate"]
    assert abs(predicted - measured) <= 0.02, (
        f"predicted {predicted:.4f} vs measured {measured:.4f}"
    )


def test_criterion_8_every_admitted_example_is_semantically_invariant(default_dataset):
    codec = SpeechCodec()
    for split in ("train", "val", "test"):
        for ex in default_dataset.splits[split]:
            assert decode_speech(codec, ex.speech_prompt) == ex.text_prompt
            tokens = [VOCAB[i] for i in ex.text_prompt]
            assert [VOCAB[i] for i in ex.reference_answer] == naive_answer(tokens, ex.label)
