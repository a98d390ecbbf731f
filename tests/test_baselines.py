"""Unit tests for the SFT / Offline KD / GKD baseline losses."""

import dataclasses

import numpy as np
import pytest

from xopd_lab.baselines import gkd_batch_loss, offline_kd_build, sft_batch_loss
from xopd_lab.corpus import EOS
from xopd_lab.errors import DataError
from xopd_lab.model import Prompt, TeacherModel, greedy_decode_batch
from xopd_lab.rollout import SPEECH, TEXT, collect_rollouts, rollout_pairs

from oracles import kl_divergence, naive_completion_log_probs, naive_token_logps


def _oracle_sft(model, examples, modality):
    """Mean over examples of the reference answer's mean per-token NLL."""
    per = []
    for ex in examples:
        prompt = ex.speech_prompt if modality == SPEECH else ex.text_prompt
        per.append(-naive_token_logps(model, modality, prompt, ex.reference_answer + [EOS]).mean())
    return float(np.mean(per))


def _oracle_gkd(teacher, student, pairs):
    """Mean over pairs of the mean per-position KL(teacher(.|T) || student(.|S))."""
    per = []
    for ex, traj in pairs:
        t_lp = naive_completion_log_probs(teacher, TEXT, ex.text_prompt, traj.tokens)
        s_lp = naive_completion_log_probs(student, SPEECH, ex.speech_prompt, traj.tokens)
        per.append(kl_divergence(np.exp(t_lp), np.exp(s_lp)) / len(traj.tokens))
    return float(np.mean(per))


def test_sft_batch_matches_mean_of_per_example(tiny_student, small_dataset):
    batch = small_dataset.alignment_set("train")[:5]
    batched = float(sft_batch_loss(tiny_student, batch).data)
    assert batched == pytest.approx(_oracle_sft(tiny_student, batch, SPEECH), rel=1e-12)


def test_sft_text_modality(tiny_teacher, small_dataset):
    # A teacher reads the text prompts.
    batch = small_dataset.alignment_set("train")[:3]
    batched = float(sft_batch_loss(tiny_teacher, batch).data)
    assert batched == pytest.approx(_oracle_sft(tiny_teacher, batch, TEXT), rel=1e-12)


def test_sft_uniform_model_gives_log_vocab(tiny_config, small_dataset):
    fresh = TeacherModel.init(tiny_config, 0)
    batch = small_dataset.alignment_set("train")[:2]
    loss = float(sft_batch_loss(fresh, batch).data)
    assert loss == pytest.approx(np.log(tiny_config.text_vocab_size), rel=1e-12)


def test_sft_requires_reference_answer(tiny_student, small_dataset):
    ex = dataclasses.replace(small_dataset.alignment_set("train")[0], reference_answer=[])
    with pytest.raises(DataError):
        sft_batch_loss(tiny_student, [ex])


def test_offline_kd_build_uses_teacher_greedy_answers(tiny_teacher, small_dataset):
    batch = small_dataset.alignment_set("train")[:4]
    distilled = offline_kd_build(tiny_teacher, batch, max_new=5)
    for ex, d in zip(batch, distilled):
        assert dataclasses.replace(d, reference_answer=ex.reference_answer) == ex
        want = greedy_decode_batch(tiny_teacher, [Prompt(TEXT, ex.text_prompt)], 5)[0]
        assert d.reference_answer == want


def test_gkd_batch_matches_mean_of_per_pair(tiny_teacher, tiny_student, small_dataset):
    batch = small_dataset.alignment_set("train")[:3]
    r = collect_rollouts(tiny_student, batch, n=2, seed=4, max_new=5, modalities=(SPEECH,))
    pairs = rollout_pairs(r, batch)
    batched = float(gkd_batch_loss(tiny_teacher, tiny_student, pairs).data)
    assert batched == pytest.approx(_oracle_gkd(tiny_teacher, tiny_student, pairs), rel=1e-9)


def test_gkd_loss_equals_forward_kl_oracle(tiny_teacher, tiny_student, small_dataset):
    ex = small_dataset.alignment_set("train")[0]
    r = collect_rollouts(tiny_student, [ex], n=1, seed=0, max_new=4, modalities=(SPEECH,))
    pairs = rollout_pairs(r, [ex])
    got = float(gkd_batch_loss(tiny_teacher, tiny_student, pairs).data)
    assert got == pytest.approx(_oracle_gkd(tiny_teacher, tiny_student, pairs), rel=1e-9)


def test_gkd_gradient_hits_student_not_teacher(tiny_teacher, tiny_student, small_dataset):
    batch = small_dataset.alignment_set("train")[:2]
    r = collect_rollouts(tiny_student, batch, n=1, seed=1, max_new=4, modalities=(SPEECH,))
    pairs = rollout_pairs(r, batch)
    for model in (tiny_teacher, tiny_student):
        for p in model.params.values():
            p.zero_grad()
    gkd_batch_loss(tiny_teacher, tiny_student, pairs).backward()
    assert all(p.grad is None or not np.any(p.grad) for p in tiny_teacher.params.values())
    assert any(p.grad is not None and np.any(p.grad) for p in tiny_student.params.values())
    for p in tiny_student.params.values():
        p.zero_grad()


def test_gkd_rejects_text_trajectories(tiny_teacher, tiny_student, small_dataset):
    ex = small_dataset.alignment_set("train")[0]
    r = collect_rollouts(tiny_student, [ex], n=1, seed=0, max_new=4, modalities=(TEXT,))
    with pytest.raises(DataError):
        gkd_batch_loss(tiny_teacher, tiny_student, rollout_pairs(r, [ex]))
    with pytest.raises(DataError):
        gkd_batch_loss(tiny_teacher, tiny_student, [])
