"""Unit tests for the dual-advantage policy-gradient objective."""

import dataclasses

import numpy as np
import pytest

import xopd_lab.autodiff as ad
from xopd_lab.errors import ConfigurationError, DataError, UsageError
from xopd_lab.model import init_student_from_teacher
from xopd_lab.objective import xopd_loss
from xopd_lab.rollout import SPEECH, TEXT, collect_rollouts, rollout_pairs

from oracles import naive_token_logps


@pytest.fixture()
def rollouts(tiny_student, small_dataset):
    batch = small_dataset.alignment_set("train")[:3]
    return rollout_pairs(collect_rollouts(tiny_student, batch, n=2, seed=5, max_new=5), batch)


def _tokens(pairs, modality):
    return sum(len(t.tokens) for _, t in pairs if t.conditioning_modality == modality)


def test_in_modal_advantage_zero_when_student_is_teacher(
    tiny_teacher, tiny_config, small_dataset
):
    clone = init_student_from_teacher(tiny_teacher, tiny_config, seed=0)
    batch = small_dataset.alignment_set("train")[:2]
    r = collect_rollouts(clone, batch, n=2, seed=1, max_new=5, modalities=(TEXT,))
    pairs = rollout_pairs(r, batch)
    report, _ = xopd_loss(pairs, tiny_teacher, clone, 1.0)
    assert report.advantages[TEXT].shape == (_tokens(pairs, TEXT),)
    np.testing.assert_allclose(report.advantages[TEXT], 0.0, rtol=0, atol=1e-12)


def test_importance_ratios_are_one_at_sampling_point(rollouts, tiny_student):
    # The rollout layer's logp_old against the independent forward, per token.
    for ex, traj in rollouts:
        modality = traj.conditioning_modality
        tokens = ex.text_prompt if modality == TEXT else ex.speech_prompt
        lp = naive_token_logps(tiny_student, modality, tokens, traj.tokens)
        np.testing.assert_allclose(np.exp(lp - traj.logp_old), 1.0, rtol=0, atol=1e-9)


def test_cross_modal_requires_paired_text(rollouts, tiny_teacher, tiny_student):
    ex = rollouts[0][0]
    orphan = dataclasses.replace(ex, text_prompt=[])
    speech_only = collect_rollouts(tiny_student, [ex], n=1, seed=0, max_new=4, modalities=(SPEECH,))
    pairs = [(orphan, t) for _, t in rollout_pairs(speech_only, [ex])]
    with pytest.raises(DataError):
        xopd_loss(pairs, tiny_teacher, tiny_student, 0.0)


def test_advantage_equals_teacher_minus_student(rollouts, tiny_teacher, tiny_student):
    # Cross-modal: the teacher reads the paired text, the student the speech.
    report, _ = xopd_loss(rollouts, tiny_teacher, tiny_student, 0.5)
    want = []
    for ex, traj in rollouts:
        if traj.conditioning_modality == SPEECH:
            t_lp = naive_token_logps(tiny_teacher, TEXT, ex.text_prompt, traj.tokens)
            s_lp = naive_token_logps(tiny_student, SPEECH, ex.speech_prompt, traj.tokens)
            want.append(t_lp - s_lp)
    np.testing.assert_allclose(report.advantages[SPEECH], np.concatenate(want), rtol=0, atol=1e-12)


def test_loss_is_affine_in_lambda(rollouts, tiny_teacher, tiny_student):
    vals = {}
    for lam in (0.0, 0.25, 0.5, 1.0):
        report, total = xopd_loss(rollouts, tiny_teacher, tiny_student, lam)
        vals[lam] = (report, float(total.data))
    r0, v0 = vals[0.0]
    r1, v1 = vals[1.0]
    assert v0 == pytest.approx(r0.loss_cm, abs=1e-12)
    assert v1 == pytest.approx(r1.loss_im, abs=1e-12)
    # Affine blend: every lambda matches lam*L_im + (1-lam)*L_cm.
    for lam, (rep, v) in vals.items():
        assert v == pytest.approx(lam * rep.loss_im + (1 - lam) * rep.loss_cm, abs=1e-12)
    # And the component losses do not depend on lambda.
    assert vals[0.25][0].loss_im == pytest.approx(r1.loss_im, abs=1e-12)
    assert vals[0.25][0].loss_cm == pytest.approx(r0.loss_cm, abs=1e-12)


def test_loss_at_sampling_point_estimates_reverse_kl(rollouts, tiny_teacher, tiny_student):
    # With ratios == 1, each modality loss is the weighted mean advantage,
    # i.e. minus the reverse-KL estimate reported alongside.
    report, total = xopd_loss(rollouts, tiny_teacher, tiny_student, 0.5)
    assert report.mean_ratio == pytest.approx(1.0, abs=1e-9)
    assert report.n_text_trajectories == report.n_speech_trajectories == 6
    assert np.isfinite(report.mean_reverse_kl_estimate)


def test_xopd_loss_per_token_ratios_are_one_at_sampling_point(
    rollouts, tiny_teacher, tiny_student, monkeypatch
):
    # logp_old comes from the decode logits, the ratio's numerator from the
    # loss's padded batched pass: the two agree to rounding.
    ratios = []
    real_exp = ad.exp

    def spy(a):
        out = real_exp(a)
        ratios.append(out.data.copy())
        return out

    monkeypatch.setattr(ad, "exp", spy)
    xopd_loss(rollouts, tiny_teacher, tiny_student, 0.5)
    flat = np.concatenate(ratios)
    assert flat.shape == (_tokens(rollouts, TEXT) + _tokens(rollouts, SPEECH),)
    np.testing.assert_allclose(flat, 1.0, rtol=0, atol=1e-12)


def test_loss_backward_touches_student_only(rollouts, tiny_teacher, tiny_student):
    for model in (tiny_teacher, tiny_student):
        for p in model.params.values():
            p.zero_grad()
    _, total = xopd_loss(rollouts, tiny_teacher, tiny_student, 0.5)
    total.backward()
    assert all(p.grad is None or not np.any(p.grad) for p in tiny_teacher.params.values())
    live = [p for p in tiny_student.params.values() if p.grad is not None and np.any(p.grad)]
    assert live
    assert all(np.all(np.isfinite(p.grad)) for p in live)
    for p in tiny_student.params.values():
        p.zero_grad()


def test_xopd_loss_validates_inputs(rollouts, tiny_teacher, tiny_student):
    with pytest.raises(ConfigurationError):
        xopd_loss(rollouts, tiny_teacher, tiny_student, 1.5)
    text_only = [(ex, t) for ex, t in rollouts if t.conditioning_modality == TEXT]
    with pytest.raises(UsageError):
        xopd_loss(text_only, tiny_teacher, tiny_student, 0.5)
    report, _ = xopd_loss(text_only, tiny_teacher, tiny_student, 1.0)
    assert report.n_speech_trajectories == 0
