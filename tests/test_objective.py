"""Unit tests for the dual-advantage policy-gradient objective."""

import dataclasses
from collections import Counter

import numpy as np
import pytest

import xopd_lab.autodiff as ad
import xopd_lab.objective as objective
from xopd_lab.autodiff import Tensor
from xopd_lab.errors import ConfigurationError, DataError, UsageError
from xopd_lab.model import batched_completion_logps, init_student_from_teacher, prompt_for
from xopd_lab.objective import xopd_loss
from xopd_lab.rollout import SPEECH, TEXT, collect_rollouts, rollout_pairs

from oracles import naive_token_logps


@pytest.fixture(autouse=True)
def zeroed_student(tiny_student):
    """xopd_loss runs backward into the shared student: each test starts and
    ends with its gradients zeroed."""
    for p in tiny_student.params.values():
        p.zero_grad()
    yield
    for p in tiny_student.params.values():
        p.zero_grad()


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
        report, _ = xopd_loss(rollouts, tiny_teacher, tiny_student, lam)
        vals[lam] = (report, report.loss_total)
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
    report, _ = xopd_loss(rollouts, tiny_teacher, tiny_student, 0.5)
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
    for p in tiny_teacher.params.values():
        p.zero_grad()
    _, root = xopd_loss(rollouts, tiny_teacher, tiny_student, 0.5)
    with pytest.raises(ValueError, match="already run backward"):
        root.backward()
    assert all(p.grad is None or not np.any(p.grad) for p in tiny_teacher.params.values())
    live = [p for p in tiny_student.params.values() if p.grad is not None and np.any(p.grad)]
    assert live
    assert all(np.all(np.isfinite(p.grad)) for p in live)


def _combined_root(pairs, teacher, student, lam):
    """The minimized loss as one graph, -(lam * L_im + (1 - lam) * L_cm),
    built from the package's ops as the objective's docstring defines it."""
    losses = []
    for modality in (TEXT, SPEECH):
        mod_pairs = [(ex, t) for ex, t in pairs if t.conditioning_modality == modality]
        n = Counter(ex.example_id for ex, _ in mod_pairs)
        lp = batched_completion_logps(
            student, [(prompt_for(ex, modality), t.tokens) for ex, t in mod_pairs]
        )
        with ad.no_grad():
            t_lp = batched_completion_logps(
                teacher, [(prompt_for(ex, TEXT), t.tokens) for ex, t in mod_pairs]
            ).data
        r = ad.exp(ad.sub(lp, Tensor(np.concatenate([t.logp_old for _, t in mod_pairs]))))
        w = np.concatenate([
            np.full(len(t.tokens), 1.0 / (len(t.tokens) * n[ex.example_id])) for ex, t in mod_pairs
        ]) / len(n)
        losses.append(ad.sum_all(ad.mul(ad.mul(r, Tensor(t_lp - lp.data)), Tensor(w))))
    return ad.neg(ad.add(ad.scale(losses[0], lam), ad.scale(losses[1], 1.0 - lam)))


@pytest.mark.parametrize("lam", [0.0, 0.5, 1.0])
def test_per_modality_backward_equals_the_combined_graph_bit_for_bit(
    rollouts, tiny_teacher, tiny_student, lam
):
    grads = []
    for run in (
        lambda: xopd_loss(rollouts, tiny_teacher, tiny_student, lam),
        lambda: _combined_root(rollouts, tiny_teacher, tiny_student, lam).backward(),
    ):
        run()
        grads.append({k: p.grad for k, p in tiny_student.params.items()})
        for p in tiny_student.params.values():
            p.zero_grad()
    assert grads[0].keys() == grads[1].keys()
    assert any(g is not None for g in grads[0].values())
    for k, g in grads[0].items():
        assert (g is None) == (grads[1][k] is None), k
        if g is not None:
            np.testing.assert_array_equal(g, grads[1][k], err_msg=k)


def test_each_modality_backpropagates_before_the_next_is_recorded(
    rollouts, tiny_teacher, tiny_student, monkeypatch
):
    events = []
    real_logps, real_backward = objective.batched_completion_logps, Tensor.backward

    def logps(model, items):
        if ad.grad_enabled():
            events.append(("student pass", items[0][0].modality))
        return real_logps(model, items)

    def backward(root):
        events.append(("backward", float(root.data)))
        real_backward(root)

    monkeypatch.setattr(objective, "batched_completion_logps", logps)
    monkeypatch.setattr(Tensor, "backward", backward)
    report, root = xopd_loss(rollouts, tiny_teacher, tiny_student, 0.25)
    assert events == [
        ("student pass", TEXT),
        ("backward", -(report.loss_im * 0.25)),
        ("student pass", SPEECH),
        ("backward", -(report.loss_cm * 0.75)),
    ]
    assert float(root.data) == -(report.loss_cm * 0.75)


def test_xopd_loss_validates_inputs(rollouts, tiny_teacher, tiny_student):
    with pytest.raises(ConfigurationError):
        xopd_loss(rollouts, tiny_teacher, tiny_student, 1.5)
    text_only = [(ex, t) for ex, t in rollouts if t.conditioning_modality == TEXT]
    with pytest.raises(UsageError):
        xopd_loss(text_only, tiny_teacher, tiny_student, 0.5)
    report, _ = xopd_loss(text_only, tiny_teacher, tiny_student, 1.0)
    assert report.n_speech_trajectories == 0
