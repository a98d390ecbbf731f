"""Unit tests for the teacher / student transformer models."""

import numpy as np
import pytest

import xopd_lab.autodiff as ad
from xopd_lab.corpus import EOS
from xopd_lab.checkpoint import save_checkpoint
from xopd_lab.errors import CheckpointError, ConfigurationError, LengthError, ModalityError
from xopd_lab.model import (
    ModelConfig,
    Prompt,
    StudentModel,
    TeacherModel,
    batched_completion_logps,
    greedy_decode_batch,
    init_student_from_teacher,
    load_model,
    padded_log_probs,
    sample_completions_batch,
    save_model,
)
from xopd_lab.rollout import SPEECH, TEXT

from oracles import naive_full_logits, naive_log_softmax, naive_softmax, naive_token_logps


def _oracle_logps(model, prompt, tokens):
    """Teacher-forced log-probs of ``tokens`` from the independent forward."""
    return naive_token_logps(model, prompt.modality, prompt.tokens, tokens)


def _log_probs(model, items):
    with ad.no_grad():
        return padded_log_probs(model, items)[0].data


def test_fresh_model_is_uniform(tiny_config):
    model = TeacherModel.init(tiny_config, 0)
    logp = _log_probs(model, [(Prompt(TEXT, [5, 6, 7]), [8, 9])])
    # The zero head gives all-zero logits, hence exactly -log V everywhere.
    np.testing.assert_array_equal(logp, -np.log(tiny_config.text_vocab_size))


def test_config_validation():
    with pytest.raises(ConfigurationError):
        ModelConfig(embed_dim=30, n_heads=4)
    with pytest.raises(ConfigurationError):
        ModelConfig(n_layers=0)


def test_teacher_rejects_speech_prompts(tiny_teacher):
    with pytest.raises(ModalityError):
        tiny_teacher.embed_sequence(Prompt(SPEECH, [1, 2, 3]), [4])
    with pytest.raises(ModalityError):
        padded_log_probs(tiny_teacher, [(Prompt(SPEECH, [1, 2, 3]), [4])])


def test_student_accepts_both_modalities(tiny_student):
    # Two text tokens and two speech tokens (F=3) give sequences of equal length.
    items = [(Prompt(TEXT, [5, 6]), [7]), (Prompt(SPEECH, [1, 2, 3, 4, 5, 6]), [7])]
    logp, seps = padded_log_probs(tiny_student, items)
    assert logp.shape == (2, 5, tiny_student.cfg.text_vocab_size)
    assert seps == [3, 3]
    with pytest.raises(ModalityError):
        tiny_student.embed_sequence(Prompt("AUDIO", [1]), [2])


def test_student_backbone_copies_teacher(tiny_teacher, tiny_config):
    student = init_student_from_teacher(tiny_teacher, tiny_config, seed=9)
    for name, p in tiny_teacher.params.items():
        np.testing.assert_array_equal(student.params[name].data, p.data)
        assert student.params[name] is not p  # independent storage
    assert set(student.speech_params()) == set(StudentModel.BACKBONE_EXTRA)
    assert set(student.backbone_params()) == set(tiny_teacher.params)


def test_student_text_path_matches_teacher_backbone(tiny_teacher, tiny_config):
    student = init_student_from_teacher(tiny_teacher, tiny_config, seed=3)
    items = [(Prompt(TEXT, [10, 11, 12]), [4, 5])]
    np.testing.assert_array_equal(_log_probs(tiny_teacher, items), _log_probs(student, items))


def test_forward_rejects_overlong_sequences(tiny_teacher):
    max_len = tiny_teacher.cfg.max_seq_len
    with pytest.raises(LengthError):
        padded_log_probs(tiny_teacher, [(Prompt(TEXT, [5] * max_len), [1, 2])])


def _reference_sample(model, prompt, temperature, max_new, rng):
    """Uncached ancestral sampling: one full independent forward per token."""
    tokens = []
    for _ in range(max_new):
        logits = naive_full_logits(model, prompt.modality, prompt.tokens, tokens)
        p = naive_softmax(logits[-1] / temperature)
        tokens.append(int(rng.choice(len(p), p=p)))
        if tokens[-1] == EOS:
            break
    return tokens


@pytest.mark.parametrize("modality", [TEXT, SPEECH])
def test_sampled_logp_old_matches_teacher_forced_recomputation(tiny_student, modality):
    rng = np.random.default_rng(0)
    for i in range(8):
        n = int(rng.integers(2, 8))
        if modality == SPEECH:
            n *= tiny_student.cfg.frames_per_token
        prompt = Prompt(modality, [int(x) for x in rng.integers(4, 30, size=n)])
        traj = sample_completions_batch(
            tiny_student, [(prompt, np.random.default_rng([3, i]))], 0.8, 6
        )[0]
        want = _reference_sample(tiny_student, prompt, 0.8, 6, np.random.default_rng([3, i]))
        assert traj.tokens == want
        assert traj.finished == (want[-1] == EOS)
        np.testing.assert_allclose(
            traj.logp_old, _oracle_logps(tiny_student, prompt, traj.tokens), rtol=0, atol=1e-12
        )


def test_batched_sampling_matches_single(tiny_teacher):
    prompts = [Prompt(TEXT, [4 + i, 5, 6]) for i in range(6)]
    units = [(p, np.random.default_rng([7, i])) for i, p in enumerate(prompts)]
    batched = sample_completions_batch(tiny_teacher, units, temperature=0.9, max_new=5)
    for i, p in enumerate(prompts):
        single = sample_completions_batch(
            tiny_teacher, [(p, np.random.default_rng([7, i]))], 0.9, 5
        )[0]
        assert batched[i].tokens == single.tokens
        assert batched[i].finished == single.finished
        # Batched decode logits may differ from one-row logits in the last bits.
        np.testing.assert_allclose(batched[i].logp_old, single.logp_old, rtol=0, atol=1e-12)


def test_batched_sampling_order_invariant(tiny_teacher):
    prompts = [Prompt(TEXT, [4 + i] * (2 + i % 3)) for i in range(6)]
    mk = lambda: [(p, np.random.default_rng([11, i])) for i, p in enumerate(prompts)]
    fwd = sample_completions_batch(tiny_teacher, mk(), temperature=1.0, max_new=5)
    units_rev = list(reversed(mk()))
    rev = sample_completions_batch(tiny_teacher, units_rev, temperature=1.0, max_new=5)
    for i in range(len(prompts)):
        assert fwd[i].tokens == rev[len(prompts) - 1 - i].tokens
        assert fwd[i].logp_old == rev[len(prompts) - 1 - i].logp_old


def test_greedy_decode_batch_matches_single(tiny_student):
    prompts = [Prompt(TEXT, [4 + i, 9]) for i in range(4)]
    prompts += [Prompt(SPEECH, [1 + i, 2, 3, 4, 5, 6]) for i in range(4)]
    batched = greedy_decode_batch(tiny_student, prompts, max_new=6)
    for p, got in zip(prompts, batched):
        assert got == greedy_decode_batch(tiny_student, [p], 6)[0]


def test_temperature_changes_sampling_distribution(tiny_teacher):
    prompt = Prompt(TEXT, [5, 6, 7])
    traj = sample_completions_batch(tiny_teacher, [(prompt, np.random.default_rng(3))], 0.5, 4)[0]
    # Tokens are drawn at the temperature, but logp_old tracks the unadjusted model.
    np.testing.assert_allclose(
        traj.logp_old, _oracle_logps(tiny_teacher, prompt, traj.tokens), rtol=0, atol=1e-12
    )
    n = len(traj.tokens)
    logits = naive_full_logits(tiny_teacher, TEXT, prompt.tokens, traj.tokens)[-n - 1 : -1]
    tempered = naive_log_softmax(logits / 0.5)[np.arange(n), traj.tokens]
    assert np.abs(np.asarray(traj.logp_old) - tempered).max() > 1e-6
    with pytest.raises(ConfigurationError):
        sample_completions_batch(tiny_teacher, [(prompt, np.random.default_rng(3))], 0.0, 4)


def test_batched_completion_logps_matches_per_item(tiny_student):
    items = [
        (Prompt(TEXT, [5, 6, 7]), [8, 9, 2]),
        (Prompt(TEXT, [10, 11]), [12, 2]),
        (Prompt(SPEECH, [1, 2, 3, 4, 5, 6]), [13, 2]),
    ]
    flat, idx = batched_completion_logps(tiny_student, items)
    assert flat.data.shape == (sum(len(c) for _, c in items),)
    for i, (prompt, completion) in enumerate(items):
        want = _oracle_logps(tiny_student, prompt, completion)
        got = flat.data[idx == i]
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-14)
    with pytest.raises(ModalityError):
        batched_completion_logps(tiny_student, [])


def test_batched_completion_logps_carries_gradient(tiny_student):
    items = [(Prompt(TEXT, [5, 6]), [7, 2]), (Prompt(SPEECH, [1, 2, 3]), [8, 2])]
    flat, _ = batched_completion_logps(tiny_student, items)
    for p in tiny_student.params.values():
        p.zero_grad()
    ad.sum_all(flat).backward()
    grads = {k: p.grad for k, p in tiny_student.params.items()}
    assert any(g is not None and np.any(g) for g in grads.values())
    # Speech prompt participated, so the tower got gradient too.
    assert np.any(grads["tower.emb"])
    for p in tiny_student.params.values():
        p.zero_grad()


def test_save_load_round_trip(tiny_student, tmp_path):
    path = tmp_path / "student.npz"
    save_model(tiny_student, path)
    back = load_model(path)
    assert isinstance(back, StudentModel)
    assert back.cfg == tiny_student.cfg
    for name, p in tiny_student.params.items():
        np.testing.assert_array_equal(back.params[name].data, p.data)
    items = [(Prompt(SPEECH, [1, 2, 3]), [4])]
    np.testing.assert_array_equal(_log_probs(back, items), _log_probs(tiny_student, items))


def test_load_model_rejects_a_checkpoint_without_model_metadata(tiny_student, tmp_path):
    path = tmp_path / "bare.ckpt"
    save_checkpoint(path, tiny_student.params, meta={"kind": "student"})
    with pytest.raises(CheckpointError, match="not a model checkpoint"):
        load_model(path)
