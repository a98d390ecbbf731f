"""Unit tests for the teacher / student transformer models."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import xopd_lab.autodiff as ad
import xopd_lab.model as model_mod
from xopd_lab.corpus import EOS
from xopd_lab.checkpoint import save_checkpoint
from xopd_lab.errors import CheckpointError, ConfigurationError, LengthError, ModalityError
from xopd_lab.model import (
    ModelConfig,
    Prompt,
    StudentModel,
    TeacherModel,
    _draw,
    backbone_logits,
    batched_completion_logps,
    completion_log_probs,
    greedy_decode_batch,
    init_student_from_teacher,
    load_model,
    sample_completions_batch,
    save_model,
)
from xopd_lab.rollout import SPEECH, TEXT

from oracles import naive_completion_log_probs, naive_full_logits, naive_softmax, naive_token_logps


def _oracle_logps(model, prompt, tokens):
    """Teacher-forced log-probs of ``tokens`` from the independent forward."""
    return naive_token_logps(model, prompt.modality, prompt.tokens, tokens)


def _logits(model, prompt, completion):
    """Every row of the backbone's logits, prompt rows included."""
    with ad.no_grad():
        emb = model.embed_sequence(prompt, completion)[0].data
        return backbone_logits(model.params, model.cfg, ad.Tensor(emb), [ad.packed_rows([len(emb)])]).data


def _log_probs(model, items):
    with ad.no_grad():
        return completion_log_probs(model, items).data


def test_fresh_model_is_uniform(tiny_config):
    model = TeacherModel.init(tiny_config, 0)
    prompt, completion = Prompt(TEXT, [5, 6, 7]), [8, 9]
    # The zero head gives all-zero logits, hence exactly -log V everywhere.
    np.testing.assert_array_equal(_logits(model, prompt, completion), 0.0)
    logp = _log_probs(model, [(prompt, completion)])
    assert logp.shape == (2, tiny_config.text_vocab_size)
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
        completion_log_probs(tiny_teacher, [(Prompt(SPEECH, [1, 2, 3]), [4])])


def test_student_accepts_both_modalities(tiny_student):
    # Two text tokens and two speech tokens (F=3) give sequences of equal length.
    items = [(Prompt(TEXT, [5, 6]), [7]), (Prompt(SPEECH, [1, 2, 3, 4, 5, 6]), [7])]
    embedded = [tiny_student.embed_sequence(p, c) for p, c in items]
    assert [(emb.shape[0], sep) for emb, sep in embedded] == [(5, 3), (5, 3)]
    logp = completion_log_probs(tiny_student, items)
    assert logp.shape == (2, tiny_student.cfg.text_vocab_size)
    with pytest.raises(ModalityError):
        tiny_student.embed_sequence(Prompt("AUDIO", [1]), [2])


def test_student_backbone_copies_teacher(tiny_teacher, tiny_config):
    student = init_student_from_teacher(tiny_teacher, tiny_config, seed=9)
    for name, p in tiny_teacher.params.items():
        np.testing.assert_array_equal(student.params[name].data, p.data)
        assert student.params[name] is not p  # independent storage
    assert set(student.speech_params()) == set(StudentModel.BACKBONE_EXTRA)
    assert set(student.backbone_params()) == set(tiny_teacher.params)


@pytest.mark.parametrize("field,value", [
    ("text_vocab_size", 80), ("embed_dim", 64), ("n_layers", 1), ("n_heads", 4), ("max_seq_len", 128),
])
def test_a_student_backbone_unlike_the_teachers_is_refused(tiny_teacher, tiny_config, field, value):
    with pytest.raises(ConfigurationError, match=f"student {field} {value} differs"):
        init_student_from_teacher(tiny_teacher, replace(tiny_config, **{field: value}), seed=0)


def test_student_text_path_matches_teacher_backbone(tiny_teacher, tiny_config):
    student = init_student_from_teacher(tiny_teacher, tiny_config, seed=3)
    prompt, completion = Prompt(TEXT, [10, 11, 12]), [4, 5]
    np.testing.assert_array_equal(
        _logits(tiny_teacher, prompt, completion), _logits(student, prompt, completion)
    )
    items = [(prompt, completion)]
    np.testing.assert_array_equal(_log_probs(tiny_teacher, items), _log_probs(student, items))


def test_forward_rejects_overlong_sequences(tiny_teacher):
    max_len = tiny_teacher.cfg.max_seq_len
    with pytest.raises(LengthError):
        completion_log_probs(tiny_teacher, [(Prompt(TEXT, [5] * max_len), [1, 2])])


def _reference_sample(model, prompt, max_new, rng):
    """Uncached ancestral sampling: one full independent forward per token."""
    tokens = []
    for _ in range(max_new):
        logits = naive_full_logits(model, prompt.modality, prompt.tokens, tokens)
        p = naive_softmax(logits[-1])
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
            tiny_student, [(prompt, np.random.default_rng([3, i]))], 6
        )[0]
        want = _reference_sample(tiny_student, prompt, 6, np.random.default_rng([3, i]))
        assert traj.tokens == want
        assert traj.finished == (want[-1] == EOS)
        np.testing.assert_allclose(
            traj.logp_old, _oracle_logps(tiny_student, prompt, traj.tokens), rtol=0, atol=1e-12
        )


def _assert_batched_sampling_matches_single(model, prompts):
    units = [(p, np.random.default_rng([7, i])) for i, p in enumerate(prompts)]
    batched = sample_completions_batch(model, units, max_new=5)
    for i, p in enumerate(prompts):
        rng = np.random.default_rng([7, i])
        single = sample_completions_batch(model, [(p, rng)], 5)[0]
        assert batched[i].conditioning_modality == p.modality
        assert batched[i].tokens == single.tokens
        assert batched[i].finished == single.finished
        assert batched[i].logp_old == single.logp_old
        assert units[i][1].bit_generator.state == rng.bit_generator.state


# One call spanning several shape groups: a speech prompt and another length.
SHAPE_GROUPS = [Prompt(TEXT, [4 + i, 5, 6]) for i in range(6)] + [
    Prompt(SPEECH, [1, 2, 3, 4, 5, 6]), Prompt(TEXT, [9, 10, 11, 12, 13]),
]


def test_batched_sampling_matches_single(tiny_student):
    _assert_batched_sampling_matches_single(tiny_student, SHAPE_GROUPS)


def test_batched_sampling_of_n_copies_matches_single(tiny_student):
    # Each prompt sampled 4 times, the shape collect_rollouts sends.
    _assert_batched_sampling_matches_single(tiny_student, [p for p in SHAPE_GROUPS for _ in range(4)])


def test_a_pass_under_no_grad_shares_prefixes_bit_for_bit(tiny_student):
    # Repeated prompts, and completions that begin alike, share rows under no_grad.
    items = [
        (Prompt(TEXT, [5, 6, 7]), [8, 9, 2]),
        (Prompt(TEXT, [5, 6, 7]), [8, 9, 2]),
        (Prompt(TEXT, [5, 6, 7]), [8, 4]),
        (Prompt(SPEECH, [1, 2, 3, 4, 5, 6]), [13, 2]),
        (Prompt(TEXT, [10, 11]), [12, 2]),
        (Prompt(SPEECH, [1, 2, 3, 4, 5, 6]), [13, 2, 7, 7]),
    ]
    shared = _log_probs(tiny_student, items)
    recorded = completion_log_probs(tiny_student, items).data
    np.testing.assert_array_equal(shared, recorded)
    # 43 positions in all; the shared pass computes 23 distinct rows.
    with ad.no_grad():
        emb, rows, _ = model_mod._prefix_rows(tiny_student, items)
    assert (rows >= 0).sum() == 43
    assert emb.shape[0] == rows.max() + 1 == 23


def test_batched_sampling_order_invariant(tiny_teacher):
    prompts = [Prompt(TEXT, [4 + i] * (2 + i % 3)) for i in range(6)]
    mk = lambda: [(p, np.random.default_rng([11, i])) for i, p in enumerate(prompts)]
    fwd = sample_completions_batch(tiny_teacher, mk(), max_new=5)
    units_rev = list(reversed(mk()))
    rev = sample_completions_batch(tiny_teacher, units_rev, max_new=5)
    for i in range(len(prompts)):
        assert fwd[i].tokens == rev[len(prompts) - 1 - i].tokens
        assert fwd[i].logp_old == rev[len(prompts) - 1 - i].logp_old


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    rows=st.integers(1, 6),
    V=st.integers(2, 80),
    spread=st.sampled_from([0.1, 1.0, 10.0, 100.0]),
)
def test_the_batched_draw_is_rng_choice(seed, rows, V, spread):
    # Wide spreads give rows whose cdf has long flat runs, where a search
    # that was not right-sided would pick another index.
    logits = np.random.default_rng(seed).normal(0.0, spread, (rows, V))
    ours = [np.random.default_rng([seed, r]) for r in range(rows)]
    theirs = [np.random.default_rng([seed, r]) for r in range(rows)]
    got = _draw(logits, ours)
    want = [rng.choice(V, p=ad.np_softmax(row)) for rng, row in zip(theirs, logits)]
    assert got.tolist() == want
    assert [r.bit_generator.state for r in ours] == [r.bit_generator.state for r in theirs]


def test_no_decode_step_feeds_a_finished_row(tiny_student, monkeypatch):
    fed = []
    backbone = model_mod.backbone_logits

    def counting(params, cfg, emb, *rest):
        fed.append(emb.shape[0])
        return backbone(params, cfg, emb, *rest)

    monkeypatch.setattr(model_mod, "backbone_logits", counting)
    prompt = Prompt(TEXT, [5, 6, 7])
    units = [(prompt, np.random.default_rng([13, i])) for i in range(200)]
    trajs = sample_completions_batch(tiny_student, units, max_new=12)
    lengths = [len(t.tokens) for t in trajs]
    assert min(lengths) < 11, "no row finished early enough to retire"
    # Step s feeds the rows that choose a token at step s; the first feeds
    # the one distinct prompt's 5 rows, whose keys and values every copy takes.
    live = [sum(n > s for n in lengths) for s in range(max(lengths))]
    assert fed == [5] + live[1:]


def test_every_shape_group_steps_in_one_call(tiny_student, monkeypatch):
    batches = []
    backbone = model_mod.backbone_logits

    def counting(params, cfg, emb, rows, *rest):
        batches.append(len(rows))
        return backbone(params, cfg, emb, rows, *rest)

    monkeypatch.setattr(model_mod, "backbone_logits", counting)
    prompts = [Prompt(TEXT, [5, 6]), Prompt(TEXT, [5, 6, 7]), Prompt(SPEECH, [1, 2, 3])]
    units = [(p, np.random.default_rng([17, i])) for i, p in enumerate(prompts * 3)]
    trajs = sample_completions_batch(tiny_student, units, max_new=6)
    # One call per step for all three (modality, length) groups, until each finishes.
    assert len(batches) == max(len(t.tokens) for t in trajs)
    assert batches[0] == 3


def test_a_non_finite_head_stops_both_decoders(tiny_teacher):
    params = {k: ad.Tensor(p.data.copy()) for k, p in tiny_teacher.params.items()}
    params["head.w"].data[0, 0] = np.nan
    broken = TeacherModel(tiny_teacher.cfg, params)
    prompt = Prompt(TEXT, [5, 6, 7])
    with pytest.raises(FloatingPointError):
        sample_completions_batch(broken, [(prompt, np.random.default_rng(0))], 4)
    with pytest.raises(FloatingPointError):
        greedy_decode_batch(broken, [prompt], 4)


def test_greedy_decode_batch_matches_single(tiny_student):
    prompts = [Prompt(TEXT, [4 + i, 9]) for i in range(4)]
    prompts += [Prompt(SPEECH, [1 + i, 2, 3, 4, 5, 6]) for i in range(4)]
    batched = greedy_decode_batch(tiny_student, prompts, max_new=6)
    for p, got in zip(prompts, batched):
        assert got == greedy_decode_batch(tiny_student, [p], 6)[0]


@pytest.mark.parametrize("kind,prompt", [
    ("teacher", Prompt(TEXT, [5, 6, 7, 8])),
    ("student", Prompt(SPEECH, [1, 2, 3, 4, 5, 6, 7, 8, 9])),
])
def test_cached_forward_equals_the_full_pass(tiny_teacher, tiny_student, kind, prompt):
    # The decoder's use: a prefill chunk, then one new row at a time.
    model = tiny_teacher if kind == "teacher" else tiny_student
    run = lambda x, caches=None: backbone_logits(
        model.params, model.cfg, ad.Tensor(x[0]), [ad.packed_rows([x.shape[1]])], caches and [caches]
    ).data[None]
    with ad.no_grad():
        emb = model.embed_sequence(prompt, [9, 10, 11, 2])[0].data[None]
        full = run(emb)
        caches = [{} for _ in range(model.cfg.n_layers)]
        chunks = [run(emb[:, :3], caches)]
        chunks += [run(emb[:, t : t + 1], caches) for t in range(3, emb.shape[1])]
    assert caches[0]["k"].shape[1] == emb.shape[1]
    np.testing.assert_allclose(np.concatenate(chunks, axis=1), full, rtol=0, atol=1e-12)


def test_cached_forward_rejects_positions_beyond_max_seq_len(tiny_teacher):
    cfg = tiny_teacher.cfg
    caches = [{} for _ in range(cfg.n_layers)]
    rows = lambda n: ad.Tensor(np.zeros((n, cfg.embed_dim)))
    with ad.no_grad():
        n = cfg.max_seq_len - 1
        backbone_logits(tiny_teacher.params, cfg, rows(n), [ad.packed_rows([n])], [caches])
        with pytest.raises(LengthError):
            backbone_logits(tiny_teacher.params, cfg, rows(2), [ad.packed_rows([2])], [caches])
    # The decoder meets the same rule: <bos> prompt <sep> is one row too long.
    with pytest.raises(LengthError):
        greedy_decode_batch(tiny_teacher, [Prompt(TEXT, [5] * (cfg.max_seq_len - 1))], 1)


def test_decoding_with_max_new_below_1_is_a_config_error(tiny_teacher):
    prompt = Prompt(TEXT, [5, 6])
    with pytest.raises(ConfigurationError, match="max_new"):
        greedy_decode_batch(tiny_teacher, [prompt], 0)
    with pytest.raises(ConfigurationError, match="max_new"):
        sample_completions_batch(tiny_teacher, [(prompt, np.random.default_rng(0))], 0)


def test_batched_completion_logps_matches_per_item(tiny_student):
    items = [
        (Prompt(TEXT, [5, 6, 7]), [8, 9, 2]),
        (Prompt(TEXT, [10, 11]), [12, 2]),
        (Prompt(SPEECH, [1, 2, 3, 4, 5, 6]), [13, 2]),
    ]
    flat = batched_completion_logps(tiny_student, items)
    rows = _log_probs(tiny_student, items)
    lengths = [len(c) for _, c in items]
    assert flat.data.shape == (sum(lengths),)
    assert rows.shape == (sum(lengths), tiny_student.cfg.text_vocab_size)
    # Rows and tokens run item by item, then position by position.
    ends = np.cumsum(lengths)[:-1]
    for (prompt, completion), got, got_rows in zip(
        items, np.split(flat.data, ends), np.split(rows, ends)
    ):
        want = _oracle_logps(tiny_student, prompt, completion)
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-14)
        want_rows = naive_completion_log_probs(
            tiny_student, prompt.modality, prompt.tokens, completion
        )
        np.testing.assert_allclose(got_rows, want_rows, rtol=1e-12, atol=1e-14)
    with pytest.raises(ModalityError):
        batched_completion_logps(tiny_student, [])
    with pytest.raises(ModalityError):
        completion_log_probs(tiny_student, [])


def test_batched_completion_logps_carries_gradient(tiny_student):
    items = [(Prompt(TEXT, [5, 6]), [7, 2]), (Prompt(SPEECH, [1, 2, 3]), [8, 2])]
    flat = batched_completion_logps(tiny_student, items)
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
    prompt, completion = Prompt(SPEECH, [1, 2, 3]), [4]
    np.testing.assert_array_equal(
        _logits(back, prompt, completion), _logits(tiny_student, prompt, completion)
    )
    items = [(prompt, completion)]
    np.testing.assert_array_equal(_log_probs(back, items), _log_probs(tiny_student, items))


def test_load_model_rejects_a_checkpoint_without_model_metadata(tiny_student, tmp_path):
    path = tmp_path / "bare.ckpt"
    save_checkpoint(path, tiny_student.params, meta={"kind": "student"})
    with pytest.raises(CheckpointError, match="not a model checkpoint"):
        load_model(path)
