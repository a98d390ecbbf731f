"""Unit tests for the optimizer and the method training loop."""

import json
import math
from dataclasses import asdict, replace

import numpy as np
import pytest

import xopd_lab.autodiff as ad
import xopd_lab.trainer as trainer_mod
from xopd_lab.autodiff import Tensor
from xopd_lab.baselines import offline_kd_build, sft_batch_loss
from xopd_lab.checkpoint import params_hash
from xopd_lab.corpus import Dataset, SpeechCodec, build_dataset
from xopd_lab.errors import ConfigurationError, DataError, TrainingFailure
from xopd_lab.model import TeacherModel
from xopd_lab.optim import Adam
from xopd_lab.trainer import (
    GapConfig,
    PretrainConfig,
    TrainConfig,
    build_gapped_student,
    clone_student,
    run_method,
)

from oracles import adam_step


# ---------------------------------------------------------------------------
# Adam
# ---------------------------------------------------------------------------

def test_adam_minimizes_quadratic_within_500_steps():
    x = Tensor(np.asarray([5.0, -3.0]), requires_grad=True)
    opt = Adam({"x": x}, lr=0.05)
    for _ in range(500):
        loss = ad.sum_all(ad.mul(x, x))
        x.zero_grad()
        loss.backward()
        opt.step()
    assert float((x.data**2).sum()) < 1e-6


def test_adam_first_step_is_signed_lr():
    # With bias correction, |update| == lr exactly on step one (eps aside).
    x = Tensor(np.asarray([1.0, -2.0]), requires_grad=True)
    opt = Adam({"x": x}, lr=0.1)
    loss = ad.sum_all(ad.mul(x, Tensor(np.asarray([3.0, -4.0]))))
    loss.backward()
    opt.step()
    np.testing.assert_allclose(x.data, [1.0 - 0.1, -2.0 + 0.1], atol=1e-6)


def test_adam_zero_lr_is_a_noop():
    x = Tensor(np.asarray([1.0, 2.0]), requires_grad=True)
    before = x.data.copy()
    opt = Adam({"x": x}, lr=0.0)
    ad.sum_all(ad.mul(x, x)).backward()
    opt.step()
    np.testing.assert_array_equal(x.data, before)


def test_adam_skips_params_without_grad():
    x = Tensor(np.asarray([1.0]), requires_grad=True)
    y = Tensor(np.asarray([2.0]), requires_grad=True)
    opt = Adam({"x": x, "y": y}, lr=0.1)
    ad.sum_all(x).backward()
    opt.step()
    assert x.data[0] != 1.0
    assert y.data[0] == 2.0


def test_adam_steps_are_bit_for_bit_the_plain_expressions():
    rng = np.random.default_rng(3)
    shapes = {"w": (4, 5), "b": (5,), "frozen": (3,)}
    params = {k: Tensor(rng.normal(0, 1, s), requires_grad=True) for k, s in shapes.items()}
    data = {k: p.data.copy() for k, p in params.items()}
    m = {k: np.zeros(s) for k, s in shapes.items()}
    v = {k: np.zeros(s) for k, s in shapes.items()}
    opt = Adam(params, lr=3e-3)
    assert (opt.BETA1, opt.BETA2, opt.EPS) == (0.9, 0.999, 1e-8)
    for t in range(1, 6):
        for k, p in params.items():
            p.grad = None if k == "frozen" else rng.normal(0, 10.0**-t, shapes[k])
        adam_step(data, {k: p.grad for k, p in params.items()}, m, v, t, 3e-3)
        opt.step()
        for k in shapes:
            np.testing.assert_array_equal(params[k].data, data[k])
            np.testing.assert_array_equal(opt.m[k], m[k])
            np.testing.assert_array_equal(opt.v[k], v[k])
    assert not np.any(opt.m["frozen"]) and not np.any(opt.v["frozen"])


def test_adam_rejects_negative_lr():
    with pytest.raises(ValueError):
        Adam({"x": Tensor(np.asarray([1.0]), requires_grad=True)}, lr=-1.0)


# ---------------------------------------------------------------------------
# Config validation
# ---------------------------------------------------------------------------

def test_train_config_validation():
    with pytest.raises(ConfigurationError):
        TrainConfig(method="dagger")
    with pytest.raises(ConfigurationError):
        TrainConfig(lam=-0.1)
    with pytest.raises(ConfigurationError):
        TrainConfig(learning_rate=-1.0)
    with pytest.raises(ConfigurationError):
        TrainConfig(batch_size=0)
    with pytest.raises(ConfigurationError, match="workers"):
        TrainConfig(workers=2)
    # step % -3 == 0 would checkpoint every third step.
    with pytest.raises(ConfigurationError, match="checkpoint_interval"):
        TrainConfig(checkpoint_interval=-3)
    assert TrainConfig().method == "xopd"
    assert PretrainConfig().target_accuracy == 0.98
    assert GapConfig().acoustic_target == 0.90


@pytest.mark.parametrize("field,bad", [("steps", 0), ("max_new", 0)])
def test_train_config_rejects_nonpositive_sampling_and_step_counts(field, bad):
    with pytest.raises(ConfigurationError, match=field):
        TrainConfig(**{field: bad})


# ---------------------------------------------------------------------------
# run_method
# ---------------------------------------------------------------------------

@pytest.fixture()
def trainable_student(tiny_student):
    return clone_student(tiny_student)


def _cfg(**kw):
    base = dict(batch_size=4, steps=2, max_new=5, n_rollouts=2, seed=0)
    base.update(kw)
    return TrainConfig(**base)


def test_clone_student_is_independent(tiny_student):
    clone = clone_student(tiny_student)
    clone.params["tok_emb"].data += 1.0
    assert not np.array_equal(clone.params["tok_emb"].data, tiny_student.params["tok_emb"].data)


@pytest.mark.parametrize("method", ["sft", "offline_kd", "gkd", "xopd"])
def test_run_method_smoke_and_frozen_tower(method, trainable_student, tiny_teacher, small_dataset, tmp_path):
    before = {
        k: trainable_student.params[k].data.tobytes()
        for k in trainable_student.BACKBONE_EXTRA
    }
    _, metrics = run_method(_cfg(method=method), trainable_student, tiny_teacher, small_dataset, out_dir=tmp_path)
    assert metrics and all(np.isfinite(m["loss"] if "loss" in m else m["loss_total"]) for m in metrics)
    for k, b in before.items():
        assert trainable_student.params[k].data.tobytes() == b


@pytest.mark.parametrize("method", ["offline_kd", "gkd", "xopd"])
def test_a_teacher_vocab_mismatch_is_refused_before_anything_is_written(
    method, trainable_student, tiny_config, small_dataset, tmp_path
):
    teacher = TeacherModel.init(replace(tiny_config, text_vocab_size=80), 3)
    out = tmp_path / "run"
    with pytest.raises(ConfigurationError, match="teacher/student vocab mismatch: 80 vs 64"):
        run_method(_cfg(method=method), trainable_student, teacher, small_dataset, out_dir=out)
    assert not out.exists()


def test_sft_reads_no_teacher_so_any_vocab_will_do(trainable_student, tiny_config, small_dataset, tmp_path):
    teacher = TeacherModel.init(replace(tiny_config, text_vocab_size=80), 3)
    _, metrics = run_method(
        _cfg(method="sft", batch_size=64), trainable_student, teacher, small_dataset, out_dir=tmp_path
    )
    assert metrics


def test_sft_makes_one_pass(trainable_student, tiny_teacher, small_dataset, tmp_path):
    n = len(small_dataset.alignment_set("train"))
    _, metrics = run_method(
        _cfg(method="sft", batch_size=16), trainable_student, tiny_teacher, small_dataset, out_dir=tmp_path
    )
    assert len(metrics) == math.ceil(n / 16)
    assert json.loads((tmp_path / "manifest.json").read_text())["steps"] == len(metrics)


@pytest.mark.parametrize("method,unread", [
    ("sft", {"steps", "lam", "n_rollouts", "max_new"}),
    ("offline_kd", {"steps", "lam", "n_rollouts"}),
    ("gkd", {"lam", "n_rollouts"}),
    ("xopd", set()),
])
def test_read_fields_leave_out_what_the_method_ignores(method, unread):
    cfg = _cfg(method=method)
    assert set(asdict(cfg)) - set(cfg.read_fields()) == unread


@pytest.mark.parametrize("method", ["sft", "gkd"])
def test_run_config_echoes_only_the_fields_the_method_reads(
    method, trainable_student, tiny_teacher, small_dataset, tmp_path
):
    cfg = _cfg(method=method, batch_size=32, steps=1)
    run_method(cfg, trainable_student, tiny_teacher, small_dataset, out_dir=tmp_path)
    assert json.loads((tmp_path / "config.json").read_text())["train"] == cfg.read_fields()


@pytest.mark.parametrize("method", ["sft", "offline_kd"])
def test_one_pass_batches_cover_every_example_once(method):
    n, cfg = 37, _cfg(method=method, batch_size=8, steps=99)
    batches = list(trainer_mod._batches(cfg, n))
    assert len(batches) == math.ceil(n / 8)
    assert sorted(np.concatenate(batches).tolist()) == list(range(n))


@pytest.mark.parametrize("method,n", [("gkd", 37), ("xopd", 37), ("xopd", 3)])
def test_sampled_batches_repeat_no_index(method, n):
    cfg = _cfg(method=method, batch_size=8, steps=5)
    batches = list(trainer_mod._batches(cfg, n))
    assert len(batches) == 5
    for idx in batches:
        assert len(idx) == min(8, n) and len(set(idx.tolist())) == len(idx)
        assert all(0 <= i < n for i in idx)


@pytest.mark.parametrize("bad", ["loss", "gradient"])
def test_divergence_carries_the_last_good_checkpoint(
    bad, trainable_student, tiny_teacher, small_dataset, tmp_path, monkeypatch
):
    calls = []

    def diverging(model, batch):
        loss = sft_batch_loss(model, batch)
        calls.append(1)
        if len(calls) < 3:
            return loss
        if bad == "loss":
            return ad.mul(loss, Tensor(np.asarray(np.nan)))
        # A finite loss whose backward pass yields NaN.
        return ad._make(loss.data, (loss,), lambda g: loss.accumulate_grad(g * np.nan))

    monkeypatch.setattr(trainer_mod, "sft_batch_loss", diverging)
    cfg = _cfg(method="sft", batch_size=16, checkpoint_interval=1)
    with pytest.raises(TrainingFailure, match=f"non-finite {bad} at step 3") as exc:
        run_method(cfg, trainable_student, tiny_teacher, small_dataset, out_dir=tmp_path)
    assert exc.value.last_good_checkpoint == str(tmp_path / "checkpoints" / "step-2.ckpt")
    assert sorted(p.name for p in (tmp_path / "checkpoints").iterdir()) == ["step-1.ckpt", "step-2.ckpt"]


def test_xopd_metrics_carry_objective_report(trainable_student, tiny_teacher, small_dataset, tmp_path):
    _, metrics = run_method(
        _cfg(method="xopd", lam=0.5), trainable_student, tiny_teacher, small_dataset, out_dir=tmp_path
    )
    row = metrics[0]
    for key in ("loss_im", "loss_cm", "loss_total", "mean_ratio", "lam"):
        assert key in row
    assert row["lam"] == 0.5


def test_run_method_writes_artifacts(trainable_student, tiny_teacher, small_dataset, tmp_path):
    out = tmp_path / "run"
    run_method(_cfg(method="xopd"), trainable_student, tiny_teacher, small_dataset, out_dir=out)
    assert (out / "config.json").exists()
    assert (out / "metrics.jsonl").exists()
    assert (out / "timings.jsonl").exists()
    assert (out / "manifest.json").exists()
    assert (out / "checkpoints" / "final.ckpt").exists()
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["method"] == "xopd"
    assert set(manifest) == {"seed", "method", "steps", "dataset_manifest", "final_params_hash"}
    cfgj = json.loads((out / "config.json").read_text())
    assert cfgj["train"]["method"] == "xopd"


def test_rerun_is_bit_identical(tiny_student, tiny_teacher, small_dataset, tmp_path):
    outs = []
    for d in ("a", "b"):
        student = clone_student(tiny_student)
        out = tmp_path / d
        run_method(_cfg(method="xopd", steps=3), student, tiny_teacher, small_dataset, out_dir=out)
        outs.append(out)
    m0 = (outs[0] / "metrics.jsonl").read_bytes()
    m1 = (outs[1] / "metrics.jsonl").read_bytes()
    assert m0 == m1
    h0 = json.loads((outs[0] / "manifest.json").read_text())["final_params_hash"]
    h1 = json.loads((outs[1] / "manifest.json").read_text())["final_params_hash"]
    assert h0 == h1


def test_offline_kd_is_sft_on_the_teachers_greedy_answers(tiny_student, tiny_teacher, small_dataset, tmp_path):
    # Same schedule, same loss: only the answers differ, and they are the
    # teacher's. Sending offline KD to any other loss breaks the equality.
    cfg = _cfg(method="offline_kd", batch_size=16)
    distilled = offline_kd_build(tiny_teacher, small_dataset.alignment_set("train"), cfg.max_new)
    acoustic = small_dataset.split_family("train", "ACOUSTIC")
    on_distilled = Dataset(splits={**small_dataset.splits, "train": distilled + acoustic},
                           manifest=small_dataset.manifest)
    kd, _ = run_method(cfg, clone_student(tiny_student), tiny_teacher, small_dataset, out_dir=tmp_path / "kd")
    sft, _ = run_method(
        replace(cfg, method="sft"), clone_student(tiny_student), tiny_teacher, on_distilled, out_dir=tmp_path / "sft"
    )
    assert params_hash(kd.params) == params_hash(sft.params)
    assert params_hash(kd.params) != params_hash(tiny_student.params)


def test_offline_kd_records_distilled_provenance(tiny_student, tiny_teacher, small_dataset, tmp_path):
    student = clone_student(tiny_student)
    out = tmp_path / "kd"
    run_method(_cfg(method="offline_kd"), student, tiny_teacher, small_dataset, out_dir=out)
    lines = (out / "distilled.jsonl").read_text().splitlines()
    assert json.loads(lines[0]) == {"method": "offline_kd", "decode_mode": "greedy"}
    assert len(lines) == 1 + len(small_dataset.alignment_set("train"))


# ---------------------------------------------------------------------------
# Gap construction and the hand-off to run_method
# ---------------------------------------------------------------------------

TINY_GAP = GapConfig(
    batch_size=4, max_steps=1, check_every=1, acoustic_target=0.0,
    speech_subset_size=4, n_val=4,
)


@pytest.fixture()
def gapped_student(tiny_teacher, tiny_config, small_dataset, monkeypatch):
    """One gap-construction step, with scoring stubbed so the targets hold:
    the teacher scores 1 on text and the student 0 everywhere."""
    monkeypatch.setattr(
        trainer_mod, "score_model", lambda model, *a, **k: 1.0 if model is tiny_teacher else 0.0
    )
    student, report = build_gapped_student(tiny_teacher, small_dataset, tiny_config, TINY_GAP, 0)
    assert report["steps"] == 1
    return student


@pytest.mark.parametrize("sizes,named", [
    ({"REASONING": (6, 2, 2), "INSTRUCTION": (6, 2, 2), "ACOUSTIC": (1, 2, 2)}, "train ACOUSTIC split"),
    ({"REASONING": (1, 2, 2), "ACOUSTIC": (6, 2, 2)}, "speech subset"),
], ids=["acoustic", "speech-subset"])
def test_gap_rejects_a_pool_smaller_than_its_half_batch(tiny_teacher, tiny_config, sizes, named):
    dataset = build_dataset(sizes, SpeechCodec(), seed=0)
    with pytest.raises(DataError, match=f"{named}.*holds 1"):
        build_gapped_student(tiny_teacher, dataset, tiny_config, TINY_GAP, 0)


def test_gap_step_trains_only_the_speech_pathway(gapped_student, tiny_teacher):
    # Backward stops at the frozen backbone's weights: no gradient is formed.
    for name, p in gapped_student.backbone_params().items():
        assert p.grad is None, name
        assert p.data.tobytes() == tiny_teacher.params[name].data.tobytes()
    assert all(p.grad is not None for p in gapped_student.speech_params().values())


def test_gapped_student_trains_its_backbone_in_run_method(gapped_student, tiny_teacher, small_dataset, tmp_path):
    # The train --auto path hands the gapped student to run_method uncloned.
    before = {k: p.data.copy() for k, p in gapped_student.params.items()}
    run_method(_cfg(method="xopd"), gapped_student, tiny_teacher, small_dataset, out_dir=tmp_path)
    moved = [
        k for k in gapped_student.backbone_params()
        if not np.array_equal(gapped_student.params[k].data, before[k])
    ]
    assert moved
    for k in gapped_student.BACKBONE_EXTRA:
        assert gapped_student.params[k].data.tobytes() == before[k].tobytes()
