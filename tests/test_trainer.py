"""Unit tests for the optimizer and the method training loop."""

import json
import math

import numpy as np
import pytest

import xopd_lab.autodiff as ad
import xopd_lab.trainer as trainer_mod
from xopd_lab.autodiff import Tensor
from xopd_lab.errors import ConfigurationError
from xopd_lab.optim import Adam
from xopd_lab.trainer import (
    GapConfig,
    PretrainConfig,
    TrainConfig,
    build_gapped_student,
    clone_student,
    run_method,
)


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
    assert TrainConfig().method == "xopd"
    assert PretrainConfig().target_accuracy == 0.98
    assert GapConfig().acoustic_target == 0.90


@pytest.mark.parametrize(
    "field,bad",
    [
        ("temperature", 0.0), ("temperature", -1.0), ("steps", 0), ("max_new", 0),
    ],
)
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
    base = dict(batch_size=4, steps=2, epochs=1, max_new=5, n_rollouts=2, seed=0)
    base.update(kw)
    return TrainConfig(**base)


def test_clone_student_is_independent(tiny_student):
    clone = clone_student(tiny_student)
    clone.params["tok_emb"].data += 1.0
    assert not np.array_equal(clone.params["tok_emb"].data, tiny_student.params["tok_emb"].data)


@pytest.mark.parametrize("method", ["sft", "offline_kd", "gkd", "xopd"])
def test_run_method_smoke_and_frozen_tower(method, trainable_student, tiny_teacher, small_dataset):
    before = {
        k: trainable_student.params[k].data.tobytes()
        for k in trainable_student.BACKBONE_EXTRA
    }
    _, metrics = run_method(_cfg(method=method), trainable_student, tiny_teacher, small_dataset)
    assert metrics and all(np.isfinite(m["loss"] if "loss" in m else m["loss_total"]) for m in metrics)
    for k, b in before.items():
        assert trainable_student.params[k].data.tobytes() == b


def test_sft_step_count_follows_epochs(trainable_student, tiny_teacher, small_dataset):
    n = len(small_dataset.alignment_set("train"))
    cfg = _cfg(method="sft", epochs=2, batch_size=16)
    _, metrics = run_method(cfg, trainable_student, tiny_teacher, small_dataset)
    assert len(metrics) == math.ceil(n / 16) * 2


def test_xopd_metrics_carry_objective_report(trainable_student, tiny_teacher, small_dataset):
    _, metrics = run_method(_cfg(method="xopd", lam=0.5), trainable_student, tiny_teacher, small_dataset)
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
    assert "final_params_hash" in manifest
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


def test_offline_kd_records_distilled_provenance(tiny_student, tiny_teacher, small_dataset, tmp_path):
    student = clone_student(tiny_student)
    out = tmp_path / "kd"
    run_method(_cfg(method="offline_kd"), student, tiny_teacher, small_dataset, out_dir=out)
    lines = (out / "distilled.jsonl").read_text().splitlines()
    assert json.loads(lines[0])["method"] == "offline_kd"
    assert len(lines) == 1 + len(small_dataset.alignment_set("train"))


# ---------------------------------------------------------------------------
# Gap construction and the hand-off to run_method
# ---------------------------------------------------------------------------

TINY_GAP = GapConfig(
    batch_size=4, max_steps=1, check_every=1, acoustic_target=0.0,
    speech_subset_size=4, n_val=4, max_new=2,
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


def test_gap_step_trains_only_the_speech_pathway(gapped_student, tiny_teacher):
    # Backward stops at the frozen backbone's weights: no gradient is formed.
    for name, p in gapped_student.backbone_params().items():
        assert p.grad is None, name
        assert p.data.tobytes() == tiny_teacher.params[name].data.tobytes()
    assert all(p.grad is not None for p in gapped_student.speech_params().values())


def test_gapped_student_trains_its_backbone_in_run_method(gapped_student, tiny_teacher, small_dataset):
    # The train --auto path hands the gapped student to run_method uncloned.
    before = {k: p.data.copy() for k, p in gapped_student.params.items()}
    run_method(_cfg(method="xopd"), gapped_student, tiny_teacher, small_dataset)
    moved = [
        k for k in gapped_student.backbone_params()
        if not np.array_equal(gapped_student.params[k].data, before[k])
    ]
    assert moved
    for k in gapped_student.BACKBONE_EXTRA:
        assert gapped_student.params[k].data.tobytes() == before[k].tobytes()
