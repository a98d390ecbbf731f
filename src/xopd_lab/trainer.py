"""Experiment orchestration: teacher pretraining, modality-gap construction,
and the method loop (dual-advantage policy gradient or one of the baselines).

Runs are fully determined by (config, seed). A run directory holds
config.json (serialized before any work), metrics.jsonl (deterministic
per-step records), timings.jsonl (wall-clock sidecar, deliberately outside
metrics so metrics stay bit-reproducible), checkpoints/, and manifest.json.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass, asdict
from pathlib import Path

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .baselines import gkd_batch_loss, offline_kd_build, sft_batch_loss
from .checkpoint import params_hash
from .corpus import Dataset, PairedExample, pretraining_batch
from .errors import ConfigurationError, DataError, TrainingFailure, UsageError, check_field_types
from .evaluation import score_model
from .model import (
    SPEECH,
    TEXT,
    ModelConfig,
    StudentModel,
    TeacherModel,
    init_student_from_teacher,
    save_model,
)
from .objective import xopd_loss
from .optim import Adam
from .rollout import collect_rollouts, rollout_pairs

METHODS = ("xopd", "sft", "offline_kd", "gkd")

# The TrainConfig fields only some methods read; every method reads the
# others. SFT and offline KD make one pass over the data, and SFT never
# decodes; only X-OPD samples several rollouts per prompt and weighs the two
# advantages.
READ_BY = {"steps": ("gkd", "xopd"), "lam": ("xopd",), "n_rollouts": ("xopd",),
           "max_new": ("gkd", "offline_kd", "xopd")}


def _check_config(cfg, counts: tuple[str, ...], unit: str) -> None:
    """Checks shared by the training, pretraining and gap configs: the
    field types, every count >= 1, ``learning_rate`` >= 0 and the ``unit``
    field in [0, 1]."""
    check_field_types(cfg)
    for name in counts:
        if getattr(cfg, name) < 1:
            raise ConfigurationError(f"{name} must be >= 1, got {getattr(cfg, name)!r}")
    if cfg.learning_rate < 0:
        raise ConfigurationError(f"learning_rate must be >= 0, got {cfg.learning_rate!r}")
    if not 0.0 <= getattr(cfg, unit) <= 1.0:
        raise ConfigurationError(f"{unit} must be in [0, 1], got {getattr(cfg, unit)!r}")


@dataclass
class TrainConfig:
    method: str = "xopd"
    lam: float = 0.5
    n_rollouts: int = 4
    # Fine-tune no hotter than the rate the backbone finished pretraining at
    # (PretrainConfig.min_learning_rate): a fresh Adam at the teacher's peak
    # rate of 1e-3 wipes out the ACOUSTIC skill and much of the text skill.
    learning_rate: float = 1e-4
    batch_size: int = 32
    steps: int = 60  # GKD and X-OPD only; SFT and offline KD make one pass
    max_new: int = 12
    seed: int = 0
    checkpoint_interval: int = 0  # 0 = final checkpoint only
    # Rollouts run as one batched call in one thread; only 1 is accepted, so
    # callers that still pass workers=1 keep working.
    workers: int = 1

    def __post_init__(self) -> None:
        if self.method not in METHODS:
            raise ConfigurationError(f"method must be one of {METHODS}, got {self.method!r}")
        _check_config(self, ("n_rollouts", "batch_size", "steps", "max_new"), "lam")
        if self.checkpoint_interval < 0:
            raise ConfigurationError(f"checkpoint_interval must be >= 0, got {self.checkpoint_interval!r}")
        if self.workers != 1:
            raise ConfigurationError(f"workers must be 1, got {self.workers}")

    def read_fields(self) -> dict:
        """The fields this config's method reads, as a dict."""
        return {k: v for k, v in asdict(self).items() if self.method in READ_BY.get(k, METHODS)}


@dataclass
class PretrainConfig:
    learning_rate: float = 1e-3
    min_learning_rate: float = 1e-4
    batch_size: int = 64
    max_steps: int = 4000
    eval_every: int = 250
    target_accuracy: float = 0.98
    n_val: int = 150

    def __post_init__(self) -> None:
        _check_config(self, ("batch_size", "max_steps", "eval_every", "n_val"), "target_accuracy")
        if not 0.0 <= self.min_learning_rate <= self.learning_rate:
            raise ConfigurationError(
                f"min_learning_rate must be in [0, learning_rate], got {self.min_learning_rate!r}"
            )


@dataclass
class GapConfig:
    learning_rate: float = 1e-3
    batch_size: int = 16
    max_steps: int = 800
    check_every: int = 50
    acoustic_target: float = 0.90
    speech_subset_size: int = 96
    n_val: int = 100

    def __post_init__(self) -> None:
        _check_config(self, ("max_steps", "check_every", "n_val"), "acoustic_target")
        # Each batch is half ACOUSTIC, half drawn without replacement from
        # the speech subset.
        if self.batch_size < 2:
            raise ConfigurationError(f"batch_size must be >= 2, got {self.batch_size!r}")
        if self.speech_subset_size < self.batch_size - self.batch_size // 2:
            raise ConfigurationError(
                f"speech_subset_size must hold half a batch ({self.batch_size - self.batch_size // 2}), "
                f"got {self.speech_subset_size!r}"
            )


def check_build_data(dataset: Dataset, teacher: bool = False, student: bool = False) -> None:
    """Refuse a dataset that ``pretrain_teacher`` (``teacher``) or
    ``build_gapped_student`` (``student``) cannot validate on; both run this
    before they train."""
    if teacher and not dataset.split_family("val", "REASONING"):
        raise UsageError("pretraining needs val REASONING data")
    if student and not (dataset.split_family("val", "ACOUSTIC") and dataset.alignment_set("val")):
        raise UsageError("gap construction needs val ACOUSTIC and alignment data")


def check_text_vocab(cfg: TrainConfig, teacher: ModelConfig, student: ModelConfig) -> None:
    """Refuse a run whose teacher and student configs differ in text
    vocabulary: every method but SFT reads the teacher's distribution over
    the student's vocabulary."""
    if cfg.method != "sft" and teacher.text_vocab_size != student.text_vocab_size:
        raise ConfigurationError(
            f"teacher/student vocab mismatch: {teacher.text_vocab_size} vs {student.text_vocab_size}"
        )


def _optimizer(model: TeacherModel, trained: dict[str, Tensor], lr: float) -> Adam:
    """Adam over exactly ``trained``; every other parameter of ``model``
    stops recording gradients, so backward skips its weight gradient."""
    for name, p in model.params.items():
        p.requires_grad = name in trained
        p.zero_grad()
    return Adam(trained, lr=lr)


def _apply(opt: Adam, loss: Tensor, step: int, last_good: str | None = None) -> None:
    """One update: finite-loss check, zero, backward, finite-gradient check,
    Adam step. A failure names the step and carries ``last_good``, the
    last checkpoint written before it."""
    if not math.isfinite(float(loss.data)):
        raise TrainingFailure(f"non-finite loss at step {step}", last_good_checkpoint=last_good)
    opt.zero_grad()
    loss.backward()
    if not all(p.grad is None or np.all(np.isfinite(p.grad)) for p in opt.params.values()):
        raise TrainingFailure(f"non-finite gradient at step {step}", last_good_checkpoint=last_good)
    opt.step()


def pretrain_teacher(
    dataset: Dataset,
    model_cfg: ModelConfig,
    cfg: PretrainConfig,
    seed: int,
) -> tuple[TeacherModel, dict]:
    """Cross-entropy training on a streaming text (prompt -> answer) corpus
    until the validation ceiling target is met; raises TrainingFailure
    otherwise. Validation is the dataset's held-out REASONING split."""
    check_build_data(dataset, teacher=True)
    teacher = TeacherModel.init(model_cfg, seed)
    val = dataset.split_family("val", "REASONING")[: cfg.n_val]
    opt = _optimizer(teacher, teacher.params, cfg.learning_rate)
    history = []
    for step in range(1, cfg.max_steps + 1):
        # Cosine decay keeps late training stable at desk scale.
        frac = (step - 1) / max(1, cfg.max_steps - 1)
        opt.lr = cfg.min_learning_rate + 0.5 * (cfg.learning_rate - cfg.min_learning_rate) * (
            1.0 + math.cos(math.pi * frac)
        )
        batch = pretraining_batch(seed, step, cfg.batch_size)
        loss = sft_batch_loss(teacher, batch)
        _apply(opt, loss, step)
        if step % cfg.eval_every == 0 or step == cfg.max_steps:
            acc = score_model(teacher, val, TEXT)
            history.append({"step": step, "loss": float(loss.data), "val_accuracy": acc})
            if acc >= cfg.target_accuracy:
                return teacher, {
                    "steps": step,
                    "val_accuracy": acc,
                    "target": cfg.target_accuracy,
                    "history": history,
                }
    raise TrainingFailure(
        f"teacher did not reach {cfg.target_accuracy:.0%} within {cfg.max_steps} steps "
        f"(last accuracy {history[-1]['val_accuracy']:.3f})"
    )


def build_gapped_student(
    teacher: TeacherModel,
    dataset: Dataset,
    model_cfg: ModelConfig,
    cfg: GapConfig,
    seed: int,
) -> tuple[StudentModel, dict]:
    """Construct the base student: teacher backbone plus a speech pathway
    trained on a small noisy speech subset and the acoustic-label task.

    Only the tower and adapter train here; the backbone stays byte-equal to
    the teacher's, so the base student's text behaviour matches the teacher
    exactly and the speech-only acoustic skill is carried by the speech
    pathway. The result must show a modality gap (speech accuracy below the
    teacher's text accuracy) while holding the acoustic skill at or above
    the target. The recipe is a controlled fixture: seeded, measured, and
    reported."""
    student = init_student_from_teacher(teacher, model_cfg, seed)
    check_build_data(dataset, student=True)
    acoustic = dataset.split_family("train", "ACOUSTIC")
    speech_subset = dataset.alignment_set("train")[: cfg.speech_subset_size]
    val_acoustic = dataset.split_family("val", "ACOUSTIC")[: cfg.n_val]
    val_align = dataset.alignment_set("val")[: cfg.n_val]
    # Each batch draws without replacement from both pools.
    half = cfg.batch_size // 2
    for name, pool, need in (
        ("train ACOUSTIC split", acoustic, half),
        ("speech subset of the train alignment split", speech_subset, cfg.batch_size - half),
    ):
        if len(pool) < need:
            raise DataError(
                f"gap construction draws {need} examples per batch from the {name}, "
                f"which holds {len(pool)}"
            )

    opt = _optimizer(student, student.speech_params(), cfg.learning_rate)
    rng = np.random.default_rng([seed, 0x6A9])
    steps_used = 0
    acoustic_acc = 0.0
    for step in range(1, cfg.max_steps + 1):
        batch = [acoustic[i] for i in rng.choice(len(acoustic), size=half, replace=False)]
        batch += [
            speech_subset[i]
            for i in rng.choice(len(speech_subset), size=cfg.batch_size - half, replace=False)
        ]
        _apply(opt, sft_batch_loss(student, batch), step)
        steps_used = step
        if step % cfg.check_every == 0 or step == cfg.max_steps:
            acoustic_acc = score_model(student, val_acoustic, SPEECH)
            if acoustic_acc >= cfg.acoustic_target:
                break

    teacher_text = score_model(teacher, val_align, TEXT)
    student_speech = score_model(student, val_align, SPEECH)
    student_text = score_model(student, val_align, TEXT)
    report = {
        "steps": steps_used,
        "acoustic_accuracy": acoustic_acc,
        "acoustic_target": cfg.acoustic_target,
        "teacher_text_accuracy": teacher_text,
        "student_speech_accuracy": student_speech,
        "student_text_accuracy": student_text,
        "text_drift": teacher_text - student_text,
        "gap": teacher_text - student_speech,
    }
    if acoustic_acc < cfg.acoustic_target or student_speech >= teacher_text:
        raise TrainingFailure(f"gap construction targets unmet: {json.dumps(report)}")
    return student, report


def clone_student(student: StudentModel) -> StudentModel:
    params = {k: Tensor(v.data.copy(), requires_grad=True) for k, v in student.params.items()}
    return StudentModel(student.cfg, params)


def _batches(cfg: TrainConfig, n: int):
    """The method's batch schedule over ``n`` examples, as index arrays: one
    shuffled pass for SFT and offline KD, ``cfg.steps`` draws without
    replacement for GKD and X-OPD."""
    if cfg.method in ("sft", "offline_kd"):
        order = np.random.default_rng([cfg.seed, 0x0E, 0]).permutation(n)
        for start in range(0, n, cfg.batch_size):
            yield order[start : start + cfg.batch_size]
        return
    rng = np.random.default_rng([cfg.seed, 0xD0])
    for _ in range(cfg.steps):
        yield rng.choice(n, size=min(cfg.batch_size, n), replace=False)


def _step_loss(
    cfg: TrainConfig, step: int, batch: list[PairedExample], student: StudentModel, teacher: TeacherModel
) -> tuple[Tensor, dict]:
    """The method's loss on one batch, and the metrics row the step logs."""
    if cfg.method in ("sft", "offline_kd"):
        loss = sft_batch_loss(student, batch)
        return loss, {"step": step, "loss": float(loss.data)}
    # X-OPD and GKD sample only the modalities their loss weighs above zero.
    xopd = cfg.method == "xopd"
    weights = ((TEXT, cfg.lam), (SPEECH, 1.0 - cfg.lam)) if xopd else ((SPEECH, 1.0),)
    rollouts = collect_rollouts(
        student, batch, n=cfg.n_rollouts if xopd else 1, seed=cfg.seed * 1_000_003 + step,
        max_new=cfg.max_new, modalities=tuple(m for m, w in weights if w > 0),
    )
    pairs = rollout_pairs(rollouts, batch)
    if xopd:
        report, objective = xopd_loss(pairs, teacher, student, cfg.lam)
        return ad.neg(objective), {"step": step, **report.to_dict()}
    loss = gkd_batch_loss(teacher, student, pairs)
    return loss, {"step": step, "loss": float(loss.data)}


def run_method(
    cfg: TrainConfig,
    student: StudentModel,
    teacher: TeacherModel,
    dataset: Dataset,
    out_dir: str | Path,
) -> tuple[StudentModel, list[dict]]:
    """Train the student in place with the configured method, writing the
    run directory ``out_dir`` (see the module docstring).

    Per step: batch -> rollouts (policy methods) -> loss -> finite-loss
    check -> backward -> Adam update on the backbone. The speech pathway
    (tower and adapter) is frozen, as in the paper, and asserted
    byte-for-byte after every step.
    """
    check_text_vocab(cfg, teacher.cfg, student.cfg)
    train_data = dataset.alignment_set("train")
    if not train_data:
        raise UsageError("alignment dataset is empty")

    tower_bytes = {k: student.params[k].data.tobytes() for k in student.BACKBONE_EXTRA}
    opt = _optimizer(student, student.backbone_params(), cfg.learning_rate)

    run_dir = Path(out_dir)
    run_dir.mkdir(parents=True, exist_ok=True)
    (run_dir / "config.json").write_text(json.dumps({"train": cfg.read_fields()}, indent=2, sort_keys=True))
    (run_dir / "checkpoints").mkdir(exist_ok=True)

    if cfg.method == "offline_kd":
        train_data = offline_kd_build(teacher, train_data, cfg.max_new)
        (run_dir / "distilled.jsonl").write_text(
            json.dumps({"method": "offline_kd", "decode_mode": "greedy"}, sort_keys=True) + "\n"
            + "".join(e.to_json() + "\n" for e in train_data)
        )

    metrics: list[dict] = []
    last_good: str | None = None
    with open(run_dir / "metrics.jsonl", "w") as metrics_f, open(run_dir / "timings.jsonl", "w") as timings_f:
        for step, idx in enumerate(_batches(cfg, len(train_data)), 1):
            t0 = time.perf_counter()
            loss, row = _step_loss(cfg, step, [train_data[i] for i in idx], student, teacher)
            _apply(opt, loss, step, last_good)
            for k in student.BACKBONE_EXTRA:
                if student.params[k].data.tobytes() != tower_bytes[k]:
                    raise TrainingFailure(f"frozen parameter {k} changed at step {step}")
            metrics.append(row)
            metrics_f.write(json.dumps(row, sort_keys=True) + "\n")
            timings_f.write(json.dumps({"step": step, "seconds": time.perf_counter() - t0}) + "\n")
            if cfg.checkpoint_interval and step % cfg.checkpoint_interval == 0:
                path = run_dir / "checkpoints" / f"step-{step}.ckpt"
                save_model(student, path)
                last_good = str(path)

    save_model(student, run_dir / "checkpoints" / "final.ckpt")
    manifest = {
        "seed": cfg.seed,
        "method": cfg.method,
        "steps": len(metrics),
        "dataset_manifest": dataset.manifest,
        "final_params_hash": params_hash(student.params),
    }
    (run_dir / "manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True))
    return student, metrics
