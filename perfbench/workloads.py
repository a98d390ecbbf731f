"""The benchmark's workloads: fixture set-up, one timed unit of work, and the
output checks that count into the failure tally.

Every call into xopd_lab goes through a module attribute
(``trainer.run_method``, not an imported name), so the traced run sees it.
"""

from __future__ import annotations

import hashlib
import json
import math
import tempfile
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

from xopd_lab import corpus, model, trainer
from xopd_lab.checkpoint import params_hash
from xopd_lab.pipeline import DEFAULT_SIZES, PipelineConfig
from xopd_lab.rollout import SPEECH, TEXT

MODEL = model.ModelConfig()
PIPELINE = PipelineConfig()
SIZES = {k: tuple(v) for k, v in DEFAULT_SIZES.items()}

# A short teacher fixture: a fresh model has a zero head, so its samples
# almost never emit <eos> and every completion runs to max_new. 50 steps at
# twice the default rate give the same traffic as 100 at the default
# (mean completion about 2.5 tokens, at least 99% end at <eos>) in half
# the set-up time.
FIXTURE = trainer.PretrainConfig(
    max_steps=50, eval_every=50, target_accuracy=0.0, learning_rate=2e-3, min_learning_rate=2e-4
)
# One teacher and student for every workload seed, as the pipeline shares
# one teacher across seeds: seeds vary the data, batches and rollouts.
FIXTURE_SEED = 0
XOPD_ROUND_STEPS = 5
PRETRAIN_ROUND_STEPS = 10
GREEDY_CHECK_SUBSET = 8


@dataclass
class Fixture:
    seed: int
    dataset: corpus.Dataset
    teacher: model.TeacherModel
    student: model.StudentModel


def build_fixture(seed: int) -> Fixture:
    codec = corpus.SpeechCodec(
        noise_rate=PIPELINE.noise_rate,
        text_vocab_size=MODEL.text_vocab_size,
        speech_vocab_size=MODEL.speech_vocab_size,
        frames_per_token=MODEL.frames_per_token,
    )
    dataset = corpus.build_dataset(SIZES, codec, seed=seed)
    teacher, _ = trainer.pretrain_teacher(dataset, MODEL, FIXTURE, FIXTURE_SEED)
    student = model.init_student_from_teacher(teacher, MODEL, FIXTURE_SEED)
    return Fixture(seed, dataset, teacher, student)


@dataclass
class Tally:
    """What one phase did: step times, work done, and checks attempted and failed."""

    step_s: list[float] = field(default_factory=list)
    steps: int = 0
    examples: int = 0
    attempted: int = 0
    failed: int = 0

    def step(self, seconds: float, examples: int, steps: int = 1) -> None:
        self.step_s.append(seconds)
        self.steps += steps
        self.examples += examples

    def check(self, ok: bool, n: int = 1) -> None:
        self.attempted += n
        self.failed += 0 if ok else n

    def fail(self, n: int = 1) -> None:
        traceback.print_exc()
        self.check(False, n)


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


class Workload:
    name = ""

    def __init__(self, fx: Fixture, tmp_dir: Path):
        self.fx = fx
        self.tmp_dir = tmp_dir
        # Deterministic outputs of the first unit, for comparing builds.
        self.fingerprint: dict = {}

    def warm_up(self) -> None:
        """One small untimed unit; part of set-up."""
        raise NotImplementedError

    def unit(self, i: int, tally: Tally) -> None:
        """The ``i``-th timed unit of work, checked as it goes; records one
        or more steps in ``tally``."""
        raise NotImplementedError

    def check(self, tally: Tally) -> None:
        """Output checks that run outside the timed phase."""


class XopdTrain(Workload):
    """``run_method(method="xopd", lam=0.5)`` at the pipeline defaults, in
    rounds of a few steps from the fixture student. Round ``i`` trains
    under seed ``1000 * seed + i``, so longer runs cover more batches."""

    name = "xopd_train"

    def _config(self, i: int, steps: int) -> trainer.TrainConfig:
        return trainer.TrainConfig(
            method="xopd", lam=0.5, n_rollouts=PIPELINE.n_rollouts,
            batch_size=PIPELINE.batch_size, learning_rate=PIPELINE.learning_rate,
            max_new=PIPELINE.max_new, steps=steps, seed=1000 * self.fx.seed + i, workers=1,
        )

    def warm_up(self) -> None:
        with tempfile.TemporaryDirectory(dir=self.tmp_dir) as d:
            student = trainer.clone_student(self.fx.student)
            trainer.run_method(self._config(0, 1), student, self.fx.teacher, self.fx.dataset, out_dir=d)

    def unit(self, i: int, tally: Tally) -> None:
        expected = PIPELINE.batch_size * PIPELINE.n_rollouts
        with tempfile.TemporaryDirectory(dir=self.tmp_dir) as d:
            student = trainer.clone_student(self.fx.student)
            try:
                _, rows = trainer.run_method(
                    self._config(i, XOPD_ROUND_STEPS), student, self.fx.teacher, self.fx.dataset,
                    out_dir=d,
                )
            except Exception:
                tally.fail(XOPD_ROUND_STEPS)
                return
            run = Path(d)
            seconds = [json.loads(line)["seconds"] for line in (run / "timings.jsonl").open()]
            if i == 0:
                manifest = json.loads((run / "manifest.json").read_text())
                self.fingerprint = {
                    "final_params_hash": manifest["final_params_hash"],
                    "metrics_jsonl_sha256": _digest((run / "metrics.jsonl").read_bytes()),
                }
        for row, s in zip(rows, seconds):
            tally.check(
                math.isfinite(row["loss_total"])
                and row["n_text_trajectories"] == row["n_speech_trajectories"] == expected
                and abs(row["mean_ratio"] - 1.0) <= 1e-9
            )
            tally.step(s, PIPELINE.batch_size)


class Pretrain(Workload):
    """``pretrain_teacher`` for a fixed step count at batch 64, with its
    single terminal eval. Call ``i`` pretrains under seed ``1000 * seed + i``.
    A call's step time is its wall time over its step count."""

    name = "pretrain"
    first_loss = math.nan

    def _config(self, steps: int) -> trainer.PretrainConfig:
        return trainer.PretrainConfig(max_steps=steps, eval_every=steps, target_accuracy=0.0)

    def warm_up(self) -> None:
        # A fresh model has a zero head, so every call's first loss is this
        # one: the uniform distribution's, whatever the batch.
        _, report = trainer.pretrain_teacher(self.fx.dataset, MODEL, self._config(1), self.fx.seed)
        self.first_loss = report["history"][-1]["loss"]

    def unit(self, i: int, tally: Tally) -> None:
        t0 = time.perf_counter()
        try:
            teacher, report = trainer.pretrain_teacher(
                self.fx.dataset, MODEL, self._config(PRETRAIN_ROUND_STEPS), 1000 * self.fx.seed + i
            )
        except Exception:
            tally.fail()
            return
        seconds = time.perf_counter() - t0
        loss = report["history"][-1]["loss"]
        if i == 0:
            self.fingerprint = {
                "final_params_hash": params_hash(teacher.params),
                "final_loss": loss,
                "val_accuracy": report["val_accuracy"],
            }
        tally.check(math.isfinite(loss) and loss < self.first_loss)
        tally.step(
            seconds / PRETRAIN_ROUND_STEPS,
            FIXTURE.batch_size * PRETRAIN_ROUND_STEPS,
            steps=PRETRAIN_ROUND_STEPS,
        )

    def check(self, tally: Tally) -> None:
        """The terminal eval's batched greedy decode equals one-prompt calls,
        on a fixed subset of the test split under both modalities, decoded
        by the fixture student."""
        for fam in corpus.FAMILIES:
            for mod in (TEXT, SPEECH):
                prompts = [
                    model.Prompt(mod, ex.text_prompt if mod == TEXT else ex.speech_prompt)
                    for ex in self.fx.dataset.split_family("test", fam)[:GREEDY_CHECK_SUBSET]
                ]
                try:
                    batched = model.greedy_decode_batch(self.fx.student, prompts, PIPELINE.max_new)
                    single = [
                        model.greedy_decode_batch(self.fx.student, [p], PIPELINE.max_new)[0]
                        for p in prompts
                    ]
                except Exception:
                    tally.fail()
                    continue
                tally.check(batched == single)


WORKLOADS = {w.name: w for w in (XopdTrain, Pretrain)}
