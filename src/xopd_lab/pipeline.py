"""End-to-end experiment pipeline and the headline-trend reproduction.

The text teacher is pretrained once and shared by every seed. One seed of
the pipeline: generate the corpus, construct the gapped base student, train
every method variant from the same base checkpoint, then evaluate
speech/text accuracy per family, aggregate drops versus the teacher, and
acoustic-skill retention.

The trend report checks three directional claims on each seed, each with
a signed margin beside its verdict (positive when it holds with room):

* gap narrowing   - the dual-advantage method cuts the speech drop by at
                    least half versus the base student and beats SFT,
                    offline KD, and GKD, without sacrificing text.
* forgetting      - every lambda variant retains the speech-only acoustic
                    skill better than every baseline.
* baseline tax    - SFT's text drop worsens relative to the base student;
                    if this does not transfer to desk scale, the report
                    carries an explicit DEVIATION record instead of failing
                    silently.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, asdict
from pathlib import Path

from .corpus import VOCAB, SpeechCodec, build_dataset, check_sizes, save_dataset, Dataset
from .errors import ConfigurationError, XopdError, check_field_types, is_int, is_number
from .evaluation import (
    EvalReport,
    avg_drop,
    comparison_table_csv,
    curve_svg,
    evaluate_model,
    forgetting_eval,
)
from .model import ModelConfig, StudentModel, TeacherModel, save_model
from .trainer import (
    READ_BY,
    GapConfig,
    PretrainConfig,
    TrainConfig,
    build_gapped_student,
    clone_student,
    pretrain_teacher,
    run_method,
)

# REASONING's admissible prompt space at difficulty <= 2 is 800 unique
# prompts, so its quotas stay inside that budget; eval splits stay at 500.
DEFAULT_SIZES = {
    "REASONING": (150, 100, 500),
    "INSTRUCTION": (800, 150, 500),
    "ACOUSTIC": (800, 150, 500),
}

BASELINE_METHODS = ("sft", "offline_kd", "gkd")

# The X-OPD variant the gap-narrowing criterion judges.
GAP_LAMBDA = 0.5


@dataclass
class PipelineConfig:
    seeds: tuple[int, ...] = (0, 1, 2)
    sizes: dict = field(default_factory=lambda: {k: list(v) for k, v in DEFAULT_SIZES.items()})
    noise_rate: float = 0.08
    model: ModelConfig = field(default_factory=ModelConfig)
    pretrain: PretrainConfig = field(default_factory=PretrainConfig)
    gap: GapConfig = field(default_factory=GapConfig)
    xopd_steps: int = 150
    gkd_steps: int = 50
    lambda_grid: tuple[float, ...] = (0.0, 0.5, 1.0)
    # The method recipe's defaults are TrainConfig's.
    learning_rate: float = TrainConfig.learning_rate
    batch_size: int = TrainConfig.batch_size
    n_rollouts: int = TrainConfig.n_rollouts
    max_new: int = TrainConfig.max_new
    checkpoint_interval: int = TrainConfig.checkpoint_interval
    n_eval: int = 500

    def __post_init__(self) -> None:
        """Check every value before any work, so a bad one writes nothing."""
        check_field_types(self)
        check_sizes(self.sizes)
        if self.model.text_vocab_size < len(VOCAB):
            raise ConfigurationError(
                f"model.text_vocab_size must cover the corpus vocabulary of {len(VOCAB)} ids, "
                f"got {self.model.text_vocab_size!r}"
            )
        for name in ("xopd_steps", "gkd_steps", "batch_size", "n_rollouts", "max_new", "n_eval"):
            value = getattr(self, name)
            if value < 1:
                raise ConfigurationError(f"{name} must be an integer >= 1, got {value!r}")
        for name in ("learning_rate", "checkpoint_interval"):
            if getattr(self, name) < 0:
                raise ConfigurationError(f"{name} must be >= 0, got {getattr(self, name)!r}")
        if not self.seeds or not all(is_int(s) for s in self.seeds):
            raise ConfigurationError(f"seeds must be a non-empty list of integers, got {self.seeds!r}")
        if len(set(self.seeds)) < len(self.seeds):
            raise ConfigurationError(f"seeds must not repeat, got {self.seeds!r}")
        if not self.lambda_grid or not all(is_number(x) and 0 <= x <= 1 for x in self.lambda_grid):
            raise ConfigurationError(f"lambda_grid must be non-empty, in [0, 1], got {self.lambda_grid!r}")
        # Each lambda names its run directory and report key.
        labels = [f"l{lam:g}" for lam in self.lambda_grid]
        if len(set(labels)) < len(labels):
            raise ConfigurationError(f"lambda_grid values must have distinct labels, got {labels}")
        try:
            self.codec()
        except ConfigurationError as e:
            raise ConfigurationError(f"no speech codec for this config: {e}") from None

    def codec(self) -> SpeechCodec:
        """The speech codec this config's data is built with."""
        return SpeechCodec(
            noise_rate=self.noise_rate,
            text_vocab_size=self.model.text_vocab_size,
            speech_vocab_size=self.model.speech_vocab_size,
            frames_per_token=self.model.frames_per_token,
        )

    def dataset(self, seed: int) -> Dataset:
        return build_dataset({k: tuple(v) for k, v in self.sizes.items()}, self.codec(), seed=seed)


def write_config(cfg: PipelineConfig, out_dir: Path) -> None:
    """Write ``cfg`` as ``out_dir/resolved_config.json``, the directory's one
    record of its config; passed back as ``--config`` it reruns the command."""
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "resolved_config.json").write_text(json.dumps(asdict(cfg), indent=2, sort_keys=True))


def method_config(cfg: PipelineConfig, method: str, seed: int, lam: float = TrainConfig.lam) -> TrainConfig:
    """The run of ``method`` under ``cfg``'s shared recipe. It sets only the
    fields the method reads (``READ_BY``); GKD steps ``gkd_steps`` times and
    X-OPD ``xopd_steps`` times."""
    recipe = {"lam": lam, "n_rollouts": cfg.n_rollouts, "max_new": cfg.max_new,
              "steps": cfg.xopd_steps if method == "xopd" else cfg.gkd_steps}
    return TrainConfig(
        method=method, learning_rate=cfg.learning_rate, batch_size=cfg.batch_size, seed=seed,
        checkpoint_interval=cfg.checkpoint_interval,
        **{k: v for k, v in recipe.items() if method in READ_BY[k]},
    )


def _method_variants(cfg: PipelineConfig, seed: int) -> list[tuple[str, TrainConfig]]:
    variants = [(f"xopd_l{lam:g}", method_config(cfg, "xopd", seed, lam)) for lam in cfg.lambda_grid]
    return variants + [(method, method_config(cfg, method, seed)) for method in BASELINE_METHODS]


def _train_and_score(
    cfg: PipelineConfig,
    tc: TrainConfig,
    name: str,
    base_student: StudentModel,
    teacher: TeacherModel,
    dataset: Dataset,
    reference: EvalReport,
    out_dir: Path,
) -> EvalReport:
    """Train a clone of ``base_student`` under ``tc`` and score its drops
    against the ``reference`` teacher report."""
    student = clone_student(base_student)
    run_method(tc, student, teacher, dataset, out_dir=out_dir)
    report = evaluate_model(student, dataset, name, n_eval=cfg.n_eval)
    avg_drop(report, reference)
    return report


def run_seed(cfg: PipelineConfig, seed: int, out_dir: Path, teacher: TeacherModel) -> dict:
    """Run the pipeline for one seed with the shared pretrained teacher;
    returns the seed's result record."""
    out_dir.mkdir(parents=True, exist_ok=True)
    dataset = cfg.dataset(seed)
    save_dataset(dataset, out_dir / "data")
    teacher_report = evaluate_model(teacher, dataset, "teacher", n_eval=cfg.n_eval)

    base_student, gap_report = build_gapped_student(teacher, dataset, cfg.model, cfg.gap, seed)
    save_model(base_student, out_dir / "student_base.ckpt")
    base_report = evaluate_model(base_student, dataset, "base_student", n_eval=cfg.n_eval)
    avg_drop(base_report, teacher_report)

    reports: dict[str, EvalReport] = {"teacher": teacher_report, "base_student": base_report}
    forgetting: dict[str, dict] = {}
    for name, tc in _method_variants(cfg, seed):
        reports[name] = _train_and_score(
            cfg, tc, name, base_student, teacher, dataset, teacher_report, out_dir / "runs" / name
        )
        forgetting[name] = forgetting_eval(reports[name], base_report)

    table = comparison_table_csv([r for r in reports.values() if r.model_id != "teacher"])
    (out_dir / "comparison.csv").write_text(table)
    result = {
        "seed": seed,
        "gap_construction": gap_report,
        "reports": {k: r.to_dict() for k, r in reports.items()},
        "forgetting": forgetting,
    }
    (out_dir / "seed_result.json").write_text(json.dumps(result, indent=2, sort_keys=True))
    return result


def _trend_checks(result: dict, lambda_grid: tuple[float, ...]) -> dict:
    reps = result["reports"]
    xopd_name = f"xopd_l{GAP_LAMBDA:g}"
    base_ds = reps["base_student"]["avg_drop_speech"]
    base_dt = reps["base_student"]["avg_drop_text"]
    x_ds = reps[xopd_name]["avg_drop_speech"]
    x_dt = reps[xopd_name]["avg_drop_text"]
    baseline_ds = {m: reps[m]["avg_drop_speech"] for m in BASELINE_METHODS}

    gap_narrowing = (
        x_ds <= 0.5 * base_ds
        and all(x_ds < d for d in baseline_ds.values())
        and x_dt <= base_dt + 2.0
    )
    xopd_drops = [result["forgetting"][f"xopd_l{lam:g}"]["drop"] for lam in lambda_grid]
    baseline_drops = [result["forgetting"][m]["drop"] for m in BASELINE_METHODS]
    forgetting_ok = all(xd < bd for xd in xopd_drops for bd in baseline_drops)
    sft_text_worsens = reps["sft"]["avg_drop_text"] > base_dt
    # Signed margins: positive when a criterion holds with room to spare.
    # The booleans stay the verdicts.
    return {
        "gap_narrowing": gap_narrowing,
        "gap_narrowing_margin": min(
            0.5 * base_ds - x_ds, min(baseline_ds.values()) - x_ds, base_dt + 2.0 - x_dt
        ),
        "forgetting": forgetting_ok,
        "forgetting_margin": min(baseline_drops) - max(xopd_drops),
        "sft_text_worsens": sft_text_worsens,
        "sft_text_worsens_margin": reps["sft"]["avg_drop_text"] - base_dt,
        "numbers": {
            "base_drop_speech": base_ds,
            "base_drop_text": base_dt,
            "xopd_drop_speech": x_ds,
            "xopd_drop_text": x_dt,
            "baseline_drop_speech": baseline_ds,
            "sft_drop_text": reps["sft"]["avg_drop_text"],
            "xopd_acoustic_drops": xopd_drops,
            "baseline_acoustic_drops": baseline_drops,
        },
    }


def reproduce_paper_trends(cfg: PipelineConfig, out_root: str | Path) -> dict:
    """Record ``cfg`` in ``out_root``, pretrain the one teacher every seed
    shares and write it as ``teacher.ckpt`` and its report, history
    included, as ``pretrain_report.json``; then run every seed and aggregate
    the three directional criteria. A ``lambda_grid`` without ``GAP_LAMBDA``
    is refused before anything is written."""
    if GAP_LAMBDA not in cfg.lambda_grid:
        raise ConfigurationError(
            f"lambda_grid must hold {GAP_LAMBDA:g}, the gap criterion's lambda, got {cfg.lambda_grid!r}"
        )
    out_root = Path(out_root)
    write_config(cfg, out_root)
    # One fixed teacher across seeds (as at paper scale, where the teacher
    # is a single pretrained model and seeds vary data and rollouts).
    teacher_seed = cfg.seeds[0]
    teacher, pretrain_report = pretrain_teacher(
        cfg.dataset(teacher_seed), cfg.model, cfg.pretrain, teacher_seed
    )
    save_model(teacher, out_root / "teacher.ckpt")
    (out_root / "pretrain_report.json").write_text(json.dumps(pretrain_report, indent=2, sort_keys=True))
    seed_results = []
    checks = []
    for seed in cfg.seeds:
        result = run_seed(cfg, seed, out_root / f"seed-{seed}", teacher)
        seed_results.append(result)
        checks.append(_trend_checks(result, cfg.lambda_grid))

    n = len(checks)
    need = 2 if n >= 3 else n
    criteria, deviations = {}, []
    for name in ("gap_narrowing", "forgetting", "sft_text_worsens"):
        passes = sum(c[name] for c in checks)
        criteria[name] = {"passes": passes, "of": n, "ok": passes >= need}
        if name == "sft_text_worsens" and passes < need:
            # A recorded deviation stands in for the SFT criterion.
            deviations.append({
                "type": "DEVIATION",
                "criterion": "baseline_text_degradation",
                "detail": f"SFT text drop worsened on only {passes}/{n} seeds; the paper-scale "
                "degradation did not fully transfer to desk scale.",
            })
            criteria[name]["ok"] = True
    report = {
        "seeds": list(cfg.seeds), "per_seed_checks": checks, "criteria": criteria, "deviations": deviations
    }
    (out_root / "trends_report.json").write_text(json.dumps(report, indent=2, sort_keys=True))

    # Lambda-ablation curve over the first seed's reports; its numbers are
    # the xopd_l* rows of that seed's comparison.csv.
    first = seed_results[0]["reports"]
    series = {
        key: [(lam, first[f"xopd_l{lam:g}"][f"avg_{key}"]) for lam in cfg.lambda_grid]
        for key in ("drop_speech", "drop_text")
    }
    (out_root / "lambda_ablation.svg").write_text(curve_svg(series, title="avg drop vs lambda"))
    return report


def run_ablation(
    teachers: dict[str, TeacherModel],
    cfg: PipelineConfig,
    dataset: Dataset,
    base_student: StudentModel,
    seed: int,
    out_dir: Path,
) -> dict:
    """Full (teacher variant x ``cfg.lambda_grid``) grid with shared seeds and
    data; drops are taken against the first teacher.

    Returns ``{"lambda_values": [...], "cells": {teacher id: {lambda label:
    EvalReport dict or {"error": message}}}}``, as written to
    ``ablation_grid.json``. A failed run is recorded in its cell and does not
    stop the grid. The runs that ended are also written as the
    ``comparison_table_csv`` ``ablation.csv``, one row per run name
    ``<teacher id>_l<lambda>``."""
    out_dir.mkdir(parents=True, exist_ok=True)
    reference_id, reference_teacher = next(iter(teachers.items()))
    reference = evaluate_model(reference_teacher, dataset, reference_id, n_eval=cfg.n_eval)
    grid = {"lambda_values": list(cfg.lambda_grid), "cells": {}}
    ran: list[EvalReport] = []
    for teacher_id, teacher in teachers.items():
        cells = grid["cells"][teacher_id] = {}
        for lam in cfg.lambda_grid:
            label = f"l{lam:g}"
            name = f"{teacher_id}_{label}"
            try:
                rep = _train_and_score(
                    cfg, method_config(cfg, "xopd", seed, lam), name, base_student, teacher, dataset,
                    reference, out_dir / name,
                )
            except XopdError as e:
                cells[label] = {"error": str(e)}
                continue
            cells[label] = rep.to_dict()
            ran.append(rep)
    (out_dir / "ablation_grid.json").write_text(json.dumps(grid, indent=2, sort_keys=True))
    (out_dir / "ablation.csv").write_text(comparison_table_csv(ran))
    return grid
