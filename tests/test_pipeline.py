"""Unit tests for trend checks, one seed of the pipeline and the ablation
grid (cheap paths only; the full multi-seed pipeline is exercised by the
acceptance suite)."""

import json
from dataclasses import asdict, replace

import pytest

from xopd_lab import pipeline as pipeline_mod, trainer as trainer_mod
from xopd_lab.evaluation import EvalReport, comparison_table_csv
from xopd_lab.model import TeacherModel, load_model
from xopd_lab.pipeline import (
    BASELINE_METHODS,
    PipelineConfig,
    _method_variants,
    _trend_checks,
    method_config,
    reproduce_paper_trends,
    run_ablation,
    run_seed,
)
from xopd_lab.errors import ConfigurationError
from xopd_lab.trainer import METHODS, GapConfig, PretrainConfig, TrainConfig, clone_student


def _result(base_ds=40.0, base_dt=1.0, x_ds=10.0, x_dt=1.5,
            baseline_ds=30.0, sft_dt=5.0,
            xopd_forget=0.01, baseline_forget=0.2):
    lambda_grid = (0.0, 0.5, 1.0)
    reports = {
        "base_student": {"avg_drop_speech": base_ds, "avg_drop_text": base_dt},
        "sft": {"avg_drop_speech": baseline_ds, "avg_drop_text": sft_dt},
        "offline_kd": {"avg_drop_speech": baseline_ds, "avg_drop_text": 2.0},
        "gkd": {"avg_drop_speech": baseline_ds, "avg_drop_text": 2.0},
    }
    forgetting = {}
    for lam in lambda_grid:
        reports[f"xopd_l{lam:g}"] = {"avg_drop_speech": x_ds, "avg_drop_text": x_dt}
        forgetting[f"xopd_l{lam:g}"] = {"drop": xopd_forget}
    for m in BASELINE_METHODS:
        forgetting[m] = {"drop": baseline_forget}
    return {"reports": reports, "forgetting": forgetting}


def test_trend_checks_pass_case():
    checks = _trend_checks(_result(), (0.0, 0.5, 1.0))
    assert checks["gap_narrowing"] is True
    assert checks["forgetting"] is True
    assert checks["sft_text_worsens"] is True
    assert checks["numbers"]["xopd_drop_speech"] == 10.0
    # The text slack binds the gap: 1.0 + 2 - 1.5, against 40/2 - 10 and 30 - 10.
    assert checks["gap_narrowing_margin"] == pytest.approx(1.5)
    assert checks["forgetting_margin"] == pytest.approx(0.19)
    assert checks["sft_text_worsens_margin"] == pytest.approx(4.0)


def test_trend_checks_gap_needs_half_reduction():
    checks = _trend_checks(_result(x_ds=25.0), (0.0, 0.5, 1.0))
    assert checks["gap_narrowing"] is False  # 25 > 0.5 * 40
    assert checks["gap_narrowing_margin"] == pytest.approx(-5.0)


def test_trend_checks_gap_needs_beating_baselines():
    checks = _trend_checks(_result(x_ds=19.0, baseline_ds=18.0), (0.0, 0.5, 1.0))
    assert checks["gap_narrowing"] is False
    assert checks["gap_narrowing_margin"] == pytest.approx(-1.0)
    # A tie with the best baseline is no win, and no room either.
    tie = _trend_checks(_result(x_ds=18.0, baseline_ds=18.0), (0.0, 0.5, 1.0))
    assert tie["gap_narrowing"] is False and tie["gap_narrowing_margin"] == 0.0


def test_trend_checks_gap_allows_two_point_text_slack():
    assert _trend_checks(_result(x_dt=2.9), (0.0, 0.5, 1.0))["gap_narrowing"] is True
    checks = _trend_checks(_result(x_dt=3.1), (0.0, 0.5, 1.0))
    assert checks["gap_narrowing"] is False
    assert checks["gap_narrowing_margin"] == pytest.approx(-0.1)


def test_trend_checks_forgetting_every_variant_strict():
    checks = _trend_checks(_result(xopd_forget=0.2, baseline_forget=0.2), (0.0, 0.5, 1.0))
    assert checks["forgetting"] is False
    assert checks["forgetting_margin"] == 0.0
    checks = _trend_checks(_result(xopd_forget=0.3), (0.0, 0.5, 1.0))
    assert checks["forgetting"] is False
    assert checks["forgetting_margin"] == pytest.approx(-0.1)


def test_trend_checks_sft_text():
    checks = _trend_checks(_result(sft_dt=0.5), (0.0, 0.5, 1.0))
    assert checks["sft_text_worsens"] is False
    assert checks["sft_text_worsens_margin"] == pytest.approx(-0.5)
    equal = _trend_checks(_result(sft_dt=1.0), (0.0, 0.5, 1.0))
    assert equal["sft_text_worsens"] is False and equal["sft_text_worsens_margin"] == 0.0


def test_method_variants_set_no_field_their_method_ignores():
    default = TrainConfig()
    for name, tc in _method_variants(PipelineConfig(gkd_steps=7, xopd_steps=9, max_new=5), 0):
        unread = set(asdict(tc)) - set(tc.read_fields())
        assert {k: getattr(tc, k) for k in unread} == {k: getattr(default, k) for k in unread}, name


def test_method_config_takes_each_methods_step_count_and_the_checkpoint_interval():
    cfg = PipelineConfig(xopd_steps=9, gkd_steps=7, checkpoint_interval=3)
    assert [method_config(cfg, m, 0).steps for m in ("xopd", "gkd")] == [9, 7]
    assert {method_config(cfg, m, 0).checkpoint_interval for m in METHODS} == {3}


@pytest.mark.parametrize("values,named", [
    ({"seeds": (0, 0)}, "seeds"),
    ({"lambda_grid": (0.5, 0.5)}, "lambda_grid"),
    ({"lambda_grid": (0.1234567, 0.1234568)}, "lambda_grid"),  # both label l0.123457
    ({"checkpoint_interval": -1}, "checkpoint_interval"),
], ids=["repeated-seed", "repeated-lambda", "repeated-lambda-label", "negative-interval"])
def test_pipeline_config_refuses_repeats_and_a_negative_interval(values, named):
    with pytest.raises(ConfigurationError, match=named):
        PipelineConfig(**values)


def test_run_seed_scores_the_base_student_and_every_variant(tiny_teacher, tiny_config, tmp_path,
                                                          monkeypatch):
    # Scoring inside gap construction is stubbed so one step meets its
    # targets: the teacher scores 1 on text and the student 0 everywhere.
    monkeypatch.setattr(
        trainer_mod, "score_model", lambda model, *a, **k: 1.0 if model is tiny_teacher else 0.0
    )
    cfg = PipelineConfig(
        seeds=(0,), sizes={f: [24, 8, 8] for f in ("REASONING", "INSTRUCTION", "ACOUSTIC")},
        model=tiny_config,
        gap=GapConfig(batch_size=4, max_steps=1, check_every=1, acoustic_target=0.0,
                      speech_subset_size=4, n_val=4),
        xopd_steps=1, gkd_steps=1, batch_size=4, n_rollouts=2, max_new=5, n_eval=4,
    )
    result = run_seed(cfg, 0, tmp_path, tiny_teacher)
    # The shared teacher is written once, to the trend root.
    assert not (tmp_path / "teacher.ckpt").exists()
    names = [name for name, _ in _method_variants(cfg, 0)]
    rows = (tmp_path / "comparison.csv").read_text().splitlines()[1:]
    assert [row.split(",")[0] for row in rows] == ["base_student"] + names
    saved = json.loads((tmp_path / "seed_result.json").read_text())
    assert saved == json.loads(json.dumps(result))
    # The shared teacher's pretraining report is the trend root's, not each seed's.
    assert set(saved) == {"seed", "gap_construction", "reports", "forgetting"}
    assert set(saved["forgetting"]) == set(names)
    for name in names:
        assert set(saved["forgetting"][name]) == {"model_id", "acoustic_before", "acoustic_after", "drop"}
        assert saved["forgetting"][name]["model_id"] == name
        assert saved["reports"][name]["base_model_id"] == "teacher"
    assert not any("seed" in report for report in saved["reports"].values())
    assert set(saved["reports"]["teacher"]["scores"]["REASONING"]) == {"TEXT"}


def test_a_trend_root_holds_the_whole_pretrain_report(tiny_config, tmp_path, monkeypatch):
    reports, teachers = [], []

    def pretrain(*args):
        teacher, report = trainer_mod.pretrain_teacher(*args)
        reports.append(report)
        teachers.append(teacher)
        return teacher, report

    monkeypatch.setattr(pipeline_mod, "pretrain_teacher", pretrain)
    monkeypatch.setattr(pipeline_mod, "run_seed", lambda cfg, seed, out_dir, teacher: _result())
    cfg = PipelineConfig(
        seeds=(0,), sizes={f: [24, 8, 8] for f in ("REASONING", "INSTRUCTION", "ACOUSTIC")},
        model=tiny_config,
        pretrain=PretrainConfig(batch_size=4, max_steps=2, eval_every=1, target_accuracy=0.0, n_val=4),
    )
    reproduce_paper_trends(cfg, tmp_path)
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "lambda_ablation.svg", "pretrain_report.json", "resolved_config.json", "teacher.ckpt",
        "trends_report.json",
    ]
    saved_teacher = load_model(tmp_path / "teacher.ckpt")
    assert {k: v.data.tobytes() for k, v in saved_teacher.params.items()} == {
        k: v.data.tobytes() for k, v in teachers[0].params.items()
    }
    saved = json.loads((tmp_path / "pretrain_report.json").read_text())
    assert saved == json.loads(json.dumps(reports[0]))
    assert [set(row) for row in saved["history"]] == [{"step", "loss", "val_accuracy"}]


def test_run_ablation_grid(tiny_teacher, tiny_student, tiny_config, small_dataset, tmp_path):
    cfg = PipelineConfig(
        xopd_steps=1, batch_size=4, n_rollouts=2, max_new=5, n_eval=4, lambda_grid=(0.0, 1.0),
    )
    # The objective rejects a teacher whose vocabulary differs from the student's.
    mismatched = TeacherModel.init(replace(tiny_config, text_vocab_size=80), 3)
    grid = run_ablation(
        {"teacher": tiny_teacher, "mismatched": mismatched, "teacher_b": tiny_teacher},
        cfg,
        small_dataset,
        clone_student(tiny_student),
        seed=0,
        out_dir=tmp_path,
    )
    assert grid["lambda_values"] == [0.0, 1.0]
    assert list(grid["cells"]) == ["teacher", "mismatched", "teacher_b"]
    for cell in grid["cells"]["mismatched"].values():
        assert set(cell) == {"error"} and "vocab mismatch" in cell["error"]
    for teacher_id in ("teacher", "teacher_b"):
        assert set(grid["cells"][teacher_id]) == {"l0", "l1"}
        for cell in grid["cells"][teacher_id].values():
            assert "error" not in cell and "seed" not in cell
            assert "avg_drop_speech" in cell
            assert cell["base_model_id"] == "teacher"
    data = json.loads((tmp_path / "ablation_grid.json").read_text())
    assert data == grid
    # The cells that ran, as a comparison table keyed by run name, in grid order.
    ran = [grid["cells"][t][label] for t in ("teacher", "teacher_b") for label in ("l0", "l1")]
    assert (tmp_path / "ablation.csv").read_text() == comparison_table_csv(
        [EvalReport(**cell) for cell in ran]
    )
    assert [cell["model_id"] for cell in ran] == ["teacher_l0", "teacher_l1", "teacher_b_l0", "teacher_b_l1"]
