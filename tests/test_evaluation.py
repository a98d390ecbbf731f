"""Unit tests for scoring, drop metrics, forgetting, and report emission."""

import dataclasses
import json

import numpy as np
import pytest

from xopd_lab.corpus import FAMILIES
from xopd_lab.errors import DataError, ModalityError
from xopd_lab.evaluation import (
    EvalReport,
    avg_drop,
    comparison_table_csv,
    curve_svg,
    evaluate_model,
    forgetting_eval,
    score_model,
    write_report,
)
from xopd_lab.model import Prompt, greedy_decode_batch
from xopd_lab.rollout import SPEECH, TEXT


def _report(model_id, scores):
    return EvalReport(model_id=model_id, base_model_id=None, n_eval=10, scores=scores)


def test_score_model_range_and_determinism(tiny_student, small_dataset):
    examples = small_dataset.split_family("test", "REASONING")[:10]
    a = score_model(tiny_student, examples, SPEECH)
    b = score_model(tiny_student, examples, SPEECH)
    assert a == b
    assert 0.0 <= a <= 1.0


@pytest.mark.parametrize("modality", [SPEECH, TEXT])
@pytest.mark.parametrize("family", FAMILIES)
def test_score_model_equals_exact_match_at_the_full_budget(tiny_student, small_dataset, family, modality):
    """Scoring at the budget it works out gives the exact-match rate of a
    decode that runs to the model's length limit. Each reference is a prefix
    of that decode, of 1 to 3 tokens, so a budget of only the longest
    reference's length would count a truncated decode as a match."""
    examples = small_dataset.split_family("test", family)[:6]
    prompts = [Prompt(modality, ex.text_prompt if modality == TEXT else ex.speech_prompt) for ex in examples]
    full = [
        greedy_decode_batch(
            tiny_student, [p], tiny_student.cfg.max_seq_len - tiny_student.embed_sequence(p, [])[0].shape[0]
        )[0]
        for p in prompts
    ]
    refs = [out[: 1 + i % 3] for i, out in enumerate(full)]
    examples = [dataclasses.replace(ex, reference_answer=ref) for ex, ref in zip(examples, refs)]
    want = [out == ref for out, ref in zip(full, refs)]
    assert not all(want)
    assert score_model(tiny_student, examples, modality) == sum(want) / len(want)


def test_teacher_cannot_be_scored_on_speech(tiny_teacher, small_dataset):
    examples = small_dataset.split_family("test", "REASONING")[:4]
    with pytest.raises(ModalityError):
        score_model(tiny_teacher, examples, SPEECH)
    assert 0.0 <= score_model(tiny_teacher, examples, TEXT) <= 1.0


def test_evaluate_model_shape(tiny_student, small_dataset):
    report = evaluate_model(tiny_student, small_dataset, "student", n_eval=6)
    assert set(report.scores) == {"REASONING", "INSTRUCTION", "ACOUSTIC"}
    for fam in report.scores:
        assert set(report.scores[fam]) == {SPEECH, TEXT}


def test_evaluate_teacher_skips_speech(tiny_teacher, small_dataset):
    report = evaluate_model(tiny_teacher, small_dataset, "teacher", n_eval=4)
    for fam in report.scores:
        assert TEXT in report.scores[fam]
        assert SPEECH not in report.scores[fam]


def test_avg_drop_arithmetic():
    base = _report("base", {
        "REASONING": {TEXT: 0.8},
        "INSTRUCTION": {TEXT: 0.5},
    })
    model = _report("m", {
        "REASONING": {SPEECH: 0.4, TEXT: 0.8},
        "INSTRUCTION": {SPEECH: 0.5, TEXT: 0.6},
    })
    ds, dt = avg_drop(model, base)
    # Speech: (0.8-0.4)/0.8*100 = 50 and (0.5-0.5)/0.5*100 = 0 -> mean 25.
    assert ds == pytest.approx(25.0)
    # Text: 0 and (0.5-0.6)/0.5*100 = -20 -> mean -10 (improvement).
    assert dt == pytest.approx(-10.0)
    assert model.avg_drop_speech == ds
    assert model.base_model_id == "base"


def test_avg_drop_excludes_zero_base_families():
    base = _report("base", {"REASONING": {TEXT: 0.0}, "INSTRUCTION": {TEXT: 0.5}})
    model = _report("m", {
        "REASONING": {SPEECH: 0.1, TEXT: 0.1},
        "INSTRUCTION": {SPEECH: 0.25, TEXT: 0.5},
    })
    ds, dt = avg_drop(model, base)
    assert model.excluded_families == ["REASONING"]
    assert ds == pytest.approx(50.0)


def test_avg_drop_requires_families():
    base = _report("base", {"REASONING": {TEXT: 0.5}})
    model = _report("m", {"REASONING": {SPEECH: 0.5, TEXT: 0.5}})
    with pytest.raises(DataError):
        avg_drop(model, base)  # INSTRUCTION missing


def test_forgetting_eval():
    before = _report("base", {"ACOUSTIC": {SPEECH: 0.9}})
    after = _report("m", {"ACOUSTIC": {SPEECH: 0.8}})
    rec = forgetting_eval(after, before)
    assert set(rec) == {"model_id", "acoustic_before", "acoustic_after", "drop"}
    assert rec["drop"] == pytest.approx(0.1)
    assert forgetting_eval(before, before)["drop"] == 0.0
    with pytest.raises(DataError):
        forgetting_eval(_report("m", {}), before)


def test_comparison_table_csv_shape():
    base = _report("base", {"REASONING": {TEXT: 0.8}, "INSTRUCTION": {TEXT: 0.5}})
    model = _report("m", {
        "REASONING": {SPEECH: 0.4, TEXT: 0.8},
        "INSTRUCTION": {SPEECH: 0.5, TEXT: 0.6},
    })
    avg_drop(model, base)
    csv = comparison_table_csv([base, model])
    lines = csv.strip().splitlines()
    assert lines[0] == "model,REASONING_S,REASONING_T,INSTRUCTION_S,INSTRUCTION_T,avg_drop_S,avg_drop_T"
    assert len(lines) == 3
    assert lines[2].startswith("m,0.4000,0.8000,0.5000,0.6000,")


def test_write_report_round_trips(tmp_path):
    report = _report("m", {"REASONING": {TEXT: 0.5}})
    path = tmp_path / "report.json"
    write_report(report, path)
    data = json.loads(path.read_text())
    assert data["model_id"] == "m"
    assert data["scores"]["REASONING"][TEXT] == 0.5


def test_curve_outputs():
    svg = curve_svg({"loss": [(1, 0.5), (2, 0.25)]}, title="loss")
    assert svg.startswith("<svg") and "polyline" in svg and "</svg>" in svg
    assert curve_svg({}).startswith("<svg")
