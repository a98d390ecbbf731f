"""Scoring, aggregate-drop metrics, forgetting retention, and report emission.

Scoring is greedy decode + exact token match: the synthetic tasks have
unique canonical answers, so no judge model is needed and evaluation is
deterministic; the decode budget comes from the references. Aggregate
drops compare against a named base model's text-modality scores over the
REASONING and INSTRUCTION families; the ACOUSTIC family is reserved for
the forgetting analysis.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, asdict
from pathlib import Path

from .corpus import FAMILIES, Dataset, PairedExample
from .errors import DataError
from .model import SPEECH, TEXT, greedy_decode_batch, prompt_for

DROP_FAMILIES = ("REASONING", "INSTRUCTION")


@dataclass
class EvalReport:
    model_id: str
    base_model_id: str | None
    n_eval: int
    # family -> modality -> accuracy
    scores: dict[str, dict[str, float]] = field(default_factory=dict)
    avg_drop_speech: float | None = None
    avg_drop_text: float | None = None
    excluded_families: list[str] = field(default_factory=list)

    def to_dict(self) -> dict:
        return asdict(self)


def score_model(model, examples: list[PairedExample], modality: str) -> float:
    """Fraction of examples whose greedy decode exactly matches the reference.
    Decoding runs to one token past the longest reference, which shows
    whether a decode ends there; greedy tokens do not depend on the budget,
    so any larger one gives the same score."""
    prompts = [prompt_for(ex, modality) for ex in examples]
    max_new = max(len(ex.reference_answer) for ex in examples) + 1
    outputs = greedy_decode_batch(model, prompts, max_new)
    correct = sum(1 for out, ex in zip(outputs, examples) if out == ex.reference_answer)
    return correct / len(examples)


def evaluate_model(
    model,
    dataset: Dataset,
    model_id: str,
    n_eval: int | None = None,
) -> EvalReport:
    """Per-(family, modality) accuracies on the test split, for each family
    the split holds; a teacher is scored on text only."""
    modalities = (TEXT,) if model.kind == "teacher" else (SPEECH, TEXT)
    scores: dict[str, dict[str, float]] = {}
    n_used = 0
    for fam in FAMILIES:
        examples = dataset.split_family("test", fam)[:n_eval]
        if not examples:
            continue
        n_used = max(n_used, len(examples))
        scores[fam] = {m: score_model(model, examples, m) for m in modalities}
    return EvalReport(model_id=model_id, base_model_id=None, n_eval=n_used, scores=scores)


def avg_drop(model_report: EvalReport, base_report: EvalReport) -> tuple[float, float]:
    """Mean relative drop (%) vs the base model's text scores, per modality.

    Families where the base text score is zero are excluded and recorded on
    the model report; negative values mean improvement over the base.
    """
    drops = {SPEECH: [], TEXT: []}
    excluded = []
    for fam in DROP_FAMILIES:
        if fam not in model_report.scores or fam not in base_report.scores:
            raise DataError(f"family {fam} missing from one of the reports")
        base = base_report.scores[fam].get(TEXT)
        if base is None:
            raise DataError(f"base report has no text score for {fam}")
        if base == 0.0:
            excluded.append(fam)
            continue
        for modality in (SPEECH, TEXT):
            if modality in model_report.scores[fam]:
                drops[modality].append((base - model_report.scores[fam][modality]) / base * 100.0)
    ds = sum(drops[SPEECH]) / len(drops[SPEECH]) if drops[SPEECH] else None
    dt = sum(drops[TEXT]) / len(drops[TEXT]) if drops[TEXT] else None
    model_report.avg_drop_speech = ds
    model_report.avg_drop_text = dt
    model_report.excluded_families = excluded
    model_report.base_model_id = base_report.model_id
    return ds, dt


def forgetting_eval(after_report: EvalReport, before_report: EvalReport) -> dict:
    """ACOUSTIC retention: accuracy drop of the after-checkpoint vs before."""
    try:
        before = before_report.scores["ACOUSTIC"][SPEECH]
        after = after_report.scores["ACOUSTIC"][SPEECH]
    except KeyError as e:
        raise DataError("both reports need a speech-modality ACOUSTIC score") from e
    return {
        "model_id": after_report.model_id,
        "acoustic_before": before,
        "acoustic_after": after,
        "drop": before - after,
    }


# ---------------------------------------------------------------------------
# Tables and curves
# ---------------------------------------------------------------------------

def comparison_table_csv(reports: list[EvalReport]) -> str:
    """Table-shaped CSV, one row per report keyed by its ``model_id``: S/T
    accuracy per family plus aggregate drops. Every table the lab writes
    is one of these."""
    cols = ["model"]
    for fam in DROP_FAMILIES:
        cols += [f"{fam}_S", f"{fam}_T"]
    cols += ["avg_drop_S", "avg_drop_T"]
    lines = [",".join(cols)]
    for r in reports:
        row = [r.model_id]
        for fam in DROP_FAMILIES:
            row.append(csv_cell(r.scores.get(fam, {}).get(SPEECH)))
            row.append(csv_cell(r.scores.get(fam, {}).get(TEXT)))
        row.append(csv_cell(r.avg_drop_speech))
        row.append(csv_cell(r.avg_drop_text))
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"


def csv_cell(x: float | None) -> str:
    """A CSV number to four decimals; a missing value is an empty cell."""
    return "" if x is None else f"{x:.4f}"


def write_report(report: EvalReport, path: str | Path) -> None:
    Path(path).write_text(json.dumps(report.to_dict(), indent=2, sort_keys=True))


def curve_svg(series: dict[str, list[tuple[float, float]]], title: str = "") -> str:
    """Self-contained SVG line plot; one polyline per named series."""
    W, H, PAD = 640, 400, 48
    pts = [p for s in series.values() for p in s]
    if not pts:
        return f'<svg xmlns="http://www.w3.org/2000/svg" width="{W}" height="{H}"/>'
    xs = [p[0] for p in pts]
    ys = [p[1] for p in pts]
    x0, x1 = min(xs), max(xs) or 1.0
    y0, y1 = min(ys), max(ys)
    if x1 == x0:
        x1 = x0 + 1.0
    if y1 == y0:
        y1 = y0 + 1.0
    palette = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b"]

    def sx(x):
        return PAD + (x - x0) / (x1 - x0) * (W - 2 * PAD)

    def sy(y):
        return H - PAD - (y - y0) / (y1 - y0) * (H - 2 * PAD)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{W}" height="{H}" '
        f'font-family="sans-serif" font-size="12">',
        f'<text x="{W / 2}" y="20" text-anchor="middle">{title}</text>',
        f'<line x1="{PAD}" y1="{H - PAD}" x2="{W - PAD}" y2="{H - PAD}" stroke="#333"/>',
        f'<line x1="{PAD}" y1="{PAD}" x2="{PAD}" y2="{H - PAD}" stroke="#333"/>',
        f'<text x="{PAD}" y="{H - PAD + 16}">{x0:.3g}</text>',
        f'<text x="{W - PAD}" y="{H - PAD + 16}" text-anchor="end">{x1:.3g}</text>',
        f'<text x="{PAD - 4}" y="{H - PAD}" text-anchor="end">{y0:.3g}</text>',
        f'<text x="{PAD - 4}" y="{PAD}" text-anchor="end">{y1:.3g}</text>',
    ]
    for i, (name, seq) in enumerate(series.items()):
        color = palette[i % len(palette)]
        path = " ".join(f"{sx(x):.1f},{sy(y):.1f}" for x, y in seq)
        parts.append(f'<polyline fill="none" stroke="{color}" points="{path}"/>')
        parts.append(
            f'<text x="{W - PAD}" y="{PAD + 14 * i}" text-anchor="end" fill="{color}">{name}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts)
