"""Comparison methods trained on the same alignment set as the main objective:

* SFT        - cross-entropy on the reference answers, speech-conditioned.
* Offline KD - SFT on answers greedily decoded by the text-only teacher.
* GKD        - full-vocabulary forward KL from the teacher (conditioned on
               text) to the student (conditioned on speech), evaluated on
               student-sampled trajectories.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .corpus import EOS, PairedExample
from .errors import DataError
from .model import (
    SPEECH,
    TEXT,
    Trajectory,
    batched_completion_logps,
    completion_log_probs,
    greedy_decode_batch,
    prompt_for,
)


def sft_batch_loss(model, examples: list[PairedExample]) -> Tensor:
    """Mean over examples of the per-example mean-NLL, in one batched pass.
    A teacher reads the text prompts and a student the speech prompts."""
    modality = TEXT if model.kind == "teacher" else SPEECH
    items = []
    weights = []
    for ex in examples:
        if not ex.reference_answer:
            raise DataError(f"example {ex.example_id} has no reference answer")
        tokens = list(ex.reference_answer) + [EOS]
        items.append((prompt_for(ex, modality), tokens))
        weights.append(np.full(len(tokens), -1.0 / (len(tokens) * len(examples))))
    lp = batched_completion_logps(model, items)
    return ad.sum_all(ad.mul(lp, Tensor(np.concatenate(weights))))


def offline_kd_build(teacher, examples: list[PairedExample], max_new: int) -> list[PairedExample]:
    """Distill: pair each speech prompt with the teacher's greedy text answer."""
    answers = greedy_decode_batch(teacher, [prompt_for(ex, TEXT) for ex in examples], max_new)
    return [dataclasses.replace(ex, reference_answer=ans) for ex, ans in zip(examples, answers)]


def gkd_batch_loss(
    teacher, student, pairs: list[tuple[PairedExample, Trajectory]]
) -> Tensor:
    """Mean over pairs of the per-pair mean forward KL, in batched passes.

    Each pair holds an example and a student-sampled SPEECH trajectory;
    only the student distribution carries gradient.
    """
    if not pairs:
        raise DataError("gkd_batch_loss given no trajectories")
    if any(traj.conditioning_modality != SPEECH for _, traj in pairs):
        raise DataError("GKD expects SPEECH-conditioned trajectories")
    with ad.no_grad():
        t_logp = completion_log_probs(
            teacher, [(prompt_for(ex, TEXT), traj.tokens) for ex, traj in pairs]
        ).data
    s_logp = completion_log_probs(
        student, [(prompt_for(ex, SPEECH), traj.tokens) for ex, traj in pairs]
    )
    # Both passes give one row per completion token, so the rows align.
    w = np.concatenate([np.full(len(t.tokens), 1.0 / (len(t.tokens) * len(pairs))) for _, t in pairs])
    coeff = w[:, None] * np.exp(t_logp)
    neg_entropy = float((coeff * t_logp).sum())
    cross = ad.sum_all(ad.mul(Tensor(coeff), s_logp))
    return ad.sub(Tensor(np.asarray(neg_entropy)), cross)
