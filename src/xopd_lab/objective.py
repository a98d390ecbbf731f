"""Dual-advantage policy-gradient objective.

For a trajectory y sampled from the student, the per-token advantage is the
teacher-minus-student log-probability, with the teacher always conditioned
on the text prompt:

* in-modal      A(y_t) = log pi_teacher(y_t | T, y_<t) - log pi_student(y_t | T, y_<t)
* cross-modal   A(y_t) = log pi_teacher(y_t | T, y_<t) - log pi_student(y_t | S, y_<t)

Each trajectory contributes mean_t r_t * A_t, where r_t is the probability
ratio of the current policy to the sampling policy. Rollouts are drawn at
temperature 1, so logp_old is each token's log-prob under the distribution
it was drawn from. Advantages and logp_old are gradient constants; only r
carries gradient. Losses average 1/|y| per trajectory, then 1/n per
example, then over examples; the blended objective
lambda * L_im + (1 - lambda) * L_cm is MAXIMIZED (its negated mean advantage
is an unbiased per-token estimate of reverse KL to the teacher).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .corpus import PairedExample
from .errors import ConfigurationError, DataError, UsageError
from .model import SPEECH, TEXT, Prompt, batched_completion_logps
from .rollout import RolloutBatch


@dataclass
class XopdLossReport:
    loss_im: float
    loss_cm: float
    loss_total: float
    mean_ratio: float
    mean_abs_advantage: float
    mean_reverse_kl_estimate: float
    lam: float
    n_text_trajectories: int
    n_speech_trajectories: int
    # Flat per-token advantages by modality. Not a metric.
    advantages: dict[str, np.ndarray] = field(default_factory=dict, repr=False)

    def to_dict(self) -> dict:
        return {k: v for k, v in self.__dict__.items() if k != "advantages"}


def xopd_loss(
    rollouts: RolloutBatch,
    teacher,
    student,
    lam: float,
    examples: list[PairedExample],
) -> tuple[XopdLossReport, Tensor]:
    """Blended objective over a rollout batch; the returned scalar is maximized.

    One teacher pass per modality gives the advantage against the current
    student, which the report carries as ``report.advantages``.
    """
    if not 0.0 <= lam <= 1.0:
        raise ConfigurationError(f"lambda must be in [0,1], got {lam}")
    by_id = {ex.example_id: ex for ex in examples}

    ratio_vals: list[float] = []
    adv_vals: list[float] = []
    kl_est_vals: list[float] = []
    counts = {TEXT: 0, SPEECH: 0}
    adv_by_modality: dict[str, np.ndarray] = {}

    def modality_loss(modality: str) -> Tensor | None:
        # Flatten all (example, trajectory) pairs for this modality into one
        # batched teacher pass (constants) and one batched student pass
        # (carries the gradient; its values double as the student side of
        # the advantage, which is a gradient constant by construction).
        student_items: list[tuple[Prompt, list[int]]] = []
        teacher_items: list[tuple[Prompt, list[int]]] = []
        weights: list[np.ndarray] = []
        logp_old: list[np.ndarray] = []
        n_examples = 0
        for example_id, per_mod in rollouts.trajectories.items():
            trajs = per_mod.get(modality, [])
            if not trajs:
                continue
            n_examples += 1
            ex = by_id[example_id]
            if modality == TEXT:
                if any(t.conditioning_modality != TEXT for t in trajs):
                    raise UsageError("in-modal loss expects TEXT-conditioned trajectories")
                student_prompt = Prompt(TEXT, ex.text_prompt)
            else:
                if any(t.conditioning_modality != SPEECH for t in trajs):
                    raise UsageError("cross-modal loss expects SPEECH-conditioned trajectories")
                if not ex.text_prompt:
                    raise DataError(f"example {ex.example_id} has no paired text prompt")
                student_prompt = Prompt(SPEECH, ex.speech_prompt)
            for traj in trajs:
                student_items.append((student_prompt, traj.tokens))
                teacher_items.append((Prompt(TEXT, ex.text_prompt), traj.tokens))
                weights.append(np.full(len(traj.tokens), 1.0 / (len(traj.tokens) * len(trajs))))
                logp_old.append(np.asarray(traj.logp_old))
                counts[modality] += 1
        if not student_items:
            return None
        lp_new = batched_completion_logps(student, student_items)
        with ad.no_grad():
            t_lp = batched_completion_logps(teacher, teacher_items)
        adv = t_lp.data - lp_new.data
        adv_by_modality[modality] = adv
        r = ad.exp(ad.sub(lp_new, Tensor(np.concatenate(logp_old))))
        term = ad.mul(r, Tensor(adv))
        w = np.concatenate(weights) / n_examples
        ratio_vals.extend(r.data.tolist())
        adv_vals.extend(np.abs(adv).tolist())
        kl_est_vals.extend((-adv).tolist())
        return ad.sum_all(ad.mul(term, Tensor(w)))

    loss_im = modality_loss(TEXT)
    loss_cm = modality_loss(SPEECH)
    if loss_im is None and lam > 0.0:
        raise UsageError("lambda > 0 but no TEXT-conditioned trajectories")
    if loss_cm is None and lam < 1.0:
        raise UsageError("lambda < 1 but no SPEECH-conditioned trajectories")

    zero = Tensor(np.asarray(0.0))
    total = ad.add(
        ad.scale(loss_im if loss_im is not None else zero, lam),
        ad.scale(loss_cm if loss_cm is not None else zero, 1.0 - lam),
    )
    report = XopdLossReport(
        loss_im=float(loss_im.data) if loss_im is not None else 0.0,
        loss_cm=float(loss_cm.data) if loss_cm is not None else 0.0,
        loss_total=float(total.data),
        mean_ratio=float(np.mean(ratio_vals)),
        mean_abs_advantage=float(np.mean(adv_vals)),
        mean_reverse_kl_estimate=float(np.mean(kl_est_vals)),
        lam=lam,
        n_text_trajectories=counts[TEXT],
        n_speech_trajectories=counts[SPEECH],
        advantages=adv_by_modality,
    )
    return report, total
