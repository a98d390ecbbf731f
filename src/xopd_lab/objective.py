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

from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .corpus import PairedExample
from .errors import ConfigurationError, DataError, UsageError
from .model import MODALITIES, SPEECH, TEXT, Trajectory, batched_completion_logps, prompt_for


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
    pairs: list[tuple[PairedExample, Trajectory]], teacher, student, lam: float
) -> tuple[XopdLossReport, Tensor]:
    """Blended objective over (example, trajectory) pairs; the returned
    scalar is maximized. Each modality's pairs get one batched teacher pass
    (constants) and one batched student pass, which carries the gradient and
    doubles as the student side of the advantage (``report.advantages``)."""
    if not 0.0 <= lam <= 1.0:
        raise ConfigurationError(f"lambda must be in [0,1], got {lam}")
    weights = {TEXT: lam, SPEECH: 1.0 - lam}
    counts = Counter(t.conditioning_modality for _, t in pairs)
    losses: dict[str, Tensor] = {}
    ratios: list[np.ndarray] = []
    advantages: dict[str, np.ndarray] = {}
    for modality in MODALITIES:
        mod_pairs = [(ex, t) for ex, t in pairs if t.conditioning_modality == modality]
        if not mod_pairs and weights[modality] > 0.0:
            raise UsageError(f"{modality} has weight {weights[modality]} but no trajectories")
        if not mod_pairs:
            continue
        for ex, _ in mod_pairs:
            if modality == SPEECH and not ex.text_prompt:
                raise DataError(f"example {ex.example_id} has no paired text prompt")
        n = Counter(ex.example_id for ex, _ in mod_pairs)
        lp_new = batched_completion_logps(
            student, [(prompt_for(ex, modality), t.tokens) for ex, t in mod_pairs]
        )
        with ad.no_grad():
            t_lp = batched_completion_logps(
                teacher, [(prompt_for(ex, TEXT), t.tokens) for ex, t in mod_pairs]
            )
        adv = t_lp.data - lp_new.data
        r = ad.exp(ad.sub(lp_new, Tensor(np.concatenate([t.logp_old for _, t in mod_pairs]))))
        w = np.concatenate([
            np.full(len(t.tokens), 1.0 / (len(t.tokens) * n[ex.example_id])) for ex, t in mod_pairs
        ]) / len(n)
        losses[modality] = ad.sum_all(ad.mul(ad.mul(r, Tensor(adv)), Tensor(w)))
        ratios.append(r.data)
        advantages[modality] = adv

    zero = Tensor(np.asarray(0.0))
    loss_im, loss_cm = losses.get(TEXT, zero), losses.get(SPEECH, zero)
    total = ad.add(ad.scale(loss_im, lam), ad.scale(loss_cm, 1.0 - lam))
    adv_all = np.concatenate(list(advantages.values()))
    report = XopdLossReport(
        loss_im=float(loss_im.data),
        loss_cm=float(loss_cm.data),
        loss_total=float(total.data),
        mean_ratio=float(np.mean(np.concatenate(ratios))),
        mean_abs_advantage=float(np.mean(np.abs(adv_all))),
        mean_reverse_kl_estimate=float(np.mean(-adv_all)),
        lam=lam,
        n_text_trajectories=counts[TEXT],
        n_speech_trajectories=counts[SPEECH],
        advantages=advantages,
    )
    return report, total
