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

The two terms share only parameters, so ``xopd_loss`` backpropagates each
modality's share of the minimized loss, -w_m * L_m, as soon as L_m is
built, before the next modality's student pass is recorded (micro-batch
gradient accumulation, as in GPipe, Huang et al. 2019, arXiv:1811.06965,
over the two modalities). One recorded pass at a time lowers an X-OPD
step's peak memory; the gradients are bit for bit those of one backward
through the blended loss (see ``xopd_loss``). Callers zero the gradients
first.
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
    """Blended objective over (example, trajectory) pairs, with its gradient.

    Each modality's pairs get one batched teacher pass (constants) and one
    batched student pass, which carries the gradient and doubles as the
    student side of the advantage (``report.advantages``). As soon as a
    modality's term L_m is built, the backward of its share of the loss the
    trainer minimizes, ``-w_m * L_m``, runs into the student's ``.grad``,
    before the next modality's passes are recorded, so only one recorded
    student pass is alive at a time. The gradients are bit for bit those of
    one backward through ``-(lam * L_im + (1 - lam) * L_cm)``: that walk
    also runs the in-modal pass's backward whole before the cross-modal
    one's, and each term gets the same seed, ``-w_m``. Gradients accumulate,
    so callers zero them first.

    Returns the report (``loss_total`` is the blended objective, which is
    maximized) and the last share's root, whose backward has run: holding it
    until the next forward keeps the heap warm (``Tensor.backward``).
    """
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
        # ``losses`` keeps each used graph until the function returns: dropping
        # the in-modal one before the cross-modal pass is recorded empties
        # the heap, and that pass faults its pages in again.
        losses[modality] = ad.sum_all(ad.mul(ad.mul(r, Tensor(adv)), Tensor(w)))
        root = ad.neg(ad.scale(losses[modality], weights[modality]))
        root.backward()
        ratios.append(r.data)
        advantages[modality] = adv

    loss_im, loss_cm = (losses[m].data if m in losses else 0.0 for m in (TEXT, SPEECH))
    adv_all = np.concatenate(list(advantages.values()))
    report = XopdLossReport(
        loss_im=float(loss_im),
        loss_cm=float(loss_cm),
        loss_total=float(loss_im * lam + loss_cm * (1.0 - lam)),
        mean_ratio=float(np.mean(np.concatenate(ratios))),
        mean_abs_advantage=float(np.mean(np.abs(adv_all))),
        mean_reverse_kl_estimate=float(np.mean(-adv_all)),
        lam=lam,
        n_text_trajectories=counts[TEXT],
        n_speech_trajectories=counts[SPEECH],
        advantages=advantages,
    )
    return report, root
