"""Multi-sample on-policy rollout collection over both conditioning modalities.

Each (example, modality, sample-index) unit draws its own rng seeded from
the master seed and the unit key, so rollout content is independent of
batch order; results merge deterministically by key.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field

import numpy as np

from .corpus import PairedExample
from .errors import UsageError
# The shared types live in model; importing them here keeps them importable
# from this module too.
from .model import MODALITIES, SPEECH, TEXT, Prompt, Trajectory, sample_completions_batch


@dataclass
class RolloutBatch:
    # example_id -> modality -> list of n trajectories
    trajectories: dict[str, dict[str, list[Trajectory]]] = field(default_factory=dict)


def _unit_seed(master_seed: int, example_id: str, modality: str, sample_idx: int) -> list[int]:
    key = zlib.crc32(example_id.encode())
    return [master_seed, key, MODALITIES.index(modality), sample_idx]


def collect_rollouts(
    student,
    batch: list[PairedExample],
    n: int,
    seed: int,
    max_new: int,
    modalities: tuple[str, ...] = MODALITIES,
) -> RolloutBatch:
    """Sample n trajectories per (example, modality) from the student snapshot."""
    if not batch:
        raise UsageError("collect_rollouts given an empty batch")
    if n < 1:
        raise UsageError("n must be >= 1")

    keys = [
        (ex, modality, j)
        for ex in batch
        for modality in modalities
        for j in range(n)
    ]
    units = []
    for ex, modality, j in keys:
        tokens = ex.text_prompt if modality == TEXT else ex.speech_prompt
        rng = np.random.default_rng(_unit_seed(seed, ex.example_id, modality, j))
        units.append((Prompt(modality, tokens), rng))
    trajs = sample_completions_batch(student, units, max_new)

    out = RolloutBatch()
    for (ex, modality, j), traj in zip(keys, trajs):
        traj.example_id = ex.example_id
        per_mod = out.trajectories.setdefault(ex.example_id, {})
        per_mod.setdefault(modality, []).append(traj)
    return out

