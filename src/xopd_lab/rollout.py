"""Multi-sample on-policy rollout collection over both conditioning modalities.

Each (example, modality, sample-index) unit draws its own rng seeded from
the master seed and the unit key, so rollout content is independent of
batch order; results merge deterministically by key.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass

import numpy as np

from .corpus import PairedExample
from .errors import UsageError
# The shared types live in model; importing them here keeps them importable
# from this module too.
from .model import MODALITIES, SPEECH, TEXT, Trajectory, prompt_for, sample_completions_batch


@dataclass
class RolloutBatch:
    # example_id -> modality -> list of n trajectories
    trajectories: dict[str, dict[str, list[Trajectory]]]


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
        rng = np.random.default_rng(_unit_seed(seed, ex.example_id, modality, j))
        units.append((prompt_for(ex, modality), rng))
    trajs = sample_completions_batch(student, units, max_new)

    nested: dict[str, dict[str, list[Trajectory]]] = {}
    for (ex, modality, _), traj in zip(keys, trajs):
        nested.setdefault(ex.example_id, {}).setdefault(modality, []).append(traj)
    return RolloutBatch(nested)


def rollout_pairs(
    rollouts: RolloutBatch, batch: list[PairedExample]
) -> list[tuple[PairedExample, Trajectory]]:
    """The losses' input: (example, trajectory) pairs in unit order (``batch``
    order, then modality, then sample). The package's only reader of the
    nested record; it goes, with ``RolloutBatch``, once ``collect_rollouts``
    returns these pairs itself."""
    return [
        (ex, t) for ex in batch for m in MODALITIES for t in rollouts.trajectories[ex.example_id].get(m, [])
    ]
