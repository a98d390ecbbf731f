"""Unit tests for multi-sample rollout collection."""

import numpy as np
import pytest

from xopd_lab.errors import UsageError
from xopd_lab.rollout import (
    MODALITIES,
    SPEECH,
    TEXT,
    Trajectory,
    collect_rollouts,
)

from oracles import trajectories_of


def _traj_key(t):
    return (t.example_id, t.conditioning_modality, tuple(t.tokens), tuple(t.logp_old))


def _flat(rollouts):
    out = []
    for ex_id, per_mod in rollouts.trajectories.items():
        for modality, trajs in per_mod.items():
            for j, t in enumerate(trajs):
                out.append((ex_id, modality, j, _traj_key(t)))
    return out


def test_trajectory_validates_shape():
    with pytest.raises(UsageError):
        Trajectory("x", TEXT, [], [], True)
    with pytest.raises(UsageError):
        Trajectory("x", TEXT, [1, 2], [0.0], True)


def test_collect_rollouts_shape(tiny_student, small_dataset):
    batch = small_dataset.alignment_set("train")[:3]
    r = collect_rollouts(tiny_student, batch, n=2, seed=0, max_new=5)
    assert set(r.trajectories) == {ex.example_id for ex in batch}
    for per_mod in r.trajectories.values():
        assert set(per_mod) == set(MODALITIES)
        for trajs in per_mod.values():
            assert len(trajs) == 2
    for t in trajectories_of(r, SPEECH):
        assert t.conditioning_modality == SPEECH


def test_rollouts_deterministic_in_seed(tiny_student, small_dataset):
    batch = small_dataset.alignment_set("train")[:3]
    a = collect_rollouts(tiny_student, batch, n=2, seed=7, max_new=5)
    b = collect_rollouts(tiny_student, batch, n=2, seed=7, max_new=5)
    assert _flat(a) == _flat(b)
    c = collect_rollouts(tiny_student, batch, n=2, seed=8, max_new=5)
    assert _flat(a) != _flat(c)


def test_rollouts_invariant_to_batch_order(tiny_student, small_dataset):
    batch = small_dataset.alignment_set("train")[:4]
    fwd = collect_rollouts(tiny_student, batch, n=2, seed=2, max_new=5)
    rev = collect_rollouts(tiny_student, list(reversed(batch)), n=2, seed=2, max_new=5)
    assert sorted(_flat(fwd)) == sorted(_flat(rev))


def test_samples_within_example_differ(tiny_student, small_dataset):
    # With n samples per unit, at least some pairs should differ; a fresh
    # near-uniform student makes identical draws astronomically unlikely.
    batch = small_dataset.alignment_set("train")[:2]
    r = collect_rollouts(tiny_student, batch, n=4, seed=3, max_new=6)
    per_mod = r.trajectories[batch[0].example_id][TEXT]
    assert len({tuple(t.tokens) for t in per_mod}) > 1


def test_collect_rollouts_validates_inputs(tiny_student, small_dataset):
    batch = small_dataset.alignment_set("train")[:1]
    with pytest.raises(UsageError):
        collect_rollouts(tiny_student, [], n=1, seed=0)
    with pytest.raises(UsageError):
        collect_rollouts(tiny_student, batch, n=0, seed=0)


def test_single_modality_collection(tiny_student, small_dataset):
    batch = small_dataset.alignment_set("train")[:2]
    r = collect_rollouts(tiny_student, batch, n=2, seed=0, max_new=5, modalities=(TEXT,))
    assert trajectories_of(r, SPEECH) == []
    assert len(trajectories_of(r, TEXT)) == 4

