"""Tests of the benchmark's tracer: self time, layer wrapping and restoring.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import layers  # noqa: E402
from run import tail  # noqa: E402
from tracing import Tracer, self_times  # noqa: E402


def test_self_time_on_nested_tree():
    spans = [
        ["root", 0.0, 10.0, -1],
        ["a", 1.0, 4.0, 0],
        ["a.leaf", 2.0, 3.0, 1],
        ["b", 5.0, 9.0, 0],
    ]
    assert self_times(spans) == [3.0, 2.0, 1.0, 4.0]


def test_self_time_counts_overlapping_children_once():
    spans = [
        ["root", 0.0, 10.0, -1],
        ["c1", 1.0, 4.0, 0],
        ["c2", 3.0, 6.0, 0],  # overlaps c1 by 1
        ["c3", 8.0, 12.0, 0],  # runs past the parent's end
    ]
    assert self_times(spans)[0] == pytest.approx(10.0 - 5.0 - 2.0)


def test_wrap_records_parents_and_counts():
    tr = Tracer()

    def inner(x):
        return x + 1

    inner_t = tr.wrap(inner, "inner", lambda t, args, out: t.counts.__setitem__("out", out))
    outer_t = tr.wrap(lambda x: inner_t(x) * 2, lambda args: f"outer{args[0]}")
    assert outer_t(3) == 8
    assert [s[0] for s in tr.spans] == ["outer3", "inner"]
    assert [s[3] for s in tr.spans] == [-1, 0]
    assert tr.counts["out"] == 4
    assert all(end >= start for _, start, end, _ in tr.spans)


def test_tail_never_below_the_median():
    xs = [float(i) for i in range(1, 41)]  # 40 samples
    assert tail(xs) == (30.0, 75.0)  # ten samples beyond p75
    few = [3.0, 1.0, 2.0]
    assert tail(few)[0] == 2.0


def _snapshot():
    from xopd_lab import autodiff, optim

    state = {
        (name, attr): value
        for name, mod in sys.modules.items()
        if name.startswith("xopd_lab")
        for attr, value in vars(mod).items()
        if callable(value)
    }
    state[("Tensor", "backward")] = autodiff.Tensor.__dict__["backward"]
    state[("Adam", "step")] = optim.Adam.__dict__["step"]
    return state


def _tiny_run(tmp_path):
    from xopd_lab import corpus, model, trainer

    cfg = model.ModelConfig(embed_dim=16, n_layers=1, n_heads=2, speech_embed_dim=8)
    dataset = corpus.build_dataset({f: (30, 5, 5) for f in corpus.FAMILIES}, corpus.SpeechCodec(), seed=0)
    teacher = model.TeacherModel.init(cfg, 0)
    student = model.init_student_from_teacher(teacher, cfg, 0)
    tc = trainer.TrainConfig(method="xopd", steps=1, batch_size=4, n_rollouts=2, max_new=4)
    trainer.run_method(tc, student, teacher, dataset, out_dir=tmp_path)


def test_install_traces_every_layer_and_restore_undoes_it(tmp_path):
    before = _snapshot()
    tr = Tracer()
    layers.install(tr)
    try:
        assert _snapshot() != before
        _tiny_run(tmp_path / "traced")
    finally:
        tr.restore()
    names = {s[0] for s in tr.spans}
    for expected in (
        "corpus.build_dataset", "trainer.run_method", "rollout.collect_rollouts",
        "model.sample_completions_batch", "model.record", "objective.xopd_loss",
        "model.logps.teacher", "model.logps.student", "autodiff.matmul.fwd",
        "autodiff.matmul.bwd", "autodiff.backward", "optim.Adam.step",
        "checkpoint.save_checkpoint",
    ):
        assert expected in names
    assert tr.counts["rollout.trajectories"] == 4 * 2 * 2
    assert tr.counts["checkpoint.bytes"] > 0

    # Restored: every attribute is the original object, and a run in the
    # same process records nothing.
    assert _snapshot() == before
    n = len(tr.spans)
    _tiny_run(tmp_path / "untraced")
    assert len(tr.spans) == n


def test_per_layer_metrics_match_the_benchmark_file(tmp_path):
    tr = Tracer()
    layers.install(tr)
    try:
        _tiny_run(tmp_path)
    finally:
        tr.restore()
    m = layers.per_layer(tr, 1, 0.0)
    m.update({"trace.step_s": 0.0, "trace.untraced_step_s": 0.0, "trace.overhead_s": 0.0})
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    assert [d["name"] for d in declared] == list(m)
    assert all(d["unit"] == layers.unit_of(d["name"]) for d in declared)
    # Self times of all spans add up to the wall time of the top-level spans.
    top = sum(end - start for _, start, end, parent in tr.spans if parent < 0)
    assert m["trace.self_sum_s"] == pytest.approx(top, rel=1e-9)
