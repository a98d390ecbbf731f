"""Which xopd_lab functions the traced run wraps, and the per-layer metrics
derived from the spans and counts they record.

Span names are ``<module>.<function>``. Autodiff ops get one span per
forward call (``autodiff.<op>.fwd``) and one per backward closure
(``autodiff.<op>.bwd``), which is wrapped on the tensor the op returns.
"""

from __future__ import annotations

from collections import defaultdict
from pathlib import Path

from tracing import Tracer, self_times
from xopd_lab import (
    autodiff, baselines, checkpoint, corpus, evaluation, model, objective, optim, rollout,
    trainer,
)

PACKAGE = "xopd_lab"

# Autodiff ops reported by name; every other op is summed into "other".
NAMED_OPS = (
    "matmul", "causal_attention", "softmax", "log_softmax", "layer_norm", "gelu",
    "embedding", "stack_pad", "gather_bld", "add", "mul", "permute", "reshape",
)
_NOT_OPS = {"Tensor", "no_grad", "grad_enabled"}

ADAM = "optim.Adam.step"
SCORE = "evaluation.score_model"
SAMPLE = "model.sample_completions_batch"
XOPD_LOSS = "objective.xopd_loss"


def _after_collect(tr: Tracer, args, rollouts) -> None:
    for per_mod in rollouts.trajectories.values():
        for trajs in per_mod.values():
            for t in trajs:
                tr.counts["rollout.trajectories"] += 1
                tr.counts["rollout.tokens"] += len(t.tokens)
                tr.counts["rollout.finished"] += t.finished


def _shape_groups(prompts) -> int:
    return len({(p.modality, len(p.tokens)) for p in prompts})


def _after_sample(tr: Tracer, args, trajs) -> None:
    tr.counts["model.decode_groups"] += _shape_groups([p for p, _ in args[1]])
    tr.counts["model.decoded"] += len(trajs)
    tr.counts["model.decoded_tokens"] += sum(len(t.tokens) for t in trajs)


def _after_greedy(tr: Tracer, args, outs) -> None:
    tr.counts["model.decode_groups"] += _shape_groups(args[1])
    tr.counts["model.decoded"] += len(outs)
    tr.counts["model.decoded_tokens"] += sum(len(o) for o in outs)


def _after_stack_pad(tr: Tracer, args, out) -> None:
    rows = sum(p.data.shape[0] for p in args[0])
    total = out.data.shape[0] * out.data.shape[1]
    tr.counts["model.padded_rows"] += total - rows
    tr.counts["model.total_rows"] += total


def _after_save(tr: Tracer, args, out) -> None:
    tr.counts["checkpoint.bytes"] += Path(args[0]).stat().st_size


def _op_hook(op: str, extra=None):
    def after(tr: Tracer, args, out) -> None:
        if getattr(out, "_backward", None) is not None:
            tr.counts["autodiff.graph_nodes"] += 1
            out._backward = tr.wrap(out._backward, f"autodiff.{op}.bwd")
        if extra is not None:
            extra(tr, args, out)

    return after


def _backbone_name(tr: Tracer):
    # The teacher-forced pass inside sampling is the recording pass.
    return lambda args: "model.record" if tr.current() == SAMPLE else "model.backbone_logits"


def install(tr: Tracer) -> None:
    """Wrap the public functions of every layer; undo with ``tr.restore()``."""
    fn = tr.patch_function
    fn(corpus.build_dataset, PACKAGE, "corpus.build_dataset")
    fn(corpus.pretraining_batch, PACKAGE, "corpus.pretraining_batch")
    fn(rollout.collect_rollouts, PACKAGE, "rollout.collect_rollouts", _after_collect)
    fn(model.sample_completions_batch, PACKAGE, SAMPLE, _after_sample)
    fn(model.backbone_logits, PACKAGE, _backbone_name(tr))
    fn(model.greedy_decode_batch, PACKAGE, "model.greedy_decode_batch", _after_greedy)
    fn(
        model.batched_completion_logps, PACKAGE,
        lambda args: f"model.logps.{args[0].kind}",
    )
    fn(objective.xopd_loss, PACKAGE, XOPD_LOSS)
    fn(baselines.sft_batch_loss, PACKAGE, "baselines.sft_batch_loss")
    fn(trainer.run_method, PACKAGE, "trainer.run_method")
    fn(trainer.pretrain_teacher, PACKAGE, "trainer.pretrain_teacher")
    fn(evaluation.score_model, PACKAGE, SCORE)
    fn(checkpoint.save_checkpoint, PACKAGE, "checkpoint.save_checkpoint", _after_save)
    for op in autodiff.__all__:
        if op in _NOT_OPS:
            continue
        extra = _after_stack_pad if op == "stack_pad" else None
        fn(getattr(autodiff, op), PACKAGE, f"autodiff.{op}.fwd", _op_hook(op, extra))
    tr.patch(autodiff.Tensor, "backward", tr.wrap(autodiff.Tensor.backward, "autodiff.backward"))
    tr.patch(optim.Adam, "step", tr.wrap(optim.Adam.step, ADAM))


def _aggregate(tr: Tracer):
    busy: dict[str, float] = defaultdict(float)
    own: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    busy_under: dict[tuple[str, str], float] = defaultdict(float)
    for (name, start, end, parent), s in zip(tr.spans, self_times(tr.spans)):
        busy[name] += end - start
        own[name] += s
        calls[name] += 1
        if parent >= 0:
            busy_under[(name, tr.spans[parent][0])] += end - start
    return busy, own, calls, busy_under


def per_layer(tr: Tracer, n: int, build_dataset_s: float) -> dict[str, float]:
    """Layer metrics over ``n`` workload steps (optimizer steps, or scored
    calls), given per step. ``build_dataset_s`` is timed during set-up."""
    busy, own, calls, under = _aggregate(tr)
    c = tr.counts
    trajs = c["rollout.trajectories"]
    m = {
        "corpus.build_dataset_s": build_dataset_s,
        "corpus.pretraining_batch_s": busy["corpus.pretraining_batch"] / n,
        "rollout.collect_s": busy["rollout.collect_rollouts"] / n,
        "rollout.trajectories": trajs / n,
        "rollout.tokens": c["rollout.tokens"] / n,
        "rollout.finished_frac": c["rollout.finished"] / trajs if trajs else 0.0,
        "model.sample_self_s": own[SAMPLE] / n,
        "model.record_s": busy["model.record"] / n,
        "model.record_groups": calls["model.record"] / n,
        "model.greedy_s": busy["model.greedy_decode_batch"] / n,
        "model.decode_groups": c["model.decode_groups"] / n,
        "model.decoded_tokens": c["model.decoded_tokens"] / n,
        "model.mean_len": c["model.decoded_tokens"] / c["model.decoded"] if c["model.decoded"] else 0.0,
        "model.logps_s": (busy["model.logps.teacher"] + busy["model.logps.student"]) / n,
        "model.pad_frac": c["model.padded_rows"] / c["model.total_rows"] if c["model.total_rows"] else 0.0,
        "objective.xopd_loss_s": busy[XOPD_LOSS] / n,
        "objective.teacher_pass_s": under[("model.logps.teacher", XOPD_LOSS)] / n,
        "objective.student_pass_s": under[("model.logps.student", XOPD_LOSS)] / n,
        "objective.self_s": own[XOPD_LOSS] / n,
        "baselines.sft_batch_loss_s": busy["baselines.sft_batch_loss"] / n,
        "autodiff.backward_s": busy["autodiff.backward"] / n,
        "autodiff.backward_self_s": own["autodiff.backward"] / n,
        "autodiff.graph_nodes": c["autodiff.graph_nodes"] / n,
    }
    # Ops time their own work: an op that calls others (causal_attention,
    # sub, mean_all) leaves the inner ops' time under their own names.
    other = {"fwd": 0.0, "bwd": 0.0}
    for name, t in own.items():
        parts = name.split(".")
        if parts[0] == "autodiff" and len(parts) == 3 and parts[1] not in NAMED_OPS:
            other[parts[2]] += t
    for op in NAMED_OPS:
        m[f"autodiff.{op}.fwd_s"] = own[f"autodiff.{op}.fwd"] / n
        m[f"autodiff.{op}.bwd_s"] = own[f"autodiff.{op}.bwd"] / n
    m["autodiff.other.fwd_s"] = other["fwd"] / n
    m["autodiff.other.bwd_s"] = other["bwd"] / n
    m.update({
        "optim.adam_s": busy[ADAM] / n,
        "trainer.self_s": (own["trainer.run_method"] + own["trainer.pretrain_teacher"]) / n,
        "checkpoint.save_s": busy["checkpoint.save_checkpoint"] / n,
        "checkpoint.bytes": c["checkpoint.bytes"] / n,
        "evaluation.score_s": busy[SCORE] / n,
        "trace.self_sum_s": sum(own.values()) / n,
    })
    return m


# Counters that describe the traffic, reported beside the metrics of every run.
TRAFFIC = ("model.mean_len", "rollout.finished_frac", "model.decode_groups", "model.pad_frac")


def unit_of(metric: str) -> str:
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("_frac"):
        return "ratio"
    if metric.endswith(".bytes"):
        return "B"
    return "count"
