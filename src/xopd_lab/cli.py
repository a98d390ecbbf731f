"""Command-line entry point.

Subcommands: gen-data, train, eval, ablation, reproduce-paper-trends.
Exit codes: 0 success, 1 runtime/training failure, 2 usage/config error.
All randomness flows from --seed through derived per-component seeds, and
the resolved configuration is serialized into the output directory before
any work starts.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import asdict, fields
from pathlib import Path

from .corpus import load_dataset, save_dataset
from .errors import (
    ConfigurationError,
    TrainingFailure,
    UsageError,
    XopdError,
)
from .evaluation import avg_drop, comparison_table_csv, evaluate_model, write_report
from .model import TEXT, ModelConfig, StudentModel, load_model, save_model
from .pipeline import (
    PipelineConfig,
    reproduce_paper_trends,
    run_ablation,
)
from .trainer import (
    GapConfig,
    PretrainConfig,
    TrainConfig,
    build_gapped_student,
    pretrain_teacher,
    run_method,
)

USAGE_EXIT = 2
FAILURE_EXIT = 1


def _default_out() -> str:
    return os.environ.get("XOPD_LAB_OUT", "xopd-out")


def _load_config(path: str | None, overrides: list[str]) -> dict:
    cfg: dict = {}
    if path:
        p = Path(path)
        if not p.exists():
            raise UsageError(f"config file not found: {p}")
        cfg = json.loads(p.read_text())
    for kv in overrides:
        if "=" not in kv:
            raise UsageError(f"override must be key=value, got {kv!r}")
        key, raw = kv.split("=", 1)
        try:
            val = json.loads(raw)
        except json.JSONDecodeError:
            val = raw
        node = cfg
        *parents, leaf = key.split(".")
        for part in parents:
            node = node.setdefault(part, {})
        node[leaf] = val
    return cfg


def _write_resolved(out_dir: Path, resolved: dict) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "resolved_config.json").write_text(
        json.dumps(resolved, indent=2, sort_keys=True, default=str)
    )


def _require(path: str | Path, what: str) -> Path:
    p = Path(path)
    if not p.exists():
        raise UsageError(f"missing {what}: {p}")
    return p


def _build(cls, values, section: str):
    """``cls(**values)``, with unknown keys and bad values as config errors."""
    if not isinstance(values, dict):
        raise ConfigurationError(f"config section {section!r} must be an object, got {values!r}")
    unknown = sorted(set(values) - {f.name for f in fields(cls)})
    if unknown:
        raise ConfigurationError(f"unknown {section} config key(s): {', '.join(unknown)}")
    try:
        return cls(**values)
    except TypeError as e:
        raise ConfigurationError(f"bad {section} config value: {e}") from None


def _flag_list(text: str, convert, flag: str) -> list:
    """A comma-separated flag value as a list, or a usage error naming the flag."""
    try:
        return [convert(v) for v in text.split(",")]
    except ValueError:
        raise UsageError(f"{flag} expects comma-separated {convert.__name__} values, got {text!r}") from None


def _pipeline_config(cfg: dict, own: tuple[str, ...] = ()) -> PipelineConfig:
    """The pipeline config from a loaded config; ``own`` names the top-level
    sections the command reads itself."""
    values = {k: v for k, v in cfg.items() if k not in own}
    for key, cls in (("model", ModelConfig), ("pretrain", PretrainConfig), ("gap", GapConfig)):
        if key in values:
            values[key] = _build(cls, values[key], key)
    for key in ("seeds", "lambda_grid"):
        if key in values:
            if not isinstance(values[key], list):
                raise ConfigurationError(f"{key} must be a list, got {values[key]!r}")
            values[key] = tuple(values[key])
    return _build(PipelineConfig, values, "pipeline")


def cmd_gen_data(args) -> int:
    pc = _pipeline_config(_load_config(args.config, args.set or []))
    out = Path(args.out)
    _write_resolved(out, {"seed": args.seed, "noise_rate": pc.noise_rate, "sizes": pc.sizes})
    manifest = save_dataset(pc.dataset(args.seed), out)
    print(json.dumps({k: manifest[k] for k in ("counts", "rejection_rate", "seed")}, indent=2))
    return 0


def cmd_train(args) -> int:
    cfg = _load_config(args.config, args.set or [])
    pc = _pipeline_config(cfg, own=("train",))
    # Validate the run's config before any work, so a bad value writes nothing.
    tc_kwargs = dict(cfg.get("train", {}), method=args.method, seed=args.seed)
    for key, flag in (("lam", args.lam), ("n_rollouts", args.rollouts), ("steps", args.steps)):
        if flag is not None:
            tc_kwargs[key] = flag
    tc = _build(TrainConfig, tc_kwargs, "train")
    out = Path(args.out)
    data_dir = Path(args.data)
    if not data_dir.exists():
        if not args.auto:
            raise UsageError(f"missing dataset directory: {data_dir} (pass --auto to build)")
        save_dataset(pc.dataset(args.seed), data_dir)
    dataset = load_dataset(data_dir)

    if args.teacher and Path(args.teacher).exists():
        teacher = load_model(args.teacher)
    elif args.auto:
        teacher, _ = pretrain_teacher(dataset, pc.model, pc.pretrain, args.seed)
        save_model(teacher, out / "teacher.ckpt")
    else:
        raise UsageError(f"missing teacher checkpoint: {args.teacher} (pass --auto to build)")

    if args.student and Path(args.student).exists():
        student = load_model(args.student)
        if not isinstance(student, StudentModel):
            raise ConfigurationError(f"{args.student} is not a student checkpoint")
    elif args.auto:
        student, _ = build_gapped_student(teacher, dataset, pc.model, pc.gap, args.seed)
        save_model(student, out / "student_base.ckpt")
    else:
        raise UsageError(f"missing student checkpoint: {args.student} (pass --auto to build)")

    _write_resolved(out, {"train": asdict(tc), "data": str(data_dir)})
    run_method(tc, student, teacher, dataset, out_dir=out)
    print(f"run complete: {out / 'metrics.jsonl'}")
    return 0


def cmd_eval(args) -> int:
    lambdas = None
    if args.ablation:
        key, _, vals = args.ablation.partition("=")
        if key != "lambda":
            raise UsageError(f"--ablation expects lambda=v1,v2,..., got {args.ablation!r}")
        lambdas = _flag_list(vals, float, "--ablation")
        if len(lambdas) != len(args.checkpoints):
            raise UsageError("--ablation needs one lambda per checkpoint")
    data_dir = _require(args.data, "dataset directory")
    dataset = load_dataset(data_dir)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    base_report = None
    if args.base:
        base = load_model(_require(args.base, "base checkpoint"))
        modalities = (TEXT,) if base.kind == "teacher" else None
        kwargs = {"modalities": modalities} if modalities else {}
        base_report = evaluate_model(base, dataset, "base", args.seed, n_eval=args.n_eval, **kwargs)
        write_report(base_report, out / "report_base.json")
    reports = []
    for i, ckpt in enumerate(args.checkpoints):
        model = load_model(_require(ckpt, "checkpoint"))
        model_id = Path(ckpt).stem if lambdas is None else f"lambda={lambdas[i]:g}"
        kwargs = {"modalities": (TEXT,)} if model.kind == "teacher" else {}
        rep = evaluate_model(model, dataset, model_id, args.seed, n_eval=args.n_eval, **kwargs)
        if base_report is not None:
            avg_drop(rep, base_report)
        reports.append(rep)
        write_report(rep, out / f"report_{i}_{Path(ckpt).stem}.json")
    csv = comparison_table_csv(reports)
    (out / ("ablation.csv" if lambdas else "comparison.csv")).write_text(csv)
    print(csv, end="")
    return 0


def cmd_ablation(args) -> int:
    cfg = _load_config(args.config, args.set or [])
    cfg["lambda_grid"] = _flag_list(args.lambdas, float, "--lambdas")
    pc = _pipeline_config(cfg)
    dataset = load_dataset(_require(args.data, "dataset directory"))
    teacher = load_model(_require(args.teacher, "teacher checkpoint"))
    student = load_model(_require(args.student, "student checkpoint"))
    teachers = {"teacher": teacher}
    if args.teacher2:
        teachers["teacher_large"] = load_model(_require(args.teacher2, "second teacher checkpoint"))
    out = Path(args.out)
    _write_resolved(out, {"lambdas": list(pc.lambda_grid), "teachers": list(teachers)})
    run_ablation(teachers, pc.lambda_grid, pc, dataset, student, "teacher", args.seed, out)
    print(f"ablation grid written to {out / 'ablation_grid.json'}")
    return 0


def cmd_reproduce(args) -> int:
    cfg = _load_config(args.config, args.set or [])
    if args.seeds:
        cfg["seeds"] = _flag_list(args.seeds, int, "--seeds")
    pc = _pipeline_config(cfg)
    out = Path(args.out)
    _write_resolved(out, asdict(pc))
    report = reproduce_paper_trends(pc, out)
    print(json.dumps(report["criteria"], indent=2, sort_keys=True))
    ok = all(c["ok"] for c in report["criteria"].values())
    return 0 if ok else FAILURE_EXIT


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="xopd-lab", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="JSON config file")
        p.add_argument("--set", action="append", metavar="KEY=VALUE", help="config override")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--out", default=_default_out())

    p = sub.add_parser("gen-data", help="generate the paired dataset")
    common(p)
    p.set_defaults(func=cmd_gen_data)

    p = sub.add_parser("train", help="train one method run")
    common(p)
    p.add_argument("--method", required=True, choices=["xopd", "sft", "offline_kd", "gkd"])
    p.add_argument("--lambda", dest="lam", type=float, default=None)
    p.add_argument("--rollouts", type=int, default=None)
    p.add_argument("--steps", type=int, default=None)
    p.add_argument("--data", required=True)
    p.add_argument("--teacher", default=None)
    p.add_argument("--student", default=None)
    p.add_argument("--auto", action="store_true", help="build missing inputs")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="score checkpoints and emit comparison tables")
    common(p)
    p.add_argument("checkpoints", nargs="+")
    p.add_argument("--data", required=True)
    p.add_argument("--base", default=None, help="base model for drop computation")
    p.add_argument("--n-eval", type=int, default=500)
    p.add_argument("--ablation", default=None, metavar="lambda=V1,V2,...")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("ablation", help="run the (teacher x lambda) grid")
    common(p)
    p.add_argument("--data", required=True)
    p.add_argument("--teacher", required=True)
    p.add_argument("--teacher2", default=None)
    p.add_argument("--student", required=True)
    p.add_argument("--lambdas", default="0,0.5,1")
    p.set_defaults(func=cmd_ablation)

    p = sub.add_parser("reproduce-paper-trends", help="full multi-seed trend pipeline")
    common(p)
    p.add_argument("--seeds", default=None, help="comma-separated seed list")
    p.set_defaults(func=cmd_reproduce)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (UsageError, ConfigurationError) as e:
        print(f"error: {e}", file=sys.stderr)
        return USAGE_EXIT
    except TrainingFailure as e:
        print(f"training failure: {e}", file=sys.stderr)
        if e.last_good_checkpoint:
            print(f"last good checkpoint: {e.last_good_checkpoint}", file=sys.stderr)
        return FAILURE_EXIT
    except XopdError as e:
        print(f"error: {e}", file=sys.stderr)
        return FAILURE_EXIT


if __name__ == "__main__":
    sys.exit(main())
