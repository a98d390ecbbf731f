"""Command-line entry point.

Subcommands: gen-data, train, eval, ablation, reproduce-paper-trends.
Exit codes: 0 success, 1 runtime/training failure, 2 usage/config error.
All randomness flows from --seed through derived per-component seeds.

Every command but eval builds its pipeline config from --config and --set
alone, and writes it whole to --out as resolved_config.json after its input
checks and before any work; passed back as --config with the same other
options, that record reruns the command bit for bit.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import fields
from pathlib import Path

from .corpus import VOCAB, Dataset, load_dataset, save_dataset
from .errors import (
    ConfigurationError,
    TrainingFailure,
    UsageError,
    XopdError,
)
from .evaluation import avg_drop, comparison_table_csv, evaluate_model, write_report
from .model import ModelConfig, StudentModel, check_backbone, load_model, save_model
from .pipeline import (
    PipelineConfig,
    method_config,
    reproduce_paper_trends,
    run_ablation,
    write_config,
)
from .trainer import (
    METHODS,
    GapConfig,
    PretrainConfig,
    TrainConfig,
    build_gapped_student,
    check_build_data,
    check_text_vocab,
    pretrain_teacher,
    run_method,
)

USAGE_EXIT = 2
FAILURE_EXIT = 1


def _load_config(path: str | None, overrides: list[str]) -> dict:
    cfg: dict = {}
    if path:
        p = Path(path)
        if not p.exists():
            raise UsageError(f"config file not found: {p}")
        try:
            cfg = json.loads(p.read_text())
        except OSError as e:
            raise UsageError(f"cannot read config file {p}: {e.strerror}") from None
        except ValueError as e:  # not UTF-8, or not JSON
            raise ConfigurationError(f"config file {p} is not JSON: {e}") from None
        except RecursionError:
            raise ConfigurationError(f"config file {p} nests too deeply to parse") from None
        if not isinstance(cfg, dict):
            raise ConfigurationError(f"config file {p} must hold a JSON object, got {cfg!r}")
    for kv in overrides:
        if "=" not in kv:
            raise UsageError(f"override must be key=value, got {kv!r}")
        key, raw = kv.split("=", 1)
        try:
            val = json.loads(raw)
        except json.JSONDecodeError:
            val = raw
        except RecursionError:
            raise ConfigurationError(f"--set {key}: value nests too deeply to parse") from None
        node = cfg
        *parents, leaf = key.split(".")
        for part in parents:
            node = node.setdefault(part, {})
            if not isinstance(node, dict):
                raise ConfigurationError(f"--set {key}: {part!r} is not a config section")
        node[leaf] = val
    return cfg


def _require(path: str | Path, what: str) -> Path:
    p = Path(path)
    if not p.exists():
        raise UsageError(f"missing {what}: {p}")
    return p


def _load_model_for(path: str | Path, dataset: Dataset, student: bool = False):
    """The model checkpointed at ``path``, refused with a config error unless
    it is a student where ``student`` asks for one, and it can read
    ``dataset``: its text vocabulary covers the corpus's and, for a student,
    its speech vocabulary covers the codec's and its frames per token match."""
    model = load_model(path)
    if student and not isinstance(model, StudentModel):
        raise ConfigurationError(f"{path} is not a student checkpoint")
    codec, cfg = dataset.manifest["codec"], model.cfg
    if cfg.text_vocab_size < len(VOCAB):
        raise ConfigurationError(
            f"{path}: text_vocab_size {cfg.text_vocab_size} is below the corpus vocabulary's "
            f"{len(VOCAB)}"
        )
    if isinstance(model, StudentModel):
        if cfg.speech_vocab_size < codec["speech_vocab_size"]:
            raise ConfigurationError(
                f"{path}: speech_vocab_size {cfg.speech_vocab_size} is below the dataset "
                f"codec's {codec['speech_vocab_size']}"
            )
        if cfg.frames_per_token != codec.get("frames_per_token"):
            raise ConfigurationError(
                f"{path}: frames_per_token {cfg.frames_per_token} differs from the dataset "
                f"codec's {codec.get('frames_per_token')}"
            )
    return model


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


def _pipeline_config(cfg: dict) -> PipelineConfig:
    """The pipeline config from a loaded config."""
    values = dict(cfg)
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
    write_config(pc, out)
    manifest = save_dataset(pc.dataset(args.seed), out)
    print(json.dumps({k: manifest[k] for k in ("counts", "rejection_rate", "seed")}, indent=2))
    return 0


def cmd_train(args) -> int:
    pc = _pipeline_config(_load_config(args.config, args.set or []))
    # Validate the run's config before any work, so a bad value writes nothing.
    tc = method_config(pc, args.method, args.seed, TrainConfig.lam if args.lam is None else args.lam)
    if args.lam is not None and "lam" not in tc.read_fields():
        raise UsageError(f"--method {args.method} does not read lam")
    out = Path(args.out)
    data_dir = Path(args.data)
    if not data_dir.exists():
        if not args.auto:
            raise UsageError(f"missing dataset directory: {data_dir} (pass --auto to build)")
        save_dataset(pc.dataset(args.seed), data_dir)
    dataset = load_dataset(data_dir)

    # Check the given checkpoints against the data before building any.
    teacher, student = (
        _load_model_for(p, dataset, student=is_student) if p and Path(p).exists() else None
        for p, is_student in ((args.teacher, False), (args.student, True))
    )
    for model, role, path in ((teacher, "teacher", args.teacher), (student, "student", args.student)):
        if model is None and not args.auto:
            missing = f"missing {role} checkpoint: {path}" if path else f"no --{role} given"
            raise UsageError(f"{missing} (pass --auto to build)")
    if teacher is not None and student is None:
        check_backbone(teacher, pc.model)
    check_build_data(dataset, teacher=teacher is None, student=student is None)
    # A model --auto builds has config pc.model.
    check_text_vocab(tc, *(pc.model if m is None else m.cfg for m in (teacher, student)))

    write_config(pc, out)
    if teacher is None:
        teacher, _ = pretrain_teacher(dataset, pc.model, pc.pretrain, args.seed)
        save_model(teacher, out / "teacher.ckpt")
    if student is None:
        student, _ = build_gapped_student(teacher, dataset, pc.model, pc.gap, args.seed)
        save_model(student, out / "student_base.ckpt")
    run_method(tc, student, teacher, dataset, out_dir=out)
    print(f"run complete: {out / 'metrics.jsonl'}")
    return 0


def cmd_eval(args) -> int:
    if args.n_eval < 1:
        raise UsageError(f"--n-eval must be >= 1, got {args.n_eval}")
    dataset = load_dataset(_require(args.data, "dataset directory"))
    base = _load_model_for(_require(args.base, "base checkpoint"), dataset) if args.base else None
    models = [_load_model_for(_require(ckpt, "checkpoint"), dataset) for ckpt in args.checkpoints]
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    base_report = None
    if base is not None:
        base_report = evaluate_model(base, dataset, "base", n_eval=args.n_eval)
        write_report(base_report, out / "report_base.json")
    reports = []
    for i, (ckpt, model) in enumerate(zip(args.checkpoints, models)):
        # Train runs all end in final.ckpt: the index keeps the row ids apart.
        model_id = f"{i}_{Path(ckpt).stem}"
        rep = evaluate_model(model, dataset, model_id, n_eval=args.n_eval)
        if base_report is not None:
            avg_drop(rep, base_report)
        reports.append(rep)
        write_report(rep, out / f"report_{model_id}.json")
    csv = comparison_table_csv(reports)
    (out / "comparison.csv").write_text(csv)
    print(csv, end="")
    return 0


def cmd_ablation(args) -> int:
    pc = _pipeline_config(_load_config(args.config, args.set or []))
    dataset = load_dataset(_require(args.data, "dataset directory"))
    teacher = _load_model_for(_require(args.teacher, "teacher checkpoint"), dataset)
    student = _load_model_for(_require(args.student, "student checkpoint"), dataset, student=True)
    teachers = {"teacher": teacher}
    if args.teacher2:
        teacher2 = _require(args.teacher2, "second teacher checkpoint")
        teachers["teacher_large"] = _load_model_for(teacher2, dataset)
    # Every cell is an X-OPD run, so every teacher must score the student's vocabulary.
    tc = method_config(pc, "xopd", args.seed)
    for teacher in teachers.values():
        check_text_vocab(tc, teacher.cfg, student.cfg)
    out = Path(args.out)
    write_config(pc, out)
    grid = run_ablation(teachers, pc, dataset, student, args.seed, out)
    cells = [cell for row in grid["cells"].values() for cell in row.values()]
    if all("error" in cell for cell in cells):
        raise XopdError(f"no cell of the ablation grid ran; the first failed with: {cells[0]['error']}")
    print(f"ablation grid written to {out / 'ablation_grid.json'}")
    return 0


def cmd_reproduce(args) -> int:
    pc = _pipeline_config(_load_config(args.config, args.set or []))
    report = reproduce_paper_trends(pc, Path(args.out))
    print(json.dumps(report["criteria"], indent=2, sort_keys=True))
    ok = all(c["ok"] for c in report["criteria"].values())
    return 0 if ok else FAILURE_EXIT


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="xopd-lab", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, summary, func, *, config, seed):
        """A subcommand taking ``--out``, plus ``--config``/``--set`` and
        ``--seed`` where it reads them; options must be spelled in full."""
        p = sub.add_parser(name, help=summary, allow_abbrev=False)
        if config:
            p.add_argument("--config", help="JSON config file")
            p.add_argument("--set", action="append", metavar="KEY=VALUE", help="config override")
        if seed:
            p.add_argument("--seed", type=int, default=0)
        p.add_argument("--out", default="xopd-out")
        p.set_defaults(func=func)
        return p

    command("gen-data", "generate the paired dataset", cmd_gen_data, config=True, seed=True)

    p = command("train", "train one method run", cmd_train, config=True, seed=True)
    p.add_argument("--method", required=True, choices=METHODS)
    p.add_argument("--lambda", dest="lam", type=float, default=None)
    p.add_argument("--data", required=True)
    p.add_argument("--teacher", default=None)
    p.add_argument("--student", default=None)
    p.add_argument("--auto", action="store_true", help="build missing inputs")

    p = command("eval", "score checkpoints into a comparison table", cmd_eval, config=False, seed=False)
    p.add_argument("checkpoints", nargs="+")
    p.add_argument("--data", required=True)
    p.add_argument("--base", default=None, help="base model for drop computation")
    p.add_argument("--n-eval", type=int, default=500)

    p = command("ablation", "run the (teacher x lambda) grid", cmd_ablation, config=True, seed=True)
    p.add_argument("--data", required=True)
    p.add_argument("--teacher", required=True)
    p.add_argument("--teacher2", default=None)
    p.add_argument("--student", required=True)

    command(
        "reproduce-paper-trends", "full multi-seed trend pipeline", cmd_reproduce, config=True, seed=False
    )
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
