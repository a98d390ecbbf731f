"""CLI tests: subcommand wiring and exit codes (0 success, 1 failure, 2 usage)."""

import json
import re
import shlex
from pathlib import Path

import pytest

from xopd_lab.cli import _pipeline_config, build_parser, main
from xopd_lab.corpus import save_dataset
from xopd_lab.model import save_model


@pytest.fixture(scope="module")
def data_dir(tmp_path_factory):
    from xopd_lab.corpus import SpeechCodec, build_dataset

    d = tmp_path_factory.mktemp("data")
    ds = build_dataset({f: (24, 8, 8) for f in ("REASONING", "INSTRUCTION", "ACOUSTIC")},
                       SpeechCodec(), seed=0)
    save_dataset(ds, d)
    return d


@pytest.fixture(scope="module")
def ckpts(tmp_path_factory, tiny_teacher, tiny_student):
    d = tmp_path_factory.mktemp("ckpts")
    save_model(tiny_teacher, d / "teacher.ckpt")
    save_model(tiny_student, d / "student.ckpt")
    return d


@pytest.fixture(scope="module")
def tiny_model_cfg_file(tmp_path_factory, tiny_config):
    from dataclasses import asdict

    d = tmp_path_factory.mktemp("cfg")
    path = d / "config.json"
    path.write_text(json.dumps({"model": asdict(tiny_config)}))
    return path


def test_gen_data_success(tmp_path, capsys):
    out = tmp_path / "data"
    code = main([
        "gen-data", "--out", str(out), "--seed", "1",
        "--set", 'sizes={"REASONING": [6, 2, 2]}',
    ])
    assert code == 0
    assert (out / "manifest.json").exists()
    assert (out / "train.jsonl").exists()
    printed = json.loads(capsys.readouterr().out)
    assert printed["seed"] == 1
    assert printed["counts"]["train"] == 6


def test_gen_data_invalid_noise_is_usage_error(tmp_path):
    code = main([
        "gen-data", "--out", str(tmp_path / "x"), "--set", "noise_rate=1.5",
        "--set", 'sizes={"REASONING": [2, 1, 1]}',
    ])
    assert code == 2


def test_train_missing_data_without_auto(tmp_path, capsys):
    code = main([
        "train", "--method", "sft", "--data", str(tmp_path / "nope"),
        "--out", str(tmp_path / "out"),
    ])
    assert code == 2
    assert "nope" in capsys.readouterr().err


def test_train_missing_teacher_without_auto(tmp_path, data_dir, capsys):
    code = main([
        "train", "--method", "sft", "--data", str(data_dir),
        "--teacher", str(tmp_path / "no-teacher.ckpt"),
        "--out", str(tmp_path / "out"),
    ])
    assert code == 2
    assert "no-teacher.ckpt" in capsys.readouterr().err


def test_train_unknown_method_is_usage_error(tmp_path, data_dir):
    with pytest.raises(SystemExit) as exc:
        main(["train", "--method", "dagger", "--data", str(data_dir)])
    assert exc.value.code == 2


@pytest.mark.parametrize("method,extra", [
    ("sft", []),
    ("offline_kd", []),
    ("gkd", ["--steps", "2"]),
    ("xopd", ["--lambda", "0.5", "--steps", "2", "--rollouts", "2"]),
])
def test_train_each_method_smoke(method, extra, tmp_path, data_dir, ckpts, capsys):
    out = tmp_path / f"run-{method}"
    code = main([
        "train", "--method", method, "--data", str(data_dir),
        "--teacher", str(ckpts / "teacher.ckpt"),
        "--student", str(ckpts / "student.ckpt"),
        "--out", str(out),
        "--set", "train.batch_size=8", "--set", "train.max_new=5",
    ] + extra)
    assert code == 0, capsys.readouterr().err
    assert (out / "metrics.jsonl").exists()
    assert (out / "resolved_config.json").exists()


def test_eval_comparison_table(tmp_path, data_dir, ckpts, capsys):
    out = tmp_path / "eval"
    code = main([
        "eval", str(ckpts / "student.ckpt"),
        "--data", str(data_dir), "--base", str(ckpts / "teacher.ckpt"),
        "--out", str(out), "--n-eval", "4",
    ])
    assert code == 0
    table = (out / "comparison.csv").read_text()
    header = table.splitlines()[0]
    assert header.startswith("model,REASONING_S,REASONING_T")
    assert (out / "report_base.json").exists()


def test_eval_ablation_table(tmp_path, data_dir, ckpts):
    out = tmp_path / "abl"
    code = main([
        "eval", str(ckpts / "student.ckpt"), str(ckpts / "student.ckpt"),
        "--data", str(data_dir), "--out", str(out), "--n-eval", "2",
        "--ablation", "lambda=0,1",
    ])
    assert code == 0
    csv = (out / "ablation.csv").read_text()
    assert "lambda=0" in csv and "lambda=1" in csv


def test_eval_ablation_arity_mismatch(tmp_path, data_dir, ckpts):
    code = main([
        "eval", str(ckpts / "student.ckpt"),
        "--data", str(data_dir), "--out", str(tmp_path / "x"), "--n-eval", "2",
        "--ablation", "lambda=0,0.5,1",
    ])
    assert code == 2


def test_eval_missing_checkpoint(tmp_path, data_dir):
    code = main([
        "eval", str(tmp_path / "ghost.ckpt"), "--data", str(data_dir),
        "--out", str(tmp_path / "x"), "--n-eval", "2",
    ])
    assert code == 2


def test_config_file_and_overrides(tmp_path, data_dir, ckpts, tiny_model_cfg_file):
    out = tmp_path / "cfg-run"
    code = main([
        "train", "--method", "sft", "--config", str(tiny_model_cfg_file),
        "--data", str(data_dir),
        "--teacher", str(ckpts / "teacher.ckpt"),
        "--student", str(ckpts / "student.ckpt"),
        "--out", str(out), "--set", "train.batch_size=16",
    ])
    assert code == 0
    resolved = json.loads((out / "resolved_config.json").read_text())
    assert resolved["train"]["batch_size"] == 16


def test_missing_config_file_is_usage_error(tmp_path, data_dir):
    code = main([
        "gen-data", "--config", str(tmp_path / "absent.json"), "--out", str(tmp_path / "o"),
    ])
    assert code == 2


def test_malformed_override_is_usage_error(tmp_path):
    code = main(["gen-data", "--out", str(tmp_path / "o"), "--set", "justakey"])
    assert code == 2


@pytest.mark.parametrize("field", ["temperature", "steps", "max_new"])
def test_train_bad_train_config_exits_2_before_writing(tmp_path, field, capsys):
    data, out = tmp_path / "data", tmp_path / "run"
    code = main([
        "train", "--method", "xopd", "--data", str(data), "--out", str(out), "--auto",
        "--set", f"train.{field}=0",
    ])
    assert code == 2
    assert field in capsys.readouterr().err
    # Rejected before --auto built a dataset or wrote anything to the run dir.
    assert not data.exists() and not out.exists()


@pytest.mark.parametrize("damage", ["truncate", "garbage"])
def test_eval_damaged_checkpoint_exits_1_without_traceback(tmp_path, data_dir, ckpts, damage, capsys):
    path = tmp_path / "damaged.ckpt"
    raw = (ckpts / "student.ckpt").read_bytes()
    path.write_bytes(raw[: len(raw) // 2] if damage == "truncate" else b"\x00\xffnot a checkpoint" * 50)
    code = main([
        "eval", str(path), "--data", str(data_dir), "--out", str(tmp_path / "x"), "--n-eval", "2",
    ])
    # An uncaught error would raise out of main() instead of returning 1.
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "damaged.ckpt" in err


def test_train_damaged_dataset_exits_1_without_traceback(tmp_path, data_dir, ckpts, capsys):
    damaged = tmp_path / "data"
    damaged.mkdir()
    for f in data_dir.iterdir():
        (damaged / f.name).write_bytes(f.read_bytes())
    lines = (damaged / "train.jsonl").read_text().splitlines(keepends=True)
    (damaged / "train.jsonl").write_text("".join(lines[1:]))
    code = main([
        "train", "--method", "sft", "--data", str(damaged), "--out", str(tmp_path / "out"),
        "--teacher", str(ckpts / "teacher.ckpt"), "--student", str(ckpts / "student.ckpt"),
    ])
    assert code == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and "train.jsonl" in err[0]


@pytest.mark.parametrize("argv,unknown", [
    (["train", "--method", "xopd", "--data", "{data}", "--auto", "--set", "train.foo=1"], "foo"),
    (["train", "--method", "xopd", "--data", "{data}", "--auto", "--set", "model.foo=1"], "foo"),
    (["reproduce-paper-trends", "--set", "pipeline.seeds=[0]"], "pipeline"),
    (["gen-data", "--set", "foo=3"], "foo"),
    # Known keys with bad values are rejected at the same point.
    (["gen-data", "--set", "sizes=3"], "sizes"),
    (["gen-data", "--set", "noise_rate=x"], "noise_rate"),
    (["gen-data", "--set", "model.frames_per_token=4"], "speech codec"),
    (["reproduce-paper-trends", "--set", "xopd_steps=0"], "xopd_steps"),
    (["reproduce-paper-trends", "--set", "lambda_grid=[2.0]"], "lambda_grid"),
    (["reproduce-paper-trends", "--set", "learning_rate=-1"], "learning_rate"),
    (["train", "--method", "sft", "--data", "{data}", "--auto", "--set", "pretrain.max_steps=0"],
     "max_steps"),
    (["train", "--method", "sft", "--data", "{data}", "--auto", "--set", "pretrain.batch_size=0"],
     "batch_size"),
    (["train", "--method", "sft", "--data", "{data}", "--auto", "--set",
      "pretrain.min_learning_rate=0.01"], "min_learning_rate"),
    (["train", "--method", "sft", "--data", "{data}", "--auto", "--set", "gap.batch_size=1"],
     "batch_size"),
    (["train", "--method", "sft", "--data", "{data}", "--auto", "--set", "gap.acoustic_target=1.5"],
     "acoustic_target"),
    (["train", "--method", "sft", "--data", "{data}", "--auto", "--set", "gap.learning_rate=-1"],
     "learning_rate"),
    (["train", "--method", "sft", "--data", "{data}", "--auto", "--set",
      "gap.speech_subset_size=4"], "speech_subset_size"),
    # Flags set to 0 reach the TrainConfig checks instead of falling back to defaults.
    (["train", "--method", "xopd", "--data", "{data}", "--auto", "--steps", "0"], "steps"),
    (["train", "--method", "xopd", "--data", "{data}", "--auto", "--rollouts", "0"], "n_rollouts"),
], ids=["train.foo", "model.foo", "pipeline.seeds", "foo", "sizes=3", "noise_rate=x",
        "model.frames_per_token=4", "xopd_steps=0", "lambda_grid=[2.0]", "learning_rate=-1",
        "pretrain.max_steps=0", "pretrain.batch_size=0", "pretrain.min_learning_rate=0.01",
        "gap.batch_size=1", "gap.acoustic_target=1.5", "gap.learning_rate=-1",
        "gap.speech_subset_size=4", "steps=0", "rollouts=0"])
def test_unknown_config_key_exits_2_before_writing(tmp_path, argv, unknown, capsys):
    data, out = tmp_path / "data", tmp_path / "out"
    code = main([a.format(data=data) for a in argv] + ["--out", str(out)])
    assert code == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and unknown in err[0]
    assert not data.exists() and not out.exists()


@pytest.mark.parametrize("argv,named", [
    (["reproduce-paper-trends", "--seeds", "0,x"], "--seeds"),
    (["ablation", "--data", "{data}", "--teacher", "t.ckpt", "--student", "s.ckpt",
      "--lambdas", "0.5,x"], "--lambdas"),
    (["eval", "a.ckpt", "--data", "{data}", "--ablation", "lambda=x"], "--ablation"),
    # A parsed value still goes through PipelineConfig's lambda_grid check.
    (["ablation", "--data", "{data}", "--teacher", "t.ckpt", "--student", "s.ckpt",
      "--lambdas", "0,2"], "lambda_grid"),
], ids=["seeds", "lambdas", "ablation", "lambdas-range"])
def test_bad_list_flag_exits_2_before_work(tmp_path, argv, named, capsys):
    data, out = tmp_path / "data", tmp_path / "out"
    code = main([a.format(data=data) for a in argv] + ["--out", str(out)])
    assert code == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and named in err[0]
    assert not out.exists()


def test_pipeline_config_takes_every_pipeline_field():
    pc = _pipeline_config({"seeds": [0, 1], "lambda_grid": [0.5], "xopd_steps": 3,
                           "model": {"embed_dim": 32}})
    assert pc.seeds == (0, 1) and pc.lambda_grid == (0.5,) and pc.xopd_steps == 3
    assert pc.model.embed_dim == 32


def test_gen_data_codec_follows_model_overrides(tmp_path):
    out = tmp_path / "data"
    code = main([
        "gen-data", "--out", str(out), "--set", 'sizes={"REASONING": [6, 2, 2]}',
        "--set", "model.frames_per_token=2", "--set", "model.speech_vocab_size=128",
        "--set", "noise_rate=0.05",
    ])
    assert code == 0
    codec = json.loads((out / "manifest.json").read_text())["codec"]
    assert codec["frames_per_token"] == 2
    assert codec["speech_vocab_size"] == 128
    assert codec["noise_rate"] == 0.05


def _readme_cli_commands() -> list[str]:
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = re.search(r"## CLI\n.*?```sh\n(.*?)```", readme, re.S).group(1)
    joined = block.replace("\\\n", " ")
    return [line.strip() for line in joined.splitlines() if line.strip().startswith("xopd-lab ")]


def test_readme_cli_examples_parse():
    commands = _readme_cli_commands()
    assert len(commands) >= 5
    parser = build_parser()
    for command in commands:
        try:
            parser.parse_args(shlex.split(command)[1:])
        except SystemExit:
            pytest.fail(f"README example does not parse: {command}")
