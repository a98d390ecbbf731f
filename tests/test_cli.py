"""CLI tests: subcommand wiring and exit codes (0 success, 1 failure, 2 usage)."""

import hashlib
import json
import re
import shlex
import tempfile
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import xopd_lab.cli as cli_module
from xopd_lab import pipeline as pipeline_mod, trainer as trainer_mod
from xopd_lab.autodiff import Tensor
from xopd_lab.checkpoint import save_checkpoint
from xopd_lab.cli import _load_config, _pipeline_config, build_parser, main
from xopd_lab.corpus import SpeechCodec, build_dataset, save_dataset
from xopd_lab.errors import ConfigurationError, TrainingFailure, UsageError
from xopd_lab.model import TeacherModel, init_student_from_teacher, save_model
from xopd_lab.pipeline import PipelineConfig, _method_variants, run_seed, write_config
from xopd_lab.trainer import GapConfig


@pytest.fixture(scope="module")
def data_dir(tmp_path_factory):
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
    # Without --teacher, --student or --auto the message names the flag.
    code = main(["train", "--method", "sft", "--data", str(data_dir), "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code == 2
    assert "no --teacher given (pass --auto to build)" in err and "None" not in err
    assert not (tmp_path / "out").exists()


def test_train_unknown_method_is_usage_error(tmp_path, data_dir):
    with pytest.raises(SystemExit) as exc:
        main(["train", "--method", "dagger", "--data", str(data_dir)])
    assert exc.value.code == 2


@pytest.mark.parametrize("method,extra", [
    ("sft", []),
    ("offline_kd", []),
    ("gkd", []),
    ("xopd", ["--lambda", "0.5"]),
])
def test_train_each_method_smoke(method, extra, tmp_path, data_dir, ckpts, capsys):
    out = tmp_path / f"run-{method}"
    code = main([
        "train", "--method", method, "--data", str(data_dir),
        "--teacher", str(ckpts / "teacher.ckpt"),
        "--student", str(ckpts / "student.ckpt"),
        "--out", str(out),
        "--set", "batch_size=8", "--set", "max_new=5", "--set", "xopd_steps=2",
        "--set", "gkd_steps=2", "--set", "n_rollouts=2",
    ] + extra)
    assert code == 0, capsys.readouterr().err
    assert (out / "metrics.jsonl").exists()
    assert (out / "resolved_config.json").exists()


def test_eval_comparison_table(tmp_path, data_dir, ckpts, capsys):
    out = tmp_path / "eval"
    code = main([
        "eval", str(ckpts / "student.ckpt"), str(ckpts / "student.ckpt"),
        "--data", str(data_dir), "--base", str(ckpts / "teacher.ckpt"),
        "--out", str(out), "--n-eval", "4",
    ])
    assert code == 0
    table = (out / "comparison.csv").read_text().splitlines()
    assert table[0].startswith("model,REASONING_S,REASONING_T")
    # Each row is named after its report, so two checkpoints of one stem stay apart.
    assert [row.split(",")[0] for row in table[1:]] == ["0_student", "1_student"]
    assert sorted(p.name for p in out.iterdir()) == [
        "comparison.csv", "report_0_student.json", "report_1_student.json", "report_base.json"
    ]
    # Greedy scoring draws nothing, so a report records no seed.
    for report in out.glob("report_*.json"):
        assert "seed" not in json.loads(report.read_text())


@pytest.mark.parametrize("n_eval", ["0", "-1"])
def test_eval_n_eval_below_1_exits_2_before_work(tmp_path, data_dir, ckpts, n_eval, capsys):
    # Neither may reach scoring: 0 divides by zero, -1 drops each family's last example.
    out = tmp_path / "x"
    code = main([
        "eval", str(ckpts / "student.ckpt"), "--data", str(data_dir),
        "--out", str(out), "--n-eval", n_eval,
    ])
    assert code == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and "--n-eval" in err[0]
    assert not out.exists()


@pytest.fixture(scope="module")
def text_families_dir(tmp_path_factory):
    """A dataset with REASONING and INSTRUCTION only: no ACOUSTIC family."""
    d = tmp_path_factory.mktemp("text-families")
    sizes = {"REASONING": (4, 2, 2), "INSTRUCTION": (4, 2, 2)}
    save_dataset(build_dataset(sizes, SpeechCodec(), seed=0), d)
    return d


@pytest.mark.parametrize("with_base", [False, True], ids=["no-base", "base"])
def test_eval_scores_only_the_families_the_test_split_holds(
    tmp_path, text_families_dir, ckpts, with_base, capsys
):
    out = tmp_path / "eval"
    base = ["--base", str(ckpts / "teacher.ckpt")] if with_base else []
    code = main([
        "eval", str(ckpts / "student.ckpt"), "--data", str(text_families_dir),
        "--out", str(out), "--n-eval", "2",
    ] + base)
    assert code == 0, capsys.readouterr().err
    report = json.loads((out / "report_0_student.json").read_text())
    assert sorted(report["scores"]) == ["INSTRUCTION", "REASONING"]
    assert report["base_model_id"] == ("base" if with_base else None)


def test_eval_base_without_a_drop_family_exits_1(tmp_path, ckpts, capsys):
    data = tmp_path / "data"
    sizes = {"REASONING": (4, 2, 2), "ACOUSTIC": (4, 2, 2)}
    save_dataset(build_dataset(sizes, SpeechCodec(), seed=0), data)
    code = main([
        "eval", str(ckpts / "student.ckpt"), "--data", str(data),
        "--base", str(ckpts / "teacher.ckpt"), "--out", str(tmp_path / "eval"), "--n-eval", "2",
    ])
    assert code == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and "INSTRUCTION" in err[0]


def test_train_auto_on_a_small_acoustic_split_exits_1(tmp_path, capsys):
    # One pretraining step meets a zero target; the gap's first half batch
    # (8 of GapConfig's 16) is larger than the 6-example ACOUSTIC split.
    data, out = tmp_path / "data", tmp_path / "out"
    code = main([
        "train", "--method", "sft", "--data", str(data), "--out", str(out), "--auto",
        "--set", 'sizes={"REASONING":[6,4,2],"INSTRUCTION":[6,2,2],"ACOUSTIC":[6,4,2]}',
        "--set", "pretrain.target_accuracy=0", "--set", "pretrain.max_steps=1",
    ])
    assert code == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:")
    assert "train ACOUSTIC split" in err[0] and "holds 6" in err[0]
    # The record is written before --auto builds anything, so the failed run keeps it.
    assert sorted(p.name for p in out.iterdir()) == ["resolved_config.json", "teacher.ckpt"]


def test_eval_missing_checkpoint(tmp_path, data_dir):
    code = main([
        "eval", str(tmp_path / "ghost.ckpt"), "--data", str(data_dir),
        "--out", str(tmp_path / "x"), "--n-eval", "2",
    ])
    assert code == 2


@pytest.mark.parametrize("field,data_value,model_value", [
    ("speech_vocab_size", 128, 64),
    ("frames_per_token", 2, 3),
])
def test_eval_a_student_that_cannot_read_the_data_exits_2_before_writing(
    tmp_path, ckpts, field, data_value, model_value, capsys
):
    data, out = tmp_path / "data", tmp_path / "eval"
    assert main([
        "gen-data", "--out", str(data), "--set", 'sizes={"REASONING": [2, 2, 2]}',
        "--set", f"model.{field}={data_value}",
    ]) == 0
    capsys.readouterr()
    code = main(["eval", str(ckpts / "student.ckpt"), "--data", str(data), "--out", str(out)])
    assert code == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:"), err
    assert f"{field} {model_value}" in err[0] and str(data_value) in err[0], err
    assert not out.exists()


def test_eval_a_teacher_below_the_corpus_vocabulary_exits_2_before_writing(
    tmp_path, data_dir, tiny_config, capsys
):
    teacher, out = tmp_path / "teacher32.ckpt", tmp_path / "eval"
    save_model(TeacherModel.init(replace(tiny_config, text_vocab_size=32), 3), teacher)
    code = main(["eval", str(teacher), "--data", str(data_dir), "--out", str(out)])
    assert code == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and "text_vocab_size 32" in err[0] and "64" in err[0], err
    assert not out.exists()


def test_eval_on_a_directory_exits_1_without_traceback(tmp_path, data_dir, capsys):
    ckpt_dir = tmp_path / "a.ckpt"
    ckpt_dir.mkdir()
    code = main([
        "eval", str(ckpt_dir), "--data", str(data_dir), "--out", str(tmp_path / "x"), "--n-eval", "2",
    ])
    assert code == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and "a.ckpt" in err[0]


def test_config_file_and_overrides(tmp_path, data_dir, ckpts, tiny_model_cfg_file):
    out = tmp_path / "cfg-run"
    code = main([
        "train", "--method", "sft", "--config", str(tiny_model_cfg_file),
        "--data", str(data_dir),
        "--teacher", str(ckpts / "teacher.ckpt"),
        "--student", str(ckpts / "student.ckpt"),
        "--out", str(out), "--set", "batch_size=16",
    ])
    assert code == 0
    resolved = json.loads((out / "resolved_config.json").read_text())
    assert resolved["batch_size"] == 16
    assert json.loads((out / "config.json").read_text())["train"]["batch_size"] == 16


def test_train_resolved_config_reruns_the_run(tmp_path, data_dir, ckpts, tiny_model_cfg_file):
    argv = [
        "train", "--method", "gkd", "--data", str(data_dir),
        "--teacher", str(ckpts / "teacher.ckpt"), "--student", str(ckpts / "student.ckpt"),
    ]
    first, second = tmp_path / "first", tmp_path / "second"
    assert main(argv + [
        "--config", str(tiny_model_cfg_file), "--out", str(first),
        "--set", "gkd_steps=2", "--set", "batch_size=4", "--set", "max_new=5",
    ]) == 0
    assert main(argv + ["--config", str(first / "resolved_config.json"), "--out", str(second)]) == 0
    for name in ("resolved_config.json", "config.json"):
        assert (first / name).read_text() == (second / name).read_text(), name
    hashes = [json.loads((d / "manifest.json").read_text())["final_params_hash"] for d in (first, second)]
    assert hashes[0] == hashes[1]


def test_train_reruns_each_pipeline_run_from_its_config(tiny_teacher, tiny_config, tmp_path, monkeypatch):
    # Scoring inside gap construction is stubbed so one step meets its
    # targets: the teacher scores 1 on text and the student 0 everywhere.
    monkeypatch.setattr(
        trainer_mod, "score_model", lambda model, *a, **k: 1.0 if model is tiny_teacher else 0.0
    )
    cfg = PipelineConfig(
        seeds=(0,), sizes={f: [24, 8, 8] for f in ("REASONING", "INSTRUCTION", "ACOUSTIC")},
        model=tiny_config, lambda_grid=(0.5,),
        gap=GapConfig(batch_size=4, max_steps=1, check_every=1, acoustic_target=0.0,
                      speech_subset_size=4, n_val=4),
        xopd_steps=2, gkd_steps=3, batch_size=4, n_rollouts=2, max_new=5, n_eval=4,
    )
    seed_dir, config = tmp_path / "seed-0", tmp_path / "resolved_config.json"
    run_seed(cfg, 0, seed_dir, tiny_teacher)
    # The trend root, not the seed directory, holds the shared teacher.
    write_config(cfg, tmp_path)
    save_model(tiny_teacher, tmp_path / "teacher.ckpt")
    for name, tc in _method_variants(cfg, 0):
        out = tmp_path / "train" / name
        code = main([
            "train", "--method", tc.method, "--config", str(config), "--seed", "0",
            "--data", str(seed_dir / "data"), "--teacher", str(tmp_path / "teacher.ckpt"),
            "--student", str(seed_dir / "student_base.ckpt"), "--out", str(out),
        ] + (["--lambda", str(tc.lam)] if tc.method == "xopd" else []))
        assert code == 0, name
        ran = seed_dir / "runs" / name
        assert (out / "config.json").read_text() == (ran / "config.json").read_text(), name
        hashes = [json.loads((d / "manifest.json").read_text())["final_params_hash"] for d in (ran, out)]
        assert hashes[0] == hashes[1], name


def test_missing_config_file_is_usage_error(tmp_path, data_dir):
    code = main([
        "gen-data", "--config", str(tmp_path / "absent.json"), "--out", str(tmp_path / "o"),
    ])
    assert code == 2


@pytest.mark.parametrize("content,sets", [
    (b"{bad", []),
    (b"[1,2]", []),
    (b"\xff\xfe{}", []),
    (b'{"model": {"n_layers": 2}}', ["model.n_layers.x=1"]),
    (b'{"model": {"n_layers": 2}}', ["model.n_layers.x.y=1"]),
    (None, []),  # --config names a directory
    (b"[" * 100_000, []),
    (b"{}", ["seeds=" + "[" * 100_000]),
], ids=["not-json", "not-an-object", "not-utf8", "set-below-a-value", "set-two-below-a-value",
        "directory", "file-nests-too-deeply", "set-nests-too-deeply"])
def test_bad_config_input_exits_2_before_writing(tmp_path, content, sets, capsys):
    path, out = tmp_path / "cfg", tmp_path / "out"
    if content is None:
        path.mkdir()
    else:
        path.write_bytes(content)
    argv = ["gen-data", "--config", str(path), "--out", str(out)]
    code = main(argv + [a for kv in sets for a in ("--set", kv)])
    assert code == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:"), err
    assert not out.exists()


_KEYS = ["seeds", "sizes", "noise_rate", "lambda_grid", "xopd_steps", "model", "model.n_layers",
         "model.n_layers.x", "model.embed_dim", "pretrain", "pretrain.batch_size", "gap.n_val",
         "train", "train.steps", "x.y", "", "."]
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 300) | st.floats(allow_nan=True)
    | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.sampled_from(_KEYS), inner, max_size=3),
    max_leaves=8,
)
_OVERRIDE = st.one_of(
    st.builds(lambda k, v: f"{k}={json.dumps(v)}", st.sampled_from(_KEYS), _JSON),
    st.builds(lambda k, v: f"{k}={v}", st.sampled_from(_KEYS), st.text(max_size=6)),
    st.text(max_size=12),
)
_FILE = st.one_of(
    st.none(),
    st.binary(max_size=40),
    _JSON.map(lambda v: json.dumps(v).encode()),
    st.dictionaries(st.sampled_from(_KEYS), _JSON, max_size=4).map(lambda v: json.dumps(v).encode()),
)


@settings(max_examples=300, deadline=None)
@given(_FILE, st.lists(_OVERRIDE, max_size=4))
def test_any_config_input_gives_a_config_or_a_config_error(raw, overrides):
    # Loading generates no data: the config either builds or is a usage or
    # config error, which the CLI turns into exit 2.
    with tempfile.TemporaryDirectory() as d:
        path = None
        if raw is not None:
            path = str(Path(d) / "cfg.json")
            Path(path).write_bytes(raw)
        try:
            pc = _pipeline_config(_load_config(path, overrides))
        except (UsageError, ConfigurationError):
            return
    assert isinstance(pc, PipelineConfig)


def test_malformed_override_is_usage_error(tmp_path):
    code = main(["gen-data", "--out", str(tmp_path / "o"), "--set", "justakey"])
    assert code == 2


@pytest.mark.parametrize("field,value", [
    ("temperature", "0"), ("xopd_steps", "0"), ("max_new", "0"), ("learning_rate", "Infinity"),
], ids=["temperature", "steps", "max_new", "learning_rate"])
def test_train_bad_train_config_exits_2_before_writing(tmp_path, field, value, capsys):
    data, out = tmp_path / "data", tmp_path / "run"
    code = main([
        "train", "--method", "xopd", "--data", str(data), "--out", str(out), "--auto",
        "--set", f"{field}={value}",
    ])
    assert code == 2
    assert field in capsys.readouterr().err
    # Rejected before --auto built a dataset or wrote anything to the run dir.
    assert not data.exists() and not out.exists()


# A given --lambda counts, even at 0; a top-level recipe field the method
# does not read is ignored, as in the pipeline's runs.
@pytest.mark.parametrize("method,extra,unread", [
    ("sft", ["--lambda", "0.3"], "lam"),
    ("offline_kd", ["--lambda", "0.3"], "lam"),
    ("sft", ["--lambda", "0"], "lam"),
    ("gkd", ["--lambda", "0.3"], "lam"),
])
def test_train_flag_the_method_does_not_read_exits_2_before_writing(
    tmp_path, data_dir, ckpts, method, extra, unread, capsys
):
    out = tmp_path / "run"
    code = main([
        "train", "--method", method, "--data", str(data_dir), "--out", str(out),
        "--teacher", str(ckpts / "teacher.ckpt"), "--student", str(ckpts / "student.ckpt"),
    ] + extra)
    assert code == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0] == f"error: --method {method} does not read {unread}"
    assert not out.exists()


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


def test_eval_non_finite_checkpoint_exits_1_without_traceback(
    tmp_path, data_dir, tiny_teacher, capsys
):
    # The payload hash is valid, so only the finiteness check can refuse it.
    params = {k: Tensor(v.data.copy()) for k, v in tiny_teacher.params.items()}
    params["h0.attn.wq"].data[0, 0] = np.nan
    path = tmp_path / "nan.ckpt"
    save_checkpoint(path, params, {"kind": "teacher", "config": asdict(tiny_teacher.cfg)})
    code = main([
        "eval", str(path), "--data", str(data_dir), "--out", str(tmp_path / "x"), "--n-eval", "2",
    ])
    assert code == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and "h0.attn.wq" in err[0], err


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


def test_eval_example_with_an_unknown_text_id_exits_1_without_traceback(
    tmp_path, data_dir, ckpts, capsys
):
    # The manifest is re-hashed, so only the example check can refuse it.
    damaged = tmp_path / "data"
    damaged.mkdir()
    for f in data_dir.iterdir():
        (damaged / f.name).write_bytes(f.read_bytes())
    lines = (damaged / "test.jsonl").read_text().splitlines(keepends=True)
    example = json.loads(lines[0])
    example["text_prompt"][0] = 999
    lines[0] = json.dumps(example) + "\n"
    body = "".join(lines).encode()
    (damaged / "test.jsonl").write_bytes(body)
    manifest = json.loads((damaged / "manifest.json").read_text())
    manifest["file_hashes"]["test"] = hashlib.sha256(body).hexdigest()
    (damaged / "manifest.json").write_text(json.dumps(manifest))
    code = main([
        "eval", str(ckpts / "student.ckpt"), "--data", str(damaged),
        "--out", str(tmp_path / "x"), "--n-eval", "2",
    ])
    assert code == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and "test.jsonl:1" in err[0], err


def test_train_offline_kd_with_a_mismatched_teacher_vocab_exits_2_before_training(
    tmp_path, data_dir, ckpts, tiny_config, capsys, monkeypatch
):
    teacher80 = TeacherModel.init(replace(tiny_config, text_vocab_size=80), 3)
    save_model(teacher80, tmp_path / "teacher80.ckpt")
    out = tmp_path / "run"
    code = main([
        "train", "--method", "offline_kd", "--data", str(data_dir), "--out", str(out),
        "--teacher", str(tmp_path / "teacher80.ckpt"), "--student", str(ckpts / "student.ckpt"),
    ])
    assert code == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0] == "error: teacher/student vocab mismatch: 80 vs 64", err
    assert not out.exists()

    # The teacher --auto would build has the config's 64 ids: refused before pretraining.
    def pretrain(*args):
        raise AssertionError("the teacher was pretrained")

    monkeypatch.setattr(cli_module, "pretrain_teacher", pretrain)
    student80 = init_student_from_teacher(teacher80, replace(tiny_config, text_vocab_size=80), 4)
    save_model(student80, tmp_path / "student80.ckpt")
    code = main([
        "train", "--method", "xopd", "--data", str(data_dir), "--out", str(out), "--auto",
        "--teacher", str(tmp_path / "missing.ckpt"), "--student", str(tmp_path / "student80.ckpt"),
    ])
    assert code == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0] == "error: teacher/student vocab mismatch: 64 vs 80", err
    assert not out.exists()


@pytest.mark.parametrize("argv,unknown", [
    (["train", "--method", "xopd", "--data", "{data}", "--auto", "--set", "foo=1"], "foo"),
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
    (["train", "--method", "sft", "--data", "{data}", "--auto", "--set", "checkpoint_interval=-1"],
     "checkpoint_interval"),
    # A repeated seed would rerun one seed directory; a repeated lambda label
    # would train twice into one run directory.
    (["reproduce-paper-trends", "--set", "seeds=[0,0]"], "seeds"),
    (["ablation", "--data", "{data}", "--teacher", "t.ckpt", "--student", "s.ckpt",
      "--set", "lambda_grid=[0.5,0.5]"], "lambda_grid"),
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
    # The train command reads the pipeline's recipe fields.
    (["train", "--method", "xopd", "--data", "{data}", "--auto", "--set", "xopd_steps=0"],
     "xopd_steps"),
    (["train", "--method", "xopd", "--data", "{data}", "--auto", "--set", "n_rollouts=0"],
     "n_rollouts"),
    # The deleted train section is an unknown key, whatever it holds.
    (["train", "--method", "xopd", "--data", "{data}", "--auto", "--set", "train=3"], "train"),
    (["train", "--method", "xopd", "--data", "{data}", "--auto", "--set", "train.foo=1"], "train"),
    (["train", "--method", "xopd", "--data", "{data}", "--auto", "--set", "train.steps=1.5"],
     "train"),
    (["train", "--method", "xopd", "--data", "{data}", "--auto", "--set", "train.lam=true"], "train"),
    (["train", "--method", "sft", "--data", "{data}", "--auto", "--set", "train.epochs=2"], "train"),
    # An integer field takes no float, and a number field takes no bool.
    (["train", "--method", "sft", "--data", "{data}", "--auto", "--set", "pretrain.max_steps=1.5"],
     "max_steps"),
    (["train", "--method", "sft", "--data", "{data}", "--auto", "--set", "model.n_layers=1.5"],
     "n_layers"),
    (["train", "--method", "xopd", "--data", "{data}", "--auto", "--set", "xopd_steps=1.5"],
     "xopd_steps"),
    (["train", "--method", "xopd", "--data", "{data}", "--auto", "--set", "learning_rate=true"],
     "learning_rate"),
    # Deleted keys stay unknown; the decode budget of scoring comes from the references.
    (["train", "--method", "sft", "--data", "{data}", "--auto", "--set", "epochs=2"], "epochs"),
    (["train", "--method", "sft", "--data", "{data}", "--auto", "--set", "pretrain.max_new=12"],
     "max_new"),
    (["train", "--method", "sft", "--data", "{data}", "--auto", "--set", "gap.max_new=12"], "max_new"),
    # The model must embed every corpus token id.
    (["gen-data", "--set", "model.text_vocab_size=32"], "text_vocab_size"),
    # A checkpoint of the wrong kind is refused at the same point.
    (["ablation", "--data", "{data_dir}", "--teacher", "{ckpts}/teacher.ckpt",
      "--student", "{ckpts}/teacher.ckpt"], "teacher.ckpt is not a student checkpoint"),
], ids=["train-foo", "model.foo", "pipeline.seeds", "foo", "sizes=3", "noise_rate=x",
        "model.frames_per_token=4", "xopd_steps=0", "lambda_grid=[2.0]", "learning_rate=-1",
        "checkpoint_interval=-1", "seeds-repeat", "lambdas-repeat-label",
        "pretrain.max_steps=0", "pretrain.batch_size=0", "pretrain.min_learning_rate=0.01",
        "gap.batch_size=1", "gap.acoustic_target=1.5", "gap.learning_rate=-1",
        "gap.speech_subset_size=4", "steps=0", "rollouts=0", "train=3", "train.foo", "train.steps=1.5",
        "train.lam=true", "train.epochs", "pretrain.max_steps=1.5", "model.n_layers=1.5",
        "train-xopd_steps=1.5", "train-learning_rate=true", "train-epochs", "pretrain.max_new",
        "gap.max_new", "model.text_vocab_size=32", "ablation-student-is-a-teacher"])
def test_unknown_config_key_exits_2_before_writing(tmp_path, data_dir, ckpts, argv, unknown, capsys):
    data, out = tmp_path / "data", tmp_path / "out"
    code = main([a.format(data=data, data_dir=data_dir, ckpts=ckpts) for a in argv] + ["--out", str(out)])
    assert code == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and unknown in err[0]
    assert not data.exists() and not out.exists()


# The seed and lambda lists come from the config.
@pytest.mark.parametrize("argv,named", [
    (["reproduce-paper-trends", "--set", 'seeds=[0,"x"]'], "seeds"),
    (["ablation", "--data", "{data}", "--teacher", "t.ckpt", "--student", "s.ckpt",
      "--set", 'lambda_grid=[0.5,"x"]'], "lambda_grid"),
    (["ablation", "--data", "{data}", "--teacher", "t.ckpt", "--student", "s.ckpt",
      "--set", "lambda_grid=[0,2]"], "lambda_grid"),
    # An empty value is given, not absent: it is refused, not replaced by the default.
    (["reproduce-paper-trends", "--set", "seeds=[]"], "seeds"),
], ids=["seeds", "lambdas", "lambdas-range", "seeds-empty"])
def test_bad_list_flag_exits_2_before_work(tmp_path, argv, named, capsys, monkeypatch):
    def trend_run(*args):
        raise AssertionError("the trend run started")

    monkeypatch.setattr(cli_module, "reproduce_paper_trends", trend_run)
    data, out = tmp_path / "data", tmp_path / "out"
    code = main([a.format(data=data) for a in argv] + ["--out", str(out)])
    assert code == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and named in err[0]
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["eval", "a.ckpt", "--data", "d", "--set", "x=1"],
    ["eval", "a.ckpt", "--data", "d", "--config", "c.json"],
    # Every eval row is named after its report; the ablation table is the ablation command's.
    ["eval", "a.ckpt", "--data", "d", "--ablation", "lambda=0"],
    # Greedy scoring draws nothing; a trained model's seed is in its run's manifest.
    ["eval", "a.ckpt", "--data", "d", "--seed", "1"],
    # The trend run takes its seeds from the config's seeds list.
    ["reproduce-paper-trends", "--seed", "3"],
], ids=["eval-set", "eval-config", "eval-ablation", "eval-seed", "reproduce-seed"])
def test_an_option_the_command_does_not_read_is_refused(argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2


@pytest.mark.parametrize("field,value", [("n_heads", 4), ("n_layers", 1), ("max_seq_len", 128)])
def test_train_refuses_a_student_backbone_unlike_the_teachers(
    tmp_path, data_dir, ckpts, tiny_model_cfg_file, field, value, capsys
):
    out = tmp_path / "run"
    code = main([
        "train", "--method", "sft", "--data", str(data_dir), "--auto", "--out", str(out),
        "--teacher", str(ckpts / "teacher.ckpt"), "--config", str(tiny_model_cfg_file),
        "--set", f"model.{field}={value}",
    ])
    assert code == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and field in err[0], err
    assert not out.exists()


@pytest.mark.parametrize("sizes,given_teacher,missing", [
    ('{"REASONING":[6,0,2],"INSTRUCTION":[6,2,2],"ACOUSTIC":[6,4,2]}', False, "val REASONING"),
    ('{"REASONING":[6,2,2],"INSTRUCTION":[6,2,2],"ACOUSTIC":[6,0,2]}', True, "val ACOUSTIC"),
], ids=["teacher", "student"])
def test_train_auto_without_the_val_split_it_builds_on_exits_2_before_writing(
    tmp_path, ckpts, tiny_model_cfg_file, sizes, given_teacher, missing, capsys
):
    out = tmp_path / "run"
    teacher = ["--teacher", str(ckpts / "teacher.ckpt")] if given_teacher else []
    code = main([
        "train", "--method", "sft", "--data", str(tmp_path / "data"), "--auto", "--out", str(out),
        "--config", str(tiny_model_cfg_file), "--set", f"sizes={sizes}",
    ] + teacher)
    assert code == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and missing in err[0], err
    assert not out.exists()


def test_ablation_keeps_the_config_lambda_grid_without_the_flag(tmp_path, data_dir, ckpts):
    out = tmp_path / "ablation"
    code = main([
        "ablation", "--data", str(data_dir), "--out", str(out),
        "--teacher", str(ckpts / "teacher.ckpt"), "--student", str(ckpts / "student.ckpt"),
        "--set", "lambda_grid=[0.5]", "--set", "xopd_steps=1", "--set", "batch_size=4",
        "--set", "n_rollouts=1", "--set", "max_new=3", "--set", "n_eval=2",
    ])
    assert code == 0
    assert json.loads((out / "ablation_grid.json").read_text())["lambda_values"] == [0.5]


def test_ablation_with_a_mismatched_teacher_vocab_exits_2_before_writing(
    tmp_path, data_dir, ckpts, tiny_config, capsys
):
    teacher80 = tmp_path / "teacher80.ckpt"
    save_model(TeacherModel.init(replace(tiny_config, text_vocab_size=80), 3), teacher80)
    out = tmp_path / "ablation"
    code = main([
        "ablation", "--data", str(data_dir), "--out", str(out),
        "--teacher", str(teacher80), "--student", str(ckpts / "student.ckpt"),
        "--set", "lambda_grid=[0,1]",
    ])
    assert code == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0] == "error: teacher/student vocab mismatch: 80 vs 64", err
    assert not out.exists()


def test_an_ablation_whose_every_cell_fails_exits_1(tmp_path, data_dir, ckpts, capsys, monkeypatch):
    def diverge(*args):
        raise TrainingFailure("non-finite loss at step 1")

    monkeypatch.setattr(pipeline_mod, "_train_and_score", diverge)
    out = tmp_path / "ablation"
    code = main([
        "ablation", "--data", str(data_dir), "--out", str(out),
        "--teacher", str(ckpts / "teacher.ckpt"), "--student", str(ckpts / "student.ckpt"),
        "--set", "lambda_grid=[0,1]", "--set", "n_eval=2",
    ])
    assert code == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: no cell of the ablation grid ran"), err
    assert "non-finite loss at step 1" in err[0]
    cells = json.loads((out / "ablation_grid.json").read_text())["cells"]["teacher"]
    assert set(cells) == {"l0", "l1"} and all("error" in c for c in cells.values())


def test_pipeline_config_takes_every_pipeline_field():
    pc = _pipeline_config({"seeds": [0, 1], "lambda_grid": [0.5], "xopd_steps": 3,
                           "model": {"embed_dim": 32}})
    assert pc.seeds == (0, 1) and pc.lambda_grid == (0.5,) and pc.xopd_steps == 3
    assert pc.model.embed_dim == 32


def _record(out: Path) -> dict:
    return json.loads((out / "resolved_config.json").read_text())


def test_gen_data_reruns_from_its_record(tmp_path, capsys):
    first, second = tmp_path / "first", tmp_path / "second"
    assert main([
        "gen-data", "--out", str(first), "--seed", "3", "--set", 'sizes={"REASONING": [6, 2, 2]}',
        "--set", "model.speech_vocab_size=128",
    ]) == 0
    assert _record(first) == json.loads(json.dumps(asdict(_pipeline_config(_record(first)))))
    assert _record(first)["model"]["speech_vocab_size"] == 128
    assert main([
        "gen-data", "--out", str(second), "--seed", "3", "--config", str(first / "resolved_config.json"),
    ]) == 0
    assert (first / "resolved_config.json").read_text() == (second / "resolved_config.json").read_text()
    hashes = [json.loads((d / "manifest.json").read_text())["file_hashes"] for d in (first, second)]
    assert hashes[0] == hashes[1]


def test_ablation_reruns_from_its_record(tmp_path, data_dir, ckpts, tiny_model_cfg_file):
    argv = [
        "ablation", "--data", str(data_dir),
        "--teacher", str(ckpts / "teacher.ckpt"), "--student", str(ckpts / "student.ckpt"),
    ]
    first, second = tmp_path / "first", tmp_path / "second"
    assert main(argv + [
        "--out", str(first), "--config", str(tiny_model_cfg_file), "--set", "lambda_grid=[0,0.5]",
        "--set", "xopd_steps=1", "--set", "batch_size=4", "--set", "n_rollouts=1",
        "--set", "max_new=3", "--set", "n_eval=2",
    ]) == 0
    assert _record(first)["lambda_grid"] == [0, 0.5] and _record(first)["xopd_steps"] == 1
    assert main(argv + ["--out", str(second), "--config", str(first / "resolved_config.json")]) == 0
    for name in ("resolved_config.json", "ablation_grid.json"):
        assert (first / name).read_text() == (second / name).read_text(), name


def test_a_trend_directory_holds_one_config_record(tmp_path, monkeypatch, capsys):
    def no_teacher(*args):
        raise TrainingFailure("stop after the record")

    monkeypatch.setattr(pipeline_mod, "pretrain_teacher", no_teacher)
    out = tmp_path / "trends"
    assert main(["reproduce-paper-trends", "--out", str(out), "--set", "seeds=[4,5]"]) == 1
    assert [p.name for p in out.iterdir()] == ["resolved_config.json"]
    assert _record(out) == json.loads(json.dumps(asdict(PipelineConfig(seeds=(4, 5)))))


def test_a_trend_grid_without_the_gap_lambda_exits_2_before_writing(tmp_path, monkeypatch, capsys):
    def no_teacher(*args):
        raise TrainingFailure("pretraining started")

    monkeypatch.setattr(pipeline_mod, "pretrain_teacher", no_teacher)
    out = tmp_path / "trends"
    assert main(["reproduce-paper-trends", "--out", str(out), "--set", "lambda_grid=[0,1]"]) == 2
    assert "lambda_grid must hold 0.5" in capsys.readouterr().err
    assert not out.exists()


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


def test_readme_cli_examples_parse():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = re.search(r"## CLI\n.*?```sh\n(.*?)```", readme, re.S).group(1)
    joined = block.replace("\\\n", " ")
    commands = [line.strip() for line in joined.splitlines() if line.strip().startswith("xopd-lab ")]
    assert len(commands) >= 5
    parser = build_parser()
    for command in commands:
        try:
            parser.parse_args(shlex.split(command)[1:])
        except SystemExit:
            pytest.fail(f"README example does not parse: {command}")
    # Each documented --set key still names a config field.
    overrides = re.findall(r"--set ([^\s`]+)", readme)
    assert len(overrides) >= 3
    for kv in overrides:
        cfg = _load_config(None, [kv])
        _pipeline_config(cfg)
