"""Layout guards.

* Every module of the package imports at module top. The shared types
  (``Prompt``, ``Trajectory``, the modality names) live in
  ``xopd_lab.model``, so no module needs an import inside a function to get
  round an import cycle.
* ``tests/oracles.py`` imports nothing from the package, so its references
  are independent of the code they check.
* Every top-level function and class of the package is named by package
  code: reference paths that only tests call belong in ``tests/oracles.py``.
* Every ``int`` field of a config dataclass rejects a float and a bool, and
  every ``float`` field a bool, NaN and +-inf, so a field added later cannot
  skip the type check.
* Only ``init_backbone_params`` and ``backbone_logits`` name the per-layer
  parameters, so the transformer block is written once.
* Only ``model.backbone_logits`` calls the layout ops ``pad_rows`` and
  ``unpad_rows``, so every other layer sees packed rows and the padded
  layout stays around attention.
* Only ``rollout.rollout_pairs`` reads ``.trajectories``, so the losses see
  the rollouts as one flat list of (example, trajectory) pairs and the
  nested record cannot leak back into them.
* Every option of every CLI subcommand is read as ``args.<dest>`` by that
  subcommand's ``cmd_*`` function, so the CLI offers no option that does
  nothing.
* Only ``pipeline.method_config`` builds a ``TrainConfig``, so the trend
  seeds, the ablation grid and the ``train`` command run one recipe.
* Exactly one package function names ``"resolved_config.json"``, and none
  names ``"pipeline_config.json"``, so an output directory holds one config
  record, written one way.
* Only ``evaluation.comparison_table_csv`` joins CSV cells, so every table
  the lab writes has one format.
"""

import argparse
import ast
import dataclasses
import inspect
import math
import re
from pathlib import Path

import pytest

from xopd_lab.cli import build_parser
from xopd_lab.corpus import SpeechCodec
from xopd_lab.errors import ConfigurationError
from xopd_lab.model import ModelConfig
from xopd_lab.pipeline import PipelineConfig
from xopd_lab.trainer import GapConfig, PretrainConfig, TrainConfig

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "xopd_lab"


def _imports_inside_functions(path: Path) -> set[str]:
    tree = ast.parse(path.read_text(), filename=str(path))
    hits = set()
    for fn in ast.walk(tree):
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for node in ast.walk(fn):
                if isinstance(node, (ast.Import, ast.ImportFrom)):
                    hits.add(f"{path.name}:{node.lineno}")
    return hits


def test_no_import_inside_a_function_or_method():
    modules = sorted(PACKAGE.glob("*.py"))
    assert modules
    hits = sorted(h for path in modules for h in _imports_inside_functions(path))
    assert hits == [], f"imports inside functions: {hits}"


def test_oracles_import_nothing_from_the_package():
    tree = ast.parse((ROOT / "tests" / "oracles.py").read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.name for a in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.add(node.module or "")
    assert imported, "expected oracles.py to import something"
    assert not any(m.split(".")[0] == "xopd_lab" for m in imported), sorted(imported)


def _entry_points() -> set[str]:
    """``module.name`` of each ``xopd_lab.module:name`` entry point, e.g. ``cli.main``."""
    pyproject = (ROOT / "pyproject.toml").read_text()
    return {f"{m}.{n}" for m, n in re.findall(r'"xopd_lab\.(\w+):(\w+)"', pyproject)}


def test_every_top_level_definition_is_named_by_package_code():
    defined: dict[str, str] = {}
    named: set[str] = set()
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined[f"{path.stem}.{node.name}"] = node.name
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                named.add(node.id)
            elif isinstance(node, ast.Attribute):
                named.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                named.update(a.name for a in node.names)
    assert defined
    unused = sorted(
        key for key, name in defined.items() if name not in named and key not in _entry_points()
    )
    assert unused == [], f"defined in the package but named only outside it: {unused}"


CONFIGS = (ModelConfig, TrainConfig, PretrainConfig, GapConfig, PipelineConfig, SpeechCodec)


def _typed_fields(cls, kind) -> list[str]:
    return [f.name for f in dataclasses.fields(cls) if f.type in (kind.__name__, kind)]


@pytest.mark.parametrize("cls", CONFIGS, ids=lambda c: c.__name__)
def test_every_int_and_float_config_field_rejects_the_wrong_type(cls):
    ints, floats = _typed_fields(cls, int), _typed_fields(cls, float)
    assert ints, f"{cls.__name__} has no int field"
    cases = [(name, bad) for name in ints for bad in (1.5, True)]
    cases += [(name, bad) for name in floats for bad in (True, math.nan, math.inf, -math.inf)]
    for name, bad in cases:
        with pytest.raises(ConfigurationError, match=name):
            cls(**{name: bad})


def test_only_the_backbone_names_the_per_layer_parameters():
    layer_key = re.compile(r"\.(attn|mlp|ln1|ln2)\.")
    namers = set()
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for fn in ast.walk(tree):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for node in ast.walk(fn):
                if isinstance(node, ast.Constant) and isinstance(node.value, str):
                    if layer_key.search(node.value):
                        namers.add(f"{path.stem}.{fn.name}")
    assert namers == {"model.init_backbone_params", "model.backbone_logits"}, sorted(namers)


def test_only_the_backbone_pads():
    callers = set()
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for fn in tree.body:
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            for node in ast.walk(fn):
                if isinstance(node, ast.Call):
                    f = node.func
                    name = f.attr if isinstance(f, ast.Attribute) else getattr(f, "id", None)
                    if name in ("pad_rows", "unpad_rows"):
                        callers.add(f"{path.stem}.{fn.name}")
    assert callers == {"model.backbone_logits"}, sorted(callers)


def test_only_rollout_pairs_reads_the_nested_rollout_record():
    readers = set()
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for top in tree.body:
            for node in ast.walk(top):
                if isinstance(node, ast.Attribute) and node.attr == "trajectories":
                    readers.add(f"{path.stem}.{getattr(top, 'name', '<module>')}")
    assert readers == {"rollout.rollout_pairs"}, sorted(readers)


def test_every_cli_option_is_read_by_its_command():
    (subparsers,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    unread = {}
    for name, sub in subparsers.choices.items():
        func = sub.get_default("func")
        read = {
            node.attr for node in ast.walk(ast.parse(inspect.getsource(func)))
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id == "args"
        }
        missing = sorted(a.dest for a in sub._actions if a.dest != "help" and a.dest not in read)
        if missing:
            unread[name] = missing
    assert unread == {}, unread


def test_only_method_config_builds_a_train_config():
    builders = set()
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for top in tree.body:
            for node in ast.walk(top):
                if not isinstance(node, ast.Call):
                    continue
                f = node.func
                name = f.attr if isinstance(f, ast.Attribute) else getattr(f, "id", None)
                built = node.args[0] if name == "_build" and node.args else f
                if getattr(built, "id", getattr(built, "attr", None)) == "TrainConfig":
                    builders.add(f"{path.stem}.{getattr(top, 'name', '<module>')}")
    assert builders == {"pipeline.method_config"}, sorted(builders)


def _functions_naming(text: str) -> set[str]:
    """``module.function`` of each top-level package function or method
    holding the string constant ``text``."""
    namers = set()
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for fn in ast.walk(tree):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if any(isinstance(n, ast.Constant) and n.value == text for n in ast.walk(fn)):
                    namers.add(f"{path.stem}.{fn.name}")
    return namers


def test_one_function_writes_the_config_record():
    assert len(_functions_naming("resolved_config.json")) == 1, _functions_naming("resolved_config.json")
    assert _functions_naming("pipeline_config.json") == set()


def test_only_the_comparison_table_joins_csv_cells():
    joiners = set()
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for top in tree.body:
            for node in ast.walk(top):
                f = getattr(node, "func", None)
                if isinstance(f, ast.Attribute) and f.attr == "join" and getattr(f.value, "value", None) == ",":
                    joiners.add(f"{path.stem}.{getattr(top, 'name', '<module>')}")
    assert joiners == {"evaluation.comparison_table_csv"}, sorted(joiners)
