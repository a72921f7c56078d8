"""Every console entry point and every ``__all__`` name must resolve, every
``__all__`` name is read by the package or the benchmark unless it is a test
oracle, as is every public method and property of an exported class, the
package imports nothing beyond the standard library and numpy, every
parameter of an exported function is read, its dataclasses are frozen
values, and each config's settings and each report's fields are the ones
listed here."""

import ast
import dataclasses
import importlib
import pkgutil
import sys
import types
from pathlib import Path

import pytest

import memsc
from memsc.crossbar import CostReport, TileConfig
from memsc.device import DeviceParams
from memsc.nn.train import MetricsRecord, TrainProtocol
from memsc.optimizer import OptimizerConfig
from memsc.sc import LfsrState

ROOT = Path(__file__).resolve().parents[1]
PYPROJECT = ROOT / "pyproject.toml"
# Public only so that tests can check against it: the one way real MNIST enters.
TEST_ORACLES = {"load_idx"}
# Every setting of every config and the LFSR, in field order: a new setting edits this list.
CONFIG_FIELDS = {
    OptimizerConfig: ("mode", "eta", "gamma", "n_bit", "exec_mode"),
    TrainProtocol: ("epochs", "batch_size", "seed", "eval_every", "run_id"),
    TileConfig: (),
    DeviceParams: ("v_prog", "cell_jitter"),
    LfsrState: ("register",),
}
# Every field of every report, in field order: a report is written out whole,
# so a new field edits this list before it enters a file format.
REPORT_FIELDS = {
    CostReport: ("rram_area_mm2", "xnor_area_mm2", "adder_register_area_mm2",
                 "sense_amp_area_mm2", "total_area_mm2", "p_read_gradient_raw_w",
                 "p_read_weight_raw_w", "p_read_gradient_w", "p_read_weight_w",
                 "total_power_w", "static_power_cap_w"),
    MetricsRecord: ("run_id", "epoch", "minibatch", "train_loss", "test_accuracy",
                    "e_grad_stat", "wall_time_s"),
}


def test_entry_points_resolve():
    tomllib = pytest.importorskip("tomllib")  # standard library from Python 3.11
    project = tomllib.loads(PYPROJECT.read_text())["project"]
    assert project["name"] == "memsc"
    for name, target in project.get("scripts", {}).items():
        module, _, attr = target.partition(":")
        obj = importlib.import_module(module.strip())
        for part in attr.strip().split("."):
            obj = getattr(obj, part)
        assert callable(obj), name


def _modules():
    return [memsc] + [
        importlib.import_module(info.name)
        for info in pkgutil.walk_packages(memsc.__path__, "memsc.")
    ]


def test_module_exports_resolve():
    modules = _modules()
    exported = [(m, name) for m in modules for name in getattr(m, "__all__", ())]
    assert exported
    missing = [f"{m.__name__}.{name}" for m, name in exported if not hasattr(m, name)]
    assert not missing, missing


def _names_read_outside_tests():
    """Every name and attribute that src/ or bench/ loads."""
    read = set()
    for path in sorted((ROOT / "src").rglob("*.py")) + sorted((ROOT / "bench").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
    return read


def test_exports_are_read_outside_tests():
    # a public name only tests read is dead code unless it is an oracle
    read = _names_read_outside_tests()
    exported = {f"{m.__name__}.{name}": name
                for m in _modules() for name in getattr(m, "__all__", ())}
    unread = sorted(full for full, name in exported.items() if name not in read)
    assert {exported[full] for full in unread} == TEST_ORACLES, unread


def test_exported_class_methods_are_read_outside_tests():
    # the check above reads __all__ names only, so a method or property that
    # only tests call (BitStream.ones, zeros and same_bits were) passes it
    read = _names_read_outside_tests()
    checked, unread = 0, []
    for m in _modules():
        for cls_name in getattr(m, "__all__", ()):
            cls = getattr(m, cls_name)
            if not (isinstance(cls, type) and cls.__module__ == m.__name__):
                continue
            for name, attr in vars(cls).items():
                if name.startswith("_") or not isinstance(
                        attr, (property, staticmethod, classmethod, types.FunctionType)):
                    continue
                checked += 1
                if name not in read:
                    unread.append(f"{m.__name__}.{cls_name}.{name}")
    assert checked > 10 and not unread, unread


def test_exported_functions_read_every_parameter():
    # a parameter its function never reads is dead: every caller passes it
    # for nothing, and nothing flags it when the last reader goes
    checked, unread = 0, []
    for path in sorted((ROOT / "src").rglob("*.py")):
        tree = ast.parse(path.read_text())
        exported = {name for node in tree.body if isinstance(node, ast.Assign)
                    and any(getattr(t, "id", None) == "__all__" for t in node.targets)
                    for name in ast.literal_eval(node.value)}
        for node in tree.body:
            if not (isinstance(node, ast.FunctionDef) and node.name in exported):
                continue
            a = node.args
            params = [p.arg for p in a.posonlyargs + a.args + a.kwonlyargs + [a.vararg, a.kwarg]
                      if p is not None]
            loaded = {n.id for stmt in node.body for n in ast.walk(stmt)
                      if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
            checked += 1
            unread += [f"{path.relative_to(ROOT)}::{node.name}({p})"
                       for p in params if p not in loaded]
    assert checked > 10 and not unread, unread


def test_runtime_imports_are_stdlib_numpy_or_memsc():
    # numpy is the only runtime dependency
    allowed = set(sys.stdlib_module_names) | {"numpy", "memsc"}
    package = Path(memsc.__file__).parent
    foreign = []
    for path in sorted(package.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            foreign += [f"{path.relative_to(package)}: {name}" for name in names
                        if name.partition(".")[0] not in allowed]
    assert not foreign, foreign


def test_dataclasses_are_frozen():
    # LfsrState is the one mutable dataclass: its register is its state
    classes = {
        f"{m.__name__}.{name}": obj
        for m in _modules()
        for name, obj in vars(m).items()
        if dataclasses.is_dataclass(obj) and isinstance(obj, type)
        and obj.__module__ == m.__name__
    }
    assert "memsc.sc.BitStream" in classes and "memsc.nn.data.Dataset" in classes
    mutable = sorted(name for name, cls in classes.items() if not cls.__dataclass_params__.frozen)
    assert mutable == ["memsc.sc.LfsrState"]


def test_config_settings_are_pinned():
    # published constants and fixed choices are module constants, not fields
    fields = {cls: tuple(f.name for f in dataclasses.fields(cls)) for cls in CONFIG_FIELDS}
    assert fields == CONFIG_FIELDS


def test_report_fields_are_pinned():
    # a field that no code computes or reads would still be frozen into the format
    fields = {cls: tuple(f.name for f in dataclasses.fields(cls)) for cls in REPORT_FIELDS}
    assert fields == REPORT_FIELDS
