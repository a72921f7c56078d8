"""Every console entry point declared in pyproject.toml must resolve."""

import importlib
from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")  # standard library from Python 3.11

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def test_entry_points_resolve():
    project = tomllib.loads(PYPROJECT.read_text())["project"]
    assert project["name"] == "memsc"
    for name, target in project.get("scripts", {}).items():
        module, _, attr = target.partition(":")
        obj = importlib.import_module(module.strip())
        for part in attr.strip().split("."):
            obj = getattr(obj, part)
        assert callable(obj), name
