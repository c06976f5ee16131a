"""Every exported name resolves, and every module the benchmark traces imports."""

import ast
import importlib
import pkgutil
import sys
from pathlib import Path

import pytest

import robustwork

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
from layers import LAYERS  # noqa: E402

MODULES = sorted(set(LAYERS) | {m.name for m in pkgutil.iter_modules(robustwork.__path__)})


@pytest.mark.parametrize("name", MODULES)
def test_module_imports_and_its_all_resolves(name):
    module = importlib.import_module(f"robustwork.{name}")
    assert [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)] == []


def test_package_names_are_the_module_objects():
    tree = ast.parse(Path(robustwork.__file__).read_text(encoding="utf-8"))
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom)]
    assert imports
    for node in imports:
        module = importlib.import_module(f"robustwork.{node.module}")
        for alias in node.names:
            assert getattr(robustwork, alias.asname or alias.name) is getattr(module, alias.name)
