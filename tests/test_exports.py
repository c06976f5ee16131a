"""Every exported name resolves, and every module the benchmark traces imports."""

import ast
import importlib
import inspect
import pkgutil
import sys
from pathlib import Path

import pytest

import robustwork

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import layers  # noqa: E402
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


def _unresolved(names) -> list[str]:
    """Span names "module.function" that no traced function of robustwork
    carries: the tracer names a span after a public, non-class callable
    defined in the module it is read from."""
    missing = []
    for name in names:
        module_name, attr = name.split(".")
        module = importlib.import_module(f"robustwork.{module_name}")
        obj = getattr(module, attr, None)
        if not (callable(obj) and not inspect.isclass(obj)
                and getattr(obj, "__module__", None) == module.__name__):
            missing.append(name)
    return missing


@pytest.mark.parametrize("group", ["SERIALIZE", "RECHECK", "BUILD", "VALIDATE", "SOLVE_SPAN"])
def test_per_layer_span_names_resolve(group):
    # a renamed function would silently zero the per-layer metric built on it
    names = getattr(layers, group)
    assert _unresolved([names] if isinstance(names, str) else names) == []


@pytest.mark.xfail(strict=True, reason="perfbench CHECKS still names "
                   "thermo.rank1_work_summary, which robustwork no longer defines")
def test_check_span_names_resolve():
    assert _unresolved(layers.CHECKS) == []


def _unused_imports(path: Path) -> list[str]:
    """Names a module imports at module level and never reads, nor lists in ``__all__``."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            imported.update({(a.asname or a.name).split(".")[0]: node.lineno for a in node.names})
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update({a.asname or a.name: node.lineno for a in node.names})
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    used |= {item.value for node in tree.body if isinstance(node, ast.Assign)
             and any(getattr(t, "id", None) == "__all__" for t in node.targets)
             for item in node.value.elts}
    return [f"{path.name}:{line} {name}" for name, line in imported.items() if name not in used]


@pytest.mark.parametrize("path", sorted(p for p in Path(robustwork.__file__).parent.glob("*.py")
                                        if p.name != "__init__.py"), ids=lambda p: p.stem)
def test_module_imports_only_names_it_uses(path):
    assert _unused_imports(path) == []
