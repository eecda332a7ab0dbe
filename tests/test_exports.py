"""Every exported name resolves: a function deleted but left in an __all__ fails here."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import thermobit

MODULES = sorted(m.name for m in pkgutil.iter_modules(thermobit.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_module_all_resolves(name):
    module = importlib.import_module(f"thermobit.{name}")
    missing = [attr for attr in getattr(module, "__all__", []) if not hasattr(module, attr)]
    assert not missing, f"thermobit.{name}.__all__ names missing attributes: {missing}"


def test_package_imports_are_exported_names():
    """Each name thermobit/__init__.py imports is in its module's __all__ and on the package."""
    tree = ast.parse(Path(thermobit.__file__).read_text(encoding="utf-8"))
    imports = [(node.module, alias.name) for node in tree.body
               if isinstance(node, ast.ImportFrom) for alias in node.names]
    assert imports
    for module_name, name in imports:
        module = importlib.import_module(f"thermobit.{module_name}")
        assert name in module.__all__, f"thermobit.{module_name}.{name}"
        assert getattr(thermobit, name) is getattr(module, name)
