"""Every name a module exports in ``__all__`` exists, and every package re-export is in one."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import stochshift

MODULES = [
    name
    for _, name, _ in pkgutil.iter_modules(stochshift.__path__)
    if hasattr(importlib.import_module(f"stochshift.{name}"), "__all__")
]


def test_modules_with_all_found():
    assert {"core", "kernels", "clustering", "metrics", "synthdata", "experiments"} <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(f"stochshift.{name}")
    assert len(set(module.__all__)) == len(module.__all__), f"stochshift.{name}.__all__ repeats a name"
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert not missing, f"stochshift.{name}.__all__ names missing attributes: {missing}"


def test_package_reexports_are_listed_in_their_modules_all():
    # the package's names come from ``from .module import ...`` lines; each
    # must be in that module's __all__, so retiring a name edits both lists
    tree = ast.parse(Path(stochshift.__file__).read_text())
    unlisted = [
        f"{node.module}.{alias.name}"
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for alias in node.names
        if alias.name not in importlib.import_module(f"stochshift.{node.module}").__all__
    ]
    assert not unlisted, f"re-exported by stochshift but not in their module's __all__: {unlisted}"
