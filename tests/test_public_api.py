"""Every name a module exports in ``__all__`` exists."""

import importlib
import pkgutil

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
