"""The benchmark's trace points still name the functions the package calls.

`perfbench/tracing.py` replaces each traced function at every module
attribute listed in its `LAYERS` table.  When a refactor rebinds one of
those names, the benchmark only prints a warning and that layer reads 0,
so this test pins every listed attribute to the owner's function.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _layers():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.LAYERS


LAYERS = _layers()


@pytest.mark.parametrize("name", sorted(LAYERS))
def test_every_listed_module_binds_the_owner_function(name):
    owner, attr = name.rsplit(".", 1)
    fn = getattr(importlib.import_module(f"stochshift.{owner}"), attr)
    for mod_name in LAYERS[name][0]:
        mod = importlib.import_module(f"stochshift.{mod_name}")
        assert getattr(mod, attr, None) is fn, f"stochshift.{mod_name}.{attr} is not {name}"
