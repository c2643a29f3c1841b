import importlib
import pkgutil

import pytest

import bilop

MODULES = ["bilop"] + [f"bilop.{m.name}" for m in pkgutil.iter_modules(bilop.__path__)]


@pytest.mark.parametrize("module", MODULES)
def test_all_names_resolve(module):
    mod = importlib.import_module(module)
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert not missing, f"{module}.__all__ names missing attributes: {missing}"
