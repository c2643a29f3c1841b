import importlib
import inspect
import pkgutil

import pytest

import bilop

MODULES = ["bilop"] + [f"bilop.{m.name}" for m in pkgutil.iter_modules(bilop.__path__)]


@pytest.mark.parametrize("module", MODULES)
def test_all_names_resolve(module):
    mod = importlib.import_module(module)
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert not missing, f"{module}.__all__ names missing attributes: {missing}"


@pytest.mark.parametrize("module", MODULES)
def test_all_lists_public_definitions(module):
    mod = importlib.import_module(module)
    defined = [
        name
        for name, obj in vars(mod).items()
        if not name.startswith("_")
        and (inspect.isfunction(obj) or inspect.isclass(obj))
        and obj.__module__ == module
    ]
    unlisted = [name for name in defined if name not in mod.__all__]
    assert not unlisted, f"{module} defines public names missing from __all__: {unlisted}"


@pytest.mark.parametrize("module", MODULES)
def test_all_lists_no_modules(module):
    mod = importlib.import_module(module)
    modules = [name for name in mod.__all__ if inspect.ismodule(getattr(mod, name, None))]
    assert not modules, f"{module}.__all__ lists modules: {modules}"
