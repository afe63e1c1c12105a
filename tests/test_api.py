"""Every exported name resolves and is public, and so do its annotations."""

import importlib
import inspect
import pkgutil
import typing

import pytest

import seiffert_bounds

MODULES = [seiffert_bounds] + [
    importlib.import_module(f"seiffert_bounds.{info.name}")
    for info in pkgutil.iter_modules(seiffert_bounds.__path__)
]


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_all_resolves_to_public_names(module):
    names = module.__all__
    assert len(names) == len(set(names))
    for name in names:
        assert hasattr(module, name), name
        assert not name.startswith("_") or (name.startswith("__") and name.endswith("__")), name
        obj = getattr(module, name)
        for member in vars(obj).values() if inspect.isclass(obj) else [obj]:
            fn = getattr(member, "__func__", member)  # a classmethod's or staticmethod's function
            if inspect.isfunction(fn):
                typing.get_type_hints(fn)
