"""Every exported name resolves and is public."""

import importlib
import pkgutil

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
