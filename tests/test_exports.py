"""Every name the package and its modules export resolves."""

import importlib
import pkgutil

import pytest

import s3and

MODULES = ["s3and"] + [
    f"s3and.{m.name}" for m in pkgutil.iter_modules(s3and.__path__) if m.name != "__main__"
]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    assert [n for n in module.__all__ if not hasattr(module, n)] == []
