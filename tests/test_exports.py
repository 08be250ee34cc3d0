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


def test_package_exports_every_module_list_once():
    # cli's main is the console entry point, not a package export
    modules = [
        importlib.import_module(name)
        for name in MODULES
        if name not in ("s3and", "s3and.cli")
    ]
    joined = [n for module in modules for n in module.__all__]
    assert sorted(joined) == sorted(set(joined))
    assert sorted(s3and.__all__) == sorted(joined + ["__version__"])
    for module in modules:
        assert all(getattr(s3and, n) is getattr(module, n) for n in module.__all__)
