"""Every name a module exports through ``__all__`` must exist."""

import importlib
import pkgutil

import pytest

import nlsgrowth

MODULES = sorted(
    info.name for info in pkgutil.walk_packages(nlsgrowth.__path__, "nlsgrowth.")
)


@pytest.mark.parametrize("module_name", MODULES)
def test_all_names_resolve(module_name):
    module = importlib.import_module(module_name)
    exported = getattr(module, "__all__", ())
    missing = [name for name in exported if not hasattr(module, name)]
    assert not missing, f"{module_name}.__all__ names missing: {missing}"


def test_modules_discovered():
    assert "nlsgrowth.errors" in MODULES
    assert "nlsgrowth.harness.cli" in MODULES
