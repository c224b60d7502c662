"""Every ``repro`` subpackage imports, and every name it exports resolves.

A deleted module or a renamed symbol that a package ``__init__`` still
re-exports only fails on ``from repro.x import *`` or on first use;
this check catches it at import time for every subpackage at once.
"""

import importlib
import pkgutil

import pytest

import repro

SUBPACKAGES = sorted(
    info.name for info in pkgutil.walk_packages(repro.__path__, "repro.")
    if info.ispkg)


def test_subpackages_found():
    assert "repro.sim" in SUBPACKAGES
    assert "repro.telemetry" in SUBPACKAGES


@pytest.mark.parametrize("name", SUBPACKAGES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", None)
    assert exported, f"{name} has no __all__"
    assert len(exported) == len(set(exported)), f"{name}: duplicate names"
    missing = [attr for attr in exported if not hasattr(module, attr)]
    assert not missing, f"{name}.__all__ names missing attributes: {missing}"
