"""Each module of rothe_hvi declares its public names in ``__all__``, and
every name there is defined: a name left behind when its definition goes
would make ``from rothe_hvi.<module> import *`` fail with AttributeError."""

from __future__ import annotations

import importlib
import pkgutil

import pytest

import rothe_hvi

MODULES = sorted(info.name for info in pkgutil.iter_modules(rothe_hvi.__path__))


def test_the_package_has_the_modules_it_is_known_by():
    assert {"cli", "galerkin", "inclusion_solver", "stepper"} <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_every_name_in_a_modules_all_exists_and_star_imports(name):
    module = importlib.import_module(f"rothe_hvi.{name}")
    exported = module.__all__
    assert len(set(exported)) == len(exported), f"rothe_hvi.{name}.__all__ repeats a name"
    assert [n for n in exported if not hasattr(module, n)] == []
    namespace: dict = {}
    exec(f"from rothe_hvi.{name} import *", namespace)
    assert set(exported) <= namespace.keys()
