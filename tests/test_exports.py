"""Every exported name is bound: a removal that leaves a stale ``__all__``
entry fails here instead of at a user's ``import *``."""

import importlib
import pkgutil

import dyadicbp

MODULES = [dyadicbp] + [
    importlib.import_module(f"dyadicbp.{info.name}")
    for info in pkgutil.iter_modules(dyadicbp.__path__)
]


def test_every_module_exports_only_bound_names():
    for module in MODULES:
        for name in getattr(module, "__all__", ()):
            assert hasattr(module, name), f"{module.__name__}.__all__ lists unbound {name}"


def test_star_import_binds_the_package_exports():
    namespace = {}
    exec("from dyadicbp import *", namespace)
    assert set(dyadicbp.__all__) <= set(namespace)
