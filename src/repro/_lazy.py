"""Bind a package's re-exported names on first use (PEP 562).

A package names each attribute it re-exports with the module that
defines it.  :func:`exports` returns the ``__getattr__``/``__dir__``
pair that imports that module the first time the name is read and
binds the value in the package, so later reads are plain lookups.  A
name whose home is ``<package>.<name>`` is that module's attribute of
the same name (``repro.kernels.bfs`` -> the function ``bfs``), or the
module itself if it has none.  The import system binds every submodule
on its package under the submodule's name; where an export shares that
name, the package keeps the export.
"""

from __future__ import annotations

import importlib
import sys
import types

#: package name -> its export table, for :func:`modules`
_TABLES: dict = {}


def exports(namespace: dict, homes: dict):
    package = namespace["__name__"]
    _TABLES[package] = homes

    def value(name: str, module):
        if module.__name__ == f"{package}.{name}":
            return getattr(module, name, module)
        return getattr(module, name)

    def __getattr__(name: str):
        home = homes.get(name)
        if home is None:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        namespace[name] = found = value(name, importlib.import_module(home))
        return found

    def __dir__() -> list:
        return sorted(set(namespace) | set(homes))

    class Package(types.ModuleType):
        def __setattr__(self, name, obj):
            if isinstance(obj, types.ModuleType) and homes.get(name) == obj.__name__:
                obj = value(name, obj)
            super().__setattr__(name, obj)

    sys.modules[package].__class__ = Package
    return __getattr__, __dir__


def modules(package: str) -> list:
    """The modules ``package``'s export table names, in table order,
    after importing ``package`` (none for a package that binds eagerly)."""
    importlib.import_module(package)
    return list(dict.fromkeys(_TABLES.get(package, {}).values()))
