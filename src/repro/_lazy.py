"""Bind a package's re-exported names on first use (PEP 562).

A package names each attribute it re-exports with the module that
defines it.  :func:`exports` returns the ``__getattr__``/``__dir__``
pair that imports that module the first time the name is read and
binds the value in the package, so later reads are plain lookups.  A
name whose home is ``<package>.<name>`` is that module itself.
"""

from __future__ import annotations

import importlib


def exports(namespace: dict, homes: dict):
    package = namespace["__name__"]

    def __getattr__(name: str):
        home = homes.get(name)
        if home is None:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        module = importlib.import_module(home)
        value = module if home == f"{package}.{name}" else getattr(module, name)
        namespace[name] = value
        return value

    def __dir__() -> list:
        return sorted(set(namespace) | set(homes))

    return __getattr__, __dir__
