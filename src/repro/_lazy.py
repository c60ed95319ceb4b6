"""Lazy package exports (PEP 562).

A package lists which submodule each exported name lives in and calls
:func:`attach`; the submodule is imported on the first access of one of its
names (``repro.core.simulate``, ``from repro.core import simulate``,
``from repro import *``), and the value is then bound on the package so
later accesses are plain attribute reads.  ``import repro.experiments``
thereby loads the planning layer only: a warm replay, every cell of which
is a result-store hit, never imports a kernel, a cache model or a workload
generator.
"""

from __future__ import annotations

import functools
import importlib
import sys
import types
from typing import Callable, Iterable

__all__ = ["attach", "load_all"]


class _LazyPackage(types.ModuleType):
    """A package whose exported names win over same-named submodules.

    The import system binds every loaded submodule on its package, so
    loading ``repro.core.dispatch`` would otherwise replace the exported
    function ``repro.core.dispatch`` with its module.
    """

    def __setattr__(self, name: str, value) -> None:
        if isinstance(value, types.ModuleType) and name in self.__dict__.get("_lazy_where", ()):
            return
        super().__setattr__(name, value)


def attach(
    package: str,
    exports: dict[str, Iterable[str]],
    subpackages: Iterable[str] = (),
    complete: Iterable[str] = (),
) -> tuple[Callable[[str], object], Callable[[], list[str]]]:
    """The ``(__getattr__, __dir__)`` pair of ``package``.

    ``exports`` maps a submodule (relative name) to the names the package
    re-exports from it; ``subpackages`` are exported as modules.  Resolving
    a name in ``complete`` (a registry that submodules fill as they load)
    first loads every export, see :func:`load_all`.
    """
    module = sys.modules[package]
    where = {name: sub for sub, names in exports.items() for name in names}
    subpackages, complete = tuple(subpackages), frozenset(complete)
    module._lazy_where = where
    module._lazy_submodules = tuple(dict.fromkeys([*where.values(), *subpackages]))
    module.__class__ = _LazyPackage

    def __getattr__(name: str):
        if name in subpackages:
            return importlib.import_module(f"{package}.{name}")
        if name not in where:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        if name in complete:
            load_all(package)
        value = getattr(importlib.import_module(f"{package}.{where[name]}"), name)
        setattr(module, name, value)
        return value

    def __dir__() -> list[str]:
        return sorted(set(vars(module)) | set(where) | set(subpackages))

    return __getattr__, __dir__


@functools.cache
def load_all(package: str) -> None:
    """Import every submodule ``package`` exports from, and the same for
    each lazy subpackage (the modules whose import registers a workload
    or a scheme, for instance); once per package."""
    for sub in vars(importlib.import_module(package)).get("_lazy_submodules", ()):
        load_all(f"{package}.{sub}")
