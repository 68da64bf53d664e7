"""The one PEP 562 lazy-export helper every package ``__init__`` uses."""

from __future__ import annotations

import importlib
import sys


def attach(package: str, exports: dict[str, list[str]], eager: tuple[str, ...] = ()):
    """``(__getattr__, __dir__, __all__)`` for ``package``.

    ``exports`` maps each submodule to the public names it provides.  A name
    (or a listed submodule) is imported on first attribute access and cached
    on the package, so ``from package import Name`` imports the one submodule
    that defines ``Name`` and ``import package`` imports none.  ``eager``
    names are bound by the package itself and only join ``__all__``.
    """
    origin = {name: submodule for submodule, names in exports.items() for name in names}
    public = sorted({*origin, *eager})

    def __getattr__(name: str):
        if name in origin:
            value = getattr(importlib.import_module(f"{package}.{origin[name]}"), name)
        elif name in exports:
            value = importlib.import_module(f"{package}.{name}")
        else:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        setattr(sys.modules[package], name, value)
        return value

    def __dir__() -> list[str]:
        return sorted({*vars(sys.modules[package]), *public})

    return __getattr__, __dir__, public
