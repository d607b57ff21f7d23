"""Lazy package exports (PEP 562): a package's public names, paid for on use.

Every package ``__init__`` under :mod:`repro` is a docstring plus one call::

    __getattr__, __dir__, __all__ = lazy_exports(
        __name__, {"mapping": "Mapping enumerate_mappings", "cost": "MigrationCostModel"}
    )

The table maps a submodule to the public names it defines.  Nothing is
imported until a name is first asked for (``from pkg import X``, ``pkg.X``
and ``from pkg import *`` all land in ``__getattr__``); the value is then
stored on the package, so the hook runs once per name.  A process that opens
one executor therefore loads that executor's modules and not the other four,
the grid simulator or the planner — see "What importing costs" in
``docs/backends.md``.
"""

from __future__ import annotations

import sys
from typing import Callable


def lazy_exports(
    package: str, table: dict[str, str]
) -> tuple[Callable[[str], object], Callable[[], list[str]], list[str]]:
    """``(__getattr__, __dir__, __all__)`` for ``package``.

    ``table`` is ``{submodule: "Name other_name ..."}``, submodules relative
    to ``package`` (a dotted path reaches into a sub-package).
    """
    home = {name: sub for sub, names in table.items() for name in names.split()}

    def __getattr__(name: str) -> object:
        try:
            submodule = home[name]
        except KeyError:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}"
            ) from None
        module = f"{package}.{submodule}"
        __import__(module)  # not import_module: -X importtime only times this entry
        value = getattr(sys.modules[module], name)
        setattr(sys.modules[package], name, value)
        return value

    def __dir__() -> list[str]:
        return sorted(home.keys() | vars(sys.modules[package]).keys())

    return __getattr__, __dir__, sorted(home)
