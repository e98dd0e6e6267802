"""Optional-dependency placeholders (the ``repro[numpy]`` and
``repro[graph]`` extras).

The package has no required dependency: the cleaning core — l-sequences,
constraints, both engines, the flat query layer — and constraint
inference from a map, whose walking distances are a stdlib Dijkstra,
run on the standard library alone.  The simulation, calibration and experiment layers use
numpy, an *optional extra*, so those modules bind their ``np``
through::

    try:
        import numpy as np
    except ImportError:  # pragma: no cover - no-numpy environments
        from repro.optional import missing_dependency
        np = missing_dependency("numpy", "repro[numpy]")

Importing the package then never requires numpy — only *calling* into a
numpy-backed feature does, and the failure is a typed
:class:`~repro.errors.ReproError` naming the extra to install instead of
an ``AttributeError`` on ``None``.  networkx is optional the same way:
only :meth:`~repro.core.ctgraph.CTGraph.to_networkx` imports it, when
called, and without the ``repro[graph]`` extra it raises the same typed
error.
"""

from __future__ import annotations

from typing import Any

from repro.errors import ReproError

__all__ = ["MissingDependencyProxy", "missing_dependency"]


class MissingDependencyProxy:
    """Stands in for an optional module that failed to import.

    Falsy, and every attribute access raises :class:`ReproError` naming
    the feature's extra — so the import site stays a one-liner and the
    error surfaces exactly where the dependency is first *used*.
    """

    __slots__ = ("_module", "_extra")

    def __init__(self, module: str, extra: str) -> None:
        self._module = module
        self._extra = extra

    def __getattr__(self, name: str) -> Any:
        raise ReproError(
            f"the optional dependency {self._module!r} is not installed "
            f"(needed for {self._module}.{name}); install the "
            f"{self._extra} extra to enable this feature")

    def __bool__(self) -> bool:
        return False

    def __repr__(self) -> str:
        return (f"MissingDependencyProxy(module={self._module!r}, "
                f"extra={self._extra!r})")


def missing_dependency(module: str, extra: str) -> MissingDependencyProxy:
    """A placeholder for ``module``, installable via ``extra``."""
    return MissingDependencyProxy(module, extra)
