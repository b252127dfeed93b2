"""System registry: EPG* phase 1 ("installing libraries").

The paper's install phase checks out stable forks of each package; here
"installation" is registering a factory.  The registry doubles as the
extension point Sec. V gestures at (adding frameworks to a package
manager): a new system is a :class:`GraphSystem` subclass named in
:data:`ALL_SYSTEM_NAMES` and in :func:`_ensure_builtin`, and then
participates in every experiment.
"""

from __future__ import annotations

from typing import Callable

from repro.errors import ConfigError
from repro.systems.base import GraphSystem

__all__ = ["ALL_SYSTEM_NAMES", "available_systems", "create_system"]

_FACTORIES: dict[str, Callable[..., GraphSystem]] = {}


def _ensure_builtin() -> None:
    """Register every built-in on the first lookup (imported lazily, so
    importing the registry does not import five systems)."""
    if all(name in _FACTORIES for name in ALL_SYSTEM_NAMES):
        return
    from repro.systems.gap import GapSystem
    from repro.systems.graph500 import Graph500System
    from repro.systems.graphbig import GraphBigSystem
    from repro.systems.graphmat import GraphMatSystem
    from repro.systems.powergraph import PowerGraphSystem

    for cls in (GapSystem, Graph500System, GraphBigSystem, GraphMatSystem,
                PowerGraphSystem):
        _FACTORIES.setdefault(cls.name, cls)


def available_systems() -> list[str]:
    """Names of every registered system, built-ins included."""
    _ensure_builtin()
    return sorted(_FACTORIES)


def create_system(name: str, **kwargs) -> GraphSystem:
    """Instantiate a registered system (e.g. ``create_system("gap",
    n_threads=72)``)."""
    _ensure_builtin()
    try:
        factory = _FACTORIES[name]
    except KeyError:
        raise ConfigError(
            f"unknown system {name!r}; available: {available_systems()}"
        ) from None
    return factory(**kwargs)


ALL_SYSTEM_NAMES = ("gap", "graph500", "graphbig", "graphmat", "powergraph")
