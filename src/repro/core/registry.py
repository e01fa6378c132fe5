"""One registry for every pluggable strategy, resolvable by name.

A strategy *kind* (``"split"``, ``"deletion"``, ``"planner"``,
``"repair"``) maps names to factories, and :meth:`StrategyRegistry.resolve`
turns whatever the user supplied — a registry name (any case), a
strategy class, an already-built instance, or ``None`` — into the
instance the cleaning loops run.  :meth:`StrategyRegistry.name_of` maps
an instance back to its name, for the shard wire.

Names resolve case-insensitively, so the capitalised names the
experiments print (``"MinCut"``, ``"QOCO-"``) and the lowercase config
spellings (``QOCOConfig(split="mincut")``) land on the same entry.

Strategy modules register themselves at import time; kinds whose
modules may not be imported yet (e.g. ``repro.plan`` registering the
``"bandit"`` planner) are listed in :data:`_KIND_MODULES` and imported
lazily on the first miss.
"""

from __future__ import annotations

import importlib
import threading
from typing import Any, Callable, Iterable, Optional


class RegistryError(ValueError):
    """An unknown strategy name or kind was requested."""


class StrategyRegistry:
    """kind -> name -> factory, with string/instance/class resolution."""

    def __init__(self) -> None:
        self._entries: dict[str, dict[str, Callable[[], Any]]] = {}
        self._display: dict[str, dict[str, str]] = {}
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    # registration
    # ------------------------------------------------------------------
    def register(
        self,
        kind: str,
        name: str,
        factory: Callable[[], Any],
        *,
        aliases: Iterable[str] = (),
    ) -> None:
        """Register *factory* under ``kind``/``name`` (plus *aliases*).

        *factory* is any zero-argument callable — usually the strategy
        class itself.  Re-registering a name overwrites it (last wins),
        which keeps module reloads harmless.
        """
        with self._lock:
            table = self._entries.setdefault(kind, {})
            display = self._display.setdefault(kind, {})
            for label in (name, *aliases):
                table[label.lower()] = factory
                display[label.lower()] = name
            display[name.lower()] = name

    # ------------------------------------------------------------------
    # lookup
    # ------------------------------------------------------------------
    def kinds(self) -> list[str]:
        with self._lock:
            return sorted(self._entries)

    def names(self, kind: str) -> list[str]:
        """The canonical registered names for *kind* (sorted)."""
        self._ensure_kind(kind)
        with self._lock:
            return sorted(set(self._display.get(kind, {}).values()))

    def resolve(self, kind: str, spec: Any) -> Any:
        """Turn *spec* into a strategy instance.

        * ``None`` passes through (the caller's "use the default");
        * a string is looked up case-insensitively under *kind*;
        * a class is instantiated with no arguments;
        * anything else is assumed to already be an instance.
        """
        if spec is None:
            return None
        if isinstance(spec, str):
            factory = self._lookup(kind, spec)
            return factory()
        if isinstance(spec, type):
            return spec()
        return spec

    def name_of(self, kind: str, instance: Any) -> Optional[str]:
        """The canonical name that rebuilds *instance*, or ``None``.

        A name maps back only when its factory is the instance's class
        and ``factory()`` builds an object in the same state (see
        :meth:`_same_state`): ``ProvenanceSplit()`` is ``"provenance"``,
        but ``ProvenanceSplit(fallback=MinCutSplit())`` has no name,
        because the name would rebuild a different fallback.  A name
        bound to any other factory (e.g. a lambda supplying constructor
        arguments) would rebuild a different object too.
        """
        self._ensure_kind(kind)
        with self._lock:
            candidates = [
                (self._display[kind][key], factory)
                for key, factory in self._entries.get(kind, {}).items()
                if factory is type(instance)
            ]
        for name, factory in candidates:
            if self._same_state(instance, factory()):
                return name
        return None

    def _same_state(self, first: Any, second: Any) -> bool:
        """Same type and equal ``vars()``; values that are registered
        strategies are compared the same way, anything else by ``==``."""
        if type(first) is not type(second):
            return False
        mine, theirs = vars(first), vars(second)
        if mine.keys() != theirs.keys():
            return False
        return all(
            self._same_state(value, theirs[key])
            if self._is_strategy(value)
            else value == theirs[key]
            for key, value in mine.items()
        )

    def _is_strategy(self, value: Any) -> bool:
        """Whether *value*'s class is a registered factory of any kind."""
        with self._lock:
            return any(
                factory is type(value)
                for table in self._entries.values()
                for factory in table.values()
            )

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _lookup(self, kind: str, name: str) -> Callable[[], Any]:
        key = name.lower()
        with self._lock:
            factory = self._entries.get(kind, {}).get(key)
        if factory is not None:
            return factory
        self._ensure_kind(kind)
        with self._lock:
            factory = self._entries.get(kind, {}).get(key)
        if factory is not None:
            return factory
        known = self.names(kind) if kind in self._entries else []
        raise RegistryError(
            f"unknown {kind} strategy {name!r}; registered names: {known}"
        )

    def _ensure_kind(self, kind: str) -> None:
        """Import the modules that register *kind*'s built-ins."""
        for module in _KIND_MODULES.get(kind, ()):
            importlib.import_module(module)


#: Modules that register each kind's built-in strategies on import.
#: Resolution imports them lazily so the registry itself stays a leaf
#: module (no import cycles with the strategy modules it serves).
_KIND_MODULES: dict[str, tuple[str, ...]] = {
    "split": ("repro.core.split",),
    "deletion": ("repro.core.deletion", "repro.core.heuristics"),
    "planner": ("repro.plan.planner",),
    "repair": ("repro.constraints.repairer",),
}

#: The process-wide registry every strategy module registers into.
REGISTRY = StrategyRegistry()


def resolve_strategy(kind: str, spec: Any) -> Any:
    """Module-level convenience for :meth:`StrategyRegistry.resolve`."""
    return REGISTRY.resolve(kind, spec)


__all__ = ["REGISTRY", "RegistryError", "StrategyRegistry", "resolve_strategy"]
