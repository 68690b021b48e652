"""Actions (deployed functions) and namespaces."""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.faas.errors import ActionNotFound

#: Signature of an action handler: (params, context) -> result.
Handler = Callable[[dict[str, Any], Any], Any]


@dataclass(frozen=True)
class Action:
    """A deployed function.

    ``handler`` is a real Python callable — the platform genuinely executes
    it inside an emulated container task, receiving the invocation params
    and an :class:`~repro.faas.controller.ExecutionContext`.
    """

    namespace: str
    name: str
    handler: Handler
    runtime: str
    memory_mb: int
    timeout_s: float
    #: fully qualified name, e.g. ``guest/pywren_runner``: built once and
    #: shared by every container of the action
    fqn: str = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "fqn", f"{self.namespace}/{self.name}")


class Namespace:
    """A per-tenant collection of actions."""

    def __init__(self, name: str) -> None:
        self.name = name
        self._actions: dict[str, Action] = {}
        self._lock = threading.Lock()

    def put(self, action: Action) -> None:
        with self._lock:
            self._actions[action.name] = action

    def get(self, action_name: str) -> Action:
        with self._lock:
            try:
                return self._actions[action_name]
            except KeyError:
                raise ActionNotFound(f"{self.name}/{action_name}") from None

    def delete(self, action_name: str) -> None:
        with self._lock:
            if action_name not in self._actions:
                raise ActionNotFound(f"{self.name}/{action_name}")
            del self._actions[action_name]

    def list_actions(self) -> list[str]:
        with self._lock:
            return sorted(self._actions)
