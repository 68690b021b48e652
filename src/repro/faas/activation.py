"""Activation records: one per function invocation, like OpenWhisk's."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional


class ActivationStatus:
    """Terminal states of an activation."""

    SUCCESS = "success"
    ERROR = "error"
    TIMEOUT = "timeout"

    ALL = (SUCCESS, ERROR, TIMEOUT)


@dataclass(slots=True)
class ActivationRecord:
    """Everything the platform knows about one invocation.

    Timestamps are virtual-time seconds.  ``start_time`` is when the handler
    began executing (after any cold start); ``submit_time`` is when the
    controller accepted the request; the difference is the platform-side
    wait (scheduling + container provisioning).
    """

    activation_id: str
    namespace: str
    action_name: str
    submit_time: float
    #: when the fair dispatcher released this invocation to placement
    #: (multi-tenant regions only; ``None`` on the legacy direct path)
    dispatch_time: Optional[float] = None
    start_time: Optional[float] = None
    end_time: Optional[float] = None
    cold_start: bool = False
    image_pulled: bool = False
    invoker_id: Optional[int] = None
    container_id: Optional[str] = None
    status: Optional[str] = None
    result: Any = None
    error: Optional[str] = None
    #: (virtual timestamp, message) pairs from ``ctx.log()``: a list made
    #: at first access (see ``__getattr__``), as records live for the
    #: whole run and most never log
    logs: list[tuple[float, str]] = field(init=False)

    def __getattr__(self, name: str) -> Any:
        # called only for an unset slot: ``logs`` before its first access
        if name != "logs":
            raise AttributeError(
                f"{type(self).__name__!r} object has no attribute {name!r}"
            )
        logs = self.logs = []
        return logs

    @property
    def finished(self) -> bool:
        return self.status is not None

    @property
    def wait_time(self) -> Optional[float]:
        if self.start_time is None:
            return None
        return self.start_time - self.submit_time

    @property
    def duration(self) -> Optional[float]:
        if self.start_time is None or self.end_time is None:
            return None
        return self.end_time - self.start_time

    def interval(self) -> tuple[float, float]:
        """(start, end) execution interval; requires a finished activation."""
        if self.start_time is None or self.end_time is None:
            raise ValueError(f"activation {self.activation_id} not finished")
        return (self.start_time, self.end_time)
