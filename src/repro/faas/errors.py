"""Errors raised by the emulated IBM Cloud Functions platform."""

from __future__ import annotations


class FaaSError(Exception):
    """Base class for platform errors."""


class ActionNotFound(FaaSError):
    """Invocation referenced an action that was never created."""


class NamespaceNotFound(FaaSError):
    """Unknown namespace."""


class ThrottledError(FaaSError):
    """HTTP 429: an invocation was refused for capacity or quota reasons.

    Clients are expected to back off and retry, like IBM-PyWren's client
    does when spawning thousands of functions.  The controller populates
    ``retry_after`` (seconds) from its current load — a ``Retry-After``
    header — and well-behaved clients honor it instead of their own
    backoff schedule.  When a :class:`~repro.faas.tenants.TenantRegistry`
    refuses the call, ``reason`` names the exhausted quota (``"rate"``,
    ``"concurrency"``, ``"memory"`` or ``"queue"``); the legacy
    per-namespace concurrency limit and chaos-injected 429s leave it
    ``None``.
    """

    def __init__(
        self,
        message: str,
        retry_after: float | None = None,
        reason: str | None = None,
    ) -> None:
        super().__init__(message)
        self.retry_after = retry_after
        self.reason = reason


class RuntimeNotFound(FaaSError):
    """The action references a runtime image not present in the registry."""


class ActivationNotFound(FaaSError):
    """Unknown activation id."""
