"""Platform limits, mirroring §3 of the paper.

"At the time of this writing, the IBM Cloud Functions service limits
function execution to 600 seconds, 512MB of RAM per function execution, and
a maximum 1,000 concurrent invocations, though the number of concurrent
functions can be increased if needed."
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class SystemLimits:
    """Tunable limits of the emulated platform."""

    #: maximum execution time of a single function (seconds)
    max_exec_seconds: float = 600.0
    #: hard cap on per-action memory (MB)
    max_memory_mb: int = 512
    #: default per-action memory when unspecified (MB)
    default_memory_mb: int = 256
    #: per-namespace concurrent invocations (raisable, as the paper notes)
    max_concurrent: int = 1000
    #: invoker nodes in the cluster
    invoker_count: int = 20
    #: memory per invoker node (MB)
    invoker_memory_mb: int = 102_400
    #: seconds an idle warm container is kept before eviction
    warm_idle_ttl: float = 600.0

    def validate(self) -> None:
        if self.max_exec_seconds <= 0:
            raise ValueError("max_exec_seconds must be positive")
        if not (0 < self.default_memory_mb <= self.max_memory_mb):
            raise ValueError("default_memory_mb must be in (0, max_memory_mb]")
        if self.max_concurrent <= 0:
            raise ValueError("max_concurrent must be positive")
        if self.invoker_count <= 0 or self.invoker_memory_mb <= 0:
            raise ValueError("invoker cluster must have capacity")

    @property
    def cluster_capacity(self) -> int:
        """Upper bound on simultaneously resident default-size containers."""
        per_node = self.invoker_memory_mb // self.default_memory_mb
        return per_node * self.invoker_count
