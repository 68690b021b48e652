"""Containers: the unit of warm/cold execution on an invoker node."""

from __future__ import annotations


class Container:
    """A (simulated) Docker container bound to one action.

    OpenWhisk warms containers per action: after an activation finishes, the
    container parks in the invoker's idle pool and a subsequent activation
    of the *same action* reuses it with no start latency.

    Cached intermediates are tagged with the container that produced (or
    fetched) them: the container's memory is where they physically live, so
    its reclaim — idle eviction, pressure, or a chaos-injected crash —
    drops those entries from the node's cache and readers fall back to a
    peer copy or COS (see :mod:`repro.exchange.cached`).
    """

    IDLE = "idle"
    BUSY = "busy"
    STOPPED = "stopped"
    #: the container died mid-activation (injected crash/hang) — unlike
    #: STOPPED it never returned to the warm pool
    CRASHED = "crashed"

    __slots__ = (
        "container_id", "action_fqn", "runtime", "memory_mb", "created",
        "invoker_id", "state", "last_used", "activations_served",
    )

    def __init__(
        self,
        container_id: str,
        action_fqn: str,
        runtime: str,
        memory_mb: int,
        created: float,
        invoker_id: int,
    ) -> None:
        self.container_id = container_id
        self.action_fqn = action_fqn
        self.runtime = runtime
        self.memory_mb = memory_mb
        self.created = created
        self.invoker_id = invoker_id
        self.state = Container.BUSY
        self.last_used = created
        self.activations_served = 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Container {self.container_id} {self.action_fqn} "
            f"{self.memory_mb}MB {self.state}>"
        )
