"""Invoker nodes: the machines containers are placed on.

Each node has a fixed memory budget.  Idle (warm) containers keep holding
memory until evicted by TTL or by pressure from a new placement — this is
what makes warm-start behaviour and cluster capacity interact the way the
paper's elasticity experiment (§6.2) exercises.
"""

from __future__ import annotations

import threading
from typing import Iterator, Optional

from repro.faas.action import Action
from repro.faas.container import Container


class Placement:
    """Result of a successful placement on a node."""

    __slots__ = ("container", "cold", "needs_pull")

    def __init__(self, container: Container, cold: bool, needs_pull: bool) -> None:
        self.container = container
        self.cold = cold
        self.needs_pull = needs_pull


class InvokerNode:
    """One node of the Cloud Functions cluster.

    ``container_ids`` numbers the containers the node starts; a platform
    passes one counter to all its nodes, so ids are unique per platform
    and equal across same-seed runs in one process.
    """

    def __init__(
        self,
        node_id: int,
        memory_mb: int,
        warm_idle_ttl: float,
        container_ids: Iterator[int],
    ) -> None:
        self.node_id = node_id
        self._container_ids = container_ids
        self.memory_mb = memory_mb
        self.warm_idle_ttl = warm_idle_ttl
        self._used_mb = 0
        self._idle: dict[str, list[Container]] = {}
        self._cached_images: set[str] = set()
        self._lock = threading.Lock()
        self.cold_starts = 0
        self.warm_starts = 0
        #: scheduled (start, end) windows during which this node accepts no
        #: placements (chaos-plane blackouts); empty by default
        self.blackouts: list[tuple[float, float]] = []
        #: the environment's :class:`~repro.exchange.base.ExchangeBackend`,
        #: or ``None`` outside an environment.  A tier may keep
        #: intermediates in container memory, so every container this node
        #: stops is reported to its ``reclaim_container`` hook.
        self.exchange = None
        # (container_id, reason) pairs evicted under self._lock, reported
        # to the exchange once the lock is released (lock order: node lock
        # strictly before any exchange lock)
        self._doomed_containers: list[tuple[str, str]] = []

    # -- availability --------------------------------------------------------
    def available(self, now: float) -> bool:
        """Whether the node accepts placements at virtual time ``now``."""
        return not any(start <= now < end for start, end in self.blackouts)

    # -- image cache -------------------------------------------------------
    def cache_image(self, runtime: str) -> None:
        with self._lock:
            self._cached_images.add(runtime)

    # -- capacity ------------------------------------------------------------
    def load_fraction(self) -> float:
        """Fraction of this node's memory held by containers (0..1).

        Used by the CPU-contention model: a packed node gives each
        function a smaller compute share.
        """
        with self._lock:
            return self._used_mb / self.memory_mb if self.memory_mb else 0.0

    # -- placement -----------------------------------------------------------
    def try_place_warm(self, action: Action, now: float) -> Optional[Placement]:
        """Reuse a warm idle container of ``action``, if this node has one."""
        placement = None
        with self._lock:
            self._expire_idle_locked(now)
            pool = self._idle.get(action.fqn)
            if pool:
                container = pool.pop()
                container.state = Container.BUSY
                container.last_used = now
                self.warm_starts += 1
                placement = Placement(container, cold=False, needs_pull=False)
        self._flush_doomed_containers()
        return placement

    def _flush_doomed_containers(self) -> None:
        """Report containers evicted while holding the lock to the exchange."""
        if not self._doomed_containers:
            return
        with self._lock:
            doomed, self._doomed_containers = self._doomed_containers, []
        for container_id, reason in doomed:
            self.exchange.reclaim_container(self.node_id, container_id, reason)

    def try_place_cold(self, action: Action, now: float) -> Optional[Placement]:
        """Start a cold container, evicting idle ones (stalest first) for
        room if needed; ``None`` when the node cannot host the activation.

        No warm check: the controller's placement loop tries
        :meth:`try_place_warm` on every node first, mirroring OpenWhisk's
        container pool.
        """
        placement = None
        with self._lock:
            if self._make_room_locked(action.memory_mb, now):
                self._used_mb += action.memory_mb
                container = Container(
                    f"wsk-cont-{next(self._container_ids):06d}",
                    action.fqn, action.runtime, action.memory_mb, now, self.node_id,
                )
                self.cold_starts += 1
                needs_pull = action.runtime not in self._cached_images
                placement = Placement(container, cold=True, needs_pull=needs_pull)
        self._flush_doomed_containers()
        return placement

    def release(self, container: Container, now: float) -> None:
        """Return a finished container to the warm pool."""
        with self._lock:
            container.state = Container.IDLE
            container.last_used = now
            container.activations_served += 1
            self._idle.setdefault(container.action_fqn, []).append(container)

    def discard(self, container: Container, crashed: bool = False) -> None:
        """Destroy a busy container (crash path): frees its memory.

        Any intermediates the container held in the exchange tier die with
        it; readers transparently fall back to a peer copy or to COS.
        """
        with self._lock:
            container.state = Container.CRASHED if crashed else Container.STOPPED
            self._used_mb -= container.memory_mb
        if self.exchange is not None:
            self.exchange.reclaim_container(
                self.node_id,
                container.container_id,
                "crash" if crashed else "stop",
            )

    def _make_room_locked(self, needed_mb: int, now: float) -> bool:
        if self.memory_mb - self._used_mb >= needed_mb:
            return True
        # Evict stalest idle containers until the request fits.
        idle_all = sorted(
            (c for pool in self._idle.values() for c in pool),
            key=lambda c: c.last_used,
        )
        for victim in idle_all:
            self._evict_locked(victim)
            if self.memory_mb - self._used_mb >= needed_mb:
                return True
        return self.memory_mb - self._used_mb >= needed_mb

    def _evict_locked(self, container: Container) -> None:
        pool = self._idle.get(container.action_fqn, [])
        if container in pool:
            pool.remove(container)
            container.state = Container.STOPPED
            self._used_mb -= container.memory_mb
            if self.exchange is not None:
                self._doomed_containers.append(
                    (container.container_id, "reclaim")
                )

    def _expire_idle_locked(self, now: float) -> None:
        for pool in list(self._idle.values()):
            for container in list(pool):
                if now - container.last_used > self.warm_idle_ttl:
                    self._evict_locked(container)
