"""The memory the tiered backends keep: a byte-budgeted LRU and a hash ring.

:class:`NodeCache` is one node's memory — an invoker node's cache under
``cached-cos``, one store VM under ``vm``.  Two properties matter beyond
plain LRU:

* **Recency is virtual time, not wall order.**  Touches are stamped with
  the kernel clock and eviction picks the minimum ``(last_used, key)``.
  Two entries touched at the same virtual instant order by key, so the
  victim choice — and therefore the whole tier timeline — is a pure
  function of the simulated history, independent of how the OS interleaves
  the real threads that model concurrent functions.  This is what lets
  same-seed tiered runs export byte-identical traces.
* **Entries are tagged with the container that produced (or fetched)
  them.**  Warm-container memory is where the data physically lives, so
  when a container is reclaimed — idle-TTL expiry, pressure eviction, or a
  chaos-injected crash — its entries vanish with it and readers fall back
  to a peer or to COS.

:class:`HashRing` gives every key one deterministic owner node (the VM
cluster's keyspace, Redis-cluster style).  Virtual nodes smooth the
assignment — with ``vnodes`` points per physical node the share each node
owns concentrates around ``1/n`` — and the hash is built on
:func:`hashlib.sha256` of the key text, so the mapping is identical across
processes and runs (independent of ``PYTHONHASHSEED``), which the
byte-identical-trace guarantee relies on.
"""

from __future__ import annotations

import bisect
import hashlib
import threading
from typing import Callable, Optional

__all__ = ["HashRing", "NodeCache"]


class _Entry:
    __slots__ = ("blob", "container_id", "last_used")

    def __init__(self, blob: bytes, container_id: Optional[str], now: float) -> None:
        self.blob = blob
        self.container_id = container_id
        self.last_used = now


class NodeCache:
    """Byte-budgeted LRU cache hosted by one node."""

    def __init__(
        self,
        node_id: int,
        budget_bytes: int,
        clock: Optional[Callable[[], float]] = None,
    ) -> None:
        if budget_bytes < 0:
            raise ValueError("budget_bytes must be non-negative")
        self.node_id = node_id
        self.budget_bytes = int(budget_bytes)
        self._clock = clock or (lambda: 0.0)
        self._entries: dict[str, _Entry] = {}
        self._used = 0
        self._lock = threading.Lock()

    # -- introspection -----------------------------------------------------
    @property
    def used_bytes(self) -> int:
        with self._lock:
            return self._used

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, key: str) -> bool:
        with self._lock:
            return key in self._entries

    def keys(self) -> list[str]:
        with self._lock:
            return sorted(self._entries)

    def peek_size(self, key: str) -> Optional[int]:
        """Size of a resident entry without touching its recency."""
        with self._lock:
            entry = self._entries.get(key)
            return len(entry.blob) if entry is not None else None

    # -- reads -------------------------------------------------------------
    def get(self, key: str) -> Optional[bytes]:
        """The cached blob, refreshing its recency; ``None`` on miss."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                return None
            entry.last_used = self._clock()
            return entry.blob

    # -- writes ------------------------------------------------------------
    def put(
        self, key: str, blob: bytes, container_id: Optional[str]
    ) -> list[tuple[str, int]]:
        """Insert (or refresh) an entry, evicting LRU victims for room.

        Returns the ``(key, size)`` pairs evicted to make space — the
        caller (the backend) deregisters them and emits their trace
        points.  An object larger than the whole budget is not cached at
        all (returning ``[]``): correctness never depends on residency, so
        the write-through copy in COS simply serves alone.
        """
        size = len(blob)
        with self._lock:
            existing = self._entries.pop(key, None)
            if existing is not None:
                self._used -= len(existing.blob)
            if size > self.budget_bytes:
                return []
            evicted: list[tuple[str, int]] = []
            while self._used + size > self.budget_bytes:
                victim = min(
                    self._entries.items(),
                    key=lambda item: (item[1].last_used, item[0]),
                )[0]
                victim_entry = self._entries.pop(victim)
                self._used -= len(victim_entry.blob)
                evicted.append((victim, len(victim_entry.blob)))
            self._entries[key] = _Entry(blob, container_id, self._clock())
            self._used += size
            return evicted

    # -- removal -----------------------------------------------------------
    def drop(self, key: str) -> Optional[int]:
        """Remove one entry; returns its size, or ``None`` if absent."""
        with self._lock:
            entry = self._entries.pop(key, None)
            if entry is None:
                return None
            self._used -= len(entry.blob)
            return len(entry.blob)

    def drop_container(self, container_id: Optional[str]) -> list[tuple[str, int]]:
        """Remove every entry the given container held (reclaim/crash)."""
        with self._lock:
            doomed = sorted(
                key
                for key, entry in self._entries.items()
                if entry.container_id == container_id
            )
            dropped = []
            for key in doomed:
                entry = self._entries.pop(key)
                self._used -= len(entry.blob)
                dropped.append((key, len(entry.blob)))
            return dropped


def _hash64(text: str) -> int:
    """Stable 64-bit position on the ring."""
    digest = hashlib.sha256(text.encode("utf-8", "backslashreplace")).digest()
    return int.from_bytes(digest[:8], "big")


class HashRing:
    """Maps string keys onto ``n_nodes`` integer node ids, consistently.

    Immutable after construction: the emulated cluster has a fixed node
    count, so there is no rebalancing path — what matters here is that
    every participant computes the same owner for the same key.
    """

    def __init__(self, n_nodes: int, vnodes: int = 64) -> None:
        if n_nodes <= 0:
            raise ValueError("n_nodes must be positive")
        if vnodes <= 0:
            raise ValueError("vnodes must be positive")
        self.n_nodes = n_nodes
        self.vnodes = vnodes
        points: list[tuple[int, int]] = []
        for node_id in range(n_nodes):
            for replica in range(vnodes):
                points.append((_hash64(f"node-{node_id}#{replica}"), node_id))
        points.sort()
        self._positions = [p for p, _ in points]
        self._owners = [o for _, o in points]

    def owner(self, key: str) -> int:
        """The node id owning ``key``."""
        position = _hash64(key)
        index = bisect.bisect_right(self._positions, position)
        if index == len(self._positions):
            index = 0
        return self._owners[index]

    def shares(self) -> dict[int, float]:
        """Fraction of the ring each node owns (diagnostics/tests)."""
        totals = dict.fromkeys(range(self.n_nodes), 0)
        span = 2**64
        previous = self._positions[-1] - span
        for position, owner in zip(self._positions, self._owners):
            totals[owner] += position - previous
            previous = position
        return {node: arc / span for node, arc in totals.items()}
