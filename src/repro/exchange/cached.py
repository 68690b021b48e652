"""``CachedCosExchange`` — a write-through memory tier in front of COS.

Each invoker node hosts a byte-budgeted LRU
(:class:`~repro.exchange.memory.NodeCache`, ``cache_node_budget_bytes``)
in the memory of its warm containers, and the backend keeps a holder
directory recording which nodes hold each key.  Writers put to COS first
(durability), then publish into their own node's cache, superseding every
older copy.  An in-cloud read resolves local memory hit (fixed latency +
memory bandwidth) → peer copy (one round trip on the reader's in-cloud
link for consult plus fetch, payload at node-to-node bandwidth) → COS
fallback (the ordinary charged GET); a peer or COS read leaves a copy in
the reader's cache.

Consistency story: the tier is strictly a performance tier.  Any lookup
path may fail or find nothing, in which case the reader transparently
falls back to COS.  Correctness therefore never depends on residency,
which is what lets the chaos plane crash containers (their entries vanish
through :meth:`CachedCosExchange.reclaim_container`) without any recovery
protocol.  The directory metadata itself is free at simulation
granularity: registration piggybacks on the writes producers already make.
"""

from __future__ import annotations

import threading
from typing import Any, Optional

from repro.exchange.base import ExchangeBackend, Site
from repro.exchange.memory import NodeCache
from repro.net.latency import TransientNetworkError
from repro.vtime.kernel import vsleep

__all__ = ["CachedCosExchange"]

#: fixed latency of a local memory hit (seconds)
CACHE_HIT_LATENCY_S = 200e-6
#: local memory streaming bandwidth (bytes/second)
CACHE_MEMORY_BANDWIDTH_BPS = 2 * 1024**3
#: node-to-node transfer bandwidth for peer hits (bytes/second)
CACHE_PEER_BANDWIDTH_BPS = 1 * 1024**3


class CachedCosExchange(ExchangeBackend):
    """COS exchange with per-node memory caches in front of reads."""

    name = "cached-cos"
    provides_locality = True

    def __init__(
        self,
        config: Any,
        n_nodes: int,
        kernel: Any = None,
        tracer: Any = None,
    ) -> None:
        #: the :class:`~repro.config.ExchangeConfig` (``cache_node_budget_bytes``)
        self.config = config
        #: optional :class:`repro.trace.Tracer`; tier traffic is emitted
        #: as ``cache.*`` events on the "cache" layer
        self.tracer = tracer
        clock = kernel.now if kernel is not None else None
        self.nodes = [
            NodeCache(i, config.cache_node_budget_bytes, clock=clock)
            for i in range(n_nodes)
        ]
        self._directory: dict[str, set[int]] = {}
        self._lock = threading.Lock()
        # aggregate read-path counters (virtual seconds + bytes by source)
        self._counters = {
            "local_hits": 0,
            "peer_hits": 0,
            "cos_misses": 0,
            "peer_failures": 0,
            "bytes_from_memory": 0,
            "bytes_from_peers": 0,
            "bytes_from_cos": 0,
            "read_seconds_local": 0.0,
            "read_seconds_peer": 0.0,
            "read_seconds_cos": 0.0,
        }
        self._evictions: dict[str, int] = {}

    # ------------------------------------------------------------------
    # Write path: COS first (durability), then the producer's cache
    # ------------------------------------------------------------------
    def put(
        self, cos: Any, bucket: str, key: str, blob: bytes,
        site: Optional[Site] = None,
    ) -> None:
        cos.link.kernel.drive(self.put_steps(cos, bucket, key, blob, site))

    def put_steps(
        self, cos: Any, bucket: str, key: str, blob: bytes,
        site: Optional[Site] = None,
    ):
        yield from cos.put_object_steps(bucket, key, blob)
        if site is not None:
            self.publish(key, blob, *site)

    # ------------------------------------------------------------------
    # Read path: tiered for in-cloud sites, plain COS otherwise
    # ------------------------------------------------------------------
    def get(
        self, cos: Any, bucket: str, key: str, site: Optional[Site] = None
    ) -> bytes:
        return cos.link.kernel.drive(self.get_steps(cos, bucket, key, site))

    def get_steps(
        self, cos: Any, bucket: str, key: str, site: Optional[Site] = None
    ):
        """Read one intermediate object, tiered when ``site`` is given.

        Peer-path transient network failures fall through to COS;
        :class:`~repro.cos.errors.NoSuchKey` from COS propagates
        unchanged.
        """
        if site is None:
            return (yield from cos.get_object_steps(bucket, key))
        node_id, container_id = site
        kernel = cos.link.kernel
        t0 = kernel.now()
        blob = self.nodes[node_id].get(key)
        if blob is not None:
            yield vsleep(self.hit_delay(len(blob)))
            t1 = kernel.now()
            self.note_read("local", len(blob), t1 - t0)
            self._trace_span(
                "cache.hit", t0, t1, key=key, bytes=len(blob), node=node_id
            )
            return blob
        try:
            located = self.peer_get(key, node_id)
            if located is not None:
                blob, src_node = located
                # one consult+fetch round trip, payload at peer bandwidth
                yield from cos.link.request_steps(0)
                yield vsleep(self.peer_transfer_delay(len(blob)))
                t1 = kernel.now()
                self.note_read("peer", len(blob), t1 - t0)
                self._trace_span(
                    "cache.peer", t0, t1,
                    key=key, bytes=len(blob), node=node_id, src=src_node,
                )
                self.admit(key, blob, node_id, container_id)
                return blob
        except TransientNetworkError:
            # the peer path is best-effort: fall back to COS
            self.note_peer_failure()
        self._trace_point("cache.miss", key=key, node=node_id)
        t_cos = kernel.now()
        blob = yield from cos.get_object_steps(bucket, key)
        self.note_read("cos", len(blob), kernel.now() - t_cos)
        self.admit(key, blob, node_id, container_id)
        return blob

    # ------------------------------------------------------------------
    # Cost model (virtual seconds; far below the COS path)
    # ------------------------------------------------------------------
    def hit_delay(self, nbytes: int) -> float:
        """Local memory read: fixed latency + bytes / memory bandwidth."""
        return CACHE_HIT_LATENCY_S + nbytes / CACHE_MEMORY_BANDWIDTH_BPS

    def peer_transfer_delay(self, nbytes: int) -> float:
        """Node-to-node payload time (the RTT rides the reader's link)."""
        return nbytes / CACHE_PEER_BANDWIDTH_BPS

    # ------------------------------------------------------------------
    # Holder directory
    # ------------------------------------------------------------------
    def holders(self, key: str) -> list[int]:
        """Node ids recorded as holding ``key`` (sorted, deterministic)."""
        with self._lock:
            return sorted(self._directory.get(key, ()))

    def locate(self, key: str) -> list[tuple[int, int]]:
        """``(node_id, resident_bytes)`` for every live copy of ``key``.

        Consults the node caches directly (without touching recency) and
        prunes directory entries that turn out stale — the peer-lookup
        consistency invariant the tests pin.
        """
        located: list[tuple[int, int]] = []
        for node_id in self.holders(key):
            size = self.nodes[node_id].peek_size(key)
            if size is None:
                self._deregister(key, node_id)
            else:
                located.append((node_id, size))
        return located

    def _register(self, key: str, node_id: int, exclusive: bool = False) -> set[int]:
        """Record a holder; ``exclusive`` replaces the holder set (a fresh
        write supersedes every older copy).  Returns the displaced ids."""
        with self._lock:
            previous = self._directory.get(key, set())
            if exclusive:
                displaced = previous - {node_id}
                self._directory[key] = {node_id}
                return displaced
            self._directory.setdefault(key, set()).add(node_id)
            return set()

    def _deregister(self, key: str, node_id: int) -> None:
        with self._lock:
            holders = self._directory.get(key)
            if holders is not None:
                holders.discard(node_id)
                if not holders:
                    del self._directory[key]

    def peer_get(
        self, key: str, reader_node: int
    ) -> Optional[tuple[bytes, int]]:
        """Fetch ``key`` from the first live peer copy (lowest node id)."""
        for node_id, _size in self.locate(key):
            if node_id == reader_node:
                continue
            blob = self.nodes[node_id].get(key)
            if blob is not None:
                return blob, node_id
            self._deregister(key, node_id)
        return None

    def publish(
        self, key: str, blob: bytes, node_id: int, container_id: Optional[str]
    ) -> None:
        """Write-through insert by the producer: supersedes older copies."""
        displaced = self._register(key, node_id, exclusive=True)
        for stale_node in sorted(displaced):
            if self.nodes[stale_node].drop(key) is not None:
                self._count_eviction("invalidate")
                self._trace_point(
                    "cache.evict", node=stale_node, key=key, reason="invalidate"
                )
        self._admit_local(key, blob, node_id, container_id)
        self._trace_point("cache.put", node=node_id, key=key, bytes=len(blob))

    def admit(
        self, key: str, blob: bytes, node_id: int, container_id: Optional[str]
    ) -> None:
        """Populate a reader's local cache with an additional copy."""
        self._register(key, node_id)
        self._admit_local(key, blob, node_id, container_id)

    def _admit_local(
        self, key: str, blob: bytes, node_id: int, container_id: Optional[str]
    ) -> None:
        evicted = self.nodes[node_id].put(key, blob, container_id)
        if key not in self.nodes[node_id]:
            # over-budget object: it was never stored, only written through
            self._deregister(key, node_id)
        for victim, size in evicted:
            self._deregister(victim, node_id)
            self._count_eviction("lru")
            self._trace_point(
                "cache.evict", node=node_id, key=victim, bytes=size, reason="lru"
            )

    # ------------------------------------------------------------------
    # Invalidation & reclaim
    # ------------------------------------------------------------------
    def invalidate(self, key: str) -> None:
        """Drop every copy of ``key`` (its COS object was deleted/replaced)."""
        for node_id in self.holders(key):
            if self.nodes[node_id].drop(key) is not None:
                self._count_eviction("invalidate")
                self._trace_point(
                    "cache.evict", node=node_id, key=key, reason="invalidate"
                )
            self._deregister(key, node_id)

    def invalidate_prefix(self, prefix: str) -> None:
        with self._lock:
            doomed = sorted(k for k in self._directory if k.startswith(prefix))
        for key in doomed:
            self.invalidate(key)

    def reclaim_container(
        self, node_id: int, container_id: str, reason: str
    ) -> int:
        """Drop the container's entries; returns the number of bytes
        dropped.  Called by :class:`~repro.faas.invoker_node.InvokerNode`
        on idle eviction, TTL expiry and chaos-injected crashes — the
        transparent-fallback half of the chaos interplay."""
        dropped = self.nodes[node_id].drop_container(container_id)
        total = 0
        for key, size in dropped:
            self._deregister(key, node_id)
            self._count_eviction(reason)
            total += size
            self._trace_point(
                "cache.evict", node=node_id, key=key, bytes=size, reason=reason
            )
        return total

    # ------------------------------------------------------------------
    # Counters / stats
    # ------------------------------------------------------------------
    def _count_eviction(self, reason: str) -> None:
        with self._lock:
            self._evictions[reason] = self._evictions.get(reason, 0) + 1

    def note_read(self, source: str, nbytes: int, seconds: float) -> None:
        """Account one intermediate read: source is local|peer|cos."""
        with self._lock:
            if source == "local":
                self._counters["local_hits"] += 1
                self._counters["bytes_from_memory"] += nbytes
                self._counters["read_seconds_local"] += seconds
            elif source == "peer":
                self._counters["peer_hits"] += 1
                self._counters["bytes_from_peers"] += nbytes
                self._counters["read_seconds_peer"] += seconds
            else:
                self._counters["cos_misses"] += 1
                self._counters["bytes_from_cos"] += nbytes
                self._counters["read_seconds_cos"] += seconds

    def note_peer_failure(self) -> None:
        with self._lock:
            self._counters["peer_failures"] += 1

    def stats(self) -> dict[str, Any]:
        with self._lock:
            stats: dict[str, Any] = dict(self._counters)
            stats["evictions"] = dict(self._evictions)
        stats["intermediate_reads"] = (
            stats["local_hits"] + stats["peer_hits"] + stats["cos_misses"]
        )
        stats["read_seconds_total"] = (
            stats["read_seconds_local"]
            + stats["read_seconds_peer"]
            + stats["read_seconds_cos"]
        )
        stats["resident_bytes"] = sum(n.used_bytes for n in self.nodes)
        stats["hits"] = stats["local_hits"] + stats["peer_hits"]
        stats["misses"] = stats["cos_misses"]
        return stats

    def describe(self) -> dict[str, Any]:
        return {
            "backend": self.name,
            "nodes": [
                {
                    "node": node.node_id,
                    "capacity_bytes": node.budget_bytes,
                    "used_bytes": node.used_bytes,
                }
                for node in self.nodes
            ],
            **self.stats(),
        }

    # ------------------------------------------------------------------
    # Trace emission (no-ops unless the environment traces)
    # ------------------------------------------------------------------
    def _trace_point(self, name: str, **attrs: Any) -> None:
        tracer = self.tracer
        if tracer is not None and tracer.enabled:
            tracer.point(name, "cache", **attrs)

    def _trace_span(self, name: str, t0: float, t1: float, **attrs: Any) -> None:
        tracer = self.tracer
        if tracer is not None and tracer.enabled:
            tracer.span_at(name, "cache", t0, t1, **attrs)
