"""``CachedCosExchange`` — the PR 5 write-through memory tier, as a backend.

Re-homes the ambient-site special cases that used to live inside
``InternalStorage`` (``_cache_site`` / ``_cache_publish`` /
``_exchange_get_steps``): the backend owns the
:class:`~repro.cache.CachePlane` and the tiered read path, and the
storage client just routes intermediates through it.  The moved code is
timing-identical — same latency charges, same ``cache.*`` trace events —
so same-seed cached traces stay byte-identical across the refactor.

Resolution order for an in-cloud read: local memory hit (fixed latency +
memory bandwidth) → peer copy located via the consistent-hash directory
(one round trip on the reader's in-cloud link — the directory owner
forwards the request to the holder, so consult and fetch share it —
payload at node-to-node bandwidth) → COS fallback (the ordinary charged
GET).  Writers publish through their node's cache after the COS put.
"""

from __future__ import annotations

from typing import Any, Optional

from repro.exchange.base import ExchangeBackend, Site
from repro.net.latency import TransientNetworkError

__all__ = ["CachedCosExchange"]


class CachedCosExchange(ExchangeBackend):
    """COS exchange with the memory-tier cache plane in front of reads."""

    name = "cached-cos"
    provides_locality = True

    def __init__(
        self,
        cache_config: Any,
        n_nodes: int,
        kernel: Any = None,
        tracer: Any = None,
    ) -> None:
        from repro.cache import CachePlane

        #: the cluster-wide cache tier (``env.cache`` aliases it)
        self.plane = CachePlane(cache_config, n_nodes, kernel=kernel, tracer=tracer)

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
        self._publish(key, blob, site)

    def _publish(self, key: str, blob: bytes, site: Optional[Site]) -> None:
        site = self.resolve_site(site)
        if site is not None:
            node_id, container_id = site
            self.plane.publish(key, blob, node_id, container_id)

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
        site = self.resolve_site(site)
        if site is None:
            return (yield from cos.get_object_steps(bucket, key))
        return (yield from self._tiered_get_steps(cos, bucket, key, site))

    def _tiered_get_steps(
        self, cos: Any, bucket: str, key: str, site: Site
    ):
        """Tiered read of one intermediate object (steps generator).

        Peer-path transient network failures fall through to COS;
        :class:`~repro.cos.errors.NoSuchKey` from COS propagates
        unchanged.
        """
        from repro.vtime.kernel import vsleep

        plane = self.plane
        node_id, container_id = site
        kernel = cos.link.kernel
        t0 = kernel.now()
        blob = plane.local_get(key, node_id)
        if blob is not None:
            yield vsleep(plane.hit_delay(len(blob)))
            t1 = kernel.now()
            plane.note_read("local", len(blob), t1 - t0)
            plane.trace_span(
                "cache.hit", t0, t1, key=key, bytes=len(blob), node=node_id
            )
            return blob
        if plane.config.peer_fetch:
            try:
                located = plane.peer_get(key, node_id)
                if located is not None:
                    blob, src_node = located
                    # one consult+fetch round trip, payload at peer bandwidth
                    yield from cos.link.request_steps(0)
                    yield vsleep(plane.peer_transfer_delay(len(blob)))
                    t1 = kernel.now()
                    plane.note_read("peer", len(blob), t1 - t0)
                    plane.trace_span(
                        "cache.peer", t0, t1,
                        key=key, bytes=len(blob), node=node_id, src=src_node,
                    )
                    if plane.config.populate_on_miss:
                        plane.admit(key, blob, node_id, container_id)
                    return blob
            except TransientNetworkError:
                # the peer path is best-effort: fall back to COS
                plane.note_peer_failure()
        plane.trace_point("cache.miss", key=key, node=node_id)
        t_cos = kernel.now()
        blob = yield from cos.get_object_steps(bucket, key)
        plane.note_read("cos", len(blob), kernel.now() - t_cos)
        if plane.config.populate_on_miss:
            plane.admit(key, blob, node_id, container_id)
        return blob

    # ------------------------------------------------------------------
    # Placement, lifecycle, accounting: the plane's
    # ------------------------------------------------------------------
    def locate(self, key: str) -> list[tuple[int, int]]:
        return self.plane.locate(key)

    def invalidate(self, key: str) -> None:
        self.plane.invalidate(key)

    def invalidate_prefix(self, prefix: str) -> None:
        self.plane.invalidate_prefix(prefix)

    def stats(self) -> dict[str, Any]:
        stats = self.plane.stats()
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
                for node in self.plane.nodes
            ],
            **self.stats(),
        }
