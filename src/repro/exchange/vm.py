"""``VmExchange`` — an emulated ephemeral-store (Redis-like) VM cluster.

The Milestone follow-up to the paper (PAPERS.md) provisions a small
cluster of memory-backed store VMs next to the workers and routes
intermediates through it instead of object storage.  This backend
emulates that plane:

* **Provisioned nodes.**  ``vm_nodes`` nodes boot with the environment;
  exchange traffic arriving before ``vm_startup_s`` waits for the
  cluster (the provisioning cost the paper's COS path never pays).
* **Keyspace.**  A consistent-hash ring assigns each key one owner node
  (Redis-cluster style); readers and writers talk straight to the owner
  over their own in-cloud link (one round trip) with the payload at
  ``VM_BANDWIDTH_BPS``.
* **Memory capacity.**  Each node holds at most
  ``vm_node_memory_bytes`` in a byte-budgeted LRU; eviction-on-full
  drops the oldest entries.  Durability still belongs to COS — every
  put writes through — so an evicted (or never-stored oversize) entry
  just means the next read falls back to the charged COS GET.
* **Node failure.**  The ``vm-node-crash`` chaos hook kills a node at a
  seeded virtual time: its memory vanishes, the fault lands on the
  chaos timeline, and the node rejoins empty after another
  ``vm_startup_s``.  Readers fall back to COS transparently and
  repopulate the rejoined node on miss.
* **Accounting.**  The cluster accrues VM-seconds (``vm_nodes`` × time
  since boot) on the billing/cost layer — the flip side of the COS
  path's per-request charges; the crossover between the two is what
  ``tests/bench/test_exchange_matrix_smoke.py`` measures.  Traffic is emitted
  as ``exchange.*`` events on the "exchange" trace layer.

Like every backend, the tier only engages for callers that pass an
in-cloud site; the client's WAN-side storage takes the plain COS path.
"""

from __future__ import annotations

import threading
from typing import Any, Optional

from repro.exchange.base import ExchangeBackend, Site
from repro.exchange.memory import HashRing, NodeCache

__all__ = ["VmExchange", "VmNode"]

#: fixed latency of a served VM read, on top of the round trip (seconds)
VM_HIT_LATENCY_S = 200e-6
#: store-VM transfer bandwidth (bytes/second; ~10 GbE, an order above the
#: COS per-stream rate)
VM_BANDWIDTH_BPS = 1 * 1024**3
#: virtual points per node on the key-ownership consistent-hash ring
VM_RING_VNODES = 64


class VmNode:
    """One provisioned store VM: a byte-budgeted LRU plus a lifecycle."""

    def __init__(
        self,
        node_id: int,
        capacity_bytes: int,
        clock,
        ready_at: float,
        crash_at: Optional[float],
        restart_s: float,
    ) -> None:
        self.node_id = node_id
        self.store = NodeCache(node_id, capacity_bytes, clock=clock)
        #: end of the provisioning window (cluster boots at t=0)
        self.ready_at = ready_at
        #: seeded crash time from the chaos plane, or ``None``
        self.crash_at = crash_at
        #: the node rejoins (empty) this long after a crash
        self.restart_s = restart_s
        self._crashed = False
        self._lock = threading.Lock()

    def crash_due(self, now: float) -> bool:
        """Whether the seeded crash fires at ``now`` (first observer wins)."""
        if self.crash_at is None or now < self.crash_at:
            return False
        with self._lock:
            if self._crashed:
                return False
            self._crashed = True
        return True

    def up(self, now: float) -> bool:
        """Whether the node serves at ``now`` (booted, not mid-restart)."""
        if now < self.ready_at:
            return False
        if self.crash_at is not None and now >= self.crash_at:
            return now >= self.crash_at + self.restart_s
        return True


class VmExchange(ExchangeBackend):
    """Write-through exchange over a provisioned ephemeral-store cluster."""

    name = "vm"

    def __init__(
        self,
        config: Any,
        kernel: Any = None,
        tracer: Any = None,
        chaos: Any = None,
    ) -> None:
        self.config = config
        self.tracer = tracer
        self.chaos = chaos
        clock = kernel.now if kernel is not None else None
        self.ring = HashRing(config.vm_nodes, VM_RING_VNODES)
        self.nodes = [
            VmNode(
                i,
                config.vm_node_memory_bytes,
                clock=clock,
                ready_at=config.vm_startup_s,
                crash_at=(
                    chaos.vm_node_crash_time(i) if chaos is not None else None
                ),
                restart_s=config.vm_startup_s,
            )
            for i in range(config.vm_nodes)
        ]
        self._lock = threading.Lock()
        self._counters = {
            "puts": 0,
            "hits": 0,
            "misses": 0,
            "evictions": 0,
            "down_ops": 0,
            "startup_waits": 0,
            "bytes_put": 0,
            "bytes_from_vm": 0,
            "bytes_from_cos": 0,
        }

    # ------------------------------------------------------------------
    # Write path: COS first (durability), then the owner VM node
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
            yield from self._vm_put_steps(cos, key, blob)

    def _vm_put_steps(self, cos: Any, key: str, blob: bytes):
        from repro.vtime.kernel import vsleep

        kernel = cos.link.kernel
        yield from self._wait_provisioned_steps(kernel)
        node = self.nodes[self.ring.owner(key)]
        t0 = kernel.now()
        # one round trip to the owner node, payload at the store bandwidth
        yield from cos.link.request_steps(0)
        yield vsleep(len(blob) / VM_BANDWIDTH_BPS)
        now = kernel.now()
        self._apply_crash(node, now)
        if not node.up(now):
            self._count("down_ops")
            self._trace_point("exchange.down", node=node.node_id, key=key, op="put")
            return
        self._store(node, key, blob)
        self._count("puts", bytes_put=len(blob))
        self._trace_span(
            "exchange.put", t0, now, node=node.node_id, key=key, bytes=len(blob)
        )

    # ------------------------------------------------------------------
    # Read path: owner node first, transparent COS fallback
    # ------------------------------------------------------------------
    def get(
        self, cos: Any, bucket: str, key: str, site: Optional[Site] = None
    ) -> bytes:
        return cos.link.kernel.drive(self.get_steps(cos, bucket, key, site))

    def get_steps(
        self, cos: Any, bucket: str, key: str, site: Optional[Site] = None
    ):
        if site is None:
            return (yield from cos.get_object_steps(bucket, key))
        return (yield from self._vm_get_steps(cos, bucket, key))

    def _vm_get_steps(self, cos: Any, bucket: str, key: str):
        from repro.vtime.kernel import vsleep

        kernel = cos.link.kernel
        yield from self._wait_provisioned_steps(kernel)
        node = self.nodes[self.ring.owner(key)]
        t0 = kernel.now()
        # consult the owner node: one round trip on the reader's link
        yield from cos.link.request_steps(0)
        now = kernel.now()
        self._apply_crash(node, now)
        blob = node.store.get(key) if node.up(now) else None
        if blob is not None:
            yield vsleep(VM_HIT_LATENCY_S + len(blob) / VM_BANDWIDTH_BPS)
            self._count("hits", bytes_from_vm=len(blob))
            self._trace_span(
                "exchange.hit", t0, kernel.now(),
                node=node.node_id, key=key, bytes=len(blob),
            )
            return blob
        self._count("misses")
        self._trace_point("exchange.miss", node=node.node_id, key=key)
        # transparent fallback: the ordinary charged COS GET.  NoSuchKey
        # propagates unchanged (the object was never published / deleted).
        blob = yield from cos.get_object_steps(bucket, key)
        self._count(None, bytes_from_cos=len(blob))
        if node.up(kernel.now()):
            # repopulate the (possibly freshly restarted) owner on miss
            self._store(node, key, blob)
        return blob

    def _store(self, node: VmNode, key: str, blob: bytes) -> None:
        """Insert into the node's LRU, accounting for what it evicts."""
        for victim, size in node.store.put(key, blob, None):
            self._count("evictions")
            self._trace_point(
                "exchange.evict", node=node.node_id, key=victim,
                bytes=size, reason="lru",
            )

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def _wait_provisioned_steps(self, kernel):
        """Block until the cluster finishes provisioning (startup latency)."""
        from repro.vtime.kernel import vsleep

        wait = self.config.vm_startup_s - kernel.now()
        if wait > 0:
            self._count("startup_waits")
            self._trace_point("exchange.provisioning", wait_s=round(wait, 6))
            yield vsleep(wait)

    def _apply_crash(self, node: VmNode, now: float) -> None:
        """Fire the node's seeded crash the first time anyone observes it."""
        if not node.crash_due(now):
            return
        dropped = node.store.drop_container(None)
        target = f"vm-node-{node.node_id}@{node.crash_at:.3f}"
        if self.chaos is not None:
            self.chaos.record(node.crash_at, "vm", "crash", target)
        self._trace_point(
            "exchange.crash", node=node.node_id,
            t=node.crash_at, lost_entries=len(dropped),
        )

    def invalidate(self, key: str) -> None:
        node = self.nodes[self.ring.owner(key)]
        node.store.drop(key)

    def invalidate_prefix(self, prefix: str) -> None:
        for node in self.nodes:
            for key in node.store.keys():
                if key.startswith(prefix):
                    node.store.drop(key)

    # ------------------------------------------------------------------
    # Accounting
    # ------------------------------------------------------------------
    def _count(self, counter: Optional[str], **bytes_counters: int) -> None:
        with self._lock:
            if counter is not None:
                self._counters[counter] += 1
            for name, nbytes in bytes_counters.items():
                self._counters[name] += nbytes

    def stats(self) -> dict[str, Any]:
        with self._lock:
            stats: dict[str, Any] = dict(self._counters)
        stats["resident_bytes"] = sum(n.store.used_bytes for n in self.nodes)
        return stats

    def describe(self) -> dict[str, Any]:
        return {
            "backend": self.name,
            "nodes": [
                {
                    "node": node.node_id,
                    "capacity_bytes": node.store.budget_bytes,
                    "used_bytes": node.store.used_bytes,
                    "ready_at_s": node.ready_at,
                    "crash_at_s": node.crash_at,
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
            tracer.point(name, "exchange", **attrs)

    def _trace_span(self, name: str, t0: float, t1: float, **attrs: Any) -> None:
        tracer = self.tracer
        if tracer is not None and tracer.enabled:
            tracer.span_at(name, "exchange", t0, t1, **attrs)

    def vm_seconds(self, now: float) -> float:
        """Provisioned VM-seconds up to virtual time ``now`` (nodes boot
        with the environment at t=0 and bill until teardown)."""
        return len(self.nodes) * max(0.0, now)

    def billing(self, now: float) -> dict[str, Any]:
        from repro.core import cost

        seconds = self.vm_seconds(now)
        return {
            "vm_nodes": len(self.nodes),
            "vm_seconds": round(seconds, 3),
            "vm_cost_usd": round(cost.vm_seconds_cost(seconds), 8),
        }
