"""The exchange-backend interface: who serves intermediate objects.

The paper's pipelines move every shuffle byte through COS; PR 5 added a
memory cache tier in front of it; the Milestone follow-up (PAPERS.md)
asks which *data plane* — object storage or a provisioned VM cluster —
wins at which shuffle volume and fan-out.  :class:`ExchangeBackend` is
the seam that makes the question askable: all intermediate reads and
writes (shuffle partitions, result blobs) in
:class:`~repro.core.storage_client.InternalStorage` go through one
backend, selected by :class:`~repro.config.ExchangeConfig`:

* :class:`~repro.exchange.cos.CosExchange` — the paper's direct COS path
  (default; byte-identical to the pre-backend code),
* :class:`~repro.exchange.cached.CachedCosExchange` — a write-through
  memory tier in the invoker nodes' containers,
* :class:`~repro.exchange.vm.VmExchange` — an emulated ephemeral-store
  (Redis-like) cluster of provisioned VM nodes.

Contract (pinned by ``tests/exchange/test_backend_contract.py``):

* **Durability is COS's.**  ``put`` writes through to COS first; any
  backend-side copy is a performance tier.  A backend may lose state
  (eviction, node crash) at any time — ``get`` must still return the
  bytes, transparently falling back to COS.
* **Visibility.**  After ``put`` returns, a ``get`` of the same key from
  any site returns exactly the published bytes.
* **Deletion.**  ``delete`` removes the COS object *and* invalidates
  backend copies; a later ``get`` raises
  :class:`~repro.cos.errors.NoSuchKey`.
* **Virtual time is the caller's.**  Every method takes the caller's
  :class:`~repro.cos.client.COSClient` so network time is charged to
  that caller's own link, exactly like the direct path.
* **Site gating.**  The backend tier only engages for a caller that
  names its ``(invoker_id, container_id)`` site — code running *on* the
  emulated cloud.  ``site=None`` is the client side: its (WAN) reads and
  writes always take the plain COS path.
"""

from __future__ import annotations

from typing import Any, Iterator, Optional

#: ``(invoker_id, container_id)`` of the function doing the I/O
Site = tuple[int, Optional[str]]


class ExchangeBackend:
    """Base class: the direct COS exchange, and the seam subclasses fill.

    The base implementation *is* the paper's COS-only path (see
    :class:`~repro.exchange.cos.CosExchange`): puts and gets are exactly
    one charged COS request, ``locate`` knows nothing, invalidation is a
    no-op.  Subclasses override the ``*_steps`` workhorses (and
    ``locate``/``invalidate``/``stats``) to interpose their tier.
    """

    #: backend name as selected by :class:`~repro.config.ExchangeConfig`
    name = "cos"
    #: whether :meth:`locate` yields useful placement hints (lets the DAG
    #: scheduler skip per-dependency directory peeks on plain backends)
    provides_locality = False

    # ------------------------------------------------------------------
    # Data path.  ``cos`` is the *caller's* client; time rides its link.
    # ------------------------------------------------------------------
    def put(
        self, cos: Any, bucket: str, key: str, blob: bytes,
        site: Optional[Site] = None,
    ) -> None:
        cos.link.kernel.drive(self.put_steps(cos, bucket, key, blob, site))

    def put_steps(
        self, cos: Any, bucket: str, key: str, blob: bytes,
        site: Optional[Site] = None,
    ) -> Iterator[Any]:
        """Publish one intermediate object."""
        yield from cos.put_object_steps(bucket, key, blob)

    def get(
        self, cos: Any, bucket: str, key: str, site: Optional[Site] = None
    ) -> bytes:
        return cos.link.kernel.drive(self.get_steps(cos, bucket, key, site))

    def get_steps(
        self, cos: Any, bucket: str, key: str, site: Optional[Site] = None
    ) -> Iterator[Any]:
        """Read one intermediate object.

        Raises :class:`~repro.cos.errors.NoSuchKey` if it was never
        published (or was deleted) — backend tiers must never mask that.
        """
        return (yield from cos.get_object_steps(bucket, key))

    def delete(self, cos: Any, bucket: str, key: str) -> None:
        """Remove the COS object and every backend copy."""
        cos.delete_object(bucket, key)
        self.invalidate(key)

    def list(self, cos: Any, bucket: str, prefix: str) -> list[str]:
        """Keys under ``prefix`` — COS is the source of truth (one LIST)."""
        return cos.list_keys(bucket, prefix)

    # ------------------------------------------------------------------
    # Placement / locality hints
    # ------------------------------------------------------------------
    def locate(self, key: str) -> list[tuple[int, int]]:
        """``(invoker_node_id, resident_bytes)`` per live tier copy.

        The DAG scheduler ranks placement hints with this; backends whose
        storage does not live on invoker nodes (COS, the VM cluster)
        return ``[]`` and the legacy produced-here ordering applies.
        """
        return []

    # ------------------------------------------------------------------
    # Lifecycle & accounting
    # ------------------------------------------------------------------
    def invalidate(self, key: str) -> None:
        """Drop tier copies of ``key`` (its COS object changed/vanished)."""

    def invalidate_prefix(self, prefix: str) -> None:
        """Invalidate every tier copy under ``prefix`` (executor.clean)."""

    def reclaim_container(
        self, node_id: int, container_id: str, reason: str
    ) -> None:
        """A container on invoker ``node_id`` died or was reclaimed
        (``reason``): tier copies held in its memory vanish with it."""

    def stats(self) -> dict[str, Any]:
        """Aggregate hit/miss/eviction counters for reports and benches."""
        return {}

    def describe(self) -> dict[str, Any]:
        """Backend identity + node capacities (``python -m repro exchange``)."""
        return {"backend": self.name, "nodes": []}

    def billing(self, now: float) -> dict[str, Any]:
        """Exchange-attributable resource usage up to virtual time ``now``.

        COS request charges are accounted by the object store itself
        (:meth:`~repro.cos.object_store.CloudObjectStorage.request_counts`);
        backends that provision capacity (the VM cluster) report their
        VM-seconds here.
        """
        return {"vm_nodes": 0, "vm_seconds": 0.0}
