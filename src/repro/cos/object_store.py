"""The emulated IBM Cloud Object Storage service (data plane, no latency).

This is the authoritative store shared by every client in a simulation.
Latency/bandwidth accounting lives in :class:`repro.cos.client.COSClient`,
so the same store can be reached through different network paths (WAN
client vs in-cloud function), like the real service.
"""

from __future__ import annotations

import threading
from typing import Callable, Optional

from repro.cos.bucket import Bucket
from repro.cos.errors import (
    BucketAlreadyExists,
    NoSuchBucket,
    PreconditionFailed,
)
from repro.cos.obj import StoredObject
from repro.vtime import Kernel


class CloudObjectStorage:
    """Thread-safe bucket/object store with virtual-object support."""

    def __init__(self, kernel: Kernel) -> None:
        self.kernel = kernel
        #: optional :class:`repro.chaos.ChaosPlane`; COS clients consult it
        #: to inject transient 503/SlowDown errors and slow reads
        self.chaos = None
        #: optional :class:`repro.trace.Tracer`; COS clients emit ``cos.*``
        #: request spans onto it
        self.tracer = None
        self._buckets: dict[str, Bucket] = {}
        self._lock = threading.Lock()
        self._request_counts: dict[str, int] = {}

    # -- buckets -----------------------------------------------------------
    def create_bucket(self, name: str, exist_ok: bool = False) -> Bucket:
        if not name or "/" in name:
            raise ValueError(f"invalid bucket name: {name!r}")
        with self._lock:
            if name in self._buckets:
                if exist_ok:
                    return self._buckets[name]
                raise BucketAlreadyExists(name)
            bucket = Bucket(name)
            self._buckets[name] = bucket
            return bucket

    def bucket(self, name: str) -> Bucket:
        with self._lock:
            try:
                return self._buckets[name]
            except KeyError:
                raise NoSuchBucket(name) from None

    def bucket_exists(self, name: str) -> bool:
        with self._lock:
            return name in self._buckets

    # -- objects -----------------------------------------------------------
    def put_object(
        self,
        bucket: str,
        key: str,
        data: bytes,
        metadata: Optional[dict[str, str]] = None,
        if_none_match: bool = False,
    ) -> StoredObject:
        """Store an object; ``if_none_match`` makes the write conditional
        (``If-None-Match: *``): it atomically fails with
        :class:`PreconditionFailed` when the key already exists, which is
        what gives retried calls at-most-once status commits."""
        obj = StoredObject(
            key, data=data, metadata=metadata, last_modified=self.kernel.now()
        )
        b = self.bucket(bucket)
        with self._lock:
            if if_none_match and b.contains(key):
                raise PreconditionFailed(f"{bucket}/{key}")
            b.put(obj)
        return obj

    def put_virtual_object(
        self,
        bucket: str,
        key: str,
        size: int,
        content_fn: Optional[Callable[[int, int], bytes]] = None,
        metadata: Optional[dict[str, str]] = None,
    ) -> StoredObject:
        """Store a size-only object whose content is generated on read."""
        obj = StoredObject(
            key,
            size=size,
            content_fn=content_fn,
            metadata=metadata,
            last_modified=self.kernel.now(),
        )
        b = self.bucket(bucket)
        with self._lock:
            b.put(obj)
        return obj

    def get_object(self, bucket: str, key: str) -> StoredObject:
        b = self.bucket(bucket)
        with self._lock:
            return b.get(key)

    def object_exists(self, bucket: str, key: str) -> bool:
        b = self.bucket(bucket)
        with self._lock:
            return b.contains(key)

    def delete_object(self, bucket: str, key: str) -> None:
        b = self.bucket(bucket)
        with self._lock:
            b.delete(key)

    def list_keys(self, bucket: str, prefix: str = "") -> list[str]:
        b = self.bucket(bucket)
        with self._lock:
            return b.list_keys(prefix)

    def copy_object(
        self, src_bucket: str, src_key: str, dst_bucket: str, dst_key: str
    ) -> StoredObject:
        """Server-side copy (S3 ``CopyObject``): no client data movement."""
        source = self.get_object(src_bucket, src_key)
        dst = self.bucket(dst_bucket)
        if source.is_virtual:
            copied = StoredObject(
                dst_key,
                size=source.size,
                content_fn=source._content_fn,
                metadata=dict(source.metadata),
                last_modified=self.kernel.now(),
            )
        else:
            copied = StoredObject(
                dst_key,
                data=source.read(),
                metadata=dict(source.metadata),
                last_modified=self.kernel.now(),
            )
        with self._lock:
            dst.put(copied)
        return copied

    def bucket_size(self, bucket: str, prefix: str = "") -> int:
        """Total logical bytes under a prefix."""
        b = self.bucket(bucket)
        with self._lock:
            return b.total_size(prefix)

    # -- statistics ----------------------------------------------------------
    def count_request(self, op: str) -> None:
        """Tally one billed API request by operation name.

        Called by every :class:`~repro.cos.client.COSClient` once per
        *logical* request (retried attempts are one charge, like the real
        service refunds failed calls is not modeled — the refusal already
        reached the service).  Pure accounting: no clock, no RNG.
        """
        with self._lock:
            self._request_counts[op] = self._request_counts.get(op, 0) + 1

    def request_counts(self) -> dict[str, int]:
        """Billed request tallies by operation, for the cost model."""
        with self._lock:
            return dict(self._request_counts)
