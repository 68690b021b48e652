"""COS client: the latency-accounted API surface components talk to.

One client per endpoint (laptop client, invoker function, map function),
each with its own :class:`~repro.net.NetworkLink`, all sharing one
:class:`~repro.cos.object_store.CloudObjectStorage` data plane — mirroring
how IBM-PyWren's client and its cloud functions all hit the same COS
buckets over very different network paths.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.config import RetryConfig
from repro.cos.errors import NoSuchKey, ServiceUnavailable, SlowDown
from repro.cos.object_store import CloudObjectStorage
from repro.net.link import NetworkLink
from repro.retry import RetryPolicy
from repro.vtime.kernel import vsleep


@dataclass(frozen=True)
class ObjectSummary:
    """Metadata returned by HEAD/LIST requests."""

    bucket: str
    key: str
    size: int
    etag: str
    last_modified: float


class COSClient:
    """Latency-charging facade over :class:`CloudObjectStorage`.

    Transient failures — lost requests on the wire, chaos-injected
    503/SlowDown responses — are retried under the shared
    :class:`~repro.retry.RetryPolicy` (exponential backoff + full jitter),
    configured by :class:`~repro.config.RetryConfig`.
    """

    __slots__ = ("store", "link", "_retry", "_policy", "_req_seq")

    def __init__(
        self,
        store: CloudObjectStorage,
        link: NetworkLink,
        retry: Optional[RetryConfig] = None,
    ) -> None:
        self.store = store
        self.link = link
        if retry is not None:
            retry.validate()
        self._retry = retry
        # built at the first failed attempt: most clients never retry, and
        # every in-flight activation owns a client
        self._policy: Optional[RetryPolicy] = None
        self._req_seq = 0

    @property
    def retries(self) -> int:
        """Backoff-retries this client has taken (observability)."""
        return 0 if self._policy is None else self._policy.retries

    # -- write path ----------------------------------------------------------
    def put_object(
        self,
        bucket: str,
        key: str,
        data: bytes,
        metadata: Optional[dict[str, str]] = None,
        if_none_match: bool = False,
    ) -> None:
        self.link.kernel.drive(
            self.put_object_steps(bucket, key, data, metadata, if_none_match)
        )

    def put_object_steps(
        self,
        bucket: str,
        key: str,
        data: bytes,
        metadata: Optional[dict[str, str]] = None,
        if_none_match: bool = False,
    ):
        yield from self._request_steps(len(data), op="put")
        self.store.put_object(
            bucket, key, data, metadata=metadata, if_none_match=if_none_match
        )

    def delete_object(self, bucket: str, key: str) -> None:
        self.link.kernel.drive(self.delete_object_steps(bucket, key))

    def delete_object_steps(self, bucket: str, key: str):
        yield from self._request_steps(0, op="delete")
        self.store.delete_object(bucket, key)

    # -- read path -----------------------------------------------------------
    def get_object(self, bucket: str, key: str) -> bytes:
        return self.link.kernel.drive(self.get_object_steps(bucket, key))

    def get_object_steps(self, bucket: str, key: str):
        obj = self.store.get_object(bucket, key)
        yield from self._request_steps(obj.size, op="get")
        return obj.read()

    def read_range(
        self,
        bucket: str,
        key: str,
        start: int,
        end: Optional[int] = None,
        materialize_cap: Optional[int] = None,
    ) -> bytes:
        return self.link.kernel.drive(
            self.read_range_steps(bucket, key, start, end, materialize_cap)
        )

    def read_range_steps(
        self,
        bucket: str,
        key: str,
        start: int,
        end: Optional[int] = None,
        materialize_cap: Optional[int] = None,
    ):
        """Read bytes ``[start, end)`` of an object.

        ``materialize_cap`` supports GB-scale *virtual* objects: the full
        range is charged to the virtual clock (it models a streaming read),
        but at most ``materialize_cap`` bytes of content are synthesized and
        returned, so real CPU/memory stays bounded.  Byte-backed objects and
        ``materialize_cap=None`` return the whole range.
        """
        obj = self.store.get_object(bucket, key)
        if end is None or end > obj.size:
            end = obj.size
        span = max(0, end - start)
        yield from self._request_steps(span, op="range")
        if materialize_cap is not None and span > materialize_cap:
            return obj.read(start, start + materialize_cap)
        return obj.read(start, end)

    def head_object(self, bucket: str, key: str) -> ObjectSummary:
        return self.link.kernel.drive(self.head_object_steps(bucket, key))

    def head_object_steps(self, bucket: str, key: str):
        yield from self._request_steps(0, op="head")
        obj = self.store.get_object(bucket, key)
        return ObjectSummary(bucket, obj.key, obj.size, obj.etag, obj.last_modified)

    def object_exists(self, bucket: str, key: str) -> bool:
        return self.link.kernel.drive(self.object_exists_steps(bucket, key))

    def object_exists_steps(self, bucket: str, key: str):
        try:
            yield from self.head_object_steps(bucket, key)
            return True
        except NoSuchKey:
            return False

    def head_bucket(self, bucket: str) -> bool:
        self._request(0, op="head_bucket")
        return self.store.bucket_exists(bucket)

    def copy_object(
        self, src_bucket: str, src_key: str, dst_bucket: str, dst_key: str
    ) -> None:
        """Server-side copy: one control round trip, no payload transfer."""
        self._request(0, op="copy")
        self.store.copy_object(src_bucket, src_key, dst_bucket, dst_key)

    def list_objects(self, bucket: str, prefix: str = "") -> list[ObjectSummary]:
        self._request(0, op="list")
        summaries = []
        for key in self.store.list_keys(bucket, prefix):
            obj = self.store.get_object(bucket, key)
            summaries.append(
                ObjectSummary(bucket, obj.key, obj.size, obj.etag, obj.last_modified)
            )
        return summaries

    def list_keys(self, bucket: str, prefix: str = "") -> list[str]:
        return self.link.kernel.drive(self.list_keys_steps(bucket, prefix))

    def list_keys_steps(self, bucket: str, prefix: str = ""):
        yield from self._request_steps(0, op="list")
        return self.store.list_keys(bucket, prefix)

    # -- internals -----------------------------------------------------------
    def _request(self, payload_bytes: int, op: str = "request") -> None:
        self.link.kernel.drive(self._request_steps(payload_bytes, op))

    def _request_steps(self, payload_bytes: int, op: str = "request"):
        """One COS request: network round trip + chaos faults + retries.

        Each attempt may be degraded by the environment's chaos plane:
        503/SlowDown responses cost the control round trip and raise (the
        request had to reach the service to be refused); slow reads charge
        extra transfer time.  All of it is retried under the shared policy.
        ``op`` labels the resulting ``cos.<op>`` trace span.
        """
        self.store.count_request(op)
        tracer = self.store.tracer
        if tracer is None or not tracer.enabled:
            return (yield from self._attempts_steps(payload_bytes))
        t0 = self.link.kernel.now()
        try:
            yield from self._attempts_steps(payload_bytes)
        finally:
            tracer.span_at(
                f"cos.{op}", "cos", t0, self.link.kernel.now(), bytes=payload_bytes
            )

    def _attempts_steps(self, payload_bytes: int):
        """The first attempt runs bare; the retry policy joins only once an
        attempt has failed."""
        try:
            return (yield from self._attempt_steps(payload_bytes))
        except Exception as exc:  # noqa: BLE001 - classified by the policy
            failure = exc
        if self._policy is None:
            self._policy = RetryPolicy(self._retry, seed=self.link.seed)
        yield from self._policy.retry_steps(
            failure, lambda: self._attempt_steps(payload_bytes)
        )

    def _attempt_steps(self, payload_bytes: int):
        chaos = self.store.chaos
        link = self.link
        fault = None
        if chaos is not None:
            # no lock: one kernel thread runs task code at a time
            fault = chaos.cos_fault(link.seed, self._req_seq)
            self._req_seq += 1
        if fault is None:
            yield from link.request_steps(payload_bytes)
            return
        kind, factor = fault
        if kind in ("503", "slowdown"):
            # the refusal still costs a round trip
            yield from link.request_steps(0)
            chaos.record(link.kernel.now(), "cos", kind, f"link-{link.seed}")
            if kind == "503":
                raise ServiceUnavailable("chaos: COS answered 503")
            raise SlowDown("chaos: COS asked the client to slow down")
        # slow read/write: the transfer happens, at a fraction of the
        # usual bandwidth
        yield from link.request_steps(payload_bytes)
        chaos.record(link.kernel.now(), "cos", "slow-read", f"link-{link.seed}")
        extra = (factor - 1.0) * link.transfer_time(payload_bytes)
        if extra > 0:
            yield vsleep(extra)
