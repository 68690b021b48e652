"""Internal storage: the COS key layout the framework hides from users.

Per execution flow (§3/Fig. 1), the client serializes function code and data
into COS, functions read them, and write results plus a small status object
back.  The key scheme mirrors the real framework's::

    {prefix}/{executor_id}/funcs/{sha}.pickle           (content-addressed)
    {prefix}/{executor_id}/{callset_id}/aggdata.pickle
    {prefix}/{executor_id}/{callset_id}/{call_id}/status.pickle
    {prefix}/{executor_id}/{callset_id}/{call_id}/result.pickle
    {prefix}/{executor_id}/{callset_id}/{call_id}/shuffle/{r}.pickle

Status objects double as the completion signal: ``wait()`` discovers
finished calls with a single LIST request over the status prefix.

*Intermediate* objects — shuffle partitions and result blobs — route
through the environment's :class:`~repro.exchange.base.ExchangeBackend`
(ARCHITECTURE.md "Exchange backends"): the direct COS path by default, a
write-through memory tier or a provisioned ephemeral-store VM cluster by
configuration.  A storage serving a running function carries that
function's ``(invoker_id, container_id)`` site and hands it to every
exchange call, which is what lets a backend's tier engage; client-side
storages have no site, and a storage built without a backend gets a
private direct-COS one.  Everything that is not an intermediate —
status, func, agg-data, journal, dead-letter, trace objects — is the
execution record and always talks straight to COS.
"""

from __future__ import annotations

from typing import Any, Optional

from repro.core import serializer
from repro.cos.client import COSClient
from repro.cos.errors import NoSuchKey, PreconditionFailed


def _no_watcher() -> None:
    return None


class InternalStorage:
    """Key-schema-aware wrapper over a :class:`COSClient`."""

    # a running function builds one: named slots, and a ``__dict__`` only
    # for an instance whose methods a caller overrides
    __slots__ = ("cos", "bucket", "prefix", "exchange", "site", "watcher", "__dict__")

    def __init__(
        self,
        cos: COSClient,
        bucket: str,
        prefix: str = "pywren.jobs",
        exchange=None,
        site=None,
    ) -> None:
        self.cos = cos
        self.bucket = bucket
        self.prefix = prefix.strip("/")
        if exchange is None:
            from repro.exchange import CosExchange

            exchange = CosExchange()
        #: the :class:`~repro.exchange.base.ExchangeBackend` serving
        #: intermediate reads and writes
        self.exchange = exchange
        #: ``(invoker_id, container_id)`` of the function this storage
        #: serves, or ``None`` on the client side (no tier engages)
        self.site = site
        #: the owning executor's watcher, weakly (set by the executor)
        self.watcher = _no_watcher

    # -- key construction ---------------------------------------------------
    def callset_prefix(self, executor_id: str, callset_id: str) -> str:
        return f"{self.prefix}/{executor_id}/{callset_id}"

    def agg_data_key(self, executor_id: str, callset_id: str) -> str:
        return f"{self.callset_prefix(executor_id, callset_id)}/aggdata.pickle"

    def status_key(self, executor_id: str, callset_id: str, call_id: str) -> str:
        return f"{self.callset_prefix(executor_id, callset_id)}/{call_id}/status.pickle"

    def result_key(self, executor_id: str, callset_id: str, call_id: str) -> str:
        return f"{self.callset_prefix(executor_id, callset_id)}/{call_id}/result.pickle"

    # -- function code --------------------------------------------------------
    def shared_func_key(self, executor_id: str, digest: str) -> str:
        """Content-addressed function object, shared across callsets.

        Re-submitting the same function (e.g. repeated maps in a loop)
        reuses the already-uploaded blob instead of paying the WAN upload
        again.
        """
        return f"{self.prefix}/{executor_id}/funcs/{digest}.pickle"

    def put_blob(self, key: str, blob: bytes) -> None:
        self.cos.put_object(self.bucket, key, blob)

    def get_blob_steps(self, key: str):
        return (yield from self.cos.get_object_steps(self.bucket, key))

    # -- aggregated call data -------------------------------------------------
    def put_agg_data(self, executor_id: str, callset_id: str, blob: bytes) -> str:
        key = self.agg_data_key(executor_id, callset_id)
        self.cos.put_object(self.bucket, key, blob)
        return key

    def get_data_range_steps(
        self, executor_id: str, callset_id: str, start: int, end: int
    ):
        key = self.agg_data_key(executor_id, callset_id)
        return (yield from self.cos.read_range_steps(self.bucket, key, start, end))

    # -- status ---------------------------------------------------------------
    def commit_status_steps(
        self, executor_id: str, callset_id: str, call_id: str, status: dict[str, Any]
    ):
        """At-most-once status write: first committer wins.

        A re-invoked call can race its presumed-dead predecessor; both may
        finish and both will try to publish a status object.  The write is
        conditional (``If-None-Match: *``) so exactly one attempt's outcome
        becomes *the* outcome; the loser's duplicate result blob is harmless
        (same function, same input).  Returns whether this attempt won.
        """
        blob = serializer.serialize(status)
        try:
            yield from self.cos.put_object_steps(
                self.bucket,
                self.status_key(executor_id, callset_id, call_id),
                blob,
                if_none_match=True,
            )
        except PreconditionFailed:
            return False
        return True

    def get_status(
        self, executor_id: str, callset_id: str, call_id: str
    ) -> Optional[dict[str, Any]]:
        return self.cos.link.kernel.drive(self.get_status_steps(executor_id, callset_id, call_id))

    def get_status_steps(self, executor_id: str, callset_id: str, call_id: str):
        """The status dict, or ``None`` if the call has not finished."""
        try:
            blob = yield from self.cos.get_object_steps(
                self.bucket, self.status_key(executor_id, callset_id, call_id)
            )
        except NoSuchKey:
            return None
        return serializer.deserialize(blob)

    def list_done_call_ids_steps(self, executor_id: str, callset_id: str):
        """Call ids with a status object, via one LIST request (§4.2 wait)."""
        prefix = self.callset_prefix(executor_id, callset_id) + "/"
        done = set()
        for key in (yield from self.cos.list_keys_steps(self.bucket, prefix)):
            if key.endswith("/status.pickle"):
                parts = key[len(prefix):].split("/")
                if len(parts) == 2:
                    done.add(parts[0])
        return done

    # -- shuffle partitions ------------------------------------------------------
    def shuffle_key(
        self, executor_id: str, callset_id: str, call_id: str, reducer: int
    ) -> str:
        return (
            f"{self.callset_prefix(executor_id, callset_id)}/{call_id}"
            f"/shuffle/{reducer:05d}.pickle"
        )

    def put_shuffle_partition(
        self,
        executor_id: str,
        callset_id: str,
        call_id: str,
        reducer: int,
        blob: bytes,
    ) -> int:
        """Write a map task's pickled bucket for one reducer."""
        key = self.shuffle_key(executor_id, callset_id, call_id, reducer)
        self.exchange.put(self.cos, self.bucket, key, blob, self.site)
        return len(blob)

    def get_shuffle_partition(
        self, executor_id: str, callset_id: str, call_id: str, reducer: int
    ) -> bytes:
        """A map task's pickled bucket for one reducer; ``b""`` means 'emitted none'.

        Served through the exchange backend (shuffle partitions are the
        intermediate the faster planes exist for); only in-cloud readers
        see a tier, everyone else gets the direct COS path.
        """
        try:
            return self.exchange.get(
                self.cos,
                self.bucket,
                self.shuffle_key(executor_id, callset_id, call_id, reducer),
                self.site,
            )
        except NoSuchKey:
            return b""

    # -- dead letters ----------------------------------------------------------
    def deadletter_key(self, executor_id: str, callset_id: str) -> str:
        return f"{self.callset_prefix(executor_id, callset_id)}/deadletter.json"

    def put_deadletter(
        self, executor_id: str, callset_id: str, report: Any
    ) -> str:
        """Persist a failure report next to the callset's other objects.

        Stored as lossless JSON (``FailureReport.to_json``) rather than
        pickle so the dead-letter object is inspectable by anything that
        can read COS, and round-trips exception text and retry counters
        exactly.
        """
        key = self.deadletter_key(executor_id, callset_id)
        self.cos.put_object(self.bucket, key, report.to_json().encode("utf-8"))
        return key

    # -- event journal ---------------------------------------------------------
    def journal_prefix(self, executor_id: str) -> str:
        return f"{self.prefix}/{executor_id}/journal/"

    def journal_key(self, executor_id: str, seq: int) -> str:
        return f"{self.journal_prefix(executor_id)}{seq:08d}.json"

    def append_journal_record_steps(self, executor_id: str, seq: int, text: str):
        """Durably append one event record at position ``seq``.

        The write is conditional (``If-None-Match: *``, the same primitive
        as :meth:`commit_status_steps`), so the log is append-once: two drivers
        racing for the same slot cannot silently overwrite each other —
        the loser learns it lost and must re-read the log.  Returns
        whether this append won the slot.
        """
        try:
            yield from self.cos.put_object_steps(
                self.bucket,
                self.journal_key(executor_id, seq),
                text.encode("utf-8"),
                if_none_match=True,
            )
        except PreconditionFailed:
            return False
        return True

    def list_journal_seqs(self, executor_id: str) -> list[int]:
        """Sequence numbers present in the journal, ascending (one LIST)."""
        prefix = self.journal_prefix(executor_id)
        seqs = []
        for key in self.cos.list_keys(self.bucket, prefix):
            name = key[len(prefix):]
            if name.endswith(".json"):
                try:
                    seqs.append(int(name[:-5]))
                except ValueError:
                    continue
        return sorted(seqs)

    def get_journal_record(self, executor_id: str, seq: int) -> Optional[str]:
        """One event record's canonical JSON text, or ``None``."""
        try:
            blob = self.cos.get_object(
                self.bucket, self.journal_key(executor_id, seq)
            )
        except NoSuchKey:
            return None
        return blob.decode("utf-8")

    # -- swarm scheduling plane -------------------------------------------------
    def swarm_prefix(self, executor_id: str, dag_id: str) -> str:
        return f"{self.prefix}/{executor_id}/{dag_id}/swarm"

    def swarm_schedule_key(self, executor_id: str, dag_id: str) -> str:
        return f"{self.swarm_prefix(executor_id, dag_id)}/schedule.pickle"

    def swarm_marker_key(
        self, executor_id: str, dag_id: str, node_key: str, dep_key: str
    ) -> str:
        """The append-once "dependency ``dep_key`` of ``node_key`` is done"
        marker — one per DAG edge, written by the dependency's worker."""
        return (
            f"{self.swarm_prefix(executor_id, dag_id)}/{node_key}"
            f"/dep-{dep_key}.done"
        )

    def swarm_token_key(
        self, executor_id: str, dag_id: str, node_key: str
    ) -> str:
        """The node's fire token: whoever creates it invokes the node."""
        return f"{self.swarm_prefix(executor_id, dag_id)}/{node_key}/fire.token"

    def put_swarm_schedule(
        self, executor_id: str, dag_id: str, blob: bytes
    ) -> str:
        """Ship the static schedule once at submit (client side, one PUT):
        the concatenated per-node blocks of ``swarm.build_schedule``."""
        key = self.swarm_schedule_key(executor_id, dag_id)
        self.cos.put_object(self.bucket, key, blob)
        return key

    def get_swarm_slice_steps(
        self, executor_id: str, dag_id: str, offset: int, length: int
    ):
        """A worker range-reads one schedule block — its own slice,
        O(out-degree) bytes — over the in-cloud link, never the graph."""
        blob = yield from self.cos.read_range_steps(
            self.bucket,
            self.swarm_schedule_key(executor_id, dag_id),
            offset,
            offset + length,
        )
        return serializer.deserialize(blob)

    def commit_swarm_marker_steps(
        self,
        executor_id: str,
        dag_id: str,
        node_key: str,
        dep_key: str,
        payload: dict[str, Any],
    ):
        """Decrement one dependency counter: create the edge's done marker.

        Conditional (``If-None-Match: *``, the same append-once primitive
        as :meth:`commit_status_steps` and :meth:`append_journal_record_steps`), so a
        re-run of the producing node cannot decrement twice.  Returns
        whether this attempt created the marker.
        """
        try:
            yield from self.cos.put_object_steps(
                self.bucket,
                self.swarm_marker_key(executor_id, dag_id, node_key, dep_key),
                serializer.serialize(payload),
                if_none_match=True,
            )
        except PreconditionFailed:
            return False
        return True

    def claim_swarm_token_steps(
        self,
        executor_id: str,
        dag_id: str,
        node_key: str,
        payload: dict[str, Any],
    ):
        """Claim the exclusive right to invoke ``node_key``.

        Several workers can observe the same counter hit zero (their LIST
        responses race); the conditional PUT on the fire token picks
        exactly one winner, so a node is never worker-invoked twice.
        Returns whether this attempt won the token.
        """
        try:
            yield from self.cos.put_object_steps(
                self.bucket,
                self.swarm_token_key(executor_id, dag_id, node_key),
                serializer.serialize(payload),
                if_none_match=True,
            )
        except PreconditionFailed:
            return False
        return True

    def swarm_token_claimed_steps(self, executor_id: str, dag_id: str, node_key: str):
        """Whether some worker already claimed ``node_key``'s fire token.

        Client side: the supervisor checks this before re-driving an
        overdue delegated node — a claimed token means the invocation
        (almost certainly) happened and the node is merely still running,
        so the redrive fuse is extended rather than fired.
        """
        return (yield from self.cos.object_exists_steps(
            self.bucket, self.swarm_token_key(executor_id, dag_id, node_key)
        ))

    def count_swarm_markers_steps(
        self, executor_id: str, dag_id: str, node_key: str
    ):
        """Done markers present for ``node_key``, via one LIST request."""
        prefix = f"{self.swarm_prefix(executor_id, dag_id)}/{node_key}/"
        keys = yield from self.cos.list_keys_steps(self.bucket, prefix)
        return sum(1 for key in keys if key.endswith(".done"))

    # -- job traces ------------------------------------------------------------
    def trace_key(self, executor_id: str, callset_id: str) -> str:
        return f"{self.callset_prefix(executor_id, callset_id)}/trace.jsonl"

    def put_trace(self, executor_id: str, callset_id: str, jsonl: str) -> str:
        """Persist a job's exported trace next to its other COS objects."""
        key = self.trace_key(executor_id, callset_id)
        self.cos.put_object(self.bucket, key, jsonl.encode("utf-8"))
        return key

    # -- results ---------------------------------------------------------------
    def put_result_steps(
        self, executor_id: str, callset_id: str, call_id: str, value: Any
    ):
        blob = serializer.serialize(value)
        key = self.result_key(executor_id, callset_id, call_id)
        yield from self.exchange.put_steps(
            self.cos, self.bucket, key, blob, self.site
        )
        return len(blob)

    def get_result(self, executor_id: str, callset_id: str, call_id: str) -> Any:
        return self.cos.link.kernel.drive(self.get_result_steps(executor_id, callset_id, call_id))

    def get_result_steps(self, executor_id: str, callset_id: str, call_id: str):
        """A call's result blob — tier-first for in-cloud readers (DAG
        dependents consuming upstream node outputs); plain COS otherwise."""
        blob = yield from self.exchange.get_steps(
            self.cos,
            self.bucket,
            self.result_key(executor_id, callset_id, call_id),
            self.site,
        )
        return serializer.deserialize(blob)
