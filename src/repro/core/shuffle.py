"""COS-based shuffle: full keyed MapReduce over serverless functions.

The paper's related-work section calls data shuffling "one of the biggest
challenges in running MapReduce jobs over serverless architectures", with
proposals to route intermediate data through S3/ElastiCache/SQS.  This
module implements the object-storage flavour on top of IBM-PyWren's own
primitives:

* each **map** task applies the user function (which emits ``(key, value)``
  pairs), groups them into R hash-partitioned buckets ``{key: [values]}``
  (one value list per distinct key, not one tuple per pair), and writes
  each bucket as a COS object under its own call prefix;
* each of the R **reducers** reads *its* bucket from every map's output,
  extends one value list per key, and applies the user reduce function.

Everything — the map shim, the reducers, the completion signalling — rides
the ordinary executor machinery: shims are plain functions serialized by
value; reducers are DAG nodes over the map futures, invoked by the
dependency watcher once the last map status commits.

The shims never name a data plane: ``put_shuffle_partition`` and
``get_shuffle_partition`` route through the environment's pluggable
:class:`~repro.exchange.base.ExchangeBackend` (ARCHITECTURE.md
"Exchange backends"), so the same code shuffles via direct COS, the
memory-tier cache, or the VM ephemeral-store cluster — the
S3/ElastiCache exchange alternatives of the related work, selected by
``ExchangeConfig`` without changing a line here.
"""

from __future__ import annotations

import hashlib
from typing import Any, Callable, Iterable

from repro.core import context as ambient
from repro.core.futures import ResponseFuture

#: map output pair: (key, value)
Pair = tuple[Any, Any]


def stable_key_hash(key: Any) -> int:
    """Deterministic, process-independent hash for shuffle partitioning.

    Built on the ``repr`` of the key, which is stable for the hashable
    primitives (str/int/float/tuples thereof) sensible as shuffle keys.

    The routing contract is therefore *by repr*, not by equality: keys
    that compare equal but print differently (``1`` / ``1.0`` / ``True``,
    ``0.0`` / ``-0.0``, ``(1,)`` / ``(1.0,)``) may reach different
    reducers, each of which reports the key, and
    :func:`merge_shuffle_results` rejects the overlap.  Emit one
    spelling per key.
    """
    digest = hashlib.md5(repr(key).encode("utf-8", "backslashreplace")).digest()
    return int.from_bytes(digest[:8], "big")


def partition_pairs(pairs: Iterable[Pair], n_reducers: int) -> list[dict]:
    """Group emitted pairs into ``n_reducers`` buckets ``{key: [values]}``.

    Values keep emission order; an unhashable key raises ``TypeError``.  A
    key is hashed once per call, not once per pair: its value list (or its
    slot) is remembered until the call returns.
    """
    buckets: list[dict[Any, list[Any]]] = [{} for _ in range(n_reducers)]
    # Two keys may share a remembered slot only when their repr is equal
    # (the routing contract), so only an exact str or int stands for its
    # own repr and may remember its list; 1 / 1.0 / True and NaN go by
    # repr(key) to a slot, where the bucket groups them by equality.
    lists: dict[Any, list[Any]] = {}
    slots: dict[str, int] = {}
    for key, value in pairs:
        cls = type(key)
        if cls is str or cls is int:
            values = lists.get(key)
            if values is None:
                bucket = buckets[stable_key_hash(key) % n_reducers]
                values = lists[key] = bucket.setdefault(key, [])
        else:
            name = repr(key)
            slot = slots.get(name)
            if slot is None:
                slot = slots[name] = stable_key_hash(key) % n_reducers
            values = buckets[slot].setdefault(key, [])
        values.append(value)
    return buckets


def make_shuffle_map(
    map_function: Callable[[Any], Iterable[Pair]], n_reducers: int
):
    """Build the map-side shim (runs inside the cloud function).

    Uses the ambient call info to address this call's shuffle objects.
    """

    def shuffle_map(argument: Any) -> dict[str, Any]:
        context = ambient.require_context()
        info = context.call_info
        if info is None:
            raise RuntimeError("shuffle map must run inside a function executor")
        storage = context.environment.internal_storage_in_cloud()
        buckets = partition_pairs(map_function(argument), n_reducers)
        emitted = written = 0
        for reducer_index, bucket in enumerate(buckets):
            if bucket:
                storage.put_shuffle_partition(
                    info["executor_id"],
                    info["callset_id"],
                    info["call_id"],
                    reducer_index,
                    bucket,
                )
                emitted += sum(map(len, bucket.values()))
                written += 1
        return {"emitted": emitted, "buckets_written": written}

    return shuffle_map


def make_shuffle_reduce_fetch(
    reduce_function: Callable[[Any, list[Any]], Any],
    reducer_index: int,
):
    """Build one reducer's *fetch-only* shim for the DAG scheduler.

    The scheduler only invokes a reducer node once every map status has
    committed, so this shim goes straight to its buckets.  It receives
    the map futures as its argument (a ``pass_futures`` DAG node) and
    reads bucket ``reducer_index`` from each map's shuffle prefix without
    downloading any map results.
    """

    def shuffle_reduce(map_futures: list[ResponseFuture]) -> dict[Any, Any]:
        context = ambient.require_context()
        storage = context.environment.internal_storage_in_cloud()
        grouped: dict[Any, list[Any]] = {}
        for future in map_futures:
            bucket = storage.get_shuffle_partition(
                future.executor_id,
                future.callset_id,
                future.call_id,
                reducer_index,
            )
            for key, values in bucket.items():
                grouped.setdefault(key, []).extend(values)
        return {
            key: reduce_function(key, values) for key, values in grouped.items()
        }

    return shuffle_reduce


def merge_shuffle_results(results: Iterable[dict[Any, Any]]) -> dict[Any, Any]:
    """Merge per-reducer output dicts (keys are disjoint by construction)."""
    merged: dict[Any, Any] = {}
    for result in results:
        overlap = merged.keys() & result.keys()
        if overlap:
            raise ValueError(
                f"shuffle invariant violated: keys {sorted(overlap, key=repr)!r} "
                "appeared in more than one reducer"
            )
        merged.update(result)
    return merged
