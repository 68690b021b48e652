"""COS-based shuffle: full keyed MapReduce over serverless functions.

The paper's related-work section calls data shuffling "one of the biggest
challenges in running MapReduce jobs over serverless architectures", with
proposals to route intermediate data through S3/ElastiCache/SQS.  This
module implements the object-storage flavour on top of IBM-PyWren's own
primitives:

* each **map** task applies the user function (which emits ``(key, value)``
  pairs), groups them into R hash-partitioned buckets ``{key: [values]}``
  (one value list per distinct key, not one tuple per pair), pickles every
  non-empty bucket, and only then writes each blob as a COS object under
  its own call prefix;
* each of the R **reducers** reads *its* blob from every map's output,
  keeps them as ``bytes`` until the last read returns, then unpickles them
  in map order, extends one value list per key, and applies the user
  reduce function.

Between those two points the intermediate data sits on the host heap as
untracked ``bytes``: a shim blocked in virtual time on a PUT or GET holds
no value lists for the cyclic collector to walk.

Everything — the map shim, the reducers, the completion signalling — rides
the ordinary executor machinery: the shims are module-level functions
bound to the job's arguments with :func:`functools.partial`, so they ship
by reference like the rest of the runtime image; reducers are DAG nodes
over the map futures, invoked by the dependency watcher once the last map
status commits.

The shims never name a data plane: ``put_shuffle_partition`` and
``get_shuffle_partition`` route through the environment's pluggable
:class:`~repro.exchange.base.ExchangeBackend` (ARCHITECTURE.md
"Exchange backends"), so the same code shuffles via direct COS, the
memory-tier cache, or the VM ephemeral-store cluster — the
S3/ElastiCache exchange alternatives of the related work, selected by
``ExchangeConfig`` without changing a line here.
"""

from __future__ import annotations

import functools
import hashlib
from typing import Any, Callable, Iterable

from repro.core import context as ambient
from repro.core import serializer
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


def shuffle_map(
    map_function: Callable[[Any], Iterable[Pair]],
    n_reducers: int,
    argument: Any,
) -> dict[str, Any]:
    """The map-side shim (runs inside the cloud function).

    Uses the ambient call info to address this call's shuffle objects.
    Every non-empty bucket is pickled before the first PUT and the dicts
    are dropped, so while the PUTs sleep in virtual time the map holds
    untracked ``bytes``, not value lists for the cyclic collector to walk.
    """
    context = ambient.require_context()
    info = context.call_info
    if info is None:
        raise RuntimeError("shuffle map must run inside a function executor")
    storage = context.environment.internal_storage_in_cloud()
    buckets = partition_pairs(map_function(argument), n_reducers)
    emitted = sum(len(values) for bucket in buckets for values in bucket.values())
    blobs = [serializer.serialize(bucket) if bucket else b"" for bucket in buckets]
    del buckets
    written = 0
    for reducer_index, blob in enumerate(blobs):
        if blob:
            storage.put_shuffle_partition(
                info["executor_id"],
                info["callset_id"],
                info["call_id"],
                reducer_index,
                blob,
            )
            written += 1
    return {"emitted": emitted, "buckets_written": written}


def make_shuffle_map(
    map_function: Callable[[Any], Iterable[Pair]], n_reducers: int
) -> Callable[[Any], dict[str, Any]]:
    """Bind :func:`shuffle_map` to one job's map function and fan-in."""
    return functools.partial(shuffle_map, map_function, n_reducers)


def shuffle_reduce(
    reduce_function: Callable[[Any, list[Any]], Any],
    reducer_index: int,
    map_futures: list[ResponseFuture],
) -> dict[Any, Any]:
    """One reducer's *fetch-only* shim for the DAG scheduler.

    The scheduler only invokes a reducer node once every map status has
    committed, so this shim goes straight to its buckets.  It receives
    the map futures as its argument (a ``pass_futures`` DAG node) and
    reads bucket ``reducer_index`` from each map's shuffle prefix without
    downloading any map results.  The blobs stay ``bytes`` until the last
    GET returns; they are then unpickled and grouped in map order, so
    keys keep their first-seen order and values their emission order.
    """
    context = ambient.require_context()
    storage = context.environment.internal_storage_in_cloud()
    blobs = [
        storage.get_shuffle_partition(
            future.executor_id,
            future.callset_id,
            future.call_id,
            reducer_index,
        )
        for future in map_futures
    ]
    grouped: dict[Any, list[Any]] = {}
    for blob in blobs:
        if blob:
            for key, values in serializer.deserialize(blob).items():
                grouped.setdefault(key, []).extend(values)
    return {key: reduce_function(key, values) for key, values in grouped.items()}


def make_shuffle_reduce_fetch(
    reduce_function: Callable[[Any, list[Any]], Any],
    reducer_index: int,
) -> Callable[[list[ResponseFuture]], dict[Any, Any]]:
    """Bind :func:`shuffle_reduce` to one reducer's function and index."""
    return functools.partial(shuffle_reduce, reduce_function, reducer_index)


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
