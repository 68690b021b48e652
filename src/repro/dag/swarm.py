"""Decentralized, worker-driven DAG scheduling (the swarm plane).

The centralized :class:`~repro.dag.DagScheduler` discovers every node
completion from the client, so each graph edge costs at least one WAN
round-trip (~250 ms) plus up to a poll interval before the dependent can
launch.  Wukong-style swarm scheduling moves that hot path into the
cloud: the client ships one *static schedule* object to COS at submit,
laid out as one slice per node (its dependents' dependency counts and
call parameter refs), and each worker, after winning its node's status
commit, range-reads only its own slice, decrements its dependents'
dependency counters and directly invokes every dependent that became
ready — over the in-cloud link (~4 ms), carrying a placement hint for its
own invoker node so the dependent lands where the freshly written output
is resident.

COS has no compare-and-swap, so the "counter" is built from the same
append-once primitive the event journal uses (conditional PUT,
``If-None-Match: *``):

* one **done marker** object per DAG edge — the producing worker creates
  it exactly once (a duplicate run of the same node loses the conditional
  PUT and backs off), then counts the dependent's markers with one LIST;
* one **fire token** object per node — every worker that observes the
  count reach the dependency total races to create it, and the single
  winner invokes the node.  Single-dependency nodes (linear chains) skip
  the marker entirely: the token claim *is* the decrement.

The protocol is crash-safe but not loss-proof: a worker that dies after
committing its status but before finishing the handoff leaves durable
markers and possibly a claimed-but-unfired token.  The client-side
supervisor (the slimmed :class:`~repro.dag.DagScheduler`) covers that
tail: any dependency-complete node that produces no status within the
orphan grace is re-driven from the client, and the at-most-once status
commit makes the duplicate invocation harmless.
"""

from __future__ import annotations

from typing import Any, Mapping, Optional

from repro.core import serializer
from repro.dag.graph import Dag
from repro.dag.node import DagNode

__all__ = [
    "node_key",
    "split_key",
    "is_drivable",
    "build_schedule",
    "ready_dependents_steps",
    "StorageSwarmStore",
    "swarm_handoff_steps",
]


def node_key(callset_id: str, call_id: str) -> str:
    """Stable per-node key used in swarm object names and the schedule."""
    return f"{callset_id}-{call_id}"


def split_key(key: str) -> tuple[str, str]:
    """Inverse of :func:`node_key` (call ids never contain ``-``)."""
    callset_id, _, call_id = key.rpartition("-")
    return callset_id, call_id


def is_drivable(node: DagNode) -> bool:
    """Whether workers can fire ``node`` without the client.

    A node is swarm-drivable when every one of its dependencies runs as a
    framework activation: each dependency's worker then contributes its
    counter decrement.  Roots (the client invokes them at submit) and
    nodes consuming external futures (only the client observes those)
    stay supervisor-driven.
    """
    return (
        not node.external
        and bool(node.deps)
        and all(not dep.external for dep in node.deps)
    )


def build_schedule(
    dag: Dag,
    dag_id: str,
    *,
    namespace: str,
    action: str,
) -> bytes:
    """Stamp every node and freeze the graph into the schedule object.

    The object is a concatenation of independently pickled blocks.  Each
    node with drivable dependents gets a *slice* holding only what its
    worker needs to hand off: its display name, the invoke target, and
    per dependent the dependency count and the already-prepared call
    parameters.  Every node's params get a ``swarm`` stamp carrying its
    own slice ``[offset, length]`` (``None``: nothing to fire), so a
    finishing worker range-reads O(out-degree) bytes and the whole run
    reads O(N + E).  A fan-in node's dependency ids (needed only by the
    one worker that fires it, for residency-ranked placement) are stored
    once in a block of their own, referenced by range from its parents'
    slices, not copied into each.  Blocks are laid out sinks-first: a
    dependent's stamp and ranges — which ride inside its parents' slices
    — are final before any parent is pickled.  Immutable for the run;
    client retries and re-drives reuse the stamped params.
    """
    blocks: list[bytes] = []
    size = 0

    def place(obj: Any) -> list[int]:
        nonlocal size
        blob = serializer.serialize(obj)
        blocks.append(blob)
        size += len(blob)
        return [size - len(blob), len(blob)]

    deps_at: dict[int, list[int]] = {}
    for node in sorted(dag.internal_nodes, key=lambda n: (-n.level, n.node_id)):
        dependents = {
            node_key(dep.future.callset_id, dep.future.call_id): {
                "name": dep.display_name,
                "params": dep.call_params,
                "dep_count": len(dep.deps),
                "deps": deps_at.get(dep.node_id),
            }
            for dep in node.dependents
            if is_drivable(dep)
        }
        span = None
        if dependents:
            span = place({
                "name": node.display_name,
                "namespace": namespace,
                "action": action,
                "dependents": dependents,
            })
        if len(node.deps) > 1 and is_drivable(node):
            deps_at[node.node_id] = place(
                [[d.future.callset_id, d.future.call_id] for d in node.deps]
            )
        node.call_params = node.future._call_params = {
            **node.call_params,
            "swarm": {"dag_id": dag_id, "slice": span},
        }
    return b"".join(blocks)


class StorageSwarmStore:
    """The real conditional-PUT store, bound to one (executor, dag)."""

    def __init__(self, storage, executor_id: str, dag_id: str) -> None:
        self._storage = storage
        self._executor_id = executor_id
        self._dag_id = dag_id

    def put_marker_steps(self, key: str, dep_key: str, payload: dict):
        won = yield from self._storage.commit_swarm_marker_steps(
            self._executor_id, self._dag_id, key, dep_key, payload
        )
        return won

    def count_markers_steps(self, key: str):
        count = yield from self._storage.count_swarm_markers_steps(
            self._executor_id, self._dag_id, key
        )
        return count

    def claim_token_steps(self, key: str, payload: dict):
        won = yield from self._storage.claim_swarm_token_steps(
            self._executor_id, self._dag_id, key, payload
        )
        return won


def ready_dependents_steps(
    store, dependents: Mapping[str, dict], done_key: str, payload: dict
):
    """The counter-decrement protocol, as a steps generator.

    Runs after ``done_key``'s status commit won, over the ``dependents``
    of its own slice — no global view of the graph is needed.  For each
    dependent: create the edge's done marker (skip the dependent entirely
    if a duplicate run of this node already owns the edge), count markers,
    and when the count reaches the dependency total race for the fire
    token.  Returns the dependent keys *this* caller won the right to
    invoke — every dependent is returned by at most one caller across all
    concurrent and repeated runs.

    ``store`` is duck-typed (:class:`StorageSwarmStore` in production, an
    in-memory twin in the property tests) so the exactly-once guarantee
    is testable under arbitrary interleavings and mid-protocol crashes.
    """
    won: list[str] = []
    for child_key, child in dependents.items():
        if child["dep_count"] > 1:
            created = yield from store.put_marker_steps(
                child_key, done_key, payload
            )
            if not created:
                # a duplicate completion of done_key already decremented
                # this edge; whoever wrote the marker owns the follow-up
                continue
            present = yield from store.count_markers_steps(child_key)
            if present < child["dep_count"]:
                continue
        claimed = yield from store.claim_token_steps(child_key, payload)
        if claimed:
            won.append(child_key)
    return won


def swarm_handoff_steps(info: dict[str, Any], ctx, storage, status: dict):
    """Worker-side handoff, run after a *winning, successful* status commit.

    ``info`` is the node's ``call_params["swarm"]`` and ``status`` the
    status object it just committed, which names the node's own call.

    Range-reads this node's own schedule slice over the in-cloud link
    (skipped when it has no drivable dependents), runs the counter
    protocol, and invokes every won dependent through ``ctx.functions``
    — the same trusted in-cloud gateway path the massive invoker uses —
    with a placement hint aimed at this worker's own invoker node.
    """
    if info["slice"] is None:
        return
    executor_id = status["executor_id"]
    dag_id = info["dag_id"]
    me = node_key(status["callset_id"], status["call_id"])
    record = yield from storage.get_swarm_slice_steps(
        executor_id, dag_id, *info["slice"]
    )
    dependents = record["dependents"]
    store = StorageSwarmStore(storage, executor_id, dag_id)
    payload = {
        "by": me,
        "invoker_id": ctx.record.invoker_id,
        "activation_id": ctx.activation_id,
    }
    tracer = ctx.platform.tracer
    if tracer is not None and not tracer.enabled:
        tracer = None

    won = yield from ready_dependents_steps(store, dependents, me, payload)
    for child_key in won:
        child = dependents[child_key]
        child_params = dict(child["params"])
        hint = yield from _handoff_hint_steps(
            child, executor_id, dag_id, ctx.record.invoker_id, storage
        )
        if hint:
            child_params["placement_hint"] = hint
        callset_id, call_id = split_key(child_key)
        ids = {
            "executor_id": executor_id,
            "callset_id": callset_id,
            "call_id": call_id,
            "dag_id": dag_id,
        }
        if tracer is not None:
            tracer.point(
                "swarm.ready", "swarm", ids=ids,
                node=child["name"],
                by=record["name"],
                deps=child["dep_count"],
            )
        t0 = ctx.kernel.now()
        activation_id = yield from ctx.functions.invoke_steps(
            record["namespace"], record["action"], child_params
        )
        if tracer is not None:
            tracer.span_at(
                "swarm.invoke", "swarm", t0, ctx.kernel.now(),
                ids={**ids, "activation_id": activation_id},
                node=child["name"],
                by=record["name"],
                invoker_id=ctx.record.invoker_id,
            )
    return


def _handoff_hint_steps(
    child: dict[str, Any],
    executor_id: str,
    dag_id: str,
    own_invoker: Optional[int],
    storage,
):
    """Placement hint for a worker-fired dependent.

    The firing worker's own invoker node leads — its result blob was
    written through the exchange from this site an instant ago, so linear
    chains let the dependent read its input without the data ever leaving
    the node.  When the storage's exchange backend provides a locality
    directory, a fan-in dependent's *other* inputs (one more range read:
    its dependency-id block) upgrade the tail of the hint by current
    memory residency (same ranking the centralized scheduler uses).
    """
    from repro.dag.locality import MAX_HINT

    hint: list[int] = [] if own_invoker is None else [own_invoker]
    exchange = getattr(storage, "exchange", None)
    if child["deps"] is not None and getattr(
        exchange, "provides_locality", False
    ):
        deps = yield from storage.get_swarm_slice_steps(
            executor_id, dag_id, *child["deps"]
        )
        resident: dict[int, int] = {}
        for callset_id, call_id in deps:
            key = storage.result_key(executor_id, callset_id, call_id)
            for invoker, nbytes in exchange.locate(key):
                if invoker == own_invoker:
                    continue
                resident[invoker] = resident.get(invoker, 0) + nbytes
        hint.extend(sorted(resident, key=lambda n: (-resident[n], n)))
    return hint[:MAX_HINT] or None
