"""Server-side job runner — the code that executes *inside* the container.

There are exactly two actions the framework ever deploys:

* the **runner** (:func:`runner_handler`): fetches the serialized function
  and its input from COS, executes it, and writes result + status back
  (steps 3 of Fig. 1);
* the **remote invoker** (:func:`remote_invoker_handler`): the §5.1 massive
  function spawning mechanism — receives a batch of call parameters and
  issues the actual runner invocations from *inside* the cloud, where the
  invocation latency is minimal.

Both handlers are *steps generators* the platform runs as model tasks, so
an activation waiting on COS or on a timer holds no OS thread.  Only a plain
user function costs a pooled worker thread, and only while it runs (a DAG
node's inputs load before it starts); a steps-generator user function keeps
the activation threadless, so one process models tens of thousands of them.
"""

from __future__ import annotations

import inspect
import traceback
from typing import Any

from repro.core import context as ambient
from repro.core import serializer
from repro.core.partitioner import StoragePartition
from repro.core.storage_client import InternalStorage
from repro.dag.scheduler import _dag_node_call, dag_node_inputs_steps
from repro.faas.controller import ExecutionContext
from repro.vtime.kernel import vjoin

#: deployed action name templates
RUNNER_ACTION_BASENAME = "pywren_runner"
REMOTE_INVOKER_ACTION = "pywren_remote_invoker"


def runner_action_name(runtime: str, memory_mb: int) -> str:
    """Deterministic action name for a (runtime, memory) runner variant."""
    sanitized = runtime.replace(":", "-").replace("/", "_")
    return f"{RUNNER_ACTION_BASENAME}__{sanitized}__{memory_mb}mb"


def _load_input_steps(
    params: dict[str, Any], storage: InternalStorage, ctx: ExecutionContext
):
    """Rebuild the call's single input argument (steps generator)."""
    data_range = params.get("data_range")
    if data_range is not None:
        start, end = data_range
        blob = yield from storage.get_data_range_steps(
            params["executor_id"], params["callset_id"], start, end
        )
        return serializer.deserialize(blob)
    partition_spec = params.get("partition")
    if partition_spec is not None:
        return StoragePartition.from_spec(partition_spec, cos=ctx.cos)
    return None


def _run_user_fn_boxed(fn: Any, argument: Any, box: dict) -> None:
    """Run a plain (blocking) user function on a pooled thread.

    Outcome goes into ``box`` so the runner's model task can rebuild the
    exact success/error result shape the in-task call used to produce.
    """
    try:
        box["value"] = fn(argument)
    except Exception as exc:  # noqa: BLE001 - shipped back to the client
        box["exc"] = exc
        box["tb"] = traceback.format_exc()


def runner_handler(params: dict[str, Any], ctx: ExecutionContext):
    """Execute one function executor call (steps generator)."""
    executor_id = params["executor_id"]
    callset_id = params["callset_id"]
    call_id = params["call_id"]
    storage = InternalStorage(
        ctx.cos,
        params["bucket"],
        params["prefix"],
        exchange=getattr(ctx.platform, "exchange", None),
        site=(ctx.record.invoker_id, ctx.record.container_id),
    )
    tracer = ctx.platform.tracer
    if tracer is not None and not tracer.enabled:
        tracer = None

    t_deser = ctx.kernel.now() if tracer is not None else None
    func_blob = yield from storage.get_blob_steps(params["func_key"])
    fn = serializer.deserialize(func_blob)
    argument = yield from _load_input_steps(params, storage, ctx)
    if tracer is not None:
        tracer.span_at(
            "worker.deserialize", "worker", t_deser, ctx.kernel.now(),
            func_bytes=len(func_blob),
        )

    environment = ctx.platform.environment
    ambient.push_context(
        environment, in_cloud=True, call_info=dict(params), execution_context=ctx
    )
    start_time = ctx.kernel.now()
    success = True
    error_text = None
    try:
        if inspect.isgeneratorfunction(fn):
            # a steps-style user function runs inline on the model task —
            # the activation never touches a worker thread
            try:
                value: Any = yield from fn(argument)
            except Exception as exc:  # noqa: BLE001 - shipped back
                success = False
                error_text = repr(exc)
                value = (_picklable_or_none(exc), traceback.format_exc())
        else:
            # arbitrary blocking user code gets a pooled thread; the pushed
            # ambient context is captured into it by the spawn.  A DAG
            # node's dependency results load first, here on the model task
            box: dict[str, Any] = {}
            if fn is _dag_node_call:
                try:
                    argument = yield from dag_node_inputs_steps(argument)
                except Exception as exc:  # noqa: BLE001 - shipped back
                    box["exc"], box["tb"] = exc, traceback.format_exc()
            if "exc" not in box:
                task = ctx.kernel.spawn(
                    _run_user_fn_boxed, fn, argument, box,
                    name=f"usr-{call_id}",
                )
                yield vjoin(task)
                if task._exception is not None:
                    raise task._exception
            if "exc" in box:
                success = False
                error_text = repr(box["exc"])
                value = (_picklable_or_none(box["exc"]), box["tb"])
            else:
                value = box.get("value")
    finally:
        ambient.pop_context()
    end_time = ctx.kernel.now()
    if tracer is not None:
        tracer.span_at(
            "worker.run", "worker", start_time, end_time, success=success
        )

    t_commit = ctx.kernel.now() if tracer is not None else None
    try:
        yield from storage.put_result_steps(executor_id, callset_id, call_id, value)
    except serializer.SerializationError as exc:
        success = False
        error_text = f"result not serializable: {exc}"
        yield from storage.put_result_steps(
            executor_id, callset_id, call_id, (None, error_text)
        )

    status = {
        "executor_id": executor_id,
        "callset_id": callset_id,
        "call_id": call_id,
        "success": success,
        "error": error_text,
        "start_time": start_time,
        "end_time": end_time,
        "activation_id": ctx.activation_id,
        "container_id": ctx.record.container_id,
        "cold_start": ctx.record.cold_start,
        # which invoker node ran this call — the DAG scheduler feeds it
        # back as a placement hint so dependents land next to their data
        "invoker_id": ctx.record.invoker_id,
    }
    committed = yield from storage.commit_status_steps(
        executor_id, callset_id, call_id, status
    )
    if tracer is not None:
        # run_start/run_end ride along so per-call stats derive from the
        # winning commit alone (exactly the status object's timestamps)
        tracer.span_at(
            "worker.commit", "worker", t_commit, ctx.kernel.now(),
            committed=committed,
            success=success,
            run_start=start_time,
            run_end=end_time,
        )

    if params.get("swarm") is not None and committed and success:
        # swarm-scheduled DAG node: the winning, successful commit carries
        # the scheduling baton — decrement dependents' counters and invoke
        # whatever became ready, from inside the cloud (see repro.dag.swarm)
        from repro.dag.swarm import swarm_handoff_steps

        yield from swarm_handoff_steps(params, ctx, storage, status)

    monitor_queue = params.get("monitor_queue")
    if monitor_queue and committed:
        # push-monitoring transport: notify the client directly, in
        # addition to the authoritative COS status object
        from repro.mq.client import MQClient

        mq = MQClient(
            environment.broker, ctx.platform.in_cloud_link_factory()
        )
        yield from mq.publish_steps(monitor_queue, dict(status))
    return {"call_id": call_id, "success": success}


def _picklable_or_none(exc: BaseException) -> BaseException | None:
    try:
        serializer.serialize(exc)
        return exc
    except serializer.SerializationError:
        return None


def remote_invoker_handler(params: dict[str, Any], ctx: ExecutionContext):
    """Spawn a batch of runner invocations from inside the cloud (§5.1).

    ``pool_size <= 1`` issues them sequentially (the per-group behaviour of
    the final massive-spawning design); larger pools model the first
    remote-invoker attempt that used threading inside a single function —
    here each pool lane is a sub model task, so no extra threads either way.
    """
    namespace = params["namespace"]
    action = params["action"]
    calls: list[dict[str, Any]] = params["calls"]
    pool_size = int(params.get("pool_size", 1))

    if pool_size <= 1:
        for call_params in calls:
            yield from ctx.functions.invoke_steps(namespace, action, call_params)
        return {"invoked": len(calls)}

    slices = [calls[i::pool_size] for i in range(pool_size)]

    def _spawner_steps(batch: list[dict[str, Any]]):
        for call_params in batch:
            yield from ctx.functions.invoke_steps(namespace, action, call_params)

    tasks = [
        ctx.kernel.spawn_model(_spawner_steps, batch, name=f"rinv-pool-{i}")
        for i, batch in enumerate(slices)
        if batch
    ]
    for task in tasks:
        yield vjoin(task)
    for task in tasks:
        if task._exception is not None:
            raise task._exception
    return {"invoked": len(calls)}
