"""Barrier-free DAG execution on top of :class:`FunctionExecutor`.

The scheduler uploads every node's code and payload up front (one
content-addressed function blob, one aggregated data object per
topological level), invokes the roots, and hands the run to the
executor's one watcher (:class:`repro.core.wait.Watcher`): each of its
rounds discovers the finished nodes through the executor's completion
source, and the run reads their statuses in one concurrent fan-out,
judges them and invokes each dependent the moment its last in-edge
resolves.  There is no client-side barrier between
stages — a reducer launches while sibling branches are still running,
which is the pipelining Wukong and the serverless DAG-engine papers measure.

Failure semantics match the executor's: lost activations are re-invoked
through the shared recovery scan, function errors can be retried per node
through :class:`repro.retry.RetryPolicy` backoff, and a node that fails
terminally *buries* its transitive dependents with a synthetic error
status so every waiter unblocks with a :class:`FunctionError` instead of
hanging.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Optional

from repro.core import context as ambient
from repro.core.futures import synthetic_status
from repro.core.wait import ListSource
from repro.dag import locality as _locality
from repro.dag.graph import Dag
from repro.dag.node import ARG_DEP, ARG_DEPS, ARG_FUTURES, ARG_VALUE, DagNode, NodeState
from repro.retry import RetryPolicy
from repro.vtime import VEvent, fan_out_steps


def _dag_node_call(payload: dict[str, Any]) -> Any:
    """DAG node shim executed *as a cloud function*.

    There is no wait loop here: the scheduler only invokes a node once
    its dependencies' statuses are committed.  An ``ARG_DEP`` /
    ``ARG_DEPS`` node's inputs never reach this shim as futures: the
    runner resolves them with :func:`dag_node_inputs_steps` on the
    activation's model task, before it spawns the thread task that runs
    this, so they arrive as an ``ARG_VALUE`` payload and no OS thread
    waits on their GETs.  The runner does it inside the ``worker.run``
    window, so the node's run time still covers loading its inputs.  An
    ``ARG_FUTURES`` node gets its dependencies' futures, bound to in-cloud
    storage, and resolves what it needs itself.

    A failing node function raises through this frame, as any plain user
    function raises through the runner's, so its remote traceback reads
    ``_run_user_fn_boxed`` → ``_dag_node_call`` → the function.
    """
    if payload["mode"] == ARG_FUTURES:
        storage = ambient.require_context().environment.internal_storage_in_cloud()
        value: Any = [f.bind(storage, payload["poll_interval"]) for f in payload["futures"]]
    else:
        value = payload["value"]
    for fn in payload["fns"]:
        value = fn(value)
    return value


def dag_node_inputs_steps(payload: dict[str, Any]):
    """The payload a DAG node's thread task runs (steps generator).

    For an ``ARG_DEP`` / ``ARG_DEPS`` node, resolve each dependency's
    future in edge order — one status GET and one result GET each — and
    return an ``ARG_VALUE`` payload carrying the value (the list of values
    for ``ARG_DEPS``); any other payload is returned as is.
    """
    mode = payload["mode"]
    if mode != ARG_DEP and mode != ARG_DEPS:
        return payload
    storage = ambient.require_context().environment.internal_storage_in_cloud()
    values = []
    for future in payload["futures"]:
        future.bind(storage, payload["poll_interval"])
        values.append((yield from future.result_steps()))
    value = values[0] if mode == ARG_DEP else values
    return {"mode": ARG_VALUE, "value": value, "fns": payload["fns"]}


class DagRun:
    """Handle on a submitted DAG: per-node futures plus completion."""

    def __init__(self, dag: Dag, scheduler: "DagScheduler", dag_id: str) -> None:
        self.dag = dag
        self.dag_id = dag_id
        self._scheduler = scheduler
        self._event = VEvent(scheduler.kernel)
        self._finished = False
        self.error: Optional[BaseException] = None
        #: adoption only: the ``[callset, call, success]`` rows the
        #: reconcile pass found already committed in COS
        self.reconciled: list[list] = []

    @property
    def finished(self) -> bool:
        return all(n.state in NodeState.TERMINAL for n in self.dag.nodes)

    def future(self, node: DagNode):
        """The :class:`ResponseFuture` backing ``node``."""
        return node.future

    def expose(self, node: DagNode):
        """Register ``node``'s future with the executor and return it.

        Only exposed futures join ``executor.futures`` — interior nodes
        stay private so ``get_result()`` keeps returning what the public
        API promised (e.g. a single value for a sequence).
        """
        future = node.future
        if future not in self._scheduler.executor.futures:
            self._scheduler.executor.futures.append(future)
            self._scheduler.executor._journal_exposed([future])
        return future

    def in_flight(self) -> list[DagNode]:
        """The nodes believed running in the cloud, whose status a round seeks."""
        return [n for n in self.dag.nodes if n.state in NodeState.IN_FLIGHT]

    def failed_nodes(self) -> list[DagNode]:
        return [n for n in self.dag.nodes if n.state == NodeState.FAILED]

    def join(self, timeout: Optional[float] = None) -> bool:
        """Block (virtual time) until every node reached a terminal state.

        Raises :class:`~repro.core.errors.ClientCrashError` once
        client-crash chaos has killed the driver: the executor's watcher
        wakes the joiners when it dies with it.
        """
        done = self._event.wait(timeout)
        self._scheduler.executor._check_client()
        return done

    def _finish(self) -> None:
        if not self._finished:
            self._finished = True
            self._event.set()


class DagScheduler:
    """Submits :class:`Dag` graphs and watches their dependencies.

    ``label`` prefixes the generated callset ids (one callset per
    topological level).  ``node_retries`` bounds RetryPolicy-backed
    re-execution of the submitted nodes that *finished in error* (default
    0: function errors propagate, matching executor semantics; an adopted
    graph brings each node's own budget); lost-activation
    recovery is separate and runs whenever the executor's does (a chaos
    plane is attached).  ``retries`` is the per-call lost-invocation
    budget passed through to call preparation.  ``scheduler`` overrides
    ``config.dag.scheduler``; the poll period and orphan grace are the
    executor config's.
    """

    def __init__(
        self,
        executor,
        *,
        label: str = "D",
        node_retries: int = 0,
        retries: Optional[int] = None,
        scheduler: Optional[str] = None,
    ) -> None:
        self.executor = executor
        self.kernel = executor.kernel
        self.label = label
        self.node_retries = int(node_retries)
        self.retries = retries
        dag_config = executor.config.dag
        if scheduler is not None:
            dataclasses.replace(dag_config, scheduler=scheduler).validate()
        self.scheduler = scheduler or dag_config.scheduler
        #: swarm mode: workers fire dependents in-cloud, this object is
        #: only the supervisor (recovery, retries, burials, re-drives)
        self.swarm = self.scheduler == "swarm"
        self.orphan_grace = dag_config.orphan_grace_s
        self.claimed_grace_factor = dag_config.claimed_grace_factor
        self._policy = RetryPolicy(
            executor.config.retry, seed=executor.environment.seed
        )
        #: the executor's event journal (``None`` when events are off or
        #: this is an in-cloud executor); when set, each submitted graph's
        #: edges and every round's firings are appended to it
        self.journal = executor.journal

    # ------------------------------------------------------------------
    # Submission
    # ------------------------------------------------------------------
    def submit(self, dag: Dag) -> DagRun:
        """Upload all nodes, invoke the roots, hand the run to the watcher."""
        with self.executor._trace_scope():
            return self._submit_inner(dag)

    def _submit_inner(self, dag: Dag) -> DagRun:
        executor = self.executor
        executor._check_client()
        run = DagRun(dag, self, self._next_dag_id())
        dag_id = run.dag_id

        for node in dag.nodes:
            if node.external:
                if node.external_future is None:
                    raise ValueError(f"external node {node.name!r} has no future")
                node.future = node.external_future
                node.state = NodeState.SUBMITTED

        internal = dag.internal_nodes
        self._validate_functions(internal)

        # One callset per topological level; payloads for level N embed the
        # futures created for level N-1, so prepare in ascending order.
        by_level: dict[int, list[DagNode]] = {}
        for node in internal:
            by_level.setdefault(node.level, []).append(node)
        for level in sorted(by_level):
            nodes = sorted(by_level[level], key=lambda n: n.node_id)
            payloads = [self._payload(node) for node in nodes]
            _, calls, futures = executor._prepare_calls(
                _dag_node_call,
                items=payloads,
                label=self.label,
                retries=self.retries,
            )
            for node, future, params in zip(nodes, futures, calls):
                node.future = future
                node.call_params = params
                node.node_retries = self.node_retries
                node.state = (
                    NodeState.READY if node.unresolved == 0 else NodeState.PENDING
                )

        if self.swarm:
            self._ship_schedule(dag, dag_id)

        tracer = executor.tracer
        if tracer is not None and tracer.enabled:
            attrs = dict(
                nodes=len(dag.nodes),
                activations=len(internal),
                levels=len(by_level),
            )
            if self.swarm:
                # swarm-only attribute: centralized submits stay
                # byte-identical to pre-swarm traces
                attrs["scheduler"] = self.scheduler
            tracer.point(
                "dag.submit", "dag",
                ids={"executor_id": executor.executor_id, "dag_id": dag_id},
                **attrs,
            )

        if self.journal is not None:
            # Journal the graph's edges.  Replay folds them back into a
            # Dag (``JobLedger.to_dag``), which is how a resumed driver
            # knows "when all N map statuses commit, fire the reducer"
            # without any surviving in-memory watcher state.
            from repro.events import records as ev

            specs = []
            for node in dag.nodes:
                future = node.future
                key = [future.callset_id, future.call_id]
                deps = [
                    [d.future.callset_id, d.future.call_id] for d in node.deps
                ]
                specs.append({
                    "call": key,
                    "deps": deps,
                    "name": node.display_name,
                    "external": bool(node.external),
                    "retries": future.max_retries,
                })
            self.journal.append(
                ev.DAG_SUBMITTED,
                dag_id=dag_id,
                label=self.label,
                node_retries=self.node_retries,
                nodes=specs,
            )

        # Roots, and dependents of external calls already over, are in
        # flight before submit() returns; the watcher's rounds take over.
        self.kernel.drive(executor._watcher.judge_steps([run]))
        self.kernel.drive(self._fire_steps(run))
        if not run.finished:
            executor._watcher.watch(run)
        return run

    def _next_dag_id(self) -> str:
        executor = self.executor
        dag_id = f"dag{executor._dag_seq:03d}"
        executor._dag_seq += 1
        return dag_id

    def _validate_functions(self, nodes: list[DagNode]) -> None:
        executor = self.executor
        if not executor.config.validate_runtime_packages:
            return
        from repro.core.modules import validate_runtime

        for node in nodes:
            for fn in node.fns:
                validate_runtime(fn, executor._runtime_image)

    # ------------------------------------------------------------------
    # Adoption
    # ------------------------------------------------------------------
    def adopt(self, dag: Dag) -> DagRun:
        """Drive a graph somebody else prepared — and maybe half ran.

        Every node arrives with its ``future``, ``call_params`` and
        ``node_retries`` set (``JobLedger.to_dag`` folds a dead driver's
        journal into such a graph), so nothing is serialized, uploaded or
        journaled as submitted.  One reconcile pass finds what committed
        while nobody was watching; what remains is seeded from the
        futures — a known activation id is in flight (lost-call recovery
        can probe it), an invocation without one went through a
        fire-and-forget invoker and is re-issued once (safe: a surviving
        twin wins the conditional status PUT and the duplicate changes
        nothing), a call never invoked waits for its dependencies — and
        the ordinary rounds take over from there.
        """
        executor = self.executor
        run = DagRun(dag, self, self._next_dag_id())
        with executor._trace_scope():
            self.kernel.drive(self._reconcile_steps(run))
            for node in dag.nodes:
                if node.state in NodeState.TERMINAL:
                    continue
                future = node.future
                if future.activation_id is not None:
                    node.state = NodeState.SUBMITTED
                elif future.invoke_count or node.unresolved == 0:
                    node.state = NodeState.READY
                else:
                    node.state = NodeState.PENDING
            if executor._recovery:  # probe the journaled activations now
                in_flight = [n.future for n in run.in_flight()]
                self.kernel.drive(executor._reinvoke_lost_steps(in_flight))
            self.kernel.drive(self._fire_steps(run))
            if not run.finished:
                executor._watcher.watch(run)
        return run

    def _reconcile_steps(self, run: DagRun):
        """Fold the statuses already committed in COS into ``run``.

        COS is ground truth: a call with a committed status object is
        final whatever the journal last said about it, so *every* callset
        is LISTed — even under ``mq_push``, whose queue the dead driver may
        have drained — not just the ones believed in flight.  Statuses are
        all read before any is judged, dependents first, so a failure
        never re-buries a dependent whose burial already committed.
        """
        executor = self.executor
        callset = lambda n: (n.future.executor_id, n.future.callset_id)
        nodes = sorted(run.dag.nodes, key=callset)
        found = yield from ListSource(executor._storage).discover_steps(
            dict.fromkeys(map(callset, nodes)))
        committed = [n for n in nodes if n.future.call_id in found[callset(n)]]
        statuses = yield from self._read_steps(committed)
        for node, status in sorted(
            zip(committed, statuses), key=lambda pair: pair[0].node_id, reverse=True
        ):
            yield from self._complete_steps(run, node, status)
        run.reconciled = [
            [n.future.callset_id, n.future.call_id, n.state == NodeState.DONE]
            for n in committed
        ]
        pending = len(run.dag.nodes) - len(committed)
        tracer = executor.tracer
        if tracer is not None and tracer.enabled:
            tracer.point(
                "events.reconcile", layer="events",
                ids={"executor_id": executor.executor_id},
                committed=len(committed),
                pending=pending,
            )

    def _ship_schedule(self, dag: Dag, dag_id: str) -> None:
        """Stamp every node's params and ship the schedule object.

        The stamp (``dag_id`` + the node's own schedule slice range)
        rides inside ``node.call_params``, so client-issued invocations —
        roots, ``node_retries``, orphan re-drives — and worker-issued ones
        carry the same range.  Workers whose node has no drivable
        dependents (``slice`` is ``None``) skip the schedule read.
        """
        from repro.dag import swarm as _swarm

        executor = self.executor
        executor._storage.put_swarm_schedule(
            executor.executor_id,
            dag_id,
            _swarm.build_schedule(
                dag, dag_id,
                namespace=executor.config.namespace,
                action=executor._runner_action,
            ),
        )

    def _payload(self, node: DagNode) -> dict[str, Any]:
        payload: dict[str, Any] = {"mode": node.mode, "fns": node.fns}
        if node.mode == ARG_VALUE:
            payload["value"] = node.value
        else:
            payload["futures"] = [dep.future for dep in node.deps]
            payload["poll_interval"] = self.executor.config.poll_interval
        return payload

    # ------------------------------------------------------------------
    # Judging (each round of the executor's watcher)
    # ------------------------------------------------------------------
    def _judge_steps(self, run: DagRun, found: list[tuple[DagNode, Optional[dict]]]):
        """Judge the in-flight nodes a round found finished, in order.

        ``found`` pairs each node with its status, ``None`` where it was
        only seen: those are read in one fan-out, so a round pays about one
        round trip however many finished.  A status reaches the future only
        once judged final: no waiter sees an error the run will retry.
        """
        unread = [node for node, status in found if status is None]
        read = dict(zip(unread, (yield from self._read_steps(unread))))
        for node, status in found:
            yield from self._complete_steps(run, node, status or read[node])

    def _read_steps(self, nodes: list[DagNode]):
        def read(node: DagNode):
            f = node.future
            return self.executor._storage.get_status_steps(f.executor_id, f.callset_id, f.call_id)

        width = self.executor.config.result_fetch_pool_size
        return (yield from fan_out_steps(self.kernel, read, nodes, width, name="dag-status"))

    def _fire_steps(self, run: DagRun):
        """After the round's judging and recovery: fire what is ready."""
        for node in run.in_flight() if self.executor._recovery else ():
            # recovery buried an exhausted call with a synthetic status
            if node.future._status is not None:
                yield from self._complete_steps(run, node, node.future._status)
        yield from self._submit_ready_steps(run)
        if run.finished:
            run._finish()

    def _complete_steps(self, run: DagRun, node: DagNode, status: dict):
        if status.get("success"):
            node.future._ingest_status(status)
            node.state = NodeState.DONE
            _locality.record_invoker(node, status)
            self._trace_node(run, node, status, "done")
            for dependent in node.dependents:
                dependent.unresolved -= 1
                if (
                    dependent.state == NodeState.PENDING
                    and dependent.unresolved == 0
                ):
                    dependent.state = self._ready_state(dependent)
        else:
            yield from self._on_failure_steps(run, node, status)

    def _ready_state(self, node: DagNode) -> str:
        """Where a dependency-complete node goes next.

        Centralized: READY, the next ``_submit_ready`` invokes it.  Swarm:
        drivable nodes are the finishing worker's job — DELEGATED starts
        the orphan-grace clock instead of an invocation; only nodes with
        external dependencies (invisible to workers) stay supervisor-fired.
        """
        if self.swarm:
            from repro.dag import swarm as _swarm

            if _swarm.is_drivable(node):
                node.swarm_ready_at = self.kernel.now()
                return NodeState.DELEGATED
        return NodeState.READY

    # ------------------------------------------------------------------
    # Failure handling
    # ------------------------------------------------------------------
    def _on_failure_steps(self, run: DagRun, node: DagNode, status: dict):
        executor = self.executor
        if (
            not node.external
            and not status.get("lost")
            and node.error_attempts < node.node_retries
        ):
            node.error_attempts += 1
            yield from executor._discard_attempt_steps(node.future)
            node.retry_at = self.kernel.now() + self._policy.backoff(node.error_attempts)
            node.state = NodeState.READY
            executor._retries_total += 1
            tracer = executor.tracer
            if tracer is not None and tracer.enabled:
                future = node.future
                tracer.point(
                    "dag.retry", "dag",
                    ids={
                        "executor_id": future.executor_id,
                        "callset_id": future.callset_id,
                        "call_id": future.call_id,
                        "dag_id": run.dag_id,
                    },
                    node=node.display_name,
                    attempt=node.error_attempts,
                )
            return
        node.future._ingest_status(status)
        node.state = NodeState.FAILED
        self._trace_node(run, node, status, "failed")
        yield from self._bury_dependents_steps(run, node, status)

    def _bury_dependents_steps(self, run: DagRun, node: DagNode, status: dict):
        reason = (
            f"upstream DAG node '{node.display_name}' failed: "
            f"{status.get('error')}"
        )
        queue = list(node.dependents)
        while queue:
            dependent = queue.pop(0)
            if dependent.state in NodeState.TERMINAL:
                continue
            yield from self._bury_node_steps(run, dependent, reason)
            queue.extend(dependent.dependents)

    def _abort_steps(self, run: DagRun, exc: Exception):
        run.error = exc  # before the first yield: the joiners are awake
        for node in run.dag.nodes:
            if node.state not in NodeState.TERMINAL:
                yield from self._bury_node_steps(run, node, f"DAG scheduler aborted: {exc!r}")
        run._finish()

    def _bury_node_steps(self, run: DagRun, node: DagNode, reason: str):
        """Synthesize an error status so every waiter unblocks.

        One conditional status commit and no result blob (see
        :func:`~repro.core.futures.synthetic_status`): a real status that
        landed first wins; a still-running node's late result is ignored.
        """
        storage = self.executor._storage
        future = node.future
        node.state = NodeState.FAILED
        now = self.kernel.now()
        status = synthetic_status(future, reason, "buried", now, now)
        if (yield from storage.commit_status_steps(
            future.executor_id, future.callset_id, future.call_id, status
        )):
            future._ingest_status(status)
        else:
            future.mark_done()  # a real status exists; use it
        self._trace_node(run, node, status, "buried")

    # ------------------------------------------------------------------
    # Node submission
    # ------------------------------------------------------------------
    def _submit_ready_steps(self, run: DagRun):
        executor = self.executor
        now = self.kernel.now()
        if self.swarm:
            yield from self._redrive_orphans_steps(run, now)
        ready = sorted(
            (
                n
                for n in run.dag.nodes
                if n.state == NodeState.READY and n.retry_at <= now
            ),
            key=lambda n: n.node_id,
        )
        if not ready:
            return
        calls: list[dict[str, Any]] = []
        futures = []
        for node in ready:
            params = node.call_params
            hint = _locality.placement_hint(
                node,
                exchange=executor.environment.exchange,
                storage=executor._storage,
            )
            if hint is not None:
                params = {**params, "placement_hint": hint}
                node.call_params = params
                node.future._call_params = params
            node.state = NodeState.SUBMITTED
            node.submit_time = now
            calls.append(params)
            futures.append(node.future)
        yield from executor._make_invoker().invoke_calls_steps(
            executor.config.namespace, executor._runner_action, calls, futures
        )
        yield from executor._journal_invoked_steps(futures, dag_id=run.dag_id)

    def _redrive_orphans_steps(self, run: DagRun, now: float):
        """Adopt delegated nodes whose handoff never produced a status.

        A worker that died between committing its own status and invoking
        a ready dependent (or whose invoked dependent activation was lost
        before the gateway recorded it for the client) leaves the node
        orphaned: dependency-complete, durable markers on COS, no status,
        and no activation id the lost-call scan could poll.  After the
        orphan grace the supervisor demotes the node to READY and invokes
        it itself — the at-most-once status commit makes this safe even
        if the worker-side invocation is merely slow.

        A status only appears at *completion*, so a long-running node
        would look orphaned too.  Before re-driving, the supervisor
        checks the node's fire token (one client GET, at most once per
        node): a claimed token means a worker committed to the
        invocation and the node is almost certainly running, so the fuse
        stretches to ``orphan_grace * claimed_grace_factor`` — long
        enough not to duplicate healthy work, finite so a worker that
        crashed between claim and invoke still gets covered.
        """
        from repro.dag import swarm as _swarm

        tracer = self.executor.tracer
        if tracer is not None and not tracer.enabled:
            tracer = None
        for node in run.dag.nodes:
            if node.state != NodeState.DELEGATED:
                continue
            deadline = self.orphan_grace
            if node.swarm_token_seen:
                deadline *= self.claimed_grace_factor
            if now - node.swarm_ready_at < deadline:
                continue
            if not node.swarm_token_seen:
                future = node.future
                claimed = yield from self.executor._storage.swarm_token_claimed_steps(
                    future.executor_id,
                    run.dag_id,
                    _swarm.node_key(future.callset_id, future.call_id),
                )
                if claimed:
                    node.swarm_token_seen = True
                    continue
            node.state = NodeState.READY
            if tracer is not None:
                future = node.future
                tracer.point(
                    "swarm.redrive", "swarm",
                    ids={
                        "executor_id": future.executor_id,
                        "callset_id": future.callset_id,
                        "call_id": future.call_id,
                        "dag_id": run.dag_id,
                    },
                    node=node.display_name,
                    waited=round(now - node.swarm_ready_at, 6),
                    claimed=node.swarm_token_seen,
                )

    # ------------------------------------------------------------------
    # Tracing
    # ------------------------------------------------------------------
    def _trace_node(
        self, run: DagRun, node: DagNode, status: dict, outcome: str
    ) -> None:
        tracer = self.executor.tracer
        if tracer is None or not tracer.enabled:
            return
        future = node.future
        start = status.get("start_time")
        end = status.get("end_time")
        if start is None or end is None:
            start = node.submit_time
            end = self.kernel.now()
        tracer.span_at(
            "dag.node", "dag", start, end,
            ids={
                "executor_id": future.executor_id,
                "callset_id": future.callset_id,
                "call_id": future.call_id,
                "dag_id": run.dag_id,
            },
            node=node.display_name,
            stage=run.dag.stage_name(node),
            level=node.level,
            outcome=outcome,
        )
