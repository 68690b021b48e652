"""Barrier-free DAG execution on top of :class:`FunctionExecutor`.

The scheduler uploads every node's code and payload up front (one
content-addressed function blob, one aggregated data object per
topological level), then drives the graph with a *dependency watcher*: a
model task on the virtual-time kernel that wakes every poll interval,
discovers finished nodes with one LIST per in-flight callset, reads their
statuses in one concurrent fan-out, and invokes each dependent the moment
its last in-edge resolves.  There is no client-side barrier between
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

from typing import Any, Optional

from repro.core import context as ambient
from repro.core.futures import ResponseFuture, synthetic_status
from repro.dag import locality as _locality
from repro.dag.graph import Dag
from repro.dag.node import ARG_DEP, ARG_DEPS, ARG_FUTURES, ARG_VALUE, DagNode, NodeState
from repro.retry import RetryPolicy
from repro.vtime import VEvent, fan_out
from repro.vtime.kernel import vjoin, vsleep


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
        # per-round journal batches (one record per round, not per call)
        self._obs_batch: list[list] = []
        self._fired_batch: list[list] = []
        self._buried_batch: list[list] = []
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

    def failed_nodes(self) -> list[DagNode]:
        return [n for n in self.dag.nodes if n.state == NodeState.FAILED]

    def join(self, timeout: Optional[float] = None) -> bool:
        """Block (virtual time) until every node reached a terminal state."""
        return self._event.wait(timeout)

    def _finish(self) -> None:
        if not self._finished:
            self._finished = True
            self._event.set()


class DagScheduler:
    """Submits :class:`Dag` graphs and watches their dependencies.

    ``label`` prefixes the generated callset ids (one callset per
    topological level).  ``node_retries`` bounds RetryPolicy-backed
    re-execution of nodes that *finished in error* (default 0: function
    errors propagate, matching executor semantics); lost-activation
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
        from repro.config import DagConfig

        self.executor = executor
        self.kernel = executor.kernel
        self.label = label
        self.node_retries = int(node_retries)
        self.retries = retries
        self.poll_interval = executor.config.poll_interval
        dag_config = executor.config.dag
        self.scheduler = (
            scheduler if scheduler is not None else dag_config.scheduler
        )
        if self.scheduler not in DagConfig.SCHEDULERS:
            raise ValueError(
                f"scheduler must be one of {DagConfig.SCHEDULERS}, "
                f"got {self.scheduler!r}"
            )
        #: swarm mode: workers fire dependents in-cloud, this object is
        #: only the supervisor (recovery, retries, burials, re-drives)
        self.swarm = self.scheduler == "swarm"
        self.orphan_grace = dag_config.orphan_grace_s
        self.claimed_grace_factor = dag_config.claimed_grace_factor
        self._policy = RetryPolicy(
            executor.config.retry, seed=executor.environment.seed
        )
        #: the executor's event journal (``None`` when events are off or
        #: this is an in-cloud executor); when set, every round's
        #: observations, firings and burials are appended to it
        self.journal = executor.journal

    # ------------------------------------------------------------------
    # Submission
    # ------------------------------------------------------------------
    def submit(self, dag: Dag) -> DagRun:
        """Upload all nodes, invoke the roots, start the watcher."""
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

        # First round runs synchronously in the caller: roots are in flight
        # before submit() returns, exactly like a plain executor.map.
        self._round(run)
        if not run.finished:
            self.kernel.spawn_model(
                self._watch_steps, run, name=f"dag-watch-{dag_id}"
            )
        return run

    def _next_dag_id(self) -> str:
        executor = self.executor
        dag_id = f"dag{executor._dag_seq:03d}"
        executor._dag_seq += 1
        return dag_id

    def _validate_functions(self, nodes: list[DagNode]) -> None:
        import types as _types

        executor = self.executor
        if not executor.config.validate_runtime_packages:
            return
        from repro.core.modules import validate_runtime

        for node in nodes:
            for fn in node.fns:
                if isinstance(fn, _types.FunctionType):
                    validate_runtime(fn, executor._runtime_image)

    # ------------------------------------------------------------------
    # Adoption
    # ------------------------------------------------------------------
    def adopt(self, dag: Dag) -> DagRun:
        """Drive a graph somebody else prepared — and maybe half ran.

        Every node arrives with its ``future`` and ``call_params`` set
        (``JobLedger.to_dag`` folds a dead driver's journal into such a
        graph), so nothing is serialized, uploaded or journaled as
        submitted.  One reconcile pass finds what committed while nobody
        was watching; what remains is seeded from the futures — a known
        activation id is in flight (lost-call recovery can probe it), an
        invocation without one went through a fire-and-forget invoker and
        is re-issued once (safe: a surviving twin wins the conditional
        status PUT and the duplicate changes nothing), a call never
        invoked waits for its dependencies — and the ordinary rounds take
        over from there.
        """
        executor = self.executor
        run = DagRun(dag, self, self._next_dag_id())
        with executor._trace_scope():
            self._reconcile(run)
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
            self._drive(run)
        if not run.finished:
            self.kernel.spawn_model(
                self._watch_steps, run, name=f"dag-watch-{run.dag_id}"
            )
        return run

    def _reconcile(self, run: DagRun) -> None:
        """Fold the statuses already committed in COS into ``run``.

        COS is ground truth: a call with a committed status object is
        final whatever the journal last said about it, so *every* callset
        is consulted, not just the ones believed in flight.  Statuses are
        all read before any is judged, dependents first, so a failure
        never re-buries a dependent whose burial already committed.
        """
        from repro.events import records as ev

        executor = self.executor
        committed = self._discover(run.dag.nodes)
        for node in sorted(committed, key=lambda n: n.node_id, reverse=True):
            self._complete(run, node)
        # journaled as the reconciliation, not as this round's observations
        run._obs_batch = []
        run.reconciled = [
            [n.future.callset_id, n.future.call_id, n.state == NodeState.DONE]
            for n in committed
        ]
        pending = len(run.dag.nodes) - len(committed)
        if self.journal is not None:
            self.journal.append(
                ev.RESUME_RECONCILED, committed=run.reconciled, pending=pending
            )
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
    # Dependency watcher
    # ------------------------------------------------------------------
    def _watch_steps(self, run: DagRun):
        """Model task: wake each poll interval, run one round off-thread.

        The round itself uses the blocking storage/gateway APIs, so it runs
        as a short-lived thread task; between rounds no OS thread is held.
        """
        while not run.finished:
            yield vsleep(self.poll_interval)
            if self.executor._client_dead():
                # The driver died (client-crash chaos): the watcher dies
                # with it, silently, leaving the DAG orphaned exactly as a
                # real process crash would.  reattach() adopts it later.
                return
            task = self.kernel.spawn(
                self._round_guard, run, name=f"dag-round-{run.dag_id}"
            )
            yield vjoin(task)
            if run.error is not None:
                break

    def _round_guard(self, run: DagRun) -> None:
        try:
            self._round(run)
        except BaseException as exc:
            # A broken round must not leave waiters pending forever in
            # virtual time: fail every unfinished node, then surface.
            run.error = exc
            self._abort(run, f"DAG scheduler aborted: {exc!r}")

    def _round(self, run: DagRun) -> None:
        executor = self.executor
        if executor._client_dead():
            # the driver died while this round was in flight: a real crash
            # stops mid-round, so do nothing more (no invokes, no burials,
            # no journal appends) and let the watcher notice and exit
            return
        with executor._trace_scope():
            self._poll(run)
            self._drive(run)

    def _drive(self, run: DagRun) -> None:
        """What a round does with what it discovered: recover, fire, journal."""
        executor = self.executor
        if executor._recovery:
            in_flight = [
                n.future
                for n in run.dag.nodes
                if n.state == NodeState.SUBMITTED and not n.external
            ]
            if in_flight:
                executor._reinvoke_lost(in_flight)
                # recovery buries exhausted calls by ingesting a
                # synthetic status directly — pick those up now
                for node in run.dag.nodes:
                    if (
                        node.state == NodeState.SUBMITTED
                        and node.future._status is not None
                    ):
                        self._complete(run, node)
        self._submit_ready(run)
        self._journal_flush(run)
        if run.finished:
            run._finish()

    def _journal_flush(self, run: DagRun) -> None:
        """Batch-append this round's transitions (O(rounds) journal cost)."""
        if self.journal is None:
            return
        from repro.events import records as ev

        if run._obs_batch:
            self.journal.append(
                ev.STATUS_OBSERVED, dag_id=run.dag_id, calls=run._obs_batch
            )
            run._obs_batch = []
        if run._buried_batch:
            self.journal.append(
                ev.NODE_BURIED, dag_id=run.dag_id, calls=run._buried_batch
            )
            run._buried_batch = []
        if run._fired_batch:
            self.journal.append(
                ev.NODE_FIRED, dag_id=run.dag_id, calls=run._fired_batch
            )
            run._fired_batch = []

    def _poll(self, run: DagRun) -> None:
        """One round's discovery: judge every in-flight node that finished."""
        in_flight = [n for n in run.dag.nodes if n.state in NodeState.IN_FLIGHT]
        for node in self._discover(in_flight):
            self._complete(run, node)

    def _discover(self, nodes: list[DagNode]) -> list[DagNode]:
        """The ``nodes`` whose status committed (now ingested), in LIST order.

        One LIST per callset whose statuses are not all known, then one
        fan-out reads every status revealed, so a round pays about one round
        trip however many nodes finished.  A partial commit waits a round.
        """
        groups: dict[tuple[str, str], list[DagNode]] = {}
        for node in nodes:
            future = node.future
            groups.setdefault((future.executor_id, future.callset_id), []).append(node)
        found: list[DagNode] = []
        for key in sorted(groups):
            group = groups[key]
            if all(n.future.status_known for n in group):
                found += group
                continue
            done_ids = self.executor._storage.list_done_call_ids(*key)
            found += [
                n for n in group
                if n.future.status_known or n.future.call_id in done_ids
            ]
        self._read_statuses([n.future for n in found if n.future._status is None])
        return [n for n in found if n.future._status is not None]

    def _read_statuses(self, futures: list) -> None:
        """GET and ingest the statuses of ``futures``, concurrently: one
        :func:`~repro.vtime.fan_out` of ``config.result_fetch_pool_size``."""
        fan_out(
            self.kernel, ResponseFuture.poll_steps, futures,
            self.executor.config.result_fetch_pool_size, name="dag-status",
        )

    def _complete(self, run: DagRun, node: DagNode) -> None:
        future = node.future
        status = future._status
        success = bool(status.get("success"))
        if self.journal is not None:
            key = (future.callset_id, future.call_id)
            if key not in self.executor._journal_seen:
                self.executor._journal_seen.add(key)
                run._obs_batch.append([key[0], key[1], success])
        if success:
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
            self._on_failure(run, node, status)

    def _ready_state(self, node: DagNode) -> str:
        """Where a dependency-complete node goes next.

        Centralized: READY, the next ``_submit_ready`` invokes it.  Swarm:
        drivable nodes are the finishing worker's job — DELEGATED starts
        the orphan-grace clock instead of an invocation; only nodes with
        external dependencies (invisible to workers) stay supervisor-fired.
        """
        if self.swarm:
            from repro import vtime
            from repro.dag import swarm as _swarm

            if _swarm.is_drivable(node):
                node.swarm_ready_at = vtime.now()
                return NodeState.DELEGATED
        return NodeState.READY

    # ------------------------------------------------------------------
    # Failure handling
    # ------------------------------------------------------------------
    def _on_failure(self, run: DagRun, node: DagNode, status: dict) -> None:
        from repro import vtime

        executor = self.executor
        if (
            not node.external
            and not status.get("lost")
            and node.error_attempts < self.node_retries
        ):
            node.error_attempts += 1
            executor._discard_attempt(node.future)
            node.retry_at = vtime.now() + self._policy.backoff(node.error_attempts)
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
        node.state = NodeState.FAILED
        self._trace_node(run, node, status, "failed")
        self._bury_dependents(run, node, status)

    def _bury_dependents(self, run: DagRun, node: DagNode, status: dict) -> None:
        reason = (
            f"upstream DAG node '{node.display_name}' failed: "
            f"{status.get('error')}"
        )
        queue = list(node.dependents)
        while queue:
            dependent = queue.pop(0)
            if dependent.state in NodeState.TERMINAL:
                continue
            self._bury_node(run, dependent, reason)
            queue.extend(dependent.dependents)

    def _abort(self, run: DagRun, reason: str) -> None:
        for node in run.dag.nodes:
            if node.state not in NodeState.TERMINAL:
                self._bury_node(run, node, reason)
        self._journal_flush(run)
        run._finish()

    def _bury_node(self, run: DagRun, node: DagNode, reason: str) -> None:
        """Synthesize an error status so every waiter unblocks.

        One conditional status commit and no result blob (see
        :func:`~repro.core.futures.synthetic_status`): a real status that
        landed first wins; a still-running node's late result is ignored.
        """
        from repro import vtime

        storage = self.executor._storage
        future = node.future
        node.state = NodeState.FAILED
        now = vtime.now()
        status = synthetic_status(future, reason, "buried", now, now)
        if storage.commit_status(
            future.executor_id, future.callset_id, future.call_id, status
        ):
            future._ingest_status(status)
        else:
            future.mark_done()  # a real status exists; use it
        if self.journal is not None:
            key = (future.callset_id, future.call_id)
            self.executor._journal_seen.add(key)
            run._buried_batch.append([key[0], key[1]])
        self._trace_node(run, node, status, "buried")

    # ------------------------------------------------------------------
    # Node submission
    # ------------------------------------------------------------------
    def _submit_ready(self, run: DagRun) -> None:
        from repro import vtime

        executor = self.executor
        now = vtime.now()
        if self.swarm:
            self._redrive_orphans(run, now)
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
        executor._make_invoker().invoke_calls(
            executor.config.namespace, executor._runner_action, calls, futures
        )
        if self.journal is not None:
            for future in futures:
                run._fired_batch.append(
                    [future.callset_id, future.call_id, future.activation_id,
                     max(1, future.invoke_count)]
                )

    def _redrive_orphans(self, run: DagRun, now: float) -> None:
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
                claimed = self.executor._storage.swarm_token_claimed(
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
            from repro import vtime

            start = node.submit_time
            end = vtime.now()
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
