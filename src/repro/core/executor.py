"""The IBM-PyWren executor: the paper's Table 2 API.

=============== ========== ==================================================
Method          Type       Input parameters
=============== ========== ==================================================
call_async()    Async.     function code, data
map()           Async. map function code, map data
map_reduce()    Async.     map/reduce func. code, map data
wait()          Sync.      when to unlock, list of futures
get_result()    Sync.      None
=============== ========== ==================================================

``map_reduce`` additionally understands COS dataset specs (``"cos://bucket"``
or ``"cos://bucket/key"``) which trigger automatic data discovery and
partitioning (§4.3), and ``reducer_one_per_object=True`` for the
reduceByKey-like mode with one reducer per object key.
"""

from __future__ import annotations

import contextlib
from typing import Any, Callable, Iterable, Optional, Sequence, Union

from repro.core import context as ambient
from repro.core import serializer
from repro.core.errors import PyWrenError
from repro.core.futures import (
    ALL_COMPLETED,
    ALWAYS,
    CallFailure,
    CallState,
    FailureReport,
    ResponseFuture,
    synthetic_status,
)
from repro.core.invokers import Invoker, LocalInvoker, MassiveInvoker
from repro.core.partitioner import StoragePartition, build_partitions
from repro.core.progress import ProgressBar
from repro.core.storage_client import InternalStorage
from repro.core.wait import ListSource, QueueSource, Watcher
from repro.config import InvokerMode, MonitoringTransport, PyWrenConfig
from repro.cos.client import COSClient
from repro.faas.activation import ActivationStatus
from repro.faas.gateway import CloudFunctionsClient
from repro.utils.ids import new_executor_id
from repro.vtime import fan_out

COS_SCHEME = "cos://"


def is_dataset_spec(iterdata: Any) -> bool:
    """True when ``iterdata`` names COS data (``cos://bucket[/key]``)."""
    if isinstance(iterdata, str):
        return iterdata.startswith(COS_SCHEME)
    if isinstance(iterdata, (list, tuple)) and iterdata:
        return all(
            isinstance(item, str) and item.startswith(COS_SCHEME)
            for item in iterdata
        )
    return False


def _strip_scheme(iterdata: Union[str, Iterable[str]]) -> list[str]:
    entries = [iterdata] if isinstance(iterdata, str) else list(iterdata)
    return [entry[len(COS_SCHEME):] for entry in entries]


class FunctionExecutor:
    """§4.1's first-citizen object; create via ``pw.ibm_cf_executor()``."""

    def __init__(
        self,
        environment,
        in_cloud: bool = False,
        config: Optional[PyWrenConfig] = None,
        **overrides: Any,
    ) -> None:
        base = config or environment.config
        self.config = base.with_overrides(**overrides) if overrides else base
        self.config.validate()
        self.environment = environment
        self.kernel = environment.kernel
        self.executor_id = (
            environment.new_executor_id()
            if hasattr(environment, "new_executor_id")
            else new_executor_id(environment.seed)
        )
        self.in_cloud = in_cloud
        #: the environment's trace spine (disabled unless ``trace=True``)
        self.tracer = getattr(environment, "tracer", None)

        if in_cloud:
            link_factory = environment.platform.in_cloud_link_factory
        else:
            link_factory = environment.new_client_link
        self._cos = COSClient(
            environment.storage, link_factory(), retry=self.config.retry
        )
        self._storage = InternalStorage(
            self._cos, self.config.storage_bucket, self.config.storage_prefix
        )
        self._functions = CloudFunctionsClient(
            environment.platform,
            link_factory(),
            credentials=(
                environment.platform.trusted_token
                if in_cloud
                else environment.credentials
            ),
            retry=self.config.retry,
        )

        self._runtime_image = environment.registry.get(self.config.runtime)
        self._runner_action = environment.ensure_runner_action(
            self.config.runtime,
            self.config.runtime_memory_mb,
            self.config.runtime_timeout_s,
            namespace=self.config.namespace,
        )
        if self.config.invoker_mode != InvokerMode.LOCAL:
            environment.ensure_remote_invoker_action()

        #: the one judge of this executor's calls (``repro.core.wait``)
        self._watcher = Watcher(self.kernel, self._completion_source(),
                                self.config.poll_interval, self)
        self._storage.watcher = self._watcher.ref

        self.futures: list[ResponseFuture] = []
        self._callset_seq = 0
        self._dag_seq = 0
        self._uploaded_funcs: set[str] = set()

        # Lost-call recovery runs only when a fault plane is active, so
        # fault-free runs keep their exact request pattern.
        chaos = getattr(environment, "chaos", None)
        self._recovery = chaos is not None and chaos.profile.enabled
        self._retries_total = 0

        # Client-crash chaos kills driver epoch 0 only; a reattached
        # driver (epoch >= 1) is immune.  The epoch is captured here so
        # executors created by the replacement client are born immune.
        self._chaos_epoch = chaos.client_epoch if chaos is not None else 0

        #: the event-sourced orchestration journal (``EventsConfig``);
        #: ``None`` unless enabled — and never for in-cloud executors:
        #: the client is the journal's single writer
        self.journal = None
        if self.config.events.enabled and not in_cloud:
            from repro.events import records as ev
            from repro.events.journal import EventJournal

            self.journal = EventJournal.for_executor(self)
            self.journal.append(
                ev.EXECUTOR_CREATED,
                executor_id=self.executor_id,
                seed=environment.seed,
            )

    # ------------------------------------------------------------------
    # Computing methods (asynchronous)
    # ------------------------------------------------------------------
    def call_async(
        self,
        func: Callable[[Any], Any],
        data: Any,
        retries: Optional[int] = None,
    ) -> ResponseFuture:
        """Run one function in the cloud; non-blocking (§4.2)."""
        return self._submit(func, items=[data], label="A", retries=retries)[0]

    def map(
        self,
        map_function: Callable[[Any], Any],
        iterdata: Union[Iterable[Any], str],
        chunk_size: Optional[int] = None,
        retries: Optional[int] = None,
    ) -> list[ResponseFuture]:
        """One function executor per element of ``iterdata`` (§4.2).

        ``iterdata`` may also be a COS dataset spec, in which case each
        executor receives a :class:`StoragePartition` (§4.3).

        ``retries`` bounds how many times a *lost* call (activation died
        without writing a status object) is re-invoked; defaults to
        ``config.invocation_retries``.
        """
        if is_dataset_spec(iterdata):
            partitions = build_partitions(
                self._cos,
                _strip_scheme(iterdata),
                chunk_size if chunk_size is not None else self.config.chunk_size,
            )
            return self._submit(
                map_function, partitions=partitions, label="M", retries=retries
            )
        if chunk_size is not None:
            raise ValueError(
                "chunk_size only applies to COS dataset specs (cos://...)"
            )
        items = list(iterdata)
        if not items:
            return []
        return self._submit(map_function, items=items, label="M", retries=retries)

    def map_partitions(
        self,
        map_function: Callable[[StoragePartition], Any],
        partitions: Iterable[StoragePartition],
        retries: Optional[int] = None,
    ) -> list[ResponseFuture]:
        """One function executor per *prepared* :class:`StoragePartition`.

        ``map()`` with a ``cos://`` spec partitions whole objects by chunk
        size; this entry point instead accepts partitions the caller built
        itself — e.g. the pushdown scan planner's pruned, zone-map-aligned
        byte ranges (:func:`repro.workloads.scan`).  The worker binds each
        partition to its in-cloud COS client exactly as in the dataset
        path.
        """
        parts = list(partitions)
        if not parts:
            return []
        return self._submit(map_function, partitions=parts, label="M", retries=retries)

    def map_reduce(
        self,
        map_function: Callable[[Any], Any],
        iterdata: Union[Iterable[Any], str],
        reduce_function: Callable[[list[Any]], Any],
        chunk_size: Optional[int] = None,
        reducer_one_per_object: bool = False,
        retries: Optional[int] = None,
    ) -> Union[ResponseFuture, list[ResponseFuture]]:
        """MapReduce flow: map phase + one or many reducers (§4.2/§4.3).

        With ``reducer_one_per_object=True`` all values of the same COS
        object key are combined in a separate reducer (the Spark
        ``reduceByKey``-like mode); the returned list holds one future per
        object in sorted ``(bucket, object_key)`` order, labelled with
        ``metadata['bucket']`` / ``['object_key']``; one DAG, one callset.
        """
        spec = is_dataset_spec(iterdata)
        if reducer_one_per_object and not spec:
            raise ValueError(
                "reducer_one_per_object requires a COS dataset spec "
                "(one reducer per object key)"
            )
        map_futures = self.map(
            map_function, iterdata, chunk_size=chunk_size, retries=retries
        )
        if not map_futures:
            raise PyWrenError("map_reduce over an empty dataset")

        name = getattr(reduce_function, "__name__", "reduce")
        if not reducer_one_per_object:
            return self._reduce_stage([(reduce_function, name, map_futures)], "R", retries)[0]
        groups: dict[tuple[str, str], list[ResponseFuture]] = {}
        for future in map_futures:
            key = (future.metadata["bucket"], future.metadata["object_key"])
            groups.setdefault(key, []).append(future)
        objects = sorted(groups)
        reducers = self._reduce_stage(
            [(reduce_function, name, groups[key]) for key in objects], "R", retries
        )
        for (bucket, object_key), reducer in zip(objects, reducers):
            reducer.metadata.update(bucket=bucket, object_key=object_key)
        return reducers

    def map_reduce_shuffle(
        self,
        map_function: Callable[[Any], Any],
        iterdata: Union[Iterable[Any], str],
        reduce_function: Callable[[Any, list[Any]], Any],
        n_reducers: int = 4,
        chunk_size: Optional[int] = None,
        retries: Optional[int] = None,
    ) -> list[ResponseFuture]:
        """Full keyed MapReduce with a COS shuffle (see repro.core.shuffle).

        ``map_function(item_or_partition)`` must return an iterable of
        ``(key, value)`` pairs with hashable keys (each map groups them per
        reducer as ``{key: [values]}``); ``reduce_function(key, values)``
        reduces one key's values.  Returns one future per reducer, each
        resolving to a ``{key: reduced}`` dict over that reducer's key range
        — merge with :func:`repro.core.shuffle.merge_shuffle_results`.
        """
        from repro.core.shuffle import make_shuffle_map, make_shuffle_reduce_fetch

        if n_reducers <= 0:
            raise ValueError("n_reducers must be positive")
        map_futures = self.map(
            make_shuffle_map(map_function, n_reducers),
            iterdata,
            chunk_size=chunk_size,
            retries=retries,
        )
        if not map_futures:
            raise PyWrenError("map_reduce_shuffle over an empty dataset")
        # every reducer reads all maps, fetching its partitions by future
        reducers = self._reduce_stage(
            [
                (
                    make_shuffle_reduce_fetch(reduce_function, reducer_index),
                    f"shuffle-reduce[{reducer_index}]",
                    map_futures,
                )
                for reducer_index in range(n_reducers)
            ],
            label="S",
            retries=retries,
            pass_futures=True,
        )
        for reducer_index, future in enumerate(reducers):
            future.metadata["reducer_index"] = reducer_index
        return reducers

    def _reduce_stage(
        self,
        reducers: list[tuple[Callable[..., Any], str, list[ResponseFuture]]],
        label: str,
        retries: Optional[int],
        pass_futures: bool = False,
    ) -> list[ResponseFuture]:
        """One DAG: each ``(function, name, inputs)`` reducer over its maps.

        Each map future is one external node however many reducers read
        it, so the executor's one watcher LISTs each map callset once per
        round and submits each reducer the moment the last of *its* inputs
        commits: a reducer activation starts with its inputs resolved and
        spends no cloud time polling.  Returns the reducer futures, in order.
        """
        from repro.dag import DagBuilder, DagScheduler

        builder = DagBuilder()
        maps = dict.fromkeys(f for _, _, inputs in reducers for f in inputs)
        for future in maps:
            maps[future] = builder.external(future, name=f"map:{future.call_id}", stage="map")
        nodes = [
            builder.reduce(
                fn, [maps[f] for f in inputs], pass_futures=pass_futures, name=name, stage="reduce"
            )
            for fn, name, inputs in reducers
        ]
        run = DagScheduler(self, label=label, retries=retries).submit(
            builder.build()
        )
        return [run.expose(node) for node in nodes]

    # ------------------------------------------------------------------
    # Event journal plumbing
    # ------------------------------------------------------------------
    def _client_dead(self) -> bool:
        """Whether client-crash chaos has already killed this driver.

        In-cloud executors are not the driver and never crash this way.
        """
        chaos = getattr(self.environment, "chaos", None)
        return (
            chaos is not None
            and not self.in_cloud
            and chaos.client_dead(self._chaos_epoch, self.kernel.now())
        )

    def _check_client(self) -> None:
        """Die here if client-crash chaos scheduled this driver's death.

        Checked at every externally-visible client step (submission,
        watcher rounds); raises :class:`~repro.core.errors.ClientCrashError`
        once the seeded virtual crash time has passed.
        """
        if self._client_dead():
            self.environment.chaos.kill_client(self.kernel.now())

    def _journal_invoked_steps(self, futures: Sequence[ResponseFuture],
                               recovered: bool = False,
                               dag_id: Optional[str] = None):
        """Journal issued invocations: ``[callset, call, activation, attempt]``.

        A DAG round's firings carry the ``dag_id``, which replay counts so
        an adopter continues the dead driver's DAG numbering.
        """
        if self.journal is None or not futures:
            return
        from repro.events import records as ev

        ids = {} if dag_id is None else {"dag_id": dag_id}
        yield from self.journal.append_steps(
            ev.CALLS_INVOKED,
            calls=[
                [f.callset_id, f.call_id, f.activation_id,
                 max(1, f.invoke_count)]
                for f in futures
            ],
            recovered=recovered,
            **ids,
        )

    def _journal_exposed(self, futures: Sequence[ResponseFuture]) -> None:
        """Journal futures becoming user-visible, in exposure order.

        Replay rebuilds ``executor.futures`` from these, so a resumed
        ``get_result()`` returns values in the exact original shape.
        """
        if self.journal is None or not futures:
            return
        from repro.events import records as ev

        self.journal.append(
            ev.FUTURES_EXPOSED,
            calls=[[f.callset_id, f.call_id] for f in futures],
        )

    # ------------------------------------------------------------------
    # Result collection (synchronous)
    # ------------------------------------------------------------------
    def wait(
        self,
        futures: Optional[Sequence[ResponseFuture]] = None,
        return_when: int = ALL_COMPLETED,
        timeout: Optional[float] = None,
    ) -> tuple[list[ResponseFuture], list[ResponseFuture]]:
        """Block until the unlock condition holds (§4.2)."""
        fs = list(futures) if futures is not None else list(self.futures)
        return self.kernel.drive(self._watcher.wait_steps(fs, return_when, timeout))

    def _trace_scope(self):
        """Ambient ``executor_id`` binding for client-side trace emission."""
        tracer = self.tracer
        if tracer is not None and tracer.enabled:
            return tracer.bind(executor_id=self.executor_id)
        return contextlib.nullcontext()

    def _completion_source(self) -> ListSource:
        """How this executor learns that calls are over (``config.monitoring``).

        ``reattach`` calls it again once it has taken the dead driver's id,
        and with it the queue that driver's workers already published to.
        """
        if self.config.monitoring != MonitoringTransport.MQ_PUSH:
            return ListSource(self._storage)
        mq = self.environment.mq_client(in_cloud=self.in_cloud)
        return QueueSource(self._storage, mq, self.executor_id)

    # ------------------------------------------------------------------
    # Lost-call recovery
    # ------------------------------------------------------------------
    def _reinvoke_lost_steps(self, pending: Sequence[ResponseFuture]):
        """One recovery scan, run once per watcher round.

        A call is *lost* when its activation reached a dead terminal state
        (infrastructure error/timeout) without the worker writing a status
        object — a crashed or reaped container.  Lost calls are re-invoked
        up to their ``max_retries`` budget; exhausted ones are buried with
        a synthetic status so waiters unblock.

        Scans the union of the waited set and everything this executor
        submitted: an in-cloud reducer waits on map futures *inside the
        cloud* where no detector runs, so the client must recover them too.
        """
        candidates: dict[tuple[str, str], ResponseFuture] = {}
        for future in list(pending) + self.futures:
            if future.activation_id is None or future._exhausted:
                continue
            if future.status_known:
                continue
            candidates.setdefault((future.callset_id, future.call_id), future)
        if not candidates:
            return
        fs = list(candidates.values())
        records = yield from self._functions.get_activations_steps(
            [future.activation_id for future in fs]
        )
        reinvoke: list[ResponseFuture] = []
        for future, record in zip(fs, records):
            if record is None or record.status not in (
                ActivationStatus.ERROR,
                ActivationStatus.TIMEOUT,
            ):
                continue  # in flight, or finished and its status is in COS
            if future.invoke_count <= future.max_retries:
                reinvoke.append(future)
            else:
                yield from self._bury_steps(future, record)
        tracer = self.tracer
        for future in reinvoke:
            activation_id = yield from self._functions.invoke_steps(
                self.config.namespace, self._runner_action, future._call_params
            )
            future.mark_invoked(activation_id)
            self._retries_total += 1
            if tracer is not None and tracer.enabled:
                tracer.point(
                    "client.invoke", "client",
                    ids={
                        "executor_id": future.executor_id,
                        "callset_id": future.callset_id,
                        "call_id": future.call_id,
                        "activation_id": activation_id,
                        "attempt": max(1, future.invoke_count),
                    },
                    recovered=True,
                )
        yield from self._journal_invoked_steps(reinvoke, recovered=True)

    def _bury_steps(self, future: ResponseFuture, record):
        """Exhausted retry budget: publish a synthetic ``lost`` status.

        Written conditionally to COS so it also unblocks in-cloud waiters
        (reducers) polling the same status key — and so a late surviving
        attempt that already committed a real status wins the race.
        """
        future._exhausted = True
        status = synthetic_status(
            future,
            record.error or "activation lost",
            "lost",
            record.start_time,
            record.end_time,
            activation_id=record.activation_id,
            container_id=record.container_id,
            cold_start=record.cold_start,
        )
        if (yield from self._storage.commit_status_steps(
            self.executor_id, future.callset_id, future.call_id, status
        )):
            future._ingest_status(status)
            tracer = self.tracer
            if tracer is not None and tracer.enabled:
                tracer.point(
                    "client.bury", "client",
                    ids={
                        "executor_id": self.executor_id,
                        "callset_id": future.callset_id,
                        "call_id": future.call_id,
                        "activation_id": record.activation_id,
                    },
                    success=False,
                    lost=True,
                    run_start=record.start_time,
                    run_end=record.end_time,
                )
        # else: a real status exists after all — the next poll round sees it

    def resilience_stats(self) -> dict[str, Any]:
        """Client-side retry counters plus injected-fault totals."""
        chaos = getattr(self.environment, "chaos", None)
        return {
            "invocation_retries": self._retries_total,
            "cos_request_retries": self._cos.retries,
            "invoke_network_retries": self._functions.policy.retries,
            "throttle_retries": self._functions.throttle_retries,
            "faults_injected": dict(chaos.fault_counts()) if chaos else {},
        }

    def get_result(
        self,
        futures: Union[ResponseFuture, Sequence[ResponseFuture], None] = None,
        timeout: Optional[float] = None,
        throw_except: bool = True,
    ) -> Any:
        """Collect results (§4.2): waits, downloads in parallel, unwraps
        compositions, and shows a progress bar when enabled.

        The downloads are one :func:`~repro.vtime.fan_out` of
        ``ResponseFuture.result_steps`` on model-task lanes, not threads.

        With no argument, collects everything this executor submitted —
        a single value if only one call was made, else a list in submission
        order.  Supports timeout and keyboard interruption.

        With ``throw_except=False`` failed calls do not raise: their slots
        hold ``None`` and the return value becomes the 2-tuple
        ``(values, FailureReport)``.  The report is also persisted as a
        dead-letter object next to the callset's other COS objects.
        """
        single = isinstance(futures, ResponseFuture)
        if single:
            fs = [futures]
        elif futures is None:
            fs = list(self.futures)
            single = len(fs) == 1
        else:
            fs = list(futures)
        if not fs:
            return None

        progress = ProgressBar(len(fs), enabled=self.config.progress_bar)

        def _render(done: int) -> None:
            postfix = (
                f" [{self._retries_total} retried]" if self._retries_total else ""
            )
            progress.update(done, postfix=postfix)

        tracer = self.tracer
        tracing = tracer is not None and tracer.enabled
        unsubscribe = None
        if tracing:
            # the progress bar sits on the spine: the watcher emits
            # ``client.progress`` points and a subscriber renders them
            def _on_trace_event(event) -> None:
                if event.get_id("executor_id") == self.executor_id:
                    _render(event.get_attr("done", 0))

            unsubscribe = tracer.subscribe(
                _on_trace_event, names=("client.progress",)
            )

            def _on_progress(done: int, total: int) -> None:
                tracer.point(
                    "client.progress", "client",
                    ids={"executor_id": self.executor_id},
                    done=done, total=total,
                )
        else:
            def _on_progress(done: int, _total: int) -> None:
                _render(done)

        try:
            self.kernel.drive(self._watcher.wait_steps(fs, ALL_COMPLETED, timeout, _on_progress))
        finally:
            # also on §4.2's keyboard interruption, which cancels retrieval
            progress.close()
            if unsubscribe is not None:
                unsubscribe()

        values = fan_out(
            self.kernel, lambda future: future.result_steps(timeout, throw_except), fs,
            self.config.result_fetch_pool_size, name="result-fetch",
        )
        if throw_except:
            return values[0] if single else values
        report = self._build_failure_report(fs)
        if report:
            self._persist_deadletters(report)
        return (values[0] if single else values, report)

    def _build_failure_report(self, fs: Sequence[ResponseFuture]) -> FailureReport:
        report = FailureReport(
            executor_id=self.executor_id, retries_total=self._retries_total
        )
        for future in fs:
            if future.state != CallState.ERROR:
                continue
            status = future._status or {}
            report.failures.append(
                CallFailure(
                    call_id=future.call_id,
                    callset_id=future.callset_id,
                    executor_id=future.executor_id,
                    activation_id=future.activation_id,
                    attempts=max(1, future.invoke_count),
                    error=status.get("error"),
                    lost=bool(status.get("lost")),
                )
            )
        return report

    def _persist_deadletters(self, report: FailureReport) -> None:
        """One dead-letter object per callset that had failures."""
        by_callset: dict[str, list[CallFailure]] = {}
        for failure in report.failures:
            by_callset.setdefault(failure.callset_id, []).append(failure)
        for callset_id, failures in sorted(by_callset.items()):
            self._storage.put_deadletter(
                self.executor_id,
                callset_id,
                FailureReport(self.executor_id, failures, report.retries_total),
            )

    # ------------------------------------------------------------------
    # Resume (event journal)
    # ------------------------------------------------------------------
    def reattach(self, job_id: str):
        """Adopt an orphaned journaled job and drive it to completion.

        ``job_id`` is the executor id of a (presumed-dead) driver that ran
        with ``events.enabled=True``.  Folds its journal into an ordinary
        DAG of already-prepared calls and hands that to
        :meth:`repro.dag.DagScheduler.adopt`, which reconciles it against
        the statuses committed in COS — the conditional status PUT
        guarantees a committed call is never re-executed — and invokes
        only what never committed.  Returns a
        :class:`repro.events.ResumedJob`; call ``get_result()`` on it as
        if this executor had submitted the job itself.
        """
        from repro.events.resume import attach

        return attach(self, job_id)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def plot(self, futures: Optional[Sequence[ResponseFuture]] = None) -> str:
        """Render this executor's execution timeline as an SVG document.

        Mirrors the real framework's ``create_timeline_plots``: one gray
        line per function execution plus the total-concurrency curve (the
        visual language of the paper's Figs. 2–3).  Futures must be
        finished (their statuses carry the timestamps).
        """
        from repro.analytics.timeline import render_execution_timeline

        fs = list(futures) if futures is not None else list(self.futures)
        intervals = []
        for future in fs:
            status = future.status()
            intervals.append((status["start_time"], status["end_time"]))
        return render_execution_timeline(
            intervals, title=f"Executor {self.executor_id}"
        )

    # ------------------------------------------------------------------
    # Trace access
    # ------------------------------------------------------------------
    def trace_events(self, callset_id: Optional[str] = None) -> list:
        """This executor's trace events, in deterministic order.

        Keeps only events stamped with this executor's id (plus un-stamped
        infrastructure events are excluded); optionally narrowed to one
        callset.  Requires the environment to have been created with
        ``trace=True``.
        """
        tracer = self.tracer
        if tracer is None:
            return []
        out = []
        for event in tracer.events():
            if event.get_id("executor_id") != self.executor_id:
                continue
            if callset_id is not None and event.get_id("callset_id") != callset_id:
                continue
            out.append(event)
        return out

    def trace_jsonl(self, callset_id: Optional[str] = None) -> str:
        """This executor's trace as deterministic JSONL text."""
        from repro.trace import export

        return export.to_jsonl(self.trace_events(callset_id))

    def persist_trace(self, callset_id: Optional[str] = None) -> list[str]:
        """Write per-callset trace JSONL objects to COS.

        One ``trace.jsonl`` object per callset, stored next to the callset's
        status/result (and dead-letter) objects.  Returns the keys written.
        """
        from repro.trace import export

        events = self.trace_events(callset_id)
        by_callset: dict[str, list] = {}
        for event in events:
            cs = event.get_id("callset_id")
            if cs is not None:
                by_callset.setdefault(cs, []).append(event)
        keys = []
        for cs, cs_events in sorted(by_callset.items()):
            keys.append(
                self._storage.put_trace(
                    self.executor_id, cs, export.to_jsonl(cs_events)
                )
            )
        return keys

    # ------------------------------------------------------------------
    # Retry
    # ------------------------------------------------------------------
    def retry_failed(
        self, futures: Sequence[ResponseFuture]
    ) -> list[ResponseFuture]:
        """Re-invoke the calls among ``futures`` that finished in error.

        The function and input data are still in COS, so a retry is just a
        new invocation of the same call: the worker overwrites the status
        and result objects.  Returns the futures that were retried (reset
        to pending); the caller waits on them again.  Futures must be
        finished (wait first).
        """
        return self._reinvoke(
            [f for f in futures if not f.status().get("success")], discard=True
        )

    def _reinvoke(
        self, futures: list[ResponseFuture], discard: bool
    ) -> list[ResponseFuture]:
        """Invoke ``futures``' calls again, first discarding the finished
        attempt when ``discard``; nothing is touched if any is foreign."""
        for future in futures:
            if getattr(future, "_call_params", None) is None:
                raise PyWrenError(
                    f"future {future.call_id} was not submitted by this "
                    "process; cannot retry"
                )
        if discard:
            for future in futures:
                self.kernel.drive(self._discard_attempt_steps(future))
        if futures:
            self._make_invoker().invoke_calls(
                self.config.namespace,
                self._runner_action,
                [future._call_params for future in futures],
                futures,
            )
        return futures

    def _discard_attempt_steps(self, future: ResponseFuture):
        """Forget ``future``'s finished attempt so a new one can run.

        Resets the future to "invoked, nothing known" and removes the old
        attempt's status and result objects, so completion discovery only
        fires for the new attempt.
        """
        from repro.cos.errors import NoSuchKey

        future._status = None
        future._status_seen = False
        future._value_loaded = False
        future._value = None
        future._state = CallState.INVOKED
        self._watcher.source.forget(future)
        for key in (
            self._storage.status_key(
                future.executor_id, future.callset_id, future.call_id
            ),
            self._storage.result_key(
                future.executor_id, future.callset_id, future.call_id
            ),
        ):
            try:
                yield from self._cos.delete_object_steps(self.config.storage_bucket, key)
            except NoSuchKey:
                pass
            # exchange-tier copies of the deleted objects are stale now
            self.environment.exchange.invalidate(key)

    def retry_missing(
        self, futures: Sequence[ResponseFuture]
    ) -> list[ResponseFuture]:
        """Speculatively re-invoke calls that have produced no status yet.

        The executor's own recovery re-invokes or buries calls whose
        activation already failed (a crashed or reaped container); this is
        for the ones still in flight, such as a hung container that has
        not been reaped yet.  Use after a bounded ``wait(..., timeout=...)``:
        anything still missing is re-invoked.  Duplicate execution of a
        slow-but-alive call is possible and harmless — both attempts write
        the same keys.
        """
        return self._reinvoke(self.wait(futures, ALWAYS)[1], discard=False)

    # ------------------------------------------------------------------
    # Cleanup
    # ------------------------------------------------------------------
    def clean(self, callset_id: Optional[str] = None) -> int:
        """Delete this executor's temporary objects from COS.

        The framework leaves func/data/status/result objects behind (they
        *are* the execution record); ``clean()`` removes them — everything
        for this executor, or one callset.  Returns the number of objects
        deleted.  Futures of cleaned callsets can no longer be resolved.
        """
        prefix = f"{self.config.storage_prefix}/{self.executor_id}/"
        if callset_id is not None:
            prefix += f"{callset_id}/"
        keys = self._cos.list_keys(self.config.storage_bucket, prefix)
        for key in keys:
            self._cos.delete_object(self.config.storage_bucket, key)
        self.environment.exchange.invalidate_prefix(prefix)
        return len(keys)

    # ------------------------------------------------------------------
    # Job submission
    # ------------------------------------------------------------------
    def _next_callset_id(self, label: str) -> str:
        callset_id = f"{label}{self._callset_seq:03d}"
        self._callset_seq += 1
        return callset_id

    def _submit(
        self,
        func: Callable[[Any], Any],
        items: Optional[list[Any]] = None,
        partitions: Optional[list[StoragePartition]] = None,
        label: str = "M",
        retries: Optional[int] = None,
    ) -> list[ResponseFuture]:
        """Serialize + upload code and data, then invoke all calls."""
        with self._trace_scope():
            if self.config.validate_runtime_packages:
                from repro.core.modules import validate_runtime

                validate_runtime(func, self._runtime_image)
            self._check_client()
            _, calls, futures = self._prepare_calls(
                func, items=items, partitions=partitions, label=label,
                retries=retries,
            )
            self._make_invoker().invoke_calls(
                self.config.namespace, self._runner_action, calls, futures
            )
            self.futures.extend(futures)
            self.kernel.drive(self._journal_invoked_steps(futures))
            self._journal_exposed(futures)
        return futures

    def _prepare_calls(
        self,
        func: Callable[[Any], Any],
        items: Optional[list[Any]] = None,
        partitions: Optional[list[StoragePartition]] = None,
        label: str = "M",
        retries: Optional[int] = None,
    ) -> tuple[str, list[dict[str, Any]], list[ResponseFuture]]:
        """Serialize and upload a callset without invoking anything.

        Uploads the (content-addressed) function blob and the aggregated
        data object, then builds the call-params dicts and bound futures.
        ``_submit`` invokes the calls immediately; the DAG scheduler
        instead holds them and invokes each one when its dependencies
        resolve.  The prepared futures are *not* registered on
        ``self.futures`` — that is the caller's decision.
        """
        max_retries = (
            self.config.invocation_retries if retries is None else int(retries)
        )
        if max_retries < 0:
            raise ValueError("retries must be >= 0")
        callset_id = self._next_callset_id(label)
        func_blob = serializer.serialize(func)
        # content-addressed function upload: identical functions submitted
        # again (loops of maps, retries) skip the client->COS transfer
        import hashlib as _hashlib

        digest = _hashlib.sha256(func_blob).hexdigest()[:24]
        func_key = self._storage.shared_func_key(self.executor_id, digest)
        if digest not in self._uploaded_funcs:
            self._storage.put_blob(func_key, func_blob)
            self._uploaded_funcs.add(digest)

        calls: list[dict[str, Any]] = []
        futures: list[ResponseFuture] = []
        common = {
            "executor_id": self.executor_id,
            "callset_id": callset_id,
            "bucket": self.config.storage_bucket,
            "prefix": self.config.storage_prefix,
            "func_key": func_key,
        }
        if self._watcher.source.queue is not None:
            common["monitor_queue"] = self._watcher.source.queue

        if partitions is not None:
            for i, partition in enumerate(partitions):
                call_id = f"{i:05d}"
                calls.append(
                    {**common, "call_id": call_id, "partition": partition.spec()}
                )
                futures.append(
                    ResponseFuture(
                        self.executor_id,
                        callset_id,
                        call_id,
                        metadata={
                            "bucket": partition.bucket,
                            "object_key": partition.key,
                            "partition_index": partition.partition_index,
                        },
                    )
                )
        else:
            assert items is not None
            # Aggregate all call inputs into one COS object; each call gets
            # a byte range.  One upload instead of N (crucial over a WAN).
            blobs = [serializer.serialize(item) for item in items]
            offsets: list[tuple[int, int]] = []
            position = 0
            for blob in blobs:
                offsets.append((position, position + len(blob)))
                position += len(blob)
            self._storage.put_agg_data(
                self.executor_id, callset_id, b"".join(blobs)
            )
            for i, data_range in enumerate(offsets):
                call_id = f"{i:05d}"
                calls.append(
                    {**common, "call_id": call_id, "data_range": list(data_range)}
                )
                futures.append(
                    ResponseFuture(self.executor_id, callset_id, call_id)
                )

        for future, call_params in zip(futures, calls):
            future.bind(self._storage, self.config.poll_interval)
            future.max_retries = max_retries
            future._call_params = call_params  # kept for retry_failed()
        if self.journal is not None:
            # Everything resume needs to re-create these calls: the params
            # reference code and data already durably in COS, so the
            # record stays small and JSON-pure.
            from repro.events import records as ev

            self.journal.append(
                ev.JOB_SUBMITTED,
                callset_id=callset_id,
                label=label,
                retries=max_retries,
                func_key=func_key,
                calls=[dict(c) for c in calls],
            )
        return callset_id, calls, futures

    def _make_invoker(self) -> Invoker:
        config, args = self.config, (self.kernel, self._functions)
        if config.invoker_mode == InvokerMode.LOCAL:
            return LocalInvoker(*args, config.invoker_pool_size, self.tracer)
        if config.invoker_mode == InvokerMode.REMOTE:
            # one group: a lone in-cloud invoker with its own pool
            return MassiveInvoker(
                *args, None, config.remote_invoker_pool_size, self.tracer
            )
        return MassiveInvoker(
            *args, config.massive_group_size, config.invoker_pool_size, self.tracer
        )


def ibm_cf_executor(
    runtime: Optional[str] = None,
    environment=None,
    **overrides: Any,
) -> FunctionExecutor:
    """Get an executor instance (§4.1's ``pw.ibm_cf_executor()``).

    Resolves the cloud environment from the calling thread: on the client
    that is the environment whose ``run()`` is driving the code; inside a
    running cloud function it is the function's own cloud, with in-cloud
    network links (this is what makes §4.4's dynamic composition work).
    """
    if environment is None:
        environment = ambient.require_context().environment
    return environment.executor(runtime=runtime, **overrides)
