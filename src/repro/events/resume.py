"""Resume: adopt an orphaned journaled job and finish it with zero lost work.

The protocol (``FunctionExecutor.reattach(job_id)`` / ``python -m repro
events resume``):

1. **Replay** the dead driver's journal into a :class:`JobLedger` — every
   call ever prepared (with its params, still referencing code and data
   durably in COS), every invocation issued, every DAG edge and retry
   budget, every exposure.
2. **Fold** the ledger into an ordinary :class:`~repro.dag.Dag`
   (:meth:`JobLedger.to_dag`): one node per journaled call, arriving with
   its future, call params and retry budget already set, edges from the
   journaled ``dag.submitted`` records.  A plain ``map`` call is simply a
   node with no dependencies.
3. **Adopt** it (:meth:`repro.dag.DagScheduler.adopt`): one LIST per
   callset, under ``mq_push`` too, finds the statuses that committed while
   nobody was watching.  Committed calls are final — PR 1's conditional
   status PUT means no replacement attempt can ever overwrite them, so
   *committed work is never re-executed*.  From there the executor's
   watcher drives it like a fresh DAG: probe journaled activation ids
   through lost-call recovery, re-invoke calls whose activations are
   unknown or dead (safe: a surviving twin loses the conditional PUT), fire
   nodes whose dependencies all committed, bury terminal failures' dependents.

The adopting executor *becomes* the dead driver: it takes over its
executor id, journal (appending after the replayed tail) and monitor
queue, and registers the journaled exposure order on ``futures`` so
``get_result()`` returns results in the exact shape the original client
was promised.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Any, Optional

from repro.core.errors import PyWrenError
from repro.core.futures import CallState, ResponseFuture
from repro.dag.graph import Dag, compute_levels
from repro.dag.node import ARG_VALUE, DagNode
from repro.dag.scheduler import DagRun, DagScheduler
from repro.events import records as ev
from repro.events.journal import EventJournal, JournalConflictError
from repro.events.records import EventRecord

#: a call within one executor's namespace: ``(callset_id, call_id)``
CallKey = tuple[str, str]

#: how many times the adopter re-reads the log when its first append
#: loses a slot to a write the dead driver had already in flight
RESUME_APPEND_ATTEMPTS = 3


def _trailing_number(text: str) -> int:
    """``"M012"`` -> 12, ``"dag003"`` -> 3: position in a per-executor counter."""
    match = re.search(r"(\d+)$", text)
    return int(match.group(1)) if match else -1


@dataclass
class CallEntry:
    """Everything the journal knows about one call."""

    callset_id: str
    call_id: str
    params: dict[str, Any] = field(default_factory=dict)
    max_retries: int = 0
    #: attempts issued before the crash (0 = prepared but never invoked)
    invoke_count: int = 0
    #: last journaled activation id (``None`` for fire-and-forget invokers)
    activation_id: Optional[str] = None
    #: DAG dependencies (empty for plain calls and DAG roots)
    deps: tuple[CallKey, ...] = ()
    node_name: Optional[str] = None
    #: error re-runs the call's DAG grants it (``dag.submitted``'s
    #: ``node_retries``; 0 for plain calls)
    node_retries: int = 0

    @property
    def invoked(self) -> bool:
        return self.invoke_count > 0


class JobLedger:
    """The fold of a journal: calls, edges, exposures, id counters."""

    def __init__(self) -> None:
        self.calls: dict[CallKey, CallEntry] = {}
        #: user-visible futures in exposure order
        self.exposed: list[CallKey] = []
        #: highest journaled DAG sequence number (``-1``: none)
        self.last_dag = -1
        self.last_seq = -1
        self.resumes = 0
        self.records = 0

    def entry(self, key: CallKey) -> CallEntry:
        if key not in self.calls:
            self.calls[key] = CallEntry(callset_id=key[0], call_id=key[1])
        return self.calls[key]

    @classmethod
    def from_records(cls, records: list[EventRecord]) -> "JobLedger":
        ledger = cls()
        for record in records:
            ledger.last_seq = max(ledger.last_seq, record.seq)
            ledger.records += 1
            data = record.data
            if "dag_id" in data:
                ledger.last_dag = max(
                    ledger.last_dag, _trailing_number(data["dag_id"])
                )
            if record.kind == ev.JOB_SUBMITTED:
                callset_id = data["callset_id"]
                retries = int(data.get("retries", 0))
                for params in data.get("calls", []):
                    entry = ledger.entry((callset_id, params["call_id"]))
                    entry.params = dict(params)
                    entry.max_retries = retries
            elif record.kind == ev.CALLS_INVOKED:
                for cs, call_id, activation_id, attempt in data.get("calls", []):
                    entry = ledger.entry((cs, call_id))
                    entry.invoke_count = max(entry.invoke_count, int(attempt))
                    entry.activation_id = activation_id
            elif record.kind == ev.FUTURES_EXPOSED:
                for cs, call_id in data.get("calls", []):
                    key = (cs, call_id)
                    if key not in ledger.exposed:
                        ledger.exposed.append(key)
            elif record.kind == ev.DAG_SUBMITTED:
                node_retries = int(data.get("node_retries", 0))
                for spec in data.get("nodes", []):
                    if spec.get("external"):
                        continue
                    cs, call_id = spec["call"]
                    entry = ledger.entry((cs, call_id))
                    entry.node_retries = node_retries
                    if spec.get("deps"):
                        entry.deps = tuple((d[0], d[1]) for d in spec["deps"])
                        entry.node_name = spec.get("name")
            elif record.kind == ev.RESUME_STARTED:
                ledger.resumes += 1
        return ledger

    def to_dag(self, executor) -> Dag:
        """The journaled job as an ordinary graph of already-prepared nodes.

        One node per call, its future (bound to ``executor``'s storage,
        carrying the journaled attempts and activation id), call params
        and error-retry budget set, so
        :meth:`~repro.dag.DagScheduler.adopt` has nothing to serialize or
        upload.  Callsets are numbered from one per-executor
        counter and a dependent is always prepared after its dependencies,
        so callset order is a topological order.
        """
        nodes: dict[CallKey, DagNode] = {}
        for key in sorted(self.calls, key=lambda k: (_trailing_number(k[0]), k)):
            entry = self.calls[key]
            future = ResponseFuture(executor.executor_id, *key)
            future.bind(executor._storage, executor.config.poll_interval)
            future.max_retries = entry.max_retries
            future._call_params = entry.params
            if entry.invoked:
                future._state = CallState.INVOKED
                future.invoke_count = entry.invoke_count
                future.activation_id = entry.activation_id
            node = DagNode(
                None, len(nodes), None, ARG_VALUE,
                # a dependency this journal never prepared belongs to
                # another executor; the node's own shim waits for it
                deps=[nodes[dep] for dep in entry.deps if dep in nodes],
                name=entry.node_name or "/".join(key),
            )
            node.future = future
            node.call_params = entry.params
            node.node_retries = entry.node_retries
            for dep in node.deps:
                dep.dependents.append(node)
            nodes[key] = node
        ordered = list(nodes.values())
        compute_levels(ordered)
        return Dag(ordered)


def attach(executor, job_id: str) -> "ResumedJob":
    """Make ``executor`` adopt the journaled job ``job_id`` (see module doc).

    Each DAG node keeps the ``node_retries`` its DAG was submitted with.
    The journal does not tell the error re-runs a node already spent
    from lost-call re-invocations, so the adopter grants the whole
    budget again.
    """
    if executor.in_cloud:
        raise PyWrenError("reattach is a client-side (driver) operation")
    if not executor.config.events.enabled:
        raise PyWrenError(
            "reattach requires events.enabled=True — the journal is the "
            "only durable record of an orphaned job"
        )

    # A replacement driver is a *new* client epoch: client-crash chaos
    # only ever kills epoch 0, so the adopter is immune by construction.
    chaos = getattr(executor.environment, "chaos", None)
    if chaos is not None:
        executor._chaos_epoch = chaos.begin_new_client()

    previous_id, executor.executor_id = executor.executor_id, job_id
    try:
        replayed = EventJournal.replay_for(executor)
        if not replayed:
            raise PyWrenError(f"no event journal found for job {job_id!r}")
    except BaseException:
        # a failed reattach must not hijack the executor's identity
        executor.executor_id = previous_id
        raise

    # Take over the dead driver's identity end to end: monitor queue
    # (pre-crash workers already published there), journal (appending
    # after the replayed tail), callset and DAG counters (new submissions
    # must not collide — a reused dag id would overwrite the swarm
    # schedule object the dead driver's workers still read) and
    # uploaded-function digests (skip redundant WAN uploads).
    executor._watcher.source = executor._completion_source()
    for attempt in range(RESUME_APPEND_ATTEMPTS):
        ledger = JobLedger.from_records(replayed)
        executor.journal = EventJournal.for_executor(
            executor, start_seq=ledger.last_seq + 1
        )
        try:
            executor.journal.append(
                ev.RESUME_STARTED,
                job_id=job_id,
                epoch=executor._chaos_epoch,
                events_replayed=ledger.records,
                resumes=ledger.resumes + 1,
            )
            break
        except JournalConflictError:
            # An append the dead driver began while still alive landed
            # after this replay read the log: read it again, that record
            # included, and take the next free slot.
            if attempt + 1 == RESUME_APPEND_ATTEMPTS:
                raise
            replayed = EventJournal.replay_for(executor)
    executor._callset_seq = 1 + max(
        (_trailing_number(callset_id) for callset_id, _ in ledger.calls),
        default=-1,
    )
    executor._dag_seq = ledger.last_dag + 1
    for entry in ledger.calls.values():
        func_key = entry.params.get("func_key", "")
        match = re.search(r"funcs/([0-9a-f]+)\.pickle$", func_key)
        if match:
            executor._uploaded_funcs.add(match.group(1))

    dag = ledger.to_dag(executor)
    by_key = {(n.future.callset_id, n.future.call_id): n for n in dag.nodes}
    # the journaled exposure order *is* the public result shape
    executor.futures = [
        by_key[key].future for key in ledger.exposed if key in by_key
    ]
    # Centrally driven whatever the dead driver used: a swarm's workers
    # kept firing dependents on their own and need no supervisor to be
    # finished — only somebody to notice, and to cover what they dropped.
    run = DagScheduler(executor, scheduler="centralized").adopt(dag)
    return ResumedJob(executor, ledger, run)


class ResumedJob:
    """Handle on an adopted job: journaled futures plus completion."""

    def __init__(self, executor, ledger: JobLedger, run: DagRun) -> None:
        self.executor = executor
        self.job_id = executor.executor_id
        self._ledger = ledger
        self._run = run

    @property
    def futures(self) -> list:
        """The job's user-visible futures, in the journaled exposure order."""
        return list(self.executor.futures)

    @property
    def stats(self) -> dict[str, Any]:
        """Recovery accounting: committed/reinvoked/refired/buried counts.

        Read off the run's nodes against what the journal said of them:
        an invocation beyond the journaled attempts of a call with no
        journaled activation id is this driver's doing — ``reinvoked``
        when the dead driver had issued it blind, ``refired`` when it had
        never been invoked at all.
        """
        reconciled = {(cs, call_id) for cs, call_id, _ in self._run.reconciled}
        reinvoked = refired = buried = 0
        for node in self._run.dag.nodes:
            future = node.future
            key = (future.callset_id, future.call_id)
            entry = self._ledger.calls[key]
            if (
                entry.activation_id is None
                and future.invoke_count > entry.invoke_count
            ):
                if entry.invoked:
                    reinvoked += 1
                else:
                    refired += 1
            status = future._status or {}
            if key not in reconciled and (
                status.get("buried") or status.get("lost")
            ):
                buried += 1
        return {
            "calls": len(self._ledger.calls),
            "already_committed": len(reconciled),
            "reinvoked": reinvoked,
            "refired": refired,
            "buried": buried,
            "events_replayed": self._ledger.records,
        }

    @property
    def error(self) -> Optional[BaseException]:
        return self._run.error

    def join(self, timeout: Optional[float] = None) -> bool:
        """Block (virtual time) until every journaled call is terminal."""
        return self._run.join(timeout)

    def get_result(
        self, timeout: Optional[float] = None, throw_except: bool = True
    ) -> Any:
        """Collect results exactly as the dead driver's ``get_result`` would.

        Single-call jobs return the bare value, multi-call jobs the list
        in original submission order — byte-identical to what an
        uninterrupted run returns.
        """
        return self.executor.get_result(
            timeout=timeout, throw_except=throw_except
        )
