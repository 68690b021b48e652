"""Response futures (§4.2).

All three computing methods return futures "to track the status of the
executors and get the results when available".  A future is a *pure
reference*: executor id + callset id + call id, judged by its executor's
watcher from the status object in COS (without one it polls), so it
is picklable — a function can return futures from a nested executor, ship
them through COS, and the client's composition-aware ``get_result``
resolves them transparently.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional

from repro.vtime import vsleep
from repro.core.errors import FunctionError, ResultTimeoutError
from repro.core.storage_client import InternalStorage

#: ``wait()`` unlock conditions (§4.2).
ALWAYS = 0
ANY_COMPLETED = 1
ALL_COMPLETED = 2


class CallState:
    """Lifecycle of a call as the client observes it."""

    NEW = "new"
    INVOKED = "invoked"
    SUCCESS = "success"
    ERROR = "error"


@dataclass(frozen=True)
class CallFailure:
    """One call that exhausted its retries (or failed unrecoverably)."""

    call_id: str
    callset_id: str
    executor_id: str
    activation_id: Optional[str]
    attempts: int
    error: Optional[str]
    lost: bool = False

    def to_dict(self) -> dict[str, Any]:
        return {
            "call_id": self.call_id,
            "callset_id": self.callset_id,
            "executor_id": self.executor_id,
            "activation_id": self.activation_id,
            "attempts": self.attempts,
            "error": self.error,
            "lost": self.lost,
        }

    @classmethod
    def from_dict(cls, raw: dict[str, Any]) -> "CallFailure":
        return cls(
            call_id=str(raw["call_id"]),
            callset_id=str(raw["callset_id"]),
            executor_id=str(raw["executor_id"]),
            activation_id=raw.get("activation_id"),
            attempts=int(raw.get("attempts", 0)),
            error=raw.get("error"),
            lost=bool(raw.get("lost", False)),
        )


@dataclass
class FailureReport:
    """Structured account of what ``get_result(throw_except=False)`` lost.

    Picklable — the executor also persists it as a dead-letter object in
    COS so a later process can inspect what went wrong.
    """

    executor_id: str
    failures: list[CallFailure] = field(default_factory=list)
    retries_total: int = 0

    def __bool__(self) -> bool:
        return bool(self.failures)

    def __len__(self) -> int:
        return len(self.failures)

    def summary(self) -> str:
        if not self.failures:
            return "no failures"
        lines = [
            f"{len(self.failures)} call(s) failed "
            f"({self.retries_total} retries spent):"
        ]
        for f in self.failures:
            kind = "lost" if f.lost else "error"
            lines.append(
                f"  {f.callset_id}/{f.call_id} [{kind}, "
                f"{f.attempts} attempt(s)]: {f.error}"
            )
        return "\n".join(lines)

    def to_json(self) -> str:
        """Lossless JSON form, used for the COS dead-letter object.

        JSON rather than pickle so any process — a different Python, a
        human with ``curl`` — can read why a job lost calls.  Exception
        text and retry counters survive the round-trip exactly.
        """
        import json

        return json.dumps(
            {
                "executor_id": self.executor_id,
                "retries_total": self.retries_total,
                "failures": [f.to_dict() for f in self.failures],
            },
            sort_keys=True,
        )

    @classmethod
    def from_json(cls, text: str) -> "FailureReport":
        import json

        raw = json.loads(text)
        return cls(
            executor_id=str(raw["executor_id"]),
            failures=[CallFailure.from_dict(f) for f in raw.get("failures", [])],
            retries_total=int(raw.get("retries_total", 0)),
        )


def synthetic_status(
    future: "ResponseFuture",
    error: str,
    flag: str,
    start_time: float,
    end_time: float,
    activation_id: Optional[str] = None,
    container_id: Optional[str] = None,
    cold_start: bool = False,
) -> dict[str, Any]:
    """The failed terminal status of a call that will never write its own.

    ``flag`` says who gave up on it: ``"lost"`` (every activation died,
    retry budget spent) or ``"buried"`` (an upstream DAG node failed, or
    the scheduler aborted).  Giving up is one conditional status PUT of
    this dict and *no* result blob — :meth:`ResponseFuture.result` derives
    ``(None, error)`` from the status — so a late attempt of the call has
    no second object to overwrite, and one that committed first keeps its
    real outcome.  Key order is part of the contract — statuses are
    pickled and their size feeds modelled transfer time.
    """
    return {
        "executor_id": future.executor_id,
        "callset_id": future.callset_id,
        "call_id": future.call_id,
        "success": False,
        "error": error,
        flag: True,
        "start_time": start_time,
        "end_time": end_time,
        "activation_id": activation_id,
        "container_id": container_id,
        "cold_start": cold_start,
    }


class ResponseFuture:
    """Handle for one function executor's eventual result."""

    # Class-level defaults, not ``__init__`` assignments: ``__getstate__``
    # pickles the instance dict, and pickled size feeds modelled transfer time.
    _status_seen = False
    _exhausted = False

    def __init__(
        self,
        executor_id: str,
        callset_id: str,
        call_id: str,
        metadata: Optional[dict[str, Any]] = None,
    ) -> None:
        self.executor_id = executor_id
        self.callset_id = callset_id
        self.call_id = call_id
        #: free-form labels, e.g. the COS object a partition came from
        self.metadata = dict(metadata or {})
        self.activation_id: Optional[str] = None
        #: how many times this call has been invoked (first try + re-invokes)
        self.invoke_count = 0
        #: re-invocation budget for lost-call recovery (set by the executor)
        self.max_retries = 0
        self._state = CallState.NEW
        self._status: Optional[dict[str, Any]] = None
        self._value: Any = None
        self._value_loaded = False
        self._storage: Optional[InternalStorage] = None
        self._poll_interval = 1.0

    # -- plumbing -------------------------------------------------------------
    def bind(self, storage: InternalStorage, poll_interval: float = 1.0) -> "ResponseFuture":
        """Attach the storage this future polls.  Returns self."""
        self._storage = storage
        self._poll_interval = poll_interval
        return self

    @property
    def bound(self) -> bool:
        return self._storage is not None

    def _require_storage(self) -> InternalStorage:
        if self._storage is None:
            raise RuntimeError(
                f"future {self.call_id} is not bound to storage; "
                "call bind() or resolve it through an executor"
            )
        return self._storage

    def __getstate__(self) -> dict[str, Any]:
        state = self.__dict__.copy()
        state["_storage"] = None  # futures travel as pure references
        return state

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<ResponseFuture {self.executor_id}/{self.callset_id}/"
            f"{self.call_id} {self._state}>"
        )

    # -- state ---------------------------------------------------------------
    @property
    def state(self) -> str:
        return self._state

    def mark_invoked(self, activation_id: Optional[str] = None) -> None:
        if self._state == CallState.NEW:
            self._state = CallState.INVOKED
        self.invoke_count += 1
        if activation_id is not None:
            self.activation_id = activation_id

    def mark_done(self) -> None:
        """Record that a status object exists without fetching it yet.

        The success/error split happens when the status is actually read.
        """
        self._status_seen = True

    def _judge(self):
        """The :class:`~repro.core.wait.Watcher` of the executor that prepared
        this call, found through its binding (``None``: the future polls)."""
        watcher = self._storage.watcher() if self._storage is not None else None
        executor = watcher and watcher._executor()
        return watcher if getattr(executor, "executor_id", None) == self.executor_id else None

    @property
    def status_known(self) -> bool:
        """Whether a status object is known to exist (fetched, or only seen)."""
        return self._status is not None or self._status_seen

    def done(self) -> bool:
        """One status check: a watched future's is its watcher's next round."""
        if self.status_known:
            return True
        watcher = self._judge()
        if watcher is not None:
            return bool(watcher.kernel.drive(watcher.wait_steps([self], ALWAYS))[0])
        kernel = self._require_storage().cos.link.kernel
        return kernel.drive(self.poll_steps()) is not None

    def poll_steps(self):
        """One status GET: ingests and returns the status, ``None`` if the
        call has not finished."""
        status = yield from self._require_storage().get_status_steps(
            self.executor_id, self.callset_id, self.call_id
        )
        if status is not None:
            self._ingest_status(status)
        return status

    def _ingest_status(self, status: dict[str, Any]) -> None:
        self._status = status
        self._state = CallState.SUCCESS if status.get("success") else CallState.ERROR

    def status(self, timeout: Optional[float] = None) -> dict[str, Any]:
        return self._require_storage().cos.link.kernel.drive(self.status_steps(timeout))

    def status_steps(self, timeout: Optional[float] = None):
        """Wait for the call to finish; return a copy of its status dict.

        A watched future parks until its watcher judged the call; any other
        polls the status object every ``poll_interval``.  Either raises
        :class:`ResultTimeoutError` once ``timeout`` virtual seconds pass.
        A status only seen (LISTed) is read once, with no poll first.
        """
        watcher = self._judge()
        if watcher is not None and not self.status_known:
            yield from watcher.wait_steps([self], ALL_COMPLETED, timeout)
        kernel = self._require_storage().cos.link.kernel
        deadline = None if timeout is None else kernel.now() + timeout
        while self._status is None and (yield from self.poll_steps()) is None:
            assert not self._status_seen, "a LISTed status cannot vanish"
            if deadline is not None and kernel.now() >= deadline:
                raise ResultTimeoutError(
                    f"call {self.call_id} did not finish within {timeout}s"
                )
            yield vsleep(self._poll_interval)
        return dict(self._status)

    # -- results ---------------------------------------------------------------
    def result(self, timeout: Optional[float] = None, throw_except: bool = True) -> Any:
        return self._require_storage().cos.link.kernel.drive(
            self.result_steps(timeout, throw_except)
        )

    def result_steps(self, timeout: Optional[float] = None, throw_except: bool = True):
        """Wait (virtual time) until the result is available and return it.

        Composition-aware: when the remote function returned futures (from a
        nested executor), those are resolved recursively so callers always
        receive final values (§4.2's ``get_result`` behaviour).
        """
        status = yield from self.status_steps(timeout)
        storage = self._storage
        if not self._value_loaded:
            if status.get("lost") or status.get("buried"):
                # synthetic status: the call was given up on, there is no
                # result blob — or only a late attempt's, not this outcome's
                raw: Any = (None, status.get("error"))
            else:
                raw = yield from storage.get_result_steps(
                    self.executor_id, self.callset_id, self.call_id
                )
            self._value = raw
            self._value_loaded = True
        if status.get("success"):
            value, interval = self._value, self._poll_interval
            while isinstance(value, ResponseFuture):
                value = yield from value.bind(storage, interval).result_steps(timeout)
            if (
                isinstance(value, (list, tuple))
                and value
                and all(isinstance(v, ResponseFuture) for v in value)
            ):
                resolved = []
                for v in value:
                    resolved.append((yield from v.bind(storage, interval).result_steps(timeout)))
                value = type(value)(resolved) if isinstance(value, tuple) else resolved
            self._value = value
            return value
        # Error path: the stored result is (exception|None, traceback string).
        cause, remote_tb = self._value
        if throw_except:
            raise FunctionError(
                f"function executor {self.call_id} of callset "
                f"{self.callset_id} raised: {status.get('error', '')}",
                cause=cause,
                remote_traceback=remote_tb,
            )
        return None
