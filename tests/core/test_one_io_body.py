"""One body per I/O operation: a blocking call is ``kernel.drive(x_steps(...))``.

Every I/O operation is written once, as a steps generator.  Model tasks
``yield from`` it; thread tasks (the client, user code) call the blocking
name, which is nothing but ``kernel.drive`` over that generator.  Two
checks pin the rule:

* **Equivalence.**  For each surviving blocking name, the blocking call
  from a thread task and the ``yield from`` in a model task give the same
  return value, virtual elapsed time, COS request tallies, trace events
  and resulting state, on fresh same-seed worlds with link failures and
  COS chaos switched on (so retries and backoff are on the path too).
* **Design guard.**  An AST scan of ``src/repro``: wherever a class
  defines both ``x`` and ``x_steps``, ``x``'s body (after its docstring)
  is the single statement ``….drive(self.x_steps(...))``.
"""

from __future__ import annotations

import ast
import inspect
from pathlib import Path
from typing import Any, Callable, NamedTuple

import pytest

import repro
from repro.chaos import ChaosProfile, build_plane
from repro.config import ExchangeConfig
from repro.core import serializer
from repro.core.errors import ResultTimeoutError
from repro.core.futures import ResponseFuture, synthetic_status
from repro.core.invokers import LocalInvoker, MassiveInvoker
from repro.core.storage_client import InternalStorage
from repro.core.worker import REMOTE_INVOKER_ACTION
from repro.cos import CloudObjectStorage, COSClient
from repro.events.journal import EventJournal
from repro.events.records import to_jsonl
from repro.exchange import CachedCosExchange, CosExchange, VmExchange
from repro.exchange.base import ExchangeBackend
from repro.faas import CloudFunctions, CloudFunctionsClient
from repro.mq.broker import MessageBroker
from repro.mq.client import MQClient
from repro.net import LatencyModel, NetworkLink
from repro.retry import RetryPolicy
from repro.trace.tracer import Tracer
from repro.vtime import Kernel, fan_out, fan_out_steps, vsleep

BUCKET = "io"
DATA = bytes(range(256)) * 40  # 10 KiB
CLOUD_SITE = (0, "c0")


class World(NamedTuple):
    kernel: Kernel
    store: CloudObjectStorage
    tracer: Tracer
    cos: COSClient


def make_world() -> World:
    """A same-seed world: lossy jittered link, flaky COS, tracing on."""
    kernel = Kernel()
    store = CloudObjectStorage(kernel)
    store.create_bucket(BUCKET)
    tracer = Tracer(kernel, enabled=True)
    store.tracer = tracer
    store.chaos = build_plane(ChaosProfile("flaky-cos", seed=3))
    link = NetworkLink(
        kernel,
        LatencyModel(rtt=0.05, jitter=0.2, failure_prob=0.25),
        seed=28,  # this stream loses the first two requests
        tracer=tracer,
    )
    return World(kernel, store, tracer, COSClient(store, link))


class Case(NamedTuple):
    """One operation, both ways, against a given world.

    ``setup`` runs first on a thread task (identically for both ways);
    ``blocking`` / ``steps`` are the two spellings of the operation;
    ``probe`` reads the state the operation left behind.
    """

    setup: Callable[[], Any]
    blocking: Callable[[], Any]
    steps: Callable[[], Any]
    probe: Callable[[], Any]


def _nothing() -> None:
    return None


def _stored(w: World, key: str) -> Callable[[], Any]:
    return lambda: w.store.get_object(BUCKET, key).read()


# -- COS client ---------------------------------------------------------------
def cos_put(w: World) -> Case:
    return Case(
        _nothing,
        lambda: w.cos.put_object(BUCKET, "k/put", DATA),
        lambda: w.cos.put_object_steps(BUCKET, "k/put", DATA),
        _stored(w, "k/put"),
    )


def cos_get(w: World) -> Case:
    return Case(
        lambda: w.store.put_object(BUCKET, "k/get", DATA),
        lambda: w.cos.get_object(BUCKET, "k/get"),
        lambda: w.cos.get_object_steps(BUCKET, "k/get"),
        _nothing,
    )


def cos_range(w: World) -> Case:
    return Case(
        lambda: w.store.put_object(BUCKET, "k/range", DATA),
        lambda: w.cos.read_range(BUCKET, "k/range", 100, 5000, 64),
        lambda: w.cos.read_range_steps(BUCKET, "k/range", 100, 5000, 64),
        _nothing,
    )


def cos_list(w: World) -> Case:
    def setup():
        for i in range(3):
            w.store.put_object(BUCKET, f"k/list/{i}", DATA[:i + 1])

    return Case(
        setup,
        lambda: w.cos.list_keys(BUCKET, "k/list/"),
        lambda: w.cos.list_keys_steps(BUCKET, "k/list/"),
        _nothing,
    )


def cos_delete(w: World) -> Case:
    return Case(
        lambda: w.store.put_object(BUCKET, "k/delete", DATA),
        lambda: w.cos.delete_object(BUCKET, "k/delete"),
        lambda: w.cos.delete_object_steps(BUCKET, "k/delete"),
        lambda: w.store.object_exists(BUCKET, "k/delete"),
    )


def cos_head(w: World) -> Case:
    return Case(
        lambda: w.store.put_object(BUCKET, "k/head", DATA),
        lambda: w.cos.head_object(BUCKET, "k/head"),
        lambda: w.cos.head_object_steps(BUCKET, "k/head"),
        _nothing,
    )


def cos_exists(w: World) -> Case:
    def steps():
        found = yield from w.cos.object_exists_steps(BUCKET, "k/exists")
        return found, (yield from w.cos.object_exists_steps(BUCKET, "k/none"))

    return Case(
        lambda: w.store.put_object(BUCKET, "k/exists", DATA),
        lambda: (
            w.cos.object_exists(BUCKET, "k/exists"),
            w.cos.object_exists(BUCKET, "k/none"),
        ),
        steps,
        _nothing,
    )


def cos_fan_out(w: World) -> Case:
    """Three GETs on two lanes: the pool helper, both ways."""
    keys = [f"k/fan/{i}" for i in range(3)]

    def setup():
        for i, key in enumerate(keys):
            w.store.put_object(BUCKET, key, DATA[: 100 * (i + 1)])

    def get(key):
        return w.cos.get_object_steps(BUCKET, key)

    return Case(
        setup,
        lambda: fan_out(w.kernel, get, keys, 2),
        lambda: fan_out_steps(w.kernel, get, keys, 2),
        _nothing,
    )


# -- internal storage ---------------------------------------------------------
def _commit(w: World, lost: bool) -> Case:
    storage = InternalStorage(w.cos, BUCKET)
    status = {"call_id": "00000", "success": True}
    key = storage.status_key("e", "M000", "00000")

    def setup():
        if lost:  # a predecessor already committed
            w.store.put_object(BUCKET, key, b"first")

    # no blocking name is left (every caller is a steps generator): a
    # thread task drives the steps form
    return Case(
        setup,
        lambda: w.kernel.drive(storage.commit_status_steps("e", "M000", "00000", status)),
        lambda: storage.commit_status_steps("e", "M000", "00000", status),
        _stored(w, key),
    )


def commit_won(w: World) -> Case:
    return _commit(w, lost=False)


def commit_lost(w: World) -> Case:
    return _commit(w, lost=True)


def status_found(w: World) -> Case:
    storage = InternalStorage(w.cos, BUCKET)
    key = storage.status_key("e", "M000", "00000")

    def setup():
        status = {"call_id": "00000", "success": True}
        w.store.put_object(BUCKET, key, serializer.serialize(status))

    return Case(
        setup,
        lambda: storage.get_status("e", "M000", "00000"),
        lambda: storage.get_status_steps("e", "M000", "00000"),
        _nothing,
    )


def status_listed(w: World) -> Case:
    storage = InternalStorage(w.cos, BUCKET)

    def setup():
        for call_id in ("00000", "00002"):
            w.store.put_object(BUCKET, storage.status_key("e", "M000", call_id), b"s")

    return Case(
        setup,
        lambda: w.kernel.drive(storage.list_done_call_ids_steps("e", "M000")),
        lambda: storage.list_done_call_ids_steps("e", "M000"),
        _nothing,
    )


def journal_append(w: World) -> Case:
    journal = EventJournal(InternalStorage(w.cos, BUCKET), "e", w.kernel, tracer=w.tracer)
    return Case(
        _nothing,
        lambda: journal.append("calls_invoked", calls=[["M000", "00000"]]),
        lambda: journal.append_steps("calls_invoked", calls=[["M000", "00000"]]),
        lambda: (to_jsonl(journal.appended), _stored(w, journal.storage.journal_key("e", 0))()),
    )


def result_found(w: World) -> Case:
    storage = InternalStorage(w.cos, BUCKET)
    key = storage.result_key("e", "M000", "00000")

    def setup():
        w.store.put_object(BUCKET, key, serializer.serialize({"answer": 42}))

    return Case(
        setup,
        lambda: storage.get_result("e", "M000", "00000"),
        lambda: storage.get_result_steps("e", "M000", "00000"),
        _nothing,
    )


# -- response futures ---------------------------------------------------------
POLL_S = 2.0


def _publish(w: World, storage: InternalStorage, call: tuple, value, **status):
    """Write ``call``'s status (and its result blob, unless synthetic)."""
    future = ResponseFuture(*call)
    if "flag" in status:
        record = synthetic_status(future, "gave up", status["flag"], 0.0, 1.0)
    else:
        record = {"call_id": call[2], "success": status.get("success", True)}
        if not record["success"]:
            record["error"] = "ValueError: bad"
        w.store.put_object(
            BUCKET, storage.result_key(*call), serializer.serialize(value)
        )
    w.store.put_object(
        BUCKET, storage.status_key(*call), serializer.serialize(record)
    )


def _future_case(
    name: str,
    publish: Callable[[World, InternalStorage], Any],
    timeout=None,
    throw_except=True,
    op="result",
):
    def case(w: World) -> Case:
        storage = InternalStorage(w.cos, BUCKET)
        future = ResponseFuture("e", "M000", "00000").bind(storage, POLL_S)
        args = (timeout,) if op == "status" else (timeout, throw_except)
        return Case(
            lambda: publish(w, storage),
            lambda: getattr(future, op)(*args),
            lambda: getattr(future, f"{op}_steps")(*args),
            lambda: (future.state, future._value_loaded, future.status_known),
        )

    case.__name__ = name
    return case


def _done(value=None, **status):
    return lambda w, storage: _publish(w, storage, ("e", "M000", "00000"), value, **status)


def _later(delay: float):
    """Publish a success only ``delay`` virtual seconds in: the reader polls."""

    def publish(w, storage):
        def writer():
            yield vsleep(delay)
            _publish(w, storage, ("e", "M000", "00000"), "late")

        w.kernel.spawn_model(writer)

    return publish


def _composed(w: World, storage: InternalStorage) -> None:
    """A call that returned a future whose call returned two futures."""
    leaves = [ResponseFuture("e", "M002", f"0000{i}") for i in range(2)]
    for i, leaf in enumerate(leaves):
        _publish(w, storage, (leaf.executor_id, leaf.callset_id, leaf.call_id), i + 1)
    _publish(w, storage, ("e", "M001", "00000"), leaves)
    _publish(w, storage, ("e", "M000", "00000"), ResponseFuture("e", "M001", "00000"))


def _composed_unfinished(w: World, storage: InternalStorage) -> None:
    """A call that returned the future of a call that never finishes (a
    missing status costs no request, so the outer reads carry the I/O)."""
    _publish(w, storage, ("e", "M000", "00000"), ResponseFuture("e", "M001", "00000"))


FUTURE_CASES = [
    _future_case("future-result-success", _done(42)),
    _future_case(
        "future-result-error-raised",
        _done((ValueError("bad"), "Traceback"), success=False),
    ),
    _future_case(
        "future-result-error-quiet",
        _done((ValueError("bad"), "Traceback"), success=False),
        throw_except=False,
    ),
    _future_case("future-result-lost", _done(flag="lost"), throw_except=False),
    _future_case("future-result-buried", _done(flag="buried")),
    _future_case("future-result-composition", _composed),
    _future_case("future-result-polled", _later(5.0)),
    _future_case("future-result-deadline", _composed_unfinished, timeout=5.0),
    _future_case("future-status-polled", _later(5.0), op="status"),
]


# -- exchange backends --------------------------------------------------------
def _backend(name: str, kernel: Kernel) -> ExchangeBackend:
    if name == "cos":
        return CosExchange()
    if name == "cached-cos":
        return CachedCosExchange(
            ExchangeConfig(backend="cached-cos", cache_node_budget_bytes=64 * 1024),
            n_nodes=2,
            kernel=kernel,
        )
    return VmExchange(
        ExchangeConfig(backend="vm", vm_nodes=2, vm_startup_s=0.5), kernel=kernel
    )


def _exchange(w: World, backend_name: str, op: str, in_cloud: bool) -> Case:
    backend = _backend(backend_name, w.kernel)
    site = CLOUD_SITE if in_cloud else None
    key = f"x/{op}"
    if op == "put":
        return Case(
            _nothing,
            lambda: backend.put(w.cos, BUCKET, key, DATA, site),
            lambda: backend.put_steps(w.cos, BUCKET, key, DATA, site),
            lambda: (_stored(w, key)(), backend.stats()),
        )
    # the object is published (through the tier, from the cloud site)
    # before the read, so in-cloud reads exercise the backend's hit path
    return Case(
        lambda: backend.put(w.cos, BUCKET, key, DATA, CLOUD_SITE),
        lambda: backend.get(w.cos, BUCKET, key, site),
        lambda: backend.get_steps(w.cos, BUCKET, key, site),
        backend.stats,
    )


def _exchange_case(backend_name: str, op: str, in_cloud: bool):
    def case(w: World) -> Case:
        return _exchange(w, backend_name, op, in_cloud)

    site = "cloud" if in_cloud else "client"
    case.__name__ = f"exchange-{backend_name}-{op}-{site}"
    return case


# -- MQ and the functions gateway ---------------------------------------------
def mq_publish(w: World) -> Case:
    broker = MessageBroker(w.kernel)
    broker.declare_queue("q")
    mq = MQClient(broker, w.cos.link)
    message = {"call_id": "00000"}
    return Case(
        _nothing,
        lambda: mq.publish("q", message),
        lambda: mq.publish_steps("q", message),
        lambda: [(m.sent_at, m.payload) for m in broker._queue("q")._items],
    )


def _functions(w: World, *actions: str):
    platform = CloudFunctions(w.kernel, w.store, seed=2)
    client = CloudFunctionsClient(platform, w.cos.link)

    def setup():
        for action in actions:
            platform.create_action("guest", action, lambda params, ctx: None)

    return platform, client, setup


def get_activations(w: World) -> Case:
    platform, client, deploy = _functions(w, "noop")
    ids: list[str] = []

    def setup():
        deploy()
        ids.append(platform.invoke("guest", "noop", {}))
        platform.wait_activation(ids[0])
        ids.append("act-unknown")

    def summary(records):
        return [None if r is None else (r.activation_id, r.status) for r in records]

    def steps():
        return summary((yield from client.get_activations_steps(ids)))

    return Case(  # as commit_status_steps: no blocking name is left
        setup,
        lambda: w.kernel.drive(steps()),
        steps,
        lambda: client.policy.retries,
    )


def _invoke_calls(w: World, invoker_cls, **kwargs) -> Case:
    """Five calls through one invoker strategy; the platform runs a no-op."""
    platform, client, setup = _functions(w, "noop", REMOTE_INVOKER_ACTION)
    invoker = invoker_cls(w.kernel, client, pool_size=2, tracer=w.tracer, **kwargs)
    calls = [{"call_id": f"{i:05d}"} for i in range(5)]
    futures = [ResponseFuture("e", "M000", call["call_id"]) for call in calls]
    return Case(
        setup,
        lambda: invoker.invoke_calls("guest", "noop", calls, futures),
        lambda: invoker.invoke_calls_steps("guest", "noop", calls, futures),
        lambda: (
            [(f.state, f.activation_id, f.invoke_count) for f in futures],
            sorted((r.action_name, r.status) for r in platform.activations()),
        ),
    )


def invoke_calls_local(w: World) -> Case:
    return _invoke_calls(w, LocalInvoker)


def invoke_calls_massive(w: World) -> Case:
    return _invoke_calls(w, MassiveInvoker, group_size=2)


CASES = [
    cos_put,
    cos_get,
    cos_range,
    cos_list,
    cos_delete,
    cos_head,
    cos_exists,
    cos_fan_out,
    commit_won,
    commit_lost,
    status_found,
    result_found,
    status_listed,
    journal_append,
    *FUTURE_CASES,
    *[
        _exchange_case(backend, op, in_cloud)
        for backend in ("cos", "cached-cos", "vm")
        for op in ("put", "get")
        for in_cloud in (False, True)
    ],
    mq_publish,
    get_activations,
    invoke_calls_local,
    invoke_calls_massive,
]


def _raised(exc: Exception):
    return "raised", type(exc), str(exc)


def run_once(case_fn, way: str):
    """Build a fresh world, run ``setup`` then the operation one way.

    An exception is an outcome like any other (the VM store's own round
    trips are not retried, so a lost request surfaces to the caller)."""
    w = make_world()
    case = case_fn(w)

    def measured_steps():
        t0 = w.kernel.now()
        try:
            outcome = "ok", (yield from case.steps())
        except Exception as exc:  # noqa: BLE001 - compared across ways
            outcome = _raised(exc)
        return outcome, w.kernel.now() - t0

    def main():
        try:
            case.setup()
            setup = ("ok",)
        except Exception as exc:  # noqa: BLE001 - compared across ways
            setup = _raised(exc)
        if way == "model":
            task = w.kernel.spawn_model(measured_steps)
            task.join()
            return setup, task.result()
        t0 = w.kernel.now()
        try:
            outcome = "ok", case.blocking()
        except Exception as exc:  # noqa: BLE001 - compared across ways
            outcome = _raised(exc)
        return setup, (outcome, w.kernel.now() - t0)

    setup, (outcome, elapsed) = w.kernel.run(main)
    return {
        "setup": setup,
        "outcome": outcome,
        "elapsed": elapsed,
        "requests": w.store.request_counts(),
        "net_requests": w.cos.link.requests,
        "events": w.tracer.events(),
        "state": case.probe(),
    }


@pytest.mark.parametrize("case_fn", CASES, ids=lambda fn: fn.__name__)
def test_blocking_equals_yield_from(case_fn):
    thread = run_once(case_fn, "thread")
    model = run_once(case_fn, "model")
    assert thread["net_requests"], "the operation made no request"
    for field in thread:
        assert thread[field] == model[field], field


@pytest.mark.parametrize("case_fn", [cos_put, cos_get, cos_range, cos_list])
def test_worlds_exercise_retries(case_fn):
    """The equivalence runs are only as strong as the paths they take: the
    lossy link must make the operation back off and retry."""
    w = make_world()
    case = case_fn(w)

    def main():
        case.setup()
        case.blocking()

    w.kernel.run(main)
    assert w.cos.retries > 0


# -- design guard -------------------------------------------------------------
SRC = Path(repro.__file__).parent

#: the classes that carry the COS / exchange / MQ / gateway I/O; the scan
#: covers every class under src/repro, these must merely be among them
GUARDED = {
    "COSClient",
    "InternalStorage",
    "ExchangeBackend",
    "CosExchange",
    "CachedCosExchange",
    "VmExchange",
    "NetworkLink",
    "CloudFunctionsClient",
    "CloudFunctions",
    "MQClient",
    "Invoker",
    "EventJournal",
    "FunctionExecutor",
}

#: blocking names allowed a body of their own, and why
EXEMPT = {
    # a kernel synchronisation primitive: the blocking form parks the
    # thread on the condition's own waiter list, which is the mechanism
    # ``drive`` itself would need in order to interpret a ``vwait``
    ("VEvent", "wait"),
    # the handler API's time model: ``kernel.sleep`` is the primitive that
    # ``drive`` maps every yielded ``vsleep`` onto, so a handler's blocking
    # sleep/compute is already the one-op base case, not a second body
    ("ExecutionContext", "sleep"),
    ("ExecutionContext", "compute"),
}


def _is_generator(fn: ast.FunctionDef) -> bool:
    """Whether ``fn`` itself yields (nested functions do not count)."""
    stack = list(fn.body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.Yield, ast.YieldFrom)):
            return True
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        stack.extend(ast.iter_child_nodes(node))
    return False


def _is_drive_of(fn: ast.FunctionDef, steps_name: str) -> bool:
    body = fn.body
    if (
        body
        and isinstance(body[0], ast.Expr)
        and isinstance(body[0].value, ast.Constant)
        and isinstance(body[0].value.value, str)
    ):
        body = body[1:]  # the docstring
    if len(body) != 1 or not isinstance(body[0], (ast.Return, ast.Expr)):
        return False
    call = body[0].value
    if not (
        isinstance(call, ast.Call)
        and isinstance(call.func, ast.Attribute)
        and call.func.attr == "drive"
        and len(call.args) == 1
        and not call.keywords
    ):
        return False
    inner = call.args[0]
    return (
        isinstance(inner, ast.Call)
        and isinstance(inner.func, ast.Attribute)
        and inner.func.attr == steps_name
        and isinstance(inner.func.value, ast.Name)
        and inner.func.value.id == "self"
    )


def _classes():
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef):
                yield path.relative_to(SRC), node


def test_every_blocking_twin_is_one_drive():
    seen = set()
    offenders = []
    pairs = 0
    for path, cls in _classes():
        seen.add(cls.name)
        methods = {
            fn.name: fn for fn in cls.body if isinstance(fn, ast.FunctionDef)
        }
        for name, fn in methods.items():
            steps_name = f"{name}_steps"
            if steps_name not in methods or (cls.name, name) in EXEMPT:
                continue
            if _is_generator(fn):
                continue  # a model-task body of its own, not a blocking form
            pairs += 1
            if not _is_drive_of(fn, steps_name):
                offenders.append(f"{path}:{fn.lineno} {cls.name}.{name}")
    assert GUARDED <= seen, sorted(GUARDED - seen)
    assert not offenders, (
        "blocking forms with a body of their own (write "
        "`<kernel>.drive(self.<name>_steps(...))`):\n  " + "\n  ".join(offenders)
    )
    assert pairs >= len(GUARDED)  # the scan found the twins, not nothing


def test_exempt_names_still_exist():
    """An exemption for a name that is gone would hide a new offender."""
    defined = {
        (cls.name, fn.name)
        for _, cls in _classes()
        for fn in cls.body
        if isinstance(fn, ast.FunctionDef)
    }
    assert EXEMPT <= defined


def test_retry_policy_has_one_loop():
    assert not hasattr(RetryPolicy, "run")
    assert inspect.isgeneratorfunction(RetryPolicy.run_steps)


def _subclasses(cls):
    """The program's subclasses of ``cls`` (test fakes excluded)."""
    for sub in cls.__subclasses__():
        if sub.__module__.startswith("repro."):
            yield sub
        yield from _subclasses(sub)


@pytest.mark.parametrize(
    "cls",
    [ExchangeBackend, *_subclasses(ExchangeBackend)],
    ids=lambda cls: cls.__name__,
)
def test_exchange_backends_own_their_data_path(cls):
    """Host-time attribution resolves each backend's data path on the class
    itself, and picks its wrapper by ``inspect.isgeneratorfunction``: every
    backend defines all four names, and the steps forms are generators."""
    own = vars(cls)
    for name in ("put", "get", "put_steps", "get_steps"):
        assert name in own, f"{cls.__name__}.{name}"
    assert inspect.isgeneratorfunction(own["put_steps"])
    assert inspect.isgeneratorfunction(own["get_steps"])
    assert not inspect.isgeneratorfunction(own["put"])
    assert not inspect.isgeneratorfunction(own["get"])
