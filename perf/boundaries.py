"""Host-CPU attribution by layer, measured from outside the program.

``BOUNDARIES`` maps a layer to the callables through which work enters it.
:func:`install` replaces each one with a wrapper that records a span —
layer, start, end, parent — on a per-thread stack, timed with
``time.thread_time_ns()``: thread *CPU*, so a call that blocks in virtual
time (a thread task parked in ``Kernel.sleep``) is not billed for the
wait.  A steps generator is wrapped so that every resume is its own span;
``send`` / ``throw`` / ``close`` and the return value pass through.

Enter and exit events stay in memory (one int64 each, per thread) and are
replayed into spans and folded by :meth:`Recorder.fold` when the pass ends:
a layer's self time is its spans' durations minus the parts their child
spans cover.  What no
boundary covers — the model loop's own scheduling, private glue, user
function bodies on pool threads — is reported as ``rest``, never spread
over the layers.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import threading
import time
from array import array
from typing import Any, Callable, NamedTuple, Optional

#: layer -> "module:qualname" of each boundary callable.  ``Class.*`` means
#: every public function the class itself defines.
BOUNDARIES: dict[str, tuple[str, ...]] = {
    "vtime": (
        "repro.vtime.kernel:Kernel.run",
        "repro.vtime.kernel:Kernel.spawn",
        "repro.vtime.kernel:Kernel.spawn_model",
        "repro.vtime.kernel:Kernel.sleep",
        "repro.vtime.kernel:Kernel.block_on",
        "repro.vtime.kernel:Kernel.wake",
        "repro.vtime.kernel:Kernel.drive",
    ),
    "net": (
        "repro.net.link:NetworkLink.request",
        "repro.net.link:NetworkLink.request_steps",
        "repro.net.link:NetworkLink.request_with_retries",
        "repro.net.link:NetworkLink.request_with_retries_steps",
    ),
    "cos": (
        "repro.cos.client:COSClient.put_object",
        "repro.cos.client:COSClient.put_object_steps",
        "repro.cos.client:COSClient.get_object",
        "repro.cos.client:COSClient.get_object_steps",
        "repro.cos.client:COSClient.read_range",
        "repro.cos.client:COSClient.read_range_steps",
        "repro.cos.client:COSClient.list_keys",
        "repro.cos.client:COSClient.list_keys_steps",
        "repro.cos.client:COSClient.head_object",
        "repro.cos.client:COSClient.delete_object",
    ),
    "faas": (
        "repro.faas.gateway:CloudFunctionsClient.invoke",
        "repro.faas.gateway:CloudFunctionsClient.invoke_steps",
        "repro.faas.controller:CloudFunctions.invoke",
        "repro.faas.controller:CloudFunctions.invoke_steps",
    ),
    "core.executor": (
        "repro.core.executor:FunctionExecutor.call_async",
        "repro.core.executor:FunctionExecutor.map",
        "repro.core.executor:FunctionExecutor.map_reduce",
        "repro.core.executor:FunctionExecutor.map_reduce_shuffle",
        "repro.core.executor:FunctionExecutor.wait",
        "repro.core.executor:FunctionExecutor.get_result",
    ),
    "core.storage": ("repro.core.storage_client:InternalStorage.*",),
    "core.serializer": (
        "repro.core.serializer:serialize",
        "repro.core.serializer:deserialize",
    ),
    "core.shuffle": (
        "repro.core.shuffle:partition_pairs",
        "repro.core.shuffle:merge_shuffle_results",
    ),
    "core.worker": (
        "repro.core.worker:runner_handler",
        "repro.core.worker:remote_invoker_handler",
    ),
    "core.partitioner": ("repro.core.partitioner:build_partitions",),
    "dag": (
        "repro.dag.graph:DagBuilder.submit",
        "repro.dag.scheduler:DagScheduler.submit",
        "repro.dag.swarm:swarm_handoff_steps",
    ),
    "exchange": (
        "repro.exchange.base:ExchangeBackend.delete",
        "repro.exchange.base:ExchangeBackend.list",
        "repro.exchange.cos:CosExchange.put",
        "repro.exchange.cos:CosExchange.put_steps",
        "repro.exchange.cos:CosExchange.get",
        "repro.exchange.cos:CosExchange.get_steps",
        "repro.exchange.cached:CachedCosExchange.put",
        "repro.exchange.cached:CachedCosExchange.put_steps",
        "repro.exchange.cached:CachedCosExchange.get",
        "repro.exchange.cached:CachedCosExchange.get_steps",
        "repro.exchange.vm:VmExchange.put",
        "repro.exchange.vm:VmExchange.put_steps",
        "repro.exchange.vm:VmExchange.get",
        "repro.exchange.vm:VmExchange.get_steps",
    ),
    "trace": (
        "repro.trace.tracer:Tracer.point",
        "repro.trace.tracer:Tracer.span",
        "repro.trace.tracer:Tracer.span_at",
    ),
    "analytics": (
        "repro.analytics.tone:analyze_csv_reviews",
        "repro.analytics.geoplot:render_city_map",
    ),
}

#: boundaries whose work has a natural size: name -> bytes of one call
BYTE_COUNTS: dict[str, Callable[[tuple, Any], int]] = {
    "repro.core.serializer:serialize": lambda args, result: len(result),
    "repro.core.serializer:deserialize": lambda args, result: len(args[0]),
}

#: the boundary that starts a model task.  Model tasks share one loop
#: thread, so "the layer this code runs in" belongs to the task, not the
#: thread: this boundary also wraps the task's generator so that every
#: step restores the layer the task suspended in (see _task_context).
TASK_SPAWNER = "repro.vtime.kernel:Kernel.spawn_model"

LAYERS = tuple(BOUNDARIES)
_NO_LAYER = -1  # code of no boundary: reported as ``rest``

# One int64 per event: ``thread_cpu_ns << 6 | (layer + 1) << 1 | is_call``,
# read "from this instant the thread runs in `layer`"; is_call marks the
# entry of a boundary call, as against the return to its caller's layer.
_CODE_BITS = 6
_LAYER_MASK = (1 << (_CODE_BITS - 1)) - 1
assert len(LAYERS) + 1 <= _LAYER_MASK


class _ThreadState:
    """One thread's current layer and events; only that thread writes."""

    __slots__ = ("layer", "events")

    def __init__(self) -> None:
        self.layer = _NO_LAYER
        self.events = array("q")


class Fold(NamedTuple):
    calls: dict[str, int]
    self_cpu_s: dict[str, float]
    bytes: dict[str, int]
    events: int


class Recorder:
    """Collects the events of one boundary pass."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._threads: list[_ThreadState] = []
        self._lock = threading.Lock()
        #: per layer, one entry per sized call (list.append is atomic)
        self.sizes: dict[str, list[int]] = {layer: [] for layer in LAYERS}

    def _new_thread(self) -> _ThreadState:
        state = self._local.state = _ThreadState()
        with self._lock:
            self._threads.append(state)
        return state

    def fold(self) -> Fold:
        """Calls into, and CPU seconds spent in, each layer: the span
        between two consecutive events of a thread belongs to the layer
        the first one switched to, so time under a nested boundary is
        already taken out of its caller's (self time)."""
        calls = [0] * len(LAYERS)
        self_ns = [0] * (len(LAYERS) + 1)  # last slot: _NO_LAYER
        total = 0
        with self._lock:
            threads = list(self._threads)
        for state in threads:
            total += len(state.events)
            layer, since = _NO_LAYER, 0
            for event in state.events:
                t = event >> _CODE_BITS
                self_ns[layer] += t - since
                layer, since = ((event >> 1) & _LAYER_MASK) - 1, t
                calls[layer] += event & 1
        return Fold(
            dict(zip(LAYERS, calls)),
            {layer: ns / 1e9 for layer, ns in zip(LAYERS, self_ns)},
            {layer: sum(sizes) for layer, sizes in self.sizes.items()},
            total,
        )


def _wrap_plain(fn: Callable, layer: int, rec: Recorder) -> Callable:
    local, new_thread, clock = rec._local, rec._new_thread, time.thread_time_ns
    enter = (layer + 1) << 1 | 1

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            state = local.state
        except AttributeError:
            state = new_thread()
        outer = state.layer
        if outer == layer:
            # called from its own layer: nothing to move between layers
            return fn(*args, **kwargs)
        state.layer = layer
        events = state.events
        events.append(clock() << _CODE_BITS | enter)
        try:
            return fn(*args, **kwargs)
        finally:
            state.layer = outer
            events.append(clock() << _CODE_BITS | (outer + 1) << 1)

    return wrapper


def _wrap_steps(fn: Callable, layer: int, rec: Recorder) -> Callable:
    """Wrap a steps generator function: enter its layer at the first
    resume, return to the caller's layer when it finishes.

    In between the wrapper delegates with ``yield from``, so resumes cost
    nothing and ``send`` / ``throw`` / ``close`` / the return value pass
    through untouched.  While the generator is suspended, whoever resumes
    it restores the layer it suspended in: a thread task's thread keeps
    it, a model task's :func:`_task_context` puts it back.  The wrapper is
    itself a generator function, so the program's
    ``inspect.isgeneratorfunction`` dispatch sees no difference.
    """
    local, new_thread, clock = rec._local, rec._new_thread, time.thread_time_ns
    enter = (layer + 1) << 1 | 1

    def leave(outer: int) -> None:
        # looked up again: it may finish on another thread than it began on
        try:
            state = local.state
        except AttributeError:
            state = new_thread()
        state.layer = outer
        state.events.append(clock() << _CODE_BITS | (outer + 1) << 1)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            state = local.state
        except AttributeError:
            state = new_thread()
        outer = state.layer
        if outer == layer:
            return (yield from fn(*args, **kwargs))
        state.layer = layer
        state.events.append(clock() << _CODE_BITS | enter)
        try:
            result = yield from fn(*args, **kwargs)
        except GeneratorExit:
            # closed while suspended: none of its code is running, and the
            # closing thread's layer is not this generator's to restore
            raise
        except BaseException:
            leave(outer)
            raise
        leave(outer)
        return result

    return wrapper


def _task_context(gen: Any, rec: Recorder):
    """Run a model task's generator with its own current layer.

    The loop thread steps many tasks in turn; each step puts back the
    layer this task suspended in, and takes it away again when the task
    yields, so the loop's own work between steps is nobody's.
    """
    local, new_thread, clock = rec._local, rec._new_thread, time.thread_time_ns
    layer = _NO_LAYER
    value: Any = None
    thrown: Optional[BaseException] = None
    while True:
        try:
            state = local.state
        except AttributeError:
            state = new_thread()
        outer = state.layer
        if layer != outer:
            state.layer = layer
            state.events.append(clock() << _CODE_BITS | (layer + 1) << 1)
        try:
            if thrown is not None:
                op = gen.throw(thrown)
            else:
                op = gen.send(value)
        except StopIteration as stop:
            return stop.value
        finally:
            layer = state.layer
            if layer != outer:
                state.layer = outer
                state.events.append(clock() << _CODE_BITS | (outer + 1) << 1)
        try:
            value = yield op
            thrown = None
        except GeneratorExit:
            gen.close()
            raise
        except BaseException as exc:  # forwarded into the task
            value, thrown = None, exc


def _spawn_with_context(spawn_model: Callable, rec: Recorder) -> Callable:
    @functools.wraps(spawn_model)
    def wrapper(self, fn, *args, **kwargs):
        @functools.wraps(fn)
        def task_fn(*task_args, **task_kwargs):
            return _task_context(fn(*task_args, **task_kwargs), rec)

        return spawn_model(self, task_fn, *args, **kwargs)

    return wrapper


def _count_bytes(fn: Callable, size: Callable, sizes: list[int]) -> Callable:
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        result = fn(*args, **kwargs)
        sizes.append(size(args, result))
        return result

    return wrapper


def _resolve(name: str) -> list[tuple[Any, str]]:
    """``module:qualname`` -> [(owner, attribute)], owner a module or class.

    Raises ``ImportError`` / ``AttributeError`` when the name is gone.
    """
    module_name, _, qualname = name.partition(":")
    owner: Any = importlib.import_module(module_name)
    *path, attr = qualname.split(".")
    for part in path:
        owner = getattr(owner, part)
    if attr == "*":
        return [
            (owner, key) for key, value in vars(owner).items()
            if not key.startswith("_")
            and inspect.isfunction(getattr(value, "__func__", value))
        ]
    vars(owner)[attr]  # inherited names belong to the class defining them
    return [(owner, attr)]


class Installed(NamedTuple):
    recorder: Recorder
    #: boundary names that no longer resolve (reported, never fatal)
    unresolved: list[str]
    #: (namespace owner, attribute, original value), in install order
    patches: list[tuple[Any, str, Any]]


def install() -> Installed:
    """Replace every boundary callable by its recording wrapper."""
    rec = Recorder()
    unresolved: list[str] = []
    patches: list[tuple[Any, str, Any]] = []
    for index, (layer, names) in enumerate(BOUNDARIES.items()):
        for name in names:
            try:
                targets = _resolve(name)
            except (ImportError, AttributeError, KeyError):
                unresolved.append(name)
                continue
            for owner, attr in targets:
                raw = vars(owner)[attr]
                fn = getattr(raw, "__func__", raw)  # static/class methods
                if not inspect.isfunction(fn):
                    unresolved.append(name)
                    continue
                wrapped = fn
                if name in BYTE_COUNTS:
                    wrapped = _count_bytes(
                        wrapped, BYTE_COUNTS[name], rec.sizes[layer]
                    )
                if name == TASK_SPAWNER:
                    wrapped = _spawn_with_context(wrapped, rec)
                wrap = (_wrap_steps if inspect.isgeneratorfunction(fn)
                        else _wrap_plain)
                wrapped = wrap(wrapped, index, rec)
                if raw is not fn:
                    wrapped = type(raw)(wrapped)
                # a module-level function may have been imported by name
                # into other modules: patch every alias of it
                owners = [owner] if inspect.isclass(owner) else [
                    module for module in list(sys.modules.values())
                    if getattr(module, "__dict__", {}).get(attr) is raw
                ]
                for namespace in owners:
                    patches.append((namespace, attr, raw))
                    setattr(namespace, attr, wrapped)
    return Installed(rec, unresolved, patches)


def uninstall(installed: Installed) -> None:
    """Put every original callable back."""
    for namespace, attr, raw in reversed(installed.patches):
        setattr(namespace, attr, raw)
    installed.patches.clear()
