"""The Cloud Functions controller: accepts invocations, places containers,
runs handlers, records activations.

This plays the role OpenWhisk's controller + load balancer play for IBM
Cloud Functions: it enforces the per-namespace concurrency limit (429 +
client retry when exceeded), schedules activations onto invoker nodes,
charges cold-start/image-pull latencies, and *really executes* the action's
Python handler inside a kernel task.

The region is multi-tenant: attaching a
:class:`~repro.faas.tenants.TenantRegistry` (see :meth:`attach_tenants`)
turns on per-tenant admission control at accept time and replaces
first-come scheduling with a weighted-fair dispatch queue
(:class:`~repro.faas.dispatch.FairDispatchQueue`), so one namespace's
invocation storm cannot starve the others.  With no registry attached the
controller runs exactly the legacy path — same RNG draws, same trace
bytes — which is what the paper's one-tenant experiments use.
"""

from __future__ import annotations

import contextlib
import inspect
import itertools
import random
import threading
import traceback
from typing import Any, Optional

from repro.faas.action import Action, Handler, Namespace
from repro.faas.activation import ActivationRecord, ActivationStatus
from repro.faas.container import Container
from repro.faas.errors import (
    ActivationNotFound,
    NamespaceNotFound,
    ThrottledError,
)
from repro.faas.invoker_node import InvokerNode
from repro.faas.limits import SystemLimits
from repro.faas.runtime import DEFAULT_RUNTIME_NAME, RuntimeRegistry
from repro.vtime import Kernel, VCondition, VEvent
from repro.vtime.kernel import Waiter, current_task, vjoin, vsleep, vwait

#: controller-side processing time per accepted invocation request (seconds);
#: together with the caller's link RTT this yields the per-invocation service
#: times calibrated in DESIGN.md §5.
API_OVERHEAD_MEAN = 0.060
API_OVERHEAD_JITTER = 0.15

#: registry pull bandwidth seen by one invoker node (MB/s)
IMAGE_PULL_MBPS = 50.0

#: cold container boot time bounds (seconds)
COLD_START_MIN = 0.35
COLD_START_MAX = 0.90

#: the causal ids a runner call's params carry
_CALL_IDS = ("executor_id", "callset_id", "call_id")


def _run_handler_boxed(
    handler: Handler, params: dict[str, Any], ctx: "ExecutionContext", box: dict
) -> None:
    """Run a plain (blocking) handler on a pooled thread.

    Outcome goes into ``box`` so the platform's model task can distinguish a
    handler ``Exception`` (an activation *error*, formatted exactly as the
    in-task traceback used to be) from infrastructure failures.
    """
    try:
        box["result"] = handler(params, ctx)
    except Exception:  # noqa: BLE001 - the platform reports, not crashes
        box["error"] = traceback.format_exc()


class ExecutionContext:
    """What a running action sees: its activation, COS, and the platform.

    ``ctx.cos`` and ``ctx.functions`` talk to the services over an in-cloud
    (low-latency) link — functions run in the same data center as COS, which
    is the asymmetry the massive-spawning mechanism (§5.1) exploits.
    """

    __slots__ = ("platform", "record", "_cos", "_functions")

    def __init__(self, platform: "CloudFunctions", record: ActivationRecord) -> None:
        self.platform = platform
        self.record = record
        self._cos = None
        self._functions = None

    @property
    def kernel(self) -> Kernel:
        return self.platform.kernel

    @property
    def activation_id(self) -> str:
        return self.record.activation_id

    @property
    def cos(self):
        """A COS client on an in-cloud link (lazy, one per activation)."""
        if self._cos is None:
            from repro.cos.client import COSClient

            link = self.platform.in_cloud_link_factory()
            self._cos = COSClient(self.platform.storage, link)
        return self._cos

    @property
    def functions(self):
        """A Cloud Functions client on an in-cloud link (for composition)."""
        if self._functions is None:
            from repro.faas.gateway import CloudFunctionsClient

            link = self.platform.in_cloud_link_factory()
            # workers act with the platform's own identity: the controller
            # trusts invocations originating from its containers
            self._functions = CloudFunctionsClient(
                self.platform, link, credentials=self.platform.trusted_token
            )
        return self._functions

    def sleep(self, seconds: float) -> None:
        """Model compute time inside the handler."""
        self.kernel.sleep(seconds)

    def compute_steps(self, seconds: float):
        """Model *CPU-bound* compute inside a generator handler."""
        yield vsleep(self._contended(seconds))

    def compute(self, seconds: float) -> None:
        """Model *CPU-bound* compute: contention-aware sleep.

        §6.2 observes that "some functions ran fast while others slow ...
        due to the internal operation of IBM Cloud Functions ... and the
        available resources in the cluster."  With the platform's
        ``contention_coeff`` > 0, nominal compute time inflates with the
        memory load of the invoker node this activation landed on.
        """
        self.kernel.sleep(self._contended(seconds))

    def _contended(self, seconds: float) -> float:
        coeff = self.platform.contention_coeff
        if coeff > 0 and self.record.invoker_id is not None:
            node = self.platform.invokers[self.record.invoker_id]
            seconds *= 1.0 + coeff * node.load_fraction()
        return seconds

    def log(self, message: str) -> None:
        """Append a line to this activation's log (like ``print`` in a
        real OpenWhisk action, retrievable from the activation record)."""
        self.record.logs.append((self.kernel.now(), str(message)))


class CloudFunctions:
    """The emulated IBM Cloud Functions service."""

    def __init__(
        self,
        kernel: Kernel,
        storage: Any,
        limits: Optional[SystemLimits] = None,
        registry: Optional[RuntimeRegistry] = None,
        seed: int = 42,
        chaos=None,
    ) -> None:
        #: optional :class:`repro.chaos.ChaosPlane` scheduling container
        #: crashes/hangs, node blackouts and synthetic 429s
        self.chaos = chaos
        #: the trace spine (set by :class:`CloudEnvironment`); the controller
        #: emits accept/place/cold-start/execute spans onto it
        self.tracer = None
        #: the intermediate-data exchange backend (set by
        #: :class:`CloudEnvironment`; ``None`` until attached — workers
        #: then fall back to a private direct-COS backend)
        self.exchange = None
        self._chaos_invoke_seq = itertools.count()
        self.kernel = kernel
        self.storage = storage
        self.limits = limits or SystemLimits()
        self.limits.validate()
        self.registry = registry or RuntimeRegistry()
        self._rng = random.Random(seed)
        self._rng_lock = threading.Lock()
        self._namespaces: dict[str, Namespace] = {}
        self._activations: dict[str, ActivationRecord] = {}
        # Completion events are lazy: ``None`` until somebody actually
        # waits (most activations are observed via COS status objects or
        # MQ push, so eagerly building an event per activation would cost
        # a lock + condition + waiter list for each of 50k in-flight calls).
        self._completion: dict[str, Optional[VEvent]] = {}
        self._act_lock = threading.Lock()
        self._act_ids = itertools.count(1)
        self._active: dict[str, int] = {}
        self._active_total = 0
        self._peak_active = 0
        self._throttled_total = 0
        from repro.faas.iam import IAM

        #: key issuance/verification; enforcement is off unless
        #: ``require_auth`` is set — the isolation boundary between tenant
        #: namespaces once a :class:`~repro.faas.tenants.TenantRegistry`
        #: shares the region
        self.iam = IAM(seed)
        self.require_auth = False
        #: multi-tenant control plane (``None`` = legacy single-tenant
        #: scheduling; see :meth:`attach_tenants`)
        self.tenants = None
        self._dispatch_queue = None
        self._dispatched_mb = 0
        self._dispatch_budget_mb = 0
        #: sentinel credential carried by in-cloud worker clients
        self.trusted_token = object()
        #: CPU-contention coefficient for ExecutionContext.compute();
        #: 0 (off) keeps the calibrated experiment timings exact
        self.contention_coeff = 0.0
        self._capacity = VCondition(kernel)
        self._rr = itertools.count()
        # Cluster-wide warm-idle hint per action fqn: lets _place_steps skip
        # the all-nodes warm scan when nothing can be warm (the common case
        # during a ramp-up).  May overcount after TTL expiry or eviction —
        # a scan that comes up empty resyncs it — but never undercounts.
        self._warm_idle: dict[str, int] = {}
        container_ids = itertools.count(1)  # one numbering per platform
        self.invokers = [
            InvokerNode(
                i, self.limits.invoker_memory_mb, self.limits.warm_idle_ttl,
                container_ids,
            )
            for i in range(self.limits.invoker_count)
        ]
        # The default runtime image ships preinstalled on every node.
        for node in self.invokers:
            node.cache_image(DEFAULT_RUNTIME_NAME)
        if self.chaos is not None:
            for node in self.invokers:
                node.blackouts = self.chaos.blackout_windows(node.node_id)
        self._link_seq = itertools.count(1000)
        self.environment: Any = None  # back-reference set by CloudEnvironment
        from repro.faas.billing import BillingMeter

        self.billing = BillingMeter()

    # ------------------------------------------------------------------
    # Links
    # ------------------------------------------------------------------
    def in_cloud_link_factory(self):
        """A fresh in-cloud network link (independent RNG stream)."""
        from repro.net.latency import LatencyModel
        from repro.net.link import NetworkLink

        return NetworkLink(
            self.kernel,
            LatencyModel.in_cloud(),
            seed=next(self._link_seq),
            chaos=self.chaos,
            tracer=self.tracer,
        )

    # ------------------------------------------------------------------
    # Action management
    # ------------------------------------------------------------------
    def namespace(self, name: str, create: bool = True) -> Namespace:
        with self._act_lock:
            ns = self._namespaces.get(name)
            if ns is None:
                if not create:
                    raise NamespaceNotFound(name)
                ns = Namespace(name)
                self._namespaces[name] = ns
            return ns

    def create_action(
        self,
        namespace: str,
        name: str,
        handler: Handler,
        runtime: str = DEFAULT_RUNTIME_NAME,
        memory_mb: Optional[int] = None,
        timeout_s: Optional[float] = None,
    ) -> Action:
        """Deploy an action.  Validates runtime and limits."""
        image = self.registry.get(runtime)  # raises RuntimeNotFound
        memory = memory_mb if memory_mb is not None else self.limits.default_memory_mb
        if not (0 < memory <= self.limits.max_memory_mb):
            raise ValueError(
                f"action memory {memory}MB outside (0, "
                f"{self.limits.max_memory_mb}MB]"
            )
        timeout = timeout_s if timeout_s is not None else self.limits.max_exec_seconds
        timeout = min(timeout, self.limits.max_exec_seconds)
        action = Action(
            namespace=namespace,
            name=name,
            handler=handler,
            runtime=image.name,
            memory_mb=memory,
            timeout_s=timeout,
        )
        self.namespace(namespace).put(action)
        return action

    # ------------------------------------------------------------------
    # Multi-tenant control plane
    # ------------------------------------------------------------------
    def attach_tenants(self, registry) -> None:
        """Switch the region into multi-tenant mode.

        ``registry`` (a :class:`~repro.faas.tenants.TenantRegistry`)
        supplies per-tenant quotas enforced at accept time and the
        dispatch policy.  Accepted invocations then queue per namespace
        and leave the queue in deficit-round-robin order (or global
        arrival order under the ``"fifo"`` baseline) as cluster memory
        frees up, instead of each racing straight to placement.
        """
        if self.tenants is not None:
            raise ValueError("a tenant registry is already attached")
        from repro.faas.dispatch import FairDispatchQueue

        self.tenants = registry
        # costs are action memory (MB): a weight-1.0 tenant earns one
        # default-sized action's worth of dispatch credit per round
        self._dispatch_queue = FairDispatchQueue(
            policy=registry.policy,
            quantum=float(self.limits.default_memory_mb),
        )
        self._dispatch_budget_mb = (
            self.limits.invoker_count * self.limits.invoker_memory_mb
        )
        self._dispatched_mb = 0

    def _dispatch_kick(self) -> None:
        """Drain the fair-dispatch queue while the cluster has headroom.

        Called after every enqueue and every activation completion (no
        daemon poller: a timer that re-arms forever would keep virtual
        time advancing and mask real deadlocks).  Pops admitted
        invocations in the registry's dispatch order while
        dispatched-but-unfinished action memory stays below the invoker
        fleet's total, spawning one platform task per activation.  The
        headroom gate may overshoot by at most one action —
        :meth:`_place_steps` absorbs any real capacity wait — which keeps
        the pop decision atomic with the DRR state.
        """
        tenants = self.tenants
        while True:
            with self._act_lock:
                if self._dispatched_mb >= self._dispatch_budget_mb:
                    popped = None
                else:
                    popped = self._dispatch_queue.pop()
                if popped is not None:
                    self._dispatched_mb += int(popped[2])
            if popped is None:
                return
            namespace, (action, params, record), _cost = popped
            tenants.on_dispatched(namespace)
            record.dispatch_time = self.kernel.now()
            tracer = self.tracer
            if tracer is not None and tracer.enabled:
                tracer.point(
                    "controller.dispatch", "controller",
                    ids=self._activation_ids(params, record),
                    action=action.name,
                    queued_s=round(
                        record.dispatch_time - record.submit_time, 6
                    ),
                )
            self._spawn_activation(action, params, record)

    def _tenant_release(self, action: Action, record: ActivationRecord) -> None:
        """Return an activation's quota + dispatch credit (tenancy only)."""
        tenants = self.tenants
        if tenants is None:
            return
        with self._act_lock:
            self._dispatched_mb -= action.memory_mb
        tenants.on_complete(record.namespace, action.memory_mb)
        self._dispatch_kick()

    # ------------------------------------------------------------------
    # Invocation path
    # ------------------------------------------------------------------
    def invoke(
        self,
        namespace: str,
        action_name: str,
        params: dict[str, Any],
        credentials: Any = None,
    ) -> str:
        return self.kernel.drive(
            self.invoke_steps(namespace, action_name, params, credentials)
        )

    def invoke_steps(
        self,
        namespace: str,
        action_name: str,
        params: dict[str, Any],
        credentials: Any = None,
    ):
        """Accept one invocation; returns its activation id.

        Raises :class:`ThrottledError` (HTTP 429) when the namespace is at
        its concurrent-invocation limit — and, with a tenant registry
        attached, when any of the calling tenant's quotas (rate,
        concurrency, memory, queue depth) is exhausted; the error then
        carries the refusal ``reason``.  When ``require_auth`` is set,
        ``credentials`` (an :class:`~repro.faas.iam.ApiKey`) must authorize
        the namespace.  Charges controller-side processing time to the
        calling task, like a synchronous HTTP POST would.
        """
        if self.require_auth and credentials is not self.trusted_token:
            from repro.faas.iam import AuthenticationError

            if credentials is None:
                raise AuthenticationError("this platform requires an API key")
            self.iam.authorize(credentials, namespace)
        action = self.namespace(namespace, create=False).get(action_name)
        with self._rng_lock:
            overhead = API_OVERHEAD_MEAN * (
                1 + self._rng.uniform(-API_OVERHEAD_JITTER, API_OVERHEAD_JITTER)
            )
        yield vsleep(overhead)
        tenants = self.tenants
        if tenants is not None:
            # tenant admission control: quota refusals are 429s carrying a
            # machine-readable reason, counted per tenant by the registry
            try:
                tenants.admit(namespace, action.memory_mb, self.kernel.now())
            except ThrottledError:
                with self._act_lock:
                    self._throttled_total += 1
                raise
        with self._act_lock:
            current = self._active.get(namespace, 0)
            if current >= self.limits.max_concurrent:
                self._throttled_total += 1
                if tenants is not None:
                    tenants.release_admission(namespace, action.memory_mb)
                raise ThrottledError(
                    f"namespace {namespace!r} at concurrency limit "
                    f"({self.limits.max_concurrent})",
                    retry_after=self._retry_after_hint(current),
                )
            if self.chaos is not None and self.chaos.should_throttle(
                next(self._chaos_invoke_seq)
            ):
                self._throttled_total += 1
                if tenants is not None:
                    tenants.release_admission(namespace, action.memory_mb)
                hint = self._retry_after_hint(current)
                self.chaos.record(
                    self.kernel.now(), "throttle", "429",
                    f"{namespace}/{action_name}",
                    tenant=namespace if tenants is not None else None,
                )
                raise ThrottledError(
                    f"chaos: synthetic 429 for namespace {namespace!r}",
                    retry_after=hint,
                )
            self._active[namespace] = current + 1
            self._active_total += 1
            self._peak_active = max(self._peak_active, self._active_total)
            activation_id = f"act-{next(self._act_ids):08d}"
            record = ActivationRecord(
                activation_id=activation_id,
                namespace=namespace,
                action_name=action_name,
                submit_time=self.kernel.now(),
            )
            self._activations[activation_id] = record
            self._completion[activation_id] = None
        tracer = self.tracer
        if tracer is not None and tracer.enabled:
            tracer.point(
                "controller.accept",
                "controller",
                ids=self._activation_ids(params, record),
                namespace=namespace,
                action=action_name,
            )
        if tenants is None:
            self._spawn_activation(action, dict(params), record)
        else:
            # multi-tenant: the invocation queues per namespace and leaves
            # in weighted-fair order as the dispatcher finds headroom
            with self._act_lock:
                self._dispatch_queue.set_weight(
                    namespace, tenants.get(namespace).weight
                )
                self._dispatch_queue.push(
                    namespace,
                    (action, dict(params), record),
                    cost=float(action.memory_mb),
                )
            self._dispatch_kick()
        return activation_id

    def _retry_after_hint(self, current: int) -> float:
        """``Retry-After`` seconds, scaled with how loaded the namespace is.

        A lightly loaded namespace tells clients to come back quickly; one
        pinned at its limit pushes them a full second out.
        """
        fraction = min(1.0, current / max(1, self.limits.max_concurrent))
        return round(0.25 + 0.75 * fraction, 3)

    def _activation_ids(
        self, params: dict[str, Any], record: ActivationRecord
    ) -> dict[str, Any]:
        """An activation's causal ids: its runner call's (absent keys
        skipped), its own and, in a multi-tenant region, its tenant's."""
        ids = {k: params[k] for k in _CALL_IDS if params.get(k) is not None}
        ids["activation_id"] = record.activation_id
        if self.tenants is not None:
            ids["tenant"] = record.namespace
        return ids

    def _spawn_activation(
        self, action: Action, params: dict[str, Any], record: ActivationRecord
    ) -> None:
        """Start one activation's platform model task.

        Pure platform modelling — placement, image pull, cold boot, fault
        fates, billing — runs as a model task and holds no OS thread while
        sleeping.  Only a plain (non-generator) user handler occupies a
        pooled worker thread, and only for its own duration.  Traced or
        not, the task is :meth:`_execute_steps` itself, named by the
        activation id the record already holds: no wrapper frame and no
        new name string per in-flight activation.
        """
        tracer, scope = self.tracer, contextlib.nullcontext()
        if tracer is None or not tracer.enabled:
            tracer = None
        else:
            # the task copies this context at spawn, so every span emitted
            # below it — worker phases, COS requests, in-cloud link round
            # trips — is stamped with the activation's causal ids
            scope = tracer.bind(**self._activation_ids(params, record))
        with scope:
            self.kernel.spawn_model(
                self._execute_steps, action, params, record, tracer,
                name=record.activation_id,
            )

    def _execute_steps(
        self,
        action: Action,
        params: dict[str, Any],
        record: ActivationRecord,
        tracer,
    ):
        """One activation: start its container, run the handler, finish.

        Set-up (:meth:`_start_steps`) and tear-down (:meth:`_finish`) have
        frames of their own, so while the handler runs this suspended frame
        holds only the container and the status.
        """
        container = yield from self._start_steps(action, params, record, tracer)
        if container is None:
            return  # the container crashed or hung; already wound up
        status = ActivationStatus.SUCCESS
        if inspect.isgeneratorfunction(action.handler):
            # a steps-style handler runs inline on the model task: the whole
            # activation is threadless end to end
            try:
                record.result = yield from action.handler(
                    params, ExecutionContext(self, record)
                )
            except Exception:  # noqa: BLE001 - the platform reports, not crashes
                status = ActivationStatus.ERROR
                record.error = traceback.format_exc()
        else:
            status = yield from self._run_blocking_steps(action, params, record)
        self._finish(action, record, container, status, "run", tracer)

    def _start_steps(
        self,
        action: Action,
        params: dict[str, Any],
        record: ActivationRecord,
        tracer,
    ):
        """Place, pull and boot the activation's container, then draw its
        fault fate.  Returns the container to run the handler in, or
        ``None`` once a crashed or hung container has been wound up.
        """
        t_place = self.kernel.now()
        placement, node = yield from self._place_steps(
            action, params.get("placement_hint")
        )
        container = placement.container
        record.invoker_id = node.node_id
        record.container_id = container.container_id
        record.cold_start = placement.cold
        record.image_pulled = placement.needs_pull
        if tracer is not None:
            tracer.span_at(
                "controller.place", "controller", t_place, self.kernel.now(),
                invoker_id=node.node_id,
                cold=placement.cold,
                needs_pull=placement.needs_pull,
            )
        if placement.needs_pull:
            image = self.registry.get(action.runtime)
            t_pull = self.kernel.now()
            yield vsleep(image.size_mb / IMAGE_PULL_MBPS)
            node.cache_image(action.runtime)
            if tracer is not None:
                tracer.span_at(
                    "controller.image_pull", "controller",
                    t_pull, self.kernel.now(),
                    runtime=action.runtime, size_mb=image.size_mb,
                )
        if placement.cold:
            with self._rng_lock:
                boot = self._rng.uniform(COLD_START_MIN, COLD_START_MAX)
            t_boot = self.kernel.now()
            yield vsleep(boot)
            if tracer is not None:
                tracer.span_at(
                    "container.cold_start", "container",
                    t_boot, self.kernel.now(),
                    runtime=action.runtime,
                )

        record.start_time = self.kernel.now()
        if self.chaos is None:
            return container
        fate, fate_delay = self.chaos.container_fate(record.activation_id)
        if fate == "run":
            return container
        self.chaos.record(
            record.start_time, "container", fate, record.activation_id,
            tenant=record.namespace if self.tenants is not None else None,
        )
        # the container dies without the handler completing: no result,
        # no status object in COS — the client only notices by absence.
        # A crash dies within seconds; a hang wedges until the platform
        # reaps the unresponsive container after ``fate_delay``.
        yield vsleep(fate_delay)
        record.end_time = self.kernel.now()
        record.error = (
            "infrastructure failure: container crashed"
            if fate == "crash"
            else "infrastructure failure: container hung and was reaped"
        )
        self._finish(action, record, container, ActivationStatus.ERROR, fate, tracer)
        return None

    def _run_blocking_steps(
        self, action: Action, params: dict[str, Any], record: ActivationRecord
    ):
        """Run a plain blocking handler on a pooled worker thread for
        exactly its own duration; returns the activation status.  Ambient
        context (trace bind) is captured from this step and follows it."""
        box: dict[str, Any] = {}
        handler_task = self.kernel.spawn(
            _run_handler_boxed,
            action.handler,
            params,
            ExecutionContext(self, record),
            box,
            name=f"hnd-{action.name}-{record.activation_id}",
        )
        yield vjoin(handler_task)
        if handler_task._exception is not None:
            # non-Exception BaseException (or kernel teardown): this
            # activation's platform task dies with it, as before
            raise handler_task._exception
        if "error" in box:
            record.error = box["error"]
            return ActivationStatus.ERROR
        record.result = box.get("result")
        return ActivationStatus.SUCCESS

    def _finish(
        self,
        action: Action,
        record: ActivationRecord,
        container: Container,
        status: str,
        fate: str,
        tracer,
    ) -> None:
        """Close the activation: clamp a timeout, bill it, return (or
        discard) its container and wake whoever waits on it."""
        if fate == "run":
            record.end_time = self.kernel.now()
            limit = min(action.timeout_s, self.limits.max_exec_seconds)
            if record.end_time - record.start_time > limit:
                # The real platform would have killed the function at the limit;
                # we label the activation and clamp its recorded interval.
                status = ActivationStatus.TIMEOUT
                record.error = (
                    f"function exceeded execution limit of {limit:.0f}s"
                )
                record.result = None
                record.end_time = record.start_time + limit
        record.status = status
        self.billing.record(
            record.activation_id,
            action.name,
            action.memory_mb,
            record.end_time - record.start_time,
            namespace=record.namespace,
        )
        if tracer is not None:
            if fate != "run":
                tracer.point(
                    "container.fault", "container", t=record.start_time,
                    fate=fate,
                )
            # the billed window: crashed containers still cost GB-seconds
            tracer.span_at(
                "container.execute", "container",
                record.start_time, record.end_time,
                action=action.name,
                memory_mb=action.memory_mb,
                cold=record.cold_start,
                invoker_id=container.invoker_id,
                status=status if fate == "run" else fate,
            )
        node = self.invokers[container.invoker_id]
        if fate != "run":
            node.discard(container, crashed=True)
        else:
            node.release(container, self.kernel.now())
            fqn = container.action_fqn
            self._warm_idle[fqn] = self._warm_idle.get(fqn, 0) + 1
        with self._act_lock:
            self._active[record.namespace] -= 1
            self._active_total -= 1
            event = self._completion[record.activation_id]
        if event is not None:
            event.set()
        with self._capacity:
            self._capacity.notify_all()
        self._tenant_release(action, record)

    def _place_steps(self, action: Action, hint: Optional[list] = None):
        """Find a node for the activation, waiting for capacity if needed.

        Steps generator: when the cluster is full, the activation parks on
        the capacity condition via a registered waiter (1 s timeout retry),
        holding no OS thread while it waits.

        ``hint`` is an optional ordered list of preferred invoker-node ids
        (the DAG scheduler's locality hint: nodes whose warm containers
        produced this call's inputs).  Hinted nodes are tried first in the
        warm scan only — locality means reusing a warm container next to
        the data; a cold start is the same price everywhere.
        """
        invokers = self.invokers
        n_nodes = len(invokers)
        while True:
            start = next(self._rr) % n_nodes
            now = self.kernel.now()
            # Blacked-out nodes (chaos plane) accept no placements; the
            # capacity wait below retries once their window passes.
            chaos = self.chaos is not None
            # Warm scan first: reusing an idle container anywhere in the
            # cluster beats a cold start (OpenWhisk prefers warm reuse).
            # The hint makes the scan O(1) when nothing can be warm; the
            # scan itself is authoritative, the hint only gates it.
            if self._warm_idle.get(action.fqn, 0) > 0:
                if hint:
                    for node_id in hint:
                        if not isinstance(node_id, int):
                            continue
                        if not 0 <= node_id < n_nodes:
                            continue
                        node = invokers[node_id]
                        if chaos and not node.available(now):
                            continue
                        placement = node.try_place_warm(action, now)
                        if placement is not None:
                            self._warm_idle[action.fqn] -= 1
                            return placement, node
                for k in range(n_nodes):
                    node = invokers[(start + k) % n_nodes]
                    if chaos and not node.available(now):
                        continue
                    placement = node.try_place_warm(action, now)
                    if placement is not None:
                        self._warm_idle[action.fqn] -= 1
                        return placement, node
                if not chaos:
                    # every node was scanned and none had a live warm
                    # container: the hint was stale (TTL expiry/eviction)
                    self._warm_idle[action.fqn] = 0
            for k in range(n_nodes):
                node = invokers[(start + k) % n_nodes]
                if chaos and not node.available(now):
                    continue
                placement = node.try_place_cold(action, now)
                if placement is not None:
                    return placement, node
            waiter = Waiter(current_task())
            self._capacity.register_waiter(waiter)
            yield vwait(waiter, 1.0)

    # ------------------------------------------------------------------
    # Results / introspection
    # ------------------------------------------------------------------
    def get_activation(self, activation_id: str) -> ActivationRecord:
        with self._act_lock:
            try:
                return self._activations[activation_id]
            except KeyError:
                raise ActivationNotFound(activation_id) from None

    def get_activations_bulk(
        self, activation_ids: list[str]
    ) -> list[Optional[ActivationRecord]]:
        """Records for many activations at once (``None`` for unknown ids).

        One API call instead of N — what the client's lost-call detector
        uses to scan a whole callset per polling round.
        """
        with self._act_lock:
            return [self._activations.get(aid) for aid in activation_ids]

    def wait_activation(
        self, activation_id: str, timeout: Optional[float] = None
    ) -> ActivationRecord:
        """Block (virtual time) until the activation finishes."""
        with self._act_lock:
            record = self._activations.get(activation_id)
            if record is None:
                raise ActivationNotFound(activation_id)
            if record.finished:
                return record
            event = self._completion.get(activation_id)
            if event is None:
                # first waiter materializes the completion event; the
                # record's status is always assigned before the completer
                # takes _act_lock, so this check-then-wait cannot miss
                event = VEvent(self.kernel)
                self._completion[activation_id] = event
        event.wait(timeout)
        return self.get_activation(activation_id)

    def activations(self) -> list[ActivationRecord]:
        with self._act_lock:
            return list(self._activations.values())

    @property
    def active_count(self) -> int:
        """Activations in flight across all namespaces."""
        with self._act_lock:
            return self._active_total

    def active_in(self, namespace: str) -> int:
        """Activations in flight for one namespace."""
        with self._act_lock:
            return self._active.get(namespace, 0)

    @property
    def peak_active(self) -> int:
        with self._act_lock:
            return self._peak_active

    @property
    def throttled_total(self) -> int:
        with self._act_lock:
            return self._throttled_total
