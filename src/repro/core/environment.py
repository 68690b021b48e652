"""The emulated cloud, assembled.

A :class:`CloudEnvironment` owns one virtual-time kernel and one instance of
each service (COS, Cloud Functions, runtime registry) plus the client-side
configuration.  It is the reproduction's stand-in for "an IBM Cloud account
+ a laptop": create one, then drive client code through :meth:`run` so the
ambient-context machinery can hand executors to nested code.
"""

from __future__ import annotations

import dataclasses
import itertools
import threading
from typing import Any, Callable, Optional

from repro.config import PyWrenConfig
from repro.core import context as ambient
from repro.core import worker
from repro.core.storage_client import InternalStorage
from repro.cos.client import COSClient
from repro.cos.object_store import CloudObjectStorage
from repro.faas.controller import CloudFunctions
from repro.faas.limits import SystemLimits
from repro.faas.runtime import RuntimeRegistry
from repro.net.latency import LatencyModel
from repro.net.link import NetworkLink
from repro.trace import Tracer
from repro.vtime import Kernel


class CloudEnvironment:
    """One simulated cloud + client configuration."""

    def __init__(
        self,
        kernel: Kernel,
        storage: CloudObjectStorage,
        platform: CloudFunctions,
        registry: RuntimeRegistry,
        config: PyWrenConfig,
        client_latency: LatencyModel,
        seed: int = 42,
        chaos=None,
        tracer: Optional[Tracer] = None,
    ) -> None:
        self.kernel = kernel
        self.storage = storage
        self.platform = platform
        self.registry = registry
        self.config = config
        self.client_latency = client_latency
        self.seed = seed
        #: the fault-injection plane, or ``None`` for a fault-free cloud
        self.chaos = chaos
        #: the trace spine (disabled unless ``create(trace=True)``)
        self.tracer = tracer if tracer is not None else Tracer(kernel, enabled=False)
        storage.tracer = self.tracer
        platform.tracer = self.tracer
        if chaos is not None:
            chaos.tracer = self.tracer
        #: the intermediate-data exchange backend (ARCHITECTURE.md
        #: "Exchange backends"), built from ``config.exchange``.  The
        #: default is the direct COS path with zero new behaviour, timings
        #: or trace events.
        from repro.exchange import build_exchange

        self.exchange = build_exchange(
            config.exchange,
            len(platform.invokers),
            kernel=kernel,
            tracer=self.tracer,
            chaos=chaos,
        )
        platform.exchange = self.exchange
        for node in platform.invokers:
            node.exchange = self.exchange
        self._link_seq = itertools.count(1)
        self._id_seq = itertools.count(1)
        self._deploy_lock = threading.Lock()
        self._deployed_actions: set[tuple[str, str]] = set()
        #: optional ApiKey sent by this client's executors (multi-tenant
        #: platforms with ``platform.require_auth`` set)
        self.credentials = None
        storage.create_bucket(config.storage_bucket, exist_ok=True)
        platform.environment = self
        from repro.mq.broker import MessageBroker

        #: in-cloud message broker (push-monitoring transport)
        self.broker = MessageBroker(kernel)

    @classmethod
    def create(
        cls,
        client_latency: Optional[LatencyModel] = None,
        limits: Optional[SystemLimits] = None,
        config: Optional[PyWrenConfig] = None,
        seed: int = 42,
        kernel: Optional[Kernel] = None,
        chaos=None,
        trace: bool = False,
        exchange=None,
        events=None,
        tenants=None,
    ) -> "CloudEnvironment":
        """Build a complete environment with sensible defaults.

        The default client sits in a high-latency WAN, like the paper's
        evaluation client ("located in a remote network with high latency").

        ``chaos`` attaches a deterministic fault-injection plane: a
        :class:`~repro.chaos.ChaosProfile`, a profile name (``"flaky-cos"``,
        ``"crashy-workers"``, ``"storm"``), or an already-built
        :class:`~repro.chaos.ChaosPlane`.  ``None`` or the ``"none"``
        profile leave every layer untouched.

        ``trace=True`` enables the trace spine: every layer emits spans
        onto ``env.tracer`` (see :mod:`repro.trace`).

        ``exchange`` selects the intermediate-data exchange backend: an
        :class:`~repro.config.ExchangeConfig`, or a backend name (``"cos"``,
        ``"cached-cos"``, ``"vm"``) that keeps the rest of
        ``config.exchange``.  Either is written back to ``config.exchange``;
        by default that section decides, which is the direct COS path.

        ``events`` switches on the durable orchestration journal: an
        :class:`~repro.config.EventsConfig`, or ``True`` for the default
        COS-backed journal.  By default ``config.events`` decides, which
        is disabled.

        ``tenants`` switches the region into multi-tenant mode: a
        :class:`~repro.faas.tenants.TenantRegistry`, or an iterable of
        :class:`~repro.config.TenantConfig` (wrapped in a registry with
        the default ``"drr"`` dispatch policy).  ``None`` — the default —
        keeps the legacy single-tenant scheduling path, byte-identical to
        pre-tenancy runs.
        """
        from repro.chaos import build_plane
        from repro.config import EventsConfig

        plane = build_plane(chaos)
        kernel = kernel or Kernel()
        client_latency = client_latency or LatencyModel.wan()
        config = config or PyWrenConfig()
        if isinstance(exchange, str):
            exchange = dataclasses.replace(config.exchange, backend=exchange)
        if exchange is not None:
            config.exchange = exchange
        if events is not None:
            if events is True:
                events = EventsConfig(enabled=True)
            elif events is False:
                events = EventsConfig(enabled=False)
            config.events = events
        config.validate()
        registry = RuntimeRegistry()
        storage = CloudObjectStorage(kernel)
        storage.chaos = plane
        platform = CloudFunctions(
            kernel,
            storage,
            limits=limits,
            registry=registry,
            seed=seed,
            chaos=plane,
        )
        if tenants is not None:
            from repro.faas.tenants import TenantRegistry

            if not isinstance(tenants, TenantRegistry):
                tenants = TenantRegistry(tenants)
            platform.attach_tenants(tenants)
        return cls(
            kernel,
            storage,
            platform,
            registry,
            config,
            client_latency,
            seed,
            chaos=plane,
            tracer=Tracer(kernel, enabled=bool(trace)),
        )

    # ------------------------------------------------------------------
    # Links and clients
    # ------------------------------------------------------------------
    def new_client_link(self) -> NetworkLink:
        return NetworkLink(
            self.kernel,
            self.client_latency,
            seed=self.seed * 1000 + next(self._link_seq),
            chaos=self.chaos,
            tracer=self.tracer,
        )

    def new_executor_id(self) -> str:
        """An executor id that is a pure function of (seed, serial).

        Scoping the serial to the environment — not the process — keeps
        same-seed runs byte-identical (the id appears in every journal
        record), no matter what else the process allocated before.
        """
        from repro.utils.ids import new_executor_id

        return new_executor_id(self.seed, serial=next(self._id_seq))

    def client_cos(self) -> COSClient:
        """A COS client as seen from the user's machine."""
        return COSClient(self.storage, self.new_client_link())

    def mq_client(self, in_cloud: bool = False):
        """A message-queue client over the appropriate network path."""
        from repro.mq.client import MQClient

        link = (
            self.platform.in_cloud_link_factory()
            if in_cloud
            else self.new_client_link()
        )
        return MQClient(self.broker, link)

    def internal_storage_in_cloud(self) -> InternalStorage:
        """Internal storage reached over an in-cloud link (worker side).

        Its exchange site is the running function's
        ``(invoker_id, container_id)``, resolved once from the ambient
        execution context; without one the tier stays out of the way.
        """
        cos = COSClient(
            self.storage,
            self.platform.in_cloud_link_factory(),
            retry=self.config.retry,
        )
        ctx = ambient.current_context()
        execution = ctx.execution_context if ctx is not None else None
        site = None
        if execution is not None and execution.record.invoker_id is not None:
            site = (execution.record.invoker_id, execution.record.container_id)
        return InternalStorage(
            cos,
            self.config.storage_bucket,
            self.config.storage_prefix,
            exchange=self.exchange,
            site=site,
        )

    # ------------------------------------------------------------------
    # Executors
    # ------------------------------------------------------------------
    def executor(
        self,
        runtime: Optional[str] = None,
        in_cloud: Optional[bool] = None,
        **overrides: Any,
    ):
        """Create a :class:`~repro.core.executor.FunctionExecutor`.

        ``in_cloud`` defaults to whether the calling thread is a running
        cloud function (so nested executors automatically use in-cloud
        links).  ``runtime=`` mirrors §4.1's
        ``pw.ibm_cf_executor(runtime='matplotlib')``.
        """
        from repro.core.executor import FunctionExecutor

        if in_cloud is None:
            ctx = ambient.current_context()
            in_cloud = bool(ctx and ctx.in_cloud and ctx.environment is self)
        if runtime is not None:
            overrides = {"runtime": runtime, **overrides}
        return FunctionExecutor(self, in_cloud=in_cloud, **overrides)

    # ------------------------------------------------------------------
    # Action deployment (idempotent)
    # ------------------------------------------------------------------
    def ensure_runner_action(
        self,
        runtime: str,
        memory_mb: int,
        timeout_s: float,
        namespace: Optional[str] = None,
    ) -> str:
        """Deploy the generic runner action into ``namespace`` (default:
        the environment's configured namespace) once per (namespace, name)
        — each tenant of a multi-tenant region owns its own copy."""
        namespace = namespace if namespace is not None else self.config.namespace
        name = worker.runner_action_name(runtime, memory_mb)
        with self._deploy_lock:
            if (namespace, name) not in self._deployed_actions:
                self.platform.create_action(
                    namespace,
                    name,
                    worker.runner_handler,
                    runtime=runtime,
                    memory_mb=memory_mb,
                    timeout_s=timeout_s,
                )
                self._deployed_actions.add((namespace, name))
        return name

    def ensure_remote_invoker_action(self) -> str:
        name = worker.REMOTE_INVOKER_ACTION
        namespace = self.config.namespace
        with self._deploy_lock:
            if (namespace, name) not in self._deployed_actions:
                self.platform.create_action(
                    namespace,
                    name,
                    worker.remote_invoker_handler,
                    memory_mb=self.platform.limits.default_memory_mb,
                    timeout_s=self.platform.limits.max_exec_seconds,
                )
                self._deployed_actions.add((namespace, name))
        return name

    # ------------------------------------------------------------------
    # Driving client code
    # ------------------------------------------------------------------
    def run(self, fn: Callable[..., Any], *args: Any, **kwargs: Any) -> Any:
        """Run ``fn`` as the client program inside the virtual-time kernel.

        Inside ``fn`` (and only there), ``repro.ibm_cf_executor()`` resolves
        to this environment.  Returns ``fn``'s result after the simulation
        drains.
        """

        def _bootstrap() -> Any:
            ambient.push_context(self, in_cloud=False)
            try:
                return fn(*args, **kwargs)
            finally:
                ambient.pop_context()

        return self.kernel.run(_bootstrap, name="client")

    def now(self) -> float:
        return self.kernel.now()
