"""IBM-PyWren client configuration.

The real framework reads ``~/.pywren_config`` with IBM Cloud credentials and
endpoints; here the same knobs configure the emulated services.  Every field
maps to a behaviour the paper describes (runtime selection §3.1/§4.1,
massive spawning §5.1, chunk sizes §4.3, ...).
"""

from __future__ import annotations

import dataclasses
import json
import pathlib
from dataclasses import dataclass, field, replace
from typing import Any, Optional, Union


class InvokerMode:
    """How the client spawns functions (§5.1).

    * ``LOCAL`` — the client issues every invocation itself over its own
      network link (original PyWren behaviour).
    * ``REMOTE`` — the client launches one *remote invoker* function that
      spawns the whole job from inside the cloud (the paper's first attempt,
      ~20 s for 1000 functions).
    * ``MASSIVE`` — groups of ``massive_group_size`` invocations, one remote
      invoker function per group (the final mechanism, ~8 s).
    """

    LOCAL = "local"
    REMOTE = "remote"
    MASSIVE = "massive"

    ALL = (LOCAL, REMOTE, MASSIVE)


class MonitoringTransport:
    """How the client learns about function completions.

    * ``COS_POLLING`` — §4.2's design: statuses are COS objects, discovered
      by periodic LIST requests (at most ``poll_interval`` stale).
    * ``MQ_PUSH`` — functions additionally publish their status to a
      message queue the client consumes, removing the polling latency
      (the RabbitMQ transport of the IBM-PyWren lineage).
    """

    COS_POLLING = "cos_polling"
    MQ_PUSH = "mq_push"

    ALL = (COS_POLLING, MQ_PUSH)


@dataclass(frozen=True)
class RetryConfig:
    """Shared client-side retry policy for everything that talks to the cloud.

    One documented knob set replaces the ad-hoc ``RETRIES``/``RETRY_BACKOFF``
    constants that used to live in :mod:`repro.cos.client` and the fixed 429
    backoff in :mod:`repro.faas.gateway`.  The schedule is exponential
    backoff with optional *full jitter* (AWS style: each delay is sampled
    uniformly from ``[0, base]``), capped at ``max_backoff_s``::

        base(attempt) = min(max_backoff_s,
                            initial_backoff_s * multiplier ** (attempt - 1))

    ``max_attempts`` counts the first try, so the default of 6 preserves the
    historical "5 retries" behaviour.
    """

    #: total attempts, including the first (>= 1)
    max_attempts: int = 6
    #: backoff base for the first retry (seconds)
    initial_backoff_s: float = 1.0
    #: ceiling applied to the exponential base (seconds)
    max_backoff_s: float = 30.0
    #: exponential growth factor between retries
    multiplier: float = 2.0
    #: ``"full"`` (uniform in [0, base]) or ``"none"`` (deterministic base)
    jitter: str = "full"

    JITTER_MODES = ("full", "none")

    def validate(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if self.initial_backoff_s < 0:
            raise ValueError("initial_backoff_s must be non-negative")
        if self.max_backoff_s < self.initial_backoff_s:
            raise ValueError("max_backoff_s must be >= initial_backoff_s")
        if self.multiplier < 1.0:
            raise ValueError("multiplier must be >= 1.0")
        if self.jitter not in self.JITTER_MODES:
            raise ValueError(
                f"jitter must be one of {self.JITTER_MODES}, got {self.jitter!r}"
            )


@dataclass(frozen=True)
class ExchangeConfig:
    """Which data plane serves intermediate objects (ARCHITECTURE.md
    "Exchange backends").

    With the default ``backend="cos"`` the exchange path is the paper's
    direct COS exchange: same-seed runs export byte-identical traces to
    the pre-backend code.  ``"cached-cos"`` selects the write-through
    memory tier in the invoker nodes
    (:class:`~repro.exchange.cached.CachedCosExchange`, ``cache_*``
    knobs); ``"vm"`` provisions an emulated ephemeral-store cluster
    (:class:`~repro.exchange.vm.VmExchange`, ``vm_*`` knobs).
    """

    #: backend name: ``"cos"`` | ``"cached-cos"`` | ``"vm"``
    backend: str = "cos"
    #: per-invoker-node memory budget for cached intermediates (bytes;
    #: ``"cached-cos"`` backend); LRU eviction on full, victim = oldest
    #: virtual touch, ties broken by key
    cache_node_budget_bytes: int = 64 * 1024 * 1024
    #: provisioned store-VM count (``"vm"`` backend)
    vm_nodes: int = 3
    #: memory capacity of each store VM (bytes); LRU eviction on full
    vm_node_memory_bytes: int = 512 * 1024 * 1024
    #: cluster provisioning time — exchange traffic arriving earlier
    #: waits; also the rejoin delay after a chaos node crash (seconds)
    vm_startup_s: float = 5.0

    BACKENDS = ("cos", "cached-cos", "vm")

    def validate(self) -> None:
        if self.backend not in self.BACKENDS:
            raise ValueError(
                f"exchange backend must be one of {self.BACKENDS}, "
                f"got {self.backend!r}"
            )
        if self.cache_node_budget_bytes < 0:
            raise ValueError("cache_node_budget_bytes must be non-negative")
        if self.vm_nodes <= 0:
            raise ValueError("vm_nodes must be positive")
        if self.vm_node_memory_bytes < 0:
            raise ValueError("vm_node_memory_bytes must be non-negative")
        if self.vm_startup_s < 0:
            raise ValueError("vm_startup_s must be non-negative")


@dataclass(frozen=True)
class TenantConfig:
    """Per-tenant quotas and fair-share weight for the multi-tenant
    control plane (ARCHITECTURE.md "Multi-tenant control plane").

    One instance per namespace, registered with a
    :class:`~repro.faas.tenants.TenantRegistry`.  The gateway enforces
    the quotas as *admission control* — a request over quota is answered
    429 with a ``retry_after`` hint instead of being queued — and the
    controller's weighted-fair dispatcher shares cluster capacity across
    admitted work in proportion to ``weight``.  ``None`` quotas fall back
    to the platform-wide :class:`~repro.faas.limits.SystemLimits`.
    """

    #: the namespace this tenant owns
    name: str
    #: deficit-round-robin share weight (relative to other tenants)
    weight: float = 1.0
    #: concurrent invocations admitted at once (queued + running);
    #: ``None`` → the platform's per-namespace ``max_concurrent``
    max_concurrent: Optional[int] = None
    #: total in-flight action memory admitted at once (MB); ``None`` → no
    #: memory quota beyond the concurrency cap
    memory_quota_mb: Optional[int] = None
    #: sustained invocation admission rate (requests per virtual second);
    #: ``None`` → unmetered
    rate_per_s: Optional[float] = None
    #: token-bucket burst: invocations admitted back-to-back before the
    #: sustained rate applies (only meaningful with ``rate_per_s``)
    rate_burst: int = 10
    #: dispatch-queue depth cap: invocations waiting for a fair-share
    #: slot before new requests are pushed back with 429 (``None`` → the
    #: concurrency quota bounds the queue)
    max_pending: Optional[int] = None

    def validate(self) -> None:
        if not self.name:
            raise ValueError("tenant name must be non-empty")
        if self.weight <= 0:
            raise ValueError("tenant weight must be positive")
        if self.max_concurrent is not None and self.max_concurrent <= 0:
            raise ValueError("max_concurrent must be positive or None")
        if self.memory_quota_mb is not None and self.memory_quota_mb <= 0:
            raise ValueError("memory_quota_mb must be positive or None")
        if self.rate_per_s is not None and self.rate_per_s <= 0:
            raise ValueError("rate_per_s must be positive or None")
        if self.rate_burst < 1:
            raise ValueError("rate_burst must be >= 1")
        if self.max_pending is not None and self.max_pending <= 0:
            raise ValueError("max_pending must be positive or None")


@dataclass(frozen=True)
class EventsConfig:
    """Durable event-sourced orchestration journal (ARCHITECTURE.md §11).

    Disabled by default: with ``enabled=False`` no journal is built, no
    ``events.*`` trace events are emitted and nothing changes in any
    existing request pattern or golden trace.  When enabled, what a
    replacement driver needs and only this driver knows (job submitted,
    calls invoked, futures exposed, DAG submitted) is appended as a
    deterministic :class:`repro.events.EventRecord` to a durable journal —
    including every DAG's edges ("when all N dependency statuses commit,
    fire the node") and retry budget, so the workflow's control state no
    longer lives only in watcher memory.  Waiting and collecting append
    nothing: committed statuses live in COS.  A crashed
    client can then be replaced: ``FunctionExecutor.reattach(job_id)``
    folds the journal back into a DAG, reconciles it against committed
    statuses in COS and completes the run (see
    :mod:`repro.events.resume`).
    """

    #: build the journal at all (one conditional-PUT COS object per event
    #: under ``{prefix}/{executor_id}/journal/``)
    enabled: bool = False


@dataclass(frozen=True)
class DagConfig:
    """How :class:`~repro.dag.DagScheduler` drives a submitted graph
    (ARCHITECTURE.md "Decentralized DAG scheduling").

    The default ``scheduler="centralized"`` is the PR 4 client-side
    watcher: every node completion is discovered by the client's poll
    loop (a WAN round-trip) before dependents launch, and same-seed
    traces are byte-identical to pre-swarm code.  ``"swarm"`` ships a
    static schedule to COS at submit and lets each finishing worker
    decrement its dependents' dependency counters with conditional PUTs
    and invoke every dependent that became ready from *inside* the cloud
    (in-cloud RTT instead of WAN), carrying a placement hint for its own
    invoker node.  The client is reduced to a supervisor: it observes
    status commits, retries failed nodes, buries dependents of terminal
    failures, and re-drives any node whose handoff was orphaned by a
    worker crash once ``orphan_grace_s`` of virtual time passes without
    a status.
    """

    #: ``"centralized"`` (client-driven watcher) or ``"swarm"``
    #: (worker-driven handoff, client as supervisor)
    scheduler: str = "centralized"
    #: swarm only: how long the supervisor waits for a dependency-complete
    #: node's status before re-driving it itself (seconds, virtual)
    orphan_grace_s: float = 8.0
    #: swarm only: once the supervisor sees the node's fire token claimed
    #: (a worker committed to invoking it — the node is almost certainly
    #: just still running), the redrive fuse stretches to
    #: ``orphan_grace_s * claimed_grace_factor``; it still fires
    #: eventually, covering a worker that crashed between claiming the
    #: token and issuing the invocation
    claimed_grace_factor: float = 4.0

    SCHEDULERS = ("centralized", "swarm")

    def validate(self) -> None:
        if self.scheduler not in self.SCHEDULERS:
            raise ValueError(
                f"dag scheduler must be one of {self.SCHEDULERS}, "
                f"got {self.scheduler!r}"
            )
        if self.orphan_grace_s <= 0:
            raise ValueError("orphan_grace_s must be positive")
        if self.claimed_grace_factor < 1.0:
            raise ValueError("claimed_grace_factor must be >= 1")


@dataclass
class PyWrenConfig:
    """Client-side configuration for :class:`repro.core.FunctionExecutor`."""

    #: Cloud Functions namespace actions are deployed into
    namespace: str = "guest"
    #: COS bucket for function/data/status/result objects
    storage_bucket: str = "pywren-internal"
    #: key prefix inside the storage bucket
    storage_prefix: str = "pywren.jobs"
    #: default runtime for function executors (§3.1)
    runtime: str = "python-jessie:3"
    #: memory per function executor (MB)
    runtime_memory_mb: int = 256
    #: per-invocation timeout requested for runner actions (seconds)
    runtime_timeout_s: float = 600.0
    #: function spawning mechanism (see :class:`InvokerMode`)
    invoker_mode: str = InvokerMode.LOCAL
    #: concurrent client invocation requests (LOCAL calls, MASSIVE groups)
    invoker_pool_size: int = 8
    #: invocations per remote invoker function in MASSIVE mode
    massive_group_size: int = 100
    #: concurrent invocations inside the single REMOTE-mode invoker
    remote_invoker_pool_size: int = 4
    #: client polling period for statuses in COS (seconds)
    poll_interval: float = 1.0
    #: concurrent client result downloads and DAG status reads
    result_fetch_pool_size: int = 32
    #: print a textual progress bar during get_result (§4.2)
    progress_bar: bool = False
    #: default chunk size for the data partitioner (bytes); None = one
    #: partition per object (§4.3)
    chunk_size: Optional[int] = None
    #: fail fast on the client when a function references packages the
    #: selected runtime image does not carry (§3.1)
    validate_runtime_packages: bool = True
    #: completion transport (see :class:`MonitoringTransport`)
    monitoring: str = MonitoringTransport.COS_POLLING
    #: shared retry schedule for COS requests, invocations and 429s
    retry: RetryConfig = field(default_factory=RetryConfig)
    #: intermediate-data exchange backend (default: the direct COS path)
    exchange: ExchangeConfig = field(default_factory=ExchangeConfig)
    #: event-sourced orchestration journal + resume (disabled by default)
    events: EventsConfig = field(default_factory=EventsConfig)
    #: DAG scheduling mode (default: the centralized client-side watcher)
    dag: DagConfig = field(default_factory=DagConfig)
    #: times a *lost* call (its activation died without writing a status
    #: object) is re-invoked before it is failed; ``map(..., retries=N)``
    #: overrides this per job
    invocation_retries: int = 3

    def validate(self) -> None:
        if self.invoker_mode not in InvokerMode.ALL:
            raise ValueError(
                f"invoker_mode must be one of {InvokerMode.ALL}, "
                f"got {self.invoker_mode!r}"
            )
        if self.invoker_pool_size <= 0:
            raise ValueError("invoker_pool_size must be positive")
        if self.massive_group_size <= 0:
            raise ValueError("massive_group_size must be positive")
        if self.remote_invoker_pool_size <= 0:
            raise ValueError("remote_invoker_pool_size must be positive")
        if self.poll_interval <= 0:
            raise ValueError("poll_interval must be positive")
        if self.chunk_size is not None and self.chunk_size <= 0:
            raise ValueError("chunk_size must be positive or None")
        if self.monitoring not in MonitoringTransport.ALL:
            raise ValueError(
                f"monitoring must be one of {MonitoringTransport.ALL}, "
                f"got {self.monitoring!r}"
            )
        if not isinstance(self.retry, RetryConfig):
            raise ValueError("retry must be a RetryConfig")
        self.retry.validate()
        if not isinstance(self.exchange, ExchangeConfig):
            raise ValueError("exchange must be an ExchangeConfig")
        self.exchange.validate()
        if not isinstance(self.events, EventsConfig):
            raise ValueError("events must be an EventsConfig")
        if not isinstance(self.dag, DagConfig):
            raise ValueError("dag must be a DagConfig")
        self.dag.validate()
        if self.invocation_retries < 0:
            raise ValueError("invocation_retries must be non-negative")

    def with_overrides(self, **kwargs) -> "PyWrenConfig":
        """A copy with some fields replaced (used by executor kwargs)."""
        cfg = replace(self, **kwargs)
        cfg.validate()
        return cfg

    # ------------------------------------------------------------------
    # Config files (the ``~/.pywren_config`` workflow of the real client)
    # ------------------------------------------------------------------
    def to_dict(self) -> dict[str, Any]:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "PyWrenConfig":
        """Build a config from a plain dict; unknown keys are rejected."""
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ValueError(
                f"unknown config keys: {sorted(unknown)} "
                f"(known: {sorted(known)})"
            )
        nested = {
            "retry": RetryConfig,
            "exchange": ExchangeConfig,
            "events": EventsConfig,
            "dag": DagConfig,
        }
        for section, section_cls in nested.items():
            if not isinstance(data.get(section), dict):
                continue
            section_known = {f.name for f in dataclasses.fields(section_cls)}
            section_unknown = set(data[section]) - section_known
            if section_unknown:
                raise ValueError(
                    f"unknown {section} config keys: {sorted(section_unknown)} "
                    f"(known: {sorted(section_known)})"
                )
            data = {**data, section: section_cls(**data[section])}
        cfg = cls(**data)
        cfg.validate()
        return cfg

    @classmethod
    def from_file(cls, path: Union[str, pathlib.Path]) -> "PyWrenConfig":
        """Load configuration from a JSON file (stand-in for the real
        framework's ``~/.pywren_config`` YAML)."""
        text = pathlib.Path(path).read_text()
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ValueError(f"config file {path} is not valid JSON: {exc}") from exc
        if not isinstance(data, dict):
            raise ValueError(f"config file {path} must hold a JSON object")
        return cls.from_dict(data)

    def save(self, path: Union[str, pathlib.Path]) -> None:
        """Write this configuration as JSON."""
        pathlib.Path(path).write_text(json.dumps(self.to_dict(), indent=2))
