"""repro — reproduction of "Serverless Data Analytics in the IBM Cloud".

This package reimplements IBM-PyWren (Middleware Industry '18) together
with every substrate it runs on: an OpenWhisk-like FaaS platform
(:mod:`repro.faas`), an IBM-COS-like object store (:mod:`repro.cos`),
network latency models (:mod:`repro.net`) and a virtual-time thread kernel
(:mod:`repro.vtime`) that lets minute-scale cloud experiments run in
milliseconds while executing real Python user code.

Quickstart (mirrors Fig. 1 of the paper)::

    import repro as pw

    def my_function(x):
        return x + 7

    env = pw.CloudEnvironment.create()

    def main():
        executor = pw.ibm_cf_executor()
        executor.map(my_function, [3, 6, 9])
        return executor.get_result()

    print(env.run(main))   # [10, 13, 16]
"""

from repro.chaos import ChaosPlane, ChaosProfile
from repro.config import (
    DagConfig,
    EventsConfig,
    ExchangeConfig,
    InvokerMode,
    PyWrenConfig,
    RetryConfig,
    TenantConfig,
)
from repro.core import (
    ALL_COMPLETED,
    ALWAYS,
    ANY_COMPLETED,
    CallFailure,
    ClientCrashError,
    CloudEnvironment,
    FailureReport,
    FunctionError,
    FunctionExecutor,
    NoActiveEnvironmentError,
    PyWrenError,
    ResponseFuture,
    ResultTimeoutError,
    StoragePartition,
    compose,
    ibm_cf_executor,
    sequence,
    wait,
)
from repro.core.stats import JobStats, collect_job_stats
from repro.dag import Dag, DagBuilder, DagNode, DagRun, DagScheduler
from repro.exchange import (
    CachedCosExchange,
    CosExchange,
    ExchangeBackend,
    VmExchange,
)
from repro.events import (
    EventJournal,
    EventRecord,
    JournalConflictError,
    ResumedJob,
)
from repro.faas import FairDispatchQueue, TenantRegistry
from repro.retry import RetryPolicy
from repro.trace import TraceEvent, Tracer
from repro.vtime import now, sleep
from repro.workloads import (
    Col,
    Predicate,
    ScanResult,
    ScanSpec,
    StreamSource,
    TableInfo,
    WindowResult,
    load_table,
    review_analytics,
    scan,
    windowed_map_reduce,
    windows_for,
)


def compute(seconds: float) -> None:
    """Model CPU-bound compute.

    Inside a running cloud function this charges contention-aware time
    (see ExecutionContext.compute — busy invoker nodes slow functions
    down, the §6.2 variability); elsewhere it is a plain virtual sleep.
    """
    from repro.core import context as _context

    ctx = _context.current_context()
    if ctx is not None and ctx.execution_context is not None:
        ctx.execution_context.compute(seconds)
    else:
        sleep(seconds)


__version__ = "1.0.0"

__all__ = [
    "CloudEnvironment",
    "FunctionExecutor",
    "ibm_cf_executor",
    "ResponseFuture",
    "wait",
    "ALWAYS",
    "ANY_COMPLETED",
    "ALL_COMPLETED",
    "StoragePartition",
    "compose",
    "sequence",
    "Dag",
    "DagBuilder",
    "DagConfig",
    "DagNode",
    "DagRun",
    "DagScheduler",
    "PyWrenConfig",
    "InvokerMode",
    "RetryConfig",
    "RetryPolicy",
    "ExchangeConfig",
    "ExchangeBackend",
    "CosExchange",
    "CachedCosExchange",
    "VmExchange",
    "ChaosProfile",
    "ChaosPlane",
    "TenantConfig",
    "TenantRegistry",
    "FairDispatchQueue",
    "EventsConfig",
    "EventRecord",
    "EventJournal",
    "ResumedJob",
    "JournalConflictError",
    "CallFailure",
    "FailureReport",
    "PyWrenError",
    "FunctionError",
    "ResultTimeoutError",
    "NoActiveEnvironmentError",
    "ClientCrashError",
    "sleep",
    "now",
    "compute",
    "JobStats",
    "collect_job_stats",
    "Col",
    "Predicate",
    "ScanSpec",
    "ScanResult",
    "scan",
    "TableInfo",
    "load_table",
    "StreamSource",
    "WindowResult",
    "windowed_map_reduce",
    "windows_for",
    "review_analytics",
    "Tracer",
    "TraceEvent",
    "__version__",
]
