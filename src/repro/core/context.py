"""Ambient environment context.

``pw.ibm_cf_executor()`` works both on the client *and inside a running
cloud function* (that is how §4.4's dynamic composition works: any function
may spin up an executor and fan out).  The binding between the calling
code and its cloud environment is kept here: ``CloudEnvironment.run``
registers the client task, and the runner worker registers each function
execution with ``in_cloud=True`` so nested executors get in-cloud network
links automatically.

The stack of bindings is the tail of the kernel's one ambient tuple
(:data:`repro.vtime.kernel.AMBIENT`; its head is the trace ids).  A kernel
task runs in its own copy of its spawner's context
(:mod:`repro.vtime.kernel`), so a task spawned with an active environment
inherits it — client code may fan out its own kernel tasks and still call
``ibm_cf_executor()`` inside them — and pushes made afterwards stay with
the side that made them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional

from repro.core.errors import NoActiveEnvironmentError
from repro.vtime.kernel import AMBIENT


@dataclass(frozen=True, slots=True)
class AmbientContext:
    """What the current thread knows about 'its' cloud.

    ``call_info`` is populated only inside a running function executor: the
    invocation params (executor/callset/call ids, storage location), which
    lets framework code running *as* the function — e.g. the shuffle map
    shim — address per-call COS objects.
    """

    environment: Any  # CloudEnvironment (untyped to avoid an import cycle)
    in_cloud: bool
    call_info: Optional[dict[str, Any]] = None
    #: the platform's ExecutionContext when inside a running function
    execution_context: Any = None


def push_context(
    environment: Any,
    in_cloud: bool,
    call_info: Optional[dict[str, Any]] = None,
    execution_context: Any = None,
) -> None:
    ctx = AmbientContext(environment, in_cloud, call_info, execution_context)
    AMBIENT.set(AMBIENT.get() + (ctx,))


def pop_context() -> None:
    state = AMBIENT.get()
    if len(state) == 1:
        raise RuntimeError("pop_context() with no pushed context")
    AMBIENT.set(state[:-1])


def current_context() -> Optional[AmbientContext]:
    state = AMBIENT.get()
    return state[-1] if len(state) > 1 else None


def require_context() -> AmbientContext:
    ctx = current_context()
    if ctx is None:
        raise NoActiveEnvironmentError(
            "no active cloud environment on this thread; run client code "
            "through CloudEnvironment.run() or pass environment= explicitly"
        )
    return ctx
