"""Function-spawning strategies (§5.1, Table 1 "Remote function spawning").

* :class:`LocalInvoker` — the client issues every invocation over its own
  network link, ``pool_size`` at a time, like original PyWren's thread
  pool.  Fast from a low-latency network, slow (and failure-prone) over a WAN.
* :class:`MassiveInvoker` — groups of ``group_size`` calls, one remote
  invoker function per group, executed in parallel: the final design
  (MASSIVE, ~8 s for 1000 calls, like a low-latency client).  With
  ``group_size=None`` the whole call list is one group spawned by one
  in-cloud invoker with a ``pool_size`` pool of its own: the paper's
  first attempt (REMOTE, ~20 s for 1000 calls).

The client's pools (LOCAL calls, MASSIVE groups) are :func:`repro.vtime.fan_out_steps`
lanes: model tasks that hold no OS thread and take work in ``(vtime, seq)`` order.
Invokers treat call params as opaque: when a locality-providing exchange
backend supplies a ``placement_hint`` (see :mod:`repro.dag.locality`),
every strategy forwards it untouched to the FaaS controller, which uses
it to prefer the invoker node already holding the task's inputs.
"""

from __future__ import annotations

from typing import Any, Optional, Sequence

from repro.core.futures import ResponseFuture
from repro.core.worker import REMOTE_INVOKER_ACTION
from repro.faas.gateway import CloudFunctionsClient
from repro.vtime import Kernel, fan_out_steps


class Invoker:
    """Strategy interface: issue one invocation per call-params dict.

    ``pool_size`` invocations are in flight at once: the client's
    :func:`~repro.vtime.fan_out_steps` width (LOCAL calls, MASSIVE groups), or
    the lone in-cloud invoker's own pool (REMOTE).
    """

    def __init__(
        self,
        kernel: Kernel,
        functions: CloudFunctionsClient,
        pool_size: int,
        tracer=None,
    ) -> None:
        self.kernel = kernel
        self.functions = functions
        self.pool_size = pool_size
        #: optional :class:`repro.trace.Tracer`
        self.tracer = tracer

    def invoke_calls(
        self,
        namespace: str,
        action: str,
        calls: Sequence[dict[str, Any]],
        futures: Sequence[ResponseFuture],
    ) -> None:
        self.kernel.drive(self.invoke_calls_steps(namespace, action, calls, futures))

    def _trace_invoke(self, future: ResponseFuture) -> None:
        """Record one ``client.invoke`` attempt for ``future``."""
        tracer = self.tracer
        if tracer is not None and tracer.enabled:
            ids = {
                "executor_id": future.executor_id,
                "callset_id": future.callset_id,
                "call_id": future.call_id,
                "attempt": max(1, future.invoke_count),
            }
            if future.activation_id is not None:
                ids["activation_id"] = future.activation_id
            tracer.point("client.invoke", "client", ids=ids)


class LocalInvoker(Invoker):
    """Client-side invocation, ``pool_size`` requests in flight."""

    def invoke_calls_steps(
        self,
        namespace: str,
        action: str,
        calls: Sequence[dict[str, Any]],
        futures: Sequence[ResponseFuture],
    ) -> None:
        def _invoke_steps(pair: tuple[dict[str, Any], ResponseFuture]):
            params, future = pair
            activation_id = yield from self.functions.invoke_steps(
                namespace, action, params
            )
            future.mark_invoked(activation_id)
            self._trace_invoke(future)

        yield from fan_out_steps(
            self.kernel, _invoke_steps, zip(calls, futures), self.pool_size,
            name="invoker",
        )


class MassiveInvoker(Invoker):
    """Groups of invocations, one remote invoker function per group (§5.1).

    "The final approach was to make groups of 100 invocations and execute
    them at the same time with different remote invoker functions."
    ``pool_size`` means one of two things.  With groups it is how many
    group invocations the client has in flight.  With ``group_size=None``
    there is one group of every call, and ``pool_size`` is how many calls
    the lone invoker function spawns at a time (REMOTE mode).
    """

    def __init__(
        self,
        kernel: Kernel,
        functions: CloudFunctionsClient,
        group_size: Optional[int] = 100,
        pool_size: int = 8,
        tracer=None,
    ) -> None:
        if group_size is not None and group_size <= 0:
            raise ValueError("group_size must be positive")
        super().__init__(kernel, functions, pool_size, tracer)
        self.group_size = group_size

    def invoke_calls_steps(
        self,
        namespace: str,
        action: str,
        calls: Sequence[dict[str, Any]],
        futures: Sequence[ResponseFuture],
    ) -> None:
        calls = list(calls)
        if self.group_size is None:
            groups, in_cloud_pool = [calls], self.pool_size
        else:
            groups = [
                calls[i : i + self.group_size]
                for i in range(0, len(calls), self.group_size)
            ]
            in_cloud_pool = 1  # sequential inside each group invoker

        def _invoke_group_steps(group: list[dict[str, Any]]):
            params = {
                "namespace": namespace,
                "action": action,
                "calls": group,
                "pool_size": in_cloud_pool,
            }
            yield from self.functions.invoke_steps(
                namespace, REMOTE_INVOKER_ACTION, params
            )

        yield from fan_out_steps(
            self.kernel, _invoke_group_steps, groups, self.pool_size,
            name="massive-invoker",
        )
        for future in futures:
            future.mark_invoked(None)
            self._trace_invoke(future)
