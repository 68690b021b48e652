"""Function-spawning strategies (§5.1, Table 1 "Remote function spawning").

* :class:`LocalInvoker` — the client issues every invocation over its own
  network link, ``pool_size`` at a time, like original PyWren's thread
  pool.  Fast from a low-latency network, slow (and failure-prone) over a WAN.
* :class:`RemoteInvoker` — one remote invoker function receives the whole
  call list and spawns from inside the cloud, optionally with an internal
  pool (the paper's first attempt: ~20 s for 1000 calls).
* :class:`MassiveInvoker` — the final design: groups of
  ``group_size`` calls, one remote invoker function per group, executed in
  parallel (~8 s for 1000 calls, like a low-latency client).

The client's pools (LOCAL calls, MASSIVE groups) are :func:`repro.vtime.fan_out`
lanes: model tasks that hold no OS thread and take work in ``(vtime, seq)`` order.
Invokers treat call params as opaque: when a locality-providing exchange
backend supplies a ``placement_hint`` (see :mod:`repro.dag.locality`),
every strategy forwards it untouched to the FaaS controller, which uses
it to prefer the invoker node already holding the task's inputs.
"""

from __future__ import annotations

from typing import Any, Sequence

from repro.core.futures import ResponseFuture
from repro.core.worker import REMOTE_INVOKER_ACTION
from repro.faas.gateway import CloudFunctionsClient
from repro.vtime import Kernel, fan_out


class Invoker:
    """Strategy interface: issue one invocation per call-params dict.

    ``pool_size`` invocations are in flight at once: the client's
    :func:`~repro.vtime.fan_out` width (LOCAL calls, MASSIVE groups), or
    the in-cloud invoker's own pool (REMOTE).
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
        raise NotImplementedError

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

    def invoke_calls(
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

        fan_out(
            self.kernel, _invoke_steps, zip(calls, futures), self.pool_size,
            name="invoker",
        )


class RemoteInvoker(Invoker):
    """One in-cloud invoker function spawns the whole job."""

    def invoke_calls(
        self,
        namespace: str,
        action: str,
        calls: Sequence[dict[str, Any]],
        futures: Sequence[ResponseFuture],
    ) -> None:
        params = {
            "namespace": namespace,
            "action": action,
            "calls": list(calls),
            "pool_size": self.pool_size,
        }
        self.functions.invoke(namespace, REMOTE_INVOKER_ACTION, params)
        for future in futures:
            future.mark_invoked(None)
            self._trace_invoke(future)


class MassiveInvoker(Invoker):
    """Groups of invocations, one remote invoker function per group (§5.1).

    "The final approach was to make groups of 100 invocations and execute
    them at the same time with different remote invoker functions."
    """

    def __init__(
        self,
        kernel: Kernel,
        functions: CloudFunctionsClient,
        group_size: int = 100,
        pool_size: int = 8,
        tracer=None,
    ) -> None:
        if group_size <= 0:
            raise ValueError("group_size must be positive")
        super().__init__(kernel, functions, pool_size, tracer)
        self.group_size = group_size

    def invoke_calls(
        self,
        namespace: str,
        action: str,
        calls: Sequence[dict[str, Any]],
        futures: Sequence[ResponseFuture],
    ) -> None:
        calls = list(calls)
        groups = [
            calls[i : i + self.group_size]
            for i in range(0, len(calls), self.group_size)
        ]

        def _invoke_group_steps(group: list[dict[str, Any]]):
            params = {
                "namespace": namespace,
                "action": action,
                "calls": group,
                "pool_size": 1,  # sequential inside each group invoker
            }
            yield from self.functions.invoke_steps(
                namespace, REMOTE_INVOKER_ACTION, params
            )

        fan_out(
            self.kernel, _invoke_group_steps, groups, self.pool_size,
            name="massive-invoker",
        )
        for future in futures:
            future.mark_invoked(None)
            self._trace_invoke(future)
