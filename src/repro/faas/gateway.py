"""Client-side API gateway for Cloud Functions.

Every endpoint (the user's laptop, a remote invoker function) talks to the
controller through a :class:`CloudFunctionsClient` carrying its own network
link — so an invocation from a WAN client costs a WAN round trip while one
from inside the cloud costs microseconds, which is the entire story of the
paper's §5.1.
"""

from __future__ import annotations

from typing import Any, Optional

from repro.config import RetryConfig
from repro.faas.controller import CloudFunctions
from repro.faas.errors import ThrottledError
from repro.net.link import NetworkLink
from repro.retry import RetryPolicy
from repro.vtime.kernel import vsleep

#: approximate size of an invocation HTTP request (auth headers + params)
INVOKE_PAYLOAD_BYTES = 1024


def _gateway_ids(params: dict[str, Any]) -> dict[str, Any]:
    """Causal ids present in a call's params (absent keys skipped)."""
    ids = {}
    for key in ("executor_id", "callset_id", "call_id"):
        value = params.get(key)
        if value is not None:
            ids[key] = value
    return ids


class CloudFunctionsClient:
    """Latency-charging, retrying client for the controller.

    Network transients follow the shared
    :class:`~repro.retry.RetryPolicy`; 429 throttles are retried until they
    clear (an invocation that is never issued never finishes), sleeping the
    server's ``Retry-After`` hint when one is given and the policy's
    backoff schedule otherwise.
    """

    def __init__(
        self,
        platform: CloudFunctions,
        link: NetworkLink,
        credentials=None,
        retry: Optional[RetryConfig] = None,
    ) -> None:
        self.platform = platform
        self.link = link
        #: optional :class:`~repro.faas.iam.ApiKey` sent with every request
        self.credentials = credentials
        self.policy = RetryPolicy(retry, seed=link.seed)
        self._invocations = 0
        self._throttle_retries = 0

    @property
    def invocations(self) -> int:
        return self._invocations

    @property
    def throttle_retries(self) -> int:
        return self._throttle_retries

    def _network_round_trip_steps(self, payload_bytes: int):
        yield from self.policy.run_steps(
            lambda: self.link.request_steps(payload_bytes)
        )

    def invoke(
        self,
        namespace: str,
        action_name: str,
        params: Optional[dict[str, Any]] = None,
    ) -> str:
        return self.platform.kernel.drive(
            self.invoke_steps(namespace, action_name, params)
        )

    def invoke_steps(
        self,
        namespace: str,
        action_name: str,
        params: Optional[dict[str, Any]] = None,
    ):
        """Invoke an action; takes the network + API round trip only.

        Retries transient network failures and 429 throttles (both grow with
        latency in the paper's account of slow WAN spawning).
        """
        params = params or {}
        kernel = self.platform.kernel
        tracer = getattr(self.platform, "tracer", None)
        if tracer is not None and not tracer.enabled:
            tracer = None
        call_ids = _gateway_ids(params) if tracer is not None else None
        t0 = kernel.now() if tracer is not None else None
        # tenant dimension only in multi-tenant regions, so single-tenant
        # traces stay byte-identical to pre-tenancy runs
        multitenant = getattr(self.platform, "tenants", None) is not None
        throttle_attempt = 0
        while True:
            yield from self._network_round_trip_steps(INVOKE_PAYLOAD_BYTES)
            try:
                activation_id = yield from self.platform.invoke_steps(
                    namespace, action_name, params, credentials=self.credentials
                )
            except ThrottledError as exc:
                self._throttle_retries += 1
                throttle_attempt += 1
                reason = getattr(exc, "reason", None)
                if tracer is not None:
                    attrs = dict(
                        action=action_name,
                        attempt=throttle_attempt,
                        retry_after=exc.retry_after,
                    )
                    ids = call_ids
                    if multitenant:
                        ids = {**call_ids, "tenant": namespace}
                        if reason is not None:
                            attrs["reason"] = reason
                    tracer.point(
                        "gateway.throttle", "gateway", ids=ids, **attrs
                    )
                yield vsleep(
                    self.policy.backoff(throttle_attempt, exc.retry_after)
                )
                continue
            self._invocations += 1
            if tracer is not None:
                ids = {**call_ids, "activation_id": activation_id}
                if multitenant:
                    ids["tenant"] = namespace
                tracer.span_at(
                    "gateway.invoke", "gateway", t0, kernel.now(),
                    ids=ids,
                    namespace=namespace,
                    action=action_name,
                    throttles=throttle_attempt,
                )
            return activation_id

    def get_activations_steps(self, activation_ids: list[str]):
        """Bulk-fetch activation records: one round trip for the whole batch.

        ``None`` for unknown ids.  The executor's lost-call detector scans an
        entire callset per polling round with this, instead of N requests.
        """
        yield from self._network_round_trip_steps(INVOKE_PAYLOAD_BYTES)
        return self.platform.get_activations_bulk(activation_ids)
