"""Unit tests for the client-side functions gateway."""

from __future__ import annotations

import pytest

from repro.cos import CloudObjectStorage
from repro.faas import (
    ActivationStatus,
    CloudFunctions,
    CloudFunctionsClient,
    SystemLimits,
)
from repro.net import LatencyModel, NetworkLink


def make_platform(kernel, max_concurrent=100):
    store = CloudObjectStorage(kernel)
    platform = CloudFunctions(
        kernel, store, limits=SystemLimits(max_concurrent=max_concurrent), seed=2
    )

    def busy(params, ctx):
        ctx.sleep(params.get("t", 1))
        return params.get("v")

    platform.create_action("guest", "busy", busy)
    return platform


def make_client(kernel, platform, rtt=0.1):
    link = NetworkLink(
        kernel, LatencyModel(rtt=rtt, jitter=0.0, failure_prob=0.0), seed=8
    )
    return CloudFunctionsClient(platform, link)


class TestInvoke:
    def test_invoke_returns_activation_id(self, kernel):
        platform = make_platform(kernel)

        def main():
            client = make_client(kernel, platform)
            aid = client.invoke("guest", "busy", {"v": 7})
            return platform.wait_activation(aid).result

        assert kernel.run(main) == 7

    def test_invoke_charges_network_and_api_time(self, kernel):
        platform = make_platform(kernel)

        def main():
            client = make_client(kernel, platform, rtt=1.0)
            t0 = kernel.now()
            client.invoke("guest", "busy", {})
            return kernel.now() - t0

        elapsed = kernel.run(main)
        assert elapsed >= 1.0  # at least the RTT
        assert elapsed < 2.0  # but invoke is non-blocking on execution

    def test_invoke_blocking(self, kernel):
        platform = make_platform(kernel)

        def main():
            client = make_client(kernel, platform)
            aid = client.invoke("guest", "busy", {"t": 5, "v": "x"})
            record = platform.wait_activation(aid)
            return record.status, record.result, kernel.now()

        status, result, t = kernel.run(main)
        assert status == ActivationStatus.SUCCESS
        assert result == "x"
        assert t >= 5.0

    def test_invocation_counter(self, kernel):
        platform = make_platform(kernel)

        def main():
            client = make_client(kernel, platform)
            for _ in range(3):
                client.invoke("guest", "busy", {})
            return client.invocations

        assert kernel.run(main) == 3


class TestThrottleRetry:
    def test_throttled_invocations_retry_until_capacity(self, kernel):
        platform = make_platform(kernel, max_concurrent=2)

        def main():
            client = make_client(kernel, platform)
            ids = [client.invoke("guest", "busy", {"t": 10}) for _ in range(4)]
            records = [platform.wait_activation(a) for a in ids]
            return (
                [r.status for r in records],
                client.throttle_retries,
            )

        statuses, retries = kernel.run(main)
        assert statuses == [ActivationStatus.SUCCESS] * 4
        assert retries >= 1  # the 3rd/4th invocations had to retry


class TestRetryAfterHint:
    def test_controller_populates_retry_after_from_load(self, kernel):
        from repro.faas.errors import ThrottledError

        platform = make_platform(kernel, max_concurrent=2)

        def main():
            client = make_client(kernel, platform)
            for _ in range(2):
                client.invoke("guest", "busy", {"t": 50})
            # capacity is full: a direct platform call gets the 429 + hint
            try:
                platform.invoke("guest", "busy", {})
            except ThrottledError as exc:
                return exc.retry_after
            return None

        hint = kernel.run(main)
        # full load → the controller asks for the maximum backoff (1.0 s)
        assert hint == pytest.approx(1.0)

    def test_client_honors_retry_after(self, kernel):
        from repro.faas.errors import ThrottledError
        from repro.net import LatencyModel, NetworkLink

        class OneThrottlePlatform:
            """Throttles the first attempt with an explicit hint."""

            def __init__(self, kernel):
                self.kernel = kernel
                self.attempts = 0

            def invoke_steps(self, namespace, action, params, credentials=None):
                self.attempts += 1
                if self.attempts == 1:
                    raise ThrottledError("429", retry_after=5.0)
                yield from ()  # accepting an invocation takes no time here
                return "act-1"

        platform = OneThrottlePlatform(kernel)
        link = NetworkLink(
            kernel, LatencyModel(rtt=0.0, jitter=0.0, failure_prob=0.0), seed=1
        )
        from repro.faas import CloudFunctionsClient

        def main():
            client = CloudFunctionsClient(platform, link)
            t0 = kernel.now()
            aid = client.invoke("guest", "busy", {})
            return aid, kernel.now() - t0, client.throttle_retries

        aid, elapsed, retries = kernel.run(main)
        assert aid == "act-1"
        assert retries == 1
        # the client slept exactly the server's hint, not its own schedule
        # (plus the ~20 µs transfer time of the two zero-RTT requests)
        assert elapsed == pytest.approx(5.0, abs=0.01)


class TestWaitTimeout:
    def test_wait_with_timeout_returns_unfinished_record(self, kernel):
        platform = make_platform(kernel)

        def main():
            client = make_client(kernel, platform)
            aid = client.invoke("guest", "busy", {"t": 100})
            record = platform.wait_activation(aid, timeout=5)
            return record.finished, kernel.now()

        finished, t = kernel.run(main)
        assert finished is False
        assert 5.0 <= t <= 7.0
