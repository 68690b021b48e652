"""Unit tests for network links (virtual-time accounting)."""

from __future__ import annotations

import threading

import pytest

from repro.cos import CloudObjectStorage, COSClient
from repro.net import LatencyModel, NetworkLink, TransientNetworkError
from repro.net.link import DEFAULT_BANDWIDTH_BPS
from repro.vtime import Kernel


def make_link(kernel, rtt=0.1, jitter=0.0, failure=0.0, bandwidth=DEFAULT_BANDWIDTH_BPS):
    return NetworkLink(
        kernel,
        LatencyModel(rtt=rtt, jitter=jitter, failure_prob=failure),
        bandwidth_bps=bandwidth,
        seed=5,
    )


class TestRequest:
    def test_request_costs_one_rtt(self, kernel):
        def main():
            link = make_link(kernel, rtt=0.5)
            link.request(0)
            return kernel.now()

        assert kernel.run(main) == pytest.approx(0.5)

    def test_payload_costs_bandwidth(self, kernel):
        def main():
            link = make_link(kernel, rtt=0.0, bandwidth=1000)
            link.request(5000)
            return kernel.now()

        assert kernel.run(main) == pytest.approx(5.0)

    def test_failure_raises_after_rtt(self, kernel):
        def main():
            link = make_link(kernel, rtt=0.2, failure=1.0)
            with pytest.raises(TransientNetworkError):
                link.request(100)
            return kernel.now()

        assert kernel.run(main) == pytest.approx(0.2)

    def test_stats_counted(self, kernel):
        def main():
            link = make_link(kernel, rtt=0.01)
            for _ in range(3):
                link.request(100)
            return link.requests, link.failures

        assert kernel.run(main) == (3, 0)

    def test_zero_bandwidth_rejected(self, kernel):
        with pytest.raises(ValueError):
            make_link(kernel, bandwidth=0)


class TestRetries:
    def test_retry_succeeds_eventually(self, kernel):
        def main():
            link = make_link(kernel, rtt=0.1, failure=0.5)
            attempts = link.request_with_retries(0, retries=50, backoff=1.0)
            return attempts

        attempts = kernel.run(main)
        assert attempts >= 1

    def test_retries_exhausted_raises(self, kernel):
        def main():
            link = make_link(kernel, rtt=0.1, failure=1.0)
            with pytest.raises(TransientNetworkError):
                link.request_with_retries(0, retries=2, backoff=0.5)
            return link.failures

        assert kernel.run(main) == 3  # initial + 2 retries

    def test_backoff_charged(self, kernel):
        def main():
            link = make_link(kernel, rtt=0.0, failure=1.0)
            with pytest.raises(TransientNetworkError):
                link.request_with_retries(0, retries=2, backoff=2.0)
            return kernel.now()

        assert kernel.run(main) == pytest.approx(4.0)  # two backoffs


class TestHelpers:
    def test_transfer_time(self, kernel):
        link = make_link(kernel, bandwidth=1024)
        assert link.transfer_time(2048) == pytest.approx(2.0)


class TestOneTimerPerRequest:
    """Count, don't time: a request's RTT and its payload's transfer wake
    the task once, so a model task doing N GETs with a payload is stepped
    N + 1 times (two timers per request would step it 2N + 1 times)."""

    GETS = 25

    def test_n_gets_with_a_payload_step_n_plus_one_times(self):
        step_code = Kernel._step_model.__code__
        steps: list[int] = []

        def profiler(frame, event, _arg):
            if event == "call" and frame.f_code is step_code:
                steps.append(1)

        def reader(client):
            for _ in range(self.GETS):
                data = yield from client.get_object_steps("b", "k")
                assert data == b"z" * 4000

        # model tasks are stepped on whichever kernel thread holds the run,
        # so every thread the kernel starts from here on is profiled
        threading.setprofile(profiler)
        try:
            kernel = Kernel()
            store = CloudObjectStorage(kernel)
            store.create_bucket("b")
            store.put_object("b", "k", b"z" * 4000)
            link = make_link(kernel, rtt=0.25, bandwidth=1000)
            kernel.run(lambda: kernel.spawn_model(reader, COSClient(store, link)))
        finally:
            threading.setprofile(None)

        assert len(steps) == self.GETS + 1
        assert link.requests == self.GETS
        assert kernel.now() == pytest.approx(self.GETS * (0.25 + 4.0))
