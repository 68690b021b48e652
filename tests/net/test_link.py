"""Unit tests for network links (virtual-time accounting)."""

from __future__ import annotations

import pytest

from repro.net import LatencyModel, NetworkLink, TransientNetworkError
from repro.net.link import DEFAULT_BANDWIDTH_BPS


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
            return link.requests, link.failures, link.bytes_moved

        assert kernel.run(main) == (3, 0, 300)

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
