"""Latency models.

The paper's §5.1/§6.1 numbers hinge on the difference between a client in a
*high-latency* network (their lab in Tarragona talking to IBM US-South) and
code running *inside* the cloud.  We model a link by a base round-trip time,
a jitter fraction, and a transient-failure probability (failed requests are
retried by callers, which is exactly how higher latency "turns into more
invocation failures, which further increase the total invocation time").
"""

from __future__ import annotations

import random
from dataclasses import dataclass


class TransientNetworkError(Exception):
    """A request was lost/refused; the caller is expected to retry."""


@dataclass(frozen=True)
class LatencyModel:
    """Samples per-request round-trip latencies.

    Attributes:
        rtt: base round-trip time in seconds.
        jitter: fraction of ``rtt`` used as the +/- uniform jitter bound.
        failure_prob: probability that a request fails transiently.
    """

    rtt: float
    jitter: float = 0.1
    failure_prob: float = 0.0
    name: str = "custom"

    def sample_rtt(self, rng: random.Random) -> float:
        """One latency sample (never negative)."""
        if self.jitter <= 0:
            return self.rtt
        spread = self.rtt * self.jitter
        return max(0.0, self.rtt + rng.uniform(-spread, spread))

    def sample_failure(self, rng: random.Random) -> bool:
        """Whether this request transiently fails."""
        return self.failure_prob > 0 and rng.random() < self.failure_prob

    # ------------------------------------------------------------------
    # Profiles used throughout the reproduction (calibrated in DESIGN.md §5).
    # A model is immutable, so every caller shares one instance per profile.
    # ------------------------------------------------------------------
    @staticmethod
    def wan() -> "LatencyModel":
        """Client in a remote high-latency network (paper's default client)."""
        return _WAN

    @staticmethod
    def lan() -> "LatencyModel":
        """Client inside IBM's low-latency internal network."""
        return _LAN

    @staticmethod
    def in_cloud() -> "LatencyModel":
        """Function-to-service latency inside the cloud data center."""
        return _IN_CLOUD


_WAN = LatencyModel(rtt=0.220, jitter=0.15, failure_prob=0.02, name="wan")
_LAN = LatencyModel(rtt=0.004, jitter=0.25, failure_prob=0.0, name="lan")
_IN_CLOUD = LatencyModel(rtt=0.004, jitter=0.25, failure_prob=0.0, name="in-cloud")
