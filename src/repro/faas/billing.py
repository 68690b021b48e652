"""Sub-second billing metering.

§1 names "sub-second billing" as one of serverless computing's draws; IBM
Cloud Functions bills GB-seconds at 100 ms granularity.  The platform
meters every activation so experiments can report what a job *costs* — an
axis the paper leaves implicit in Table 3's executor counts.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass

#: IBM Cloud Functions list price at the time of the paper (USD per GB-s)
PRICE_PER_GB_SECOND = 0.000017

#: billing granularity: durations round up to 100 ms
BILLING_QUANTUM_S = 0.1


def billed_duration(duration_s: float) -> float:
    """Round a duration up to the billing quantum (sub-second billing).

    Durations within float epsilon of an exact quantum multiple do not bump
    to the next quantum; every activation bills at least one quantum.
    """
    if duration_s <= 0:
        return BILLING_QUANTUM_S
    quanta = math.ceil(duration_s / BILLING_QUANTUM_S - 1e-9)
    return max(1, quanta) * BILLING_QUANTUM_S


@dataclass
class BillingEntry:
    """One metered activation."""

    activation_id: str
    action_name: str
    memory_mb: int
    duration_s: float
    #: owning namespace — the billing dimension tenant rollups group by
    namespace: str = ""

    @property
    def gb_seconds(self) -> float:
        return (self.memory_mb / 1024.0) * billed_duration(self.duration_s)

    @property
    def cost(self) -> float:
        return self.gb_seconds * PRICE_PER_GB_SECOND


class BillingMeter:
    """Aggregates GB-seconds and cost across a platform's activations."""

    def __init__(self) -> None:
        self._entries: list[BillingEntry] = []
        self._lock = threading.Lock()

    def record(
        self,
        activation_id: str,
        action_name: str,
        memory_mb: int,
        duration_s: float,
        namespace: str = "",
    ) -> BillingEntry:
        entry = BillingEntry(
            activation_id, action_name, memory_mb, duration_s, namespace
        )
        with self._lock:
            self._entries.append(entry)
        return entry

    @property
    def activations(self) -> int:
        with self._lock:
            return len(self._entries)

    def total_gb_seconds(self) -> float:
        with self._lock:
            return sum(e.gb_seconds for e in self._entries)

    def total_cost(self) -> float:
        with self._lock:
            return sum(e.cost for e in self._entries)

    def by_action(self) -> dict[str, float]:
        """GB-seconds per action name."""
        with self._lock:
            out: dict[str, float] = {}
            for entry in self._entries:
                out[entry.action_name] = out.get(entry.action_name, 0.0) + entry.gb_seconds
            return out

    def entries(self) -> list[BillingEntry]:
        with self._lock:
            return list(self._entries)
