"""Weighted-fair dispatch across tenant namespaces (deficit round robin).

Under overload the controller used to drain accepted invocations in pure
arrival order, so one namespace's storm could park every other tenant's
work behind its backlog.  :class:`FairDispatchQueue` replaces that with
the classic deficit-round-robin scheduler (Shreedhar & Varghese, '95):
each tenant owns a FIFO queue and a *deficit counter*; every time the
round-robin pointer visits a backlogged tenant its deficit grows by
``quantum * weight``, and the tenant may dispatch work while the deficit
covers the head item's cost.  Service shares therefore converge to the
weight ratio, no tenant is ever starved, and a tenant that goes idle
forfeits its credit (deficit resets on re-activation) so it cannot bank
capacity while empty.

The structure is deliberately *pure*: no locks, no clocks, no RNG — the
controller serializes access under its own lock, and the hypothesis
property suite (``tests/faas/test_dispatch_properties.py``) pins the
fairness contract directly on this class:

* **work-conserving** — ``pop()`` returns an item whenever any tenant
  queue is non-empty;
* **weight-proportional** — long-run service shares track weights within
  a bounded deficit (``quantum * weight + max_cost``);
* **per-tenant FIFO** — items of one tenant dispatch in push order;
* **deterministic** — the dispatch order is a pure function of the push
  sequence and the weights.

``policy="fifo"`` keeps the old first-come order behind the same API —
the "unfair baseline" the tenant-storm bench measures against.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Optional

__all__ = ["FairDispatchQueue", "POLICIES"]

#: dispatch policies: deficit round robin, or the first-come baseline
POLICIES = ("drr", "fifo")


class FairDispatchQueue:
    """Per-tenant FIFO queues drained by deficit round robin.

    ``quantum`` is the service credit (in cost units) a weight-1.0 tenant
    earns per round-robin visit.  Costs default to 1.0 (count-fair); the
    controller passes action memory so shares are memory-fair.
    """

    def __init__(self, policy: str = "drr", quantum: float = 1.0) -> None:
        if policy not in POLICIES:
            raise ValueError(
                f"dispatch policy must be one of {POLICIES}, got {policy!r}"
            )
        if quantum <= 0:
            raise ValueError("quantum must be positive")
        self.policy = policy
        self.quantum = float(quantum)
        self._weights: dict[str, float] = {}
        self._queues: dict[str, deque] = {}
        # round-robin rotation of tenants with a non-empty queue, in the
        # order they became backlogged (deterministic tie-break)
        self._active: deque[str] = deque()
        self._deficit: dict[str, float] = {}
        # global arrival order, kept only by the fifo baseline policy
        self._arrivals: deque[str] = deque()
        self._len = 0
        self._pushed = 0
        self._popped = 0

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return self._len

    def pending(self, tenant: str) -> int:
        """Queued items for one tenant."""
        queue = self._queues.get(tenant)
        return len(queue) if queue else 0

    def weight(self, tenant: str) -> float:
        return self._weights.get(tenant, 1.0)

    def set_weight(self, tenant: str, weight: float) -> None:
        if weight <= 0:
            raise ValueError("tenant weight must be positive")
        self._weights[tenant] = float(weight)

    # ------------------------------------------------------------------
    # Queue operations
    # ------------------------------------------------------------------
    def push(self, tenant: str, item: Any, cost: float = 1.0) -> None:
        """Append ``item`` to ``tenant``'s FIFO with dispatch ``cost``."""
        if cost <= 0:
            raise ValueError("cost must be positive")
        queue = self._queues.get(tenant)
        if queue is None:
            queue = self._queues[tenant] = deque()
        if not queue:
            # (re)activation: join the rotation at the back with zero
            # credit — an idle tenant banks nothing
            self._active.append(tenant)
            self._deficit[tenant] = 0.0
        queue.append((item, float(cost)))
        if self.policy == "fifo":
            self._arrivals.append(tenant)
        self._len += 1
        self._pushed += 1

    def pop(self) -> Optional[tuple[str, Any, float]]:
        """Dispatch the next item as ``(tenant, item, cost)``.

        Returns ``None`` only when every queue is empty (the structure is
        work-conserving).  Under ``"fifo"`` this is global arrival order;
        under ``"drr"`` the deficit-round-robin order described above.
        """
        if self._len == 0:
            return None
        if self.policy == "fifo":
            return self._pop_fifo()
        return self._pop_drr()

    def _pop_fifo(self) -> tuple[str, Any, float]:
        # per-tenant FIFOs + the global arrival deque agree on heads, so
        # popping the arrival tenant's head IS global first-come order
        tenant = self._arrivals.popleft()
        queue = self._queues[tenant]
        item, cost = queue.popleft()
        self._finish_pop(tenant, queue)
        return tenant, item, cost

    def _pop_drr(self) -> tuple[str, Any, float]:
        while True:
            tenant = self._active[0]
            queue = self._queues[tenant]
            head_cost = queue[0][1]
            if self._deficit[tenant] + 1e-12 >= head_cost:
                item, cost = queue.popleft()
                self._deficit[tenant] -= cost
                self._finish_pop(tenant, queue)
                return tenant, item, cost
            # insufficient credit: earn one quantum and move to the back
            self._deficit[tenant] += self.quantum * self.weight(tenant)
            self._active.rotate(-1)

    def _finish_pop(self, tenant: str, queue: deque) -> None:
        self._len -= 1
        self._popped += 1
        if not queue:
            try:
                self._active.remove(tenant)
            except ValueError:
                pass
            self._deficit[tenant] = 0.0

    def stats(self) -> dict[str, int]:
        return {"pushed": self._pushed, "popped": self._popped, "pending": self._len}
