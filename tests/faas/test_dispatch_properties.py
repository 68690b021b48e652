"""Property-based tests pinning the fair-dispatch queue's contract.

The weighted-fair dispatcher is the heart of the multi-tenant control
plane, so its fairness guarantees are pinned directly on the pure
structure (:class:`repro.faas.dispatch.FairDispatchQueue`) rather than
eyeballed from benches:

* **work-conserving** — ``pop()`` yields an item whenever anything is
  queued, regardless of weights or costs;
* **weight-proportional** — under sustained backlog, per-tenant service
  is proportional to weight within one quantum-and-a-maximum-cost bound
  (the classic DRR deficit bound);
* **per-tenant FIFO** — a tenant's items dispatch in push order under
  both policies;
* **deterministic** — the dispatch order is a pure function of the push
  sequence and the weights (same input, byte-same order).
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faas.dispatch import POLICIES, FairDispatchQueue

# a workload: per-tenant weights plus an interleaved push sequence
tenant_ids = st.integers(min_value=0, max_value=4)
weights = st.lists(
    st.floats(min_value=0.1, max_value=8.0, allow_nan=False),
    min_size=5,
    max_size=5,
)
push_sequences = st.lists(
    st.tuples(
        tenant_ids,
        st.floats(min_value=0.5, max_value=4.0, allow_nan=False),  # cost
    ),
    min_size=1,
    max_size=60,
)


def _drain(queue: FairDispatchQueue) -> list[tuple[str, int, float]]:
    out = []
    while True:
        popped = queue.pop()
        if popped is None:
            return out
        out.append(popped)


def _build(policy: str, weight_list, pushes) -> FairDispatchQueue:
    queue = FairDispatchQueue(policy=policy)
    for index, weight in enumerate(weight_list):
        queue.set_weight(f"t{index}", weight)
    for serial, (tenant, cost) in enumerate(pushes):
        queue.push(f"t{tenant}", serial, cost=cost)
    return queue


class TestWorkConserving:
    @settings(max_examples=60, deadline=None)
    @given(weight_list=weights, pushes=push_sequences)
    @pytest.mark.parametrize("policy", POLICIES)
    def test_pop_never_idles_while_backlogged(
        self, policy, weight_list, pushes
    ):
        """Every queued item is eventually dispatched, and pop() returns
        an item at every call until the structure is empty."""
        queue = _build(policy, weight_list, pushes)
        for remaining in range(len(pushes), 0, -1):
            assert len(queue) == remaining
            assert queue.pop() is not None, (
                "pop() returned None with items still queued"
            )
        assert len(queue) == 0
        assert queue.pop() is None

    def test_pop_on_empty_is_none(self):
        queue = FairDispatchQueue()
        assert queue.pop() is None
        queue.push("a", "x")
        assert queue.pop() == ("a", "x", 1.0)
        assert queue.pop() is None


class TestPerTenantFifo:
    @settings(max_examples=60, deadline=None)
    @given(weight_list=weights, pushes=push_sequences)
    @pytest.mark.parametrize("policy", POLICIES)
    def test_fifo_within_tenant(self, policy, weight_list, pushes):
        """Whatever the cross-tenant interleaving, one tenant's items come
        out in push order (items are their push serials)."""
        queue = _build(policy, weight_list, pushes)
        seen: dict[str, list[int]] = {}
        for tenant, serial, _cost in _drain(queue):
            seen.setdefault(tenant, []).append(serial)
        for tenant, serials in seen.items():
            assert serials == sorted(serials), (
                f"tenant {tenant} dispatched out of push order: {serials}"
            )

    def test_fifo_policy_is_global_arrival_order(self):
        queue = FairDispatchQueue(policy="fifo")
        queue.set_weight("a", 100.0)  # weights must not matter under fifo
        for serial, tenant in enumerate(["a", "b", "a", "c", "b", "a"]):
            queue.push(tenant, serial)
        assert [item for _t, item, _c in _drain(queue)] == [0, 1, 2, 3, 4, 5]


class TestWeightProportionalShares:
    @settings(max_examples=40, deadline=None)
    @given(weight_list=weights)
    def test_service_tracks_weights_within_deficit_bound(self, weight_list):
        """Under a saturated backlog of unit-cost items, the cost served
        per tenant after any prefix of pops stays within one quantum *
        weight + max_cost of its weight-proportional share (the DRR
        deficit bound of Shreedhar & Varghese)."""
        queue = FairDispatchQueue(policy="drr", quantum=1.0)
        depth = 200
        names = [f"t{i}" for i in range(len(weight_list))]
        for name, weight in zip(names, weight_list):
            queue.set_weight(name, weight)
        for serial in range(depth):
            for name in names:
                queue.push(name, serial)
        total_weight = sum(weight_list)
        served = {name: 0.0 for name in names}
        total_served = 0.0
        # the share law only holds while every tenant is backlogged: once
        # one drains, the others legitimately absorb its share
        while all(queue.pending(name) > 0 for name in names):
            tenant, _item, cost = queue.pop()
            served[tenant] += cost
            total_served += cost
            for name, weight in zip(names, weight_list):
                ideal = total_served * weight / total_weight
                # DRR deficit bound: each tenant's service lags/leads its
                # share by at most one visit's credit plus one max item,
                # on both its own counter and the total it is compared to
                slack = queue.quantum * weight + 1.0
                bound = slack + (weight / total_weight) * (
                    queue.quantum * total_weight + len(names) * 1.0
                )
                assert abs(served[name] - ideal) <= bound + 1e-9, (
                    f"{name} served {served[name]:.1f}, ideal {ideal:.1f}, "
                    f"bound {bound:.1f}"
                )

    def test_two_to_one_weights_give_two_to_one_service(self):
        queue = FairDispatchQueue(policy="drr", quantum=1.0)
        queue.set_weight("heavy", 2.0)
        queue.set_weight("light", 1.0)
        for serial in range(300):
            queue.push("heavy", serial)
            queue.push("light", serial)
        served = {"heavy": 0, "light": 0}
        for _ in range(300):
            tenant, _item, _cost = queue.pop()
            served[tenant] += 1
        ratio = served["heavy"] / served["light"]
        assert 1.8 <= ratio <= 2.2, served


class TestDeterminism:
    @settings(max_examples=60, deadline=None)
    @given(weight_list=weights, pushes=push_sequences)
    @pytest.mark.parametrize("policy", POLICIES)
    def test_same_input_same_dispatch_order(self, policy, weight_list, pushes):
        first = _drain(_build(policy, weight_list, pushes))
        second = _drain(_build(policy, weight_list, pushes))
        assert first == second

    def test_idle_tenant_forfeits_credit(self):
        """A tenant that drains to empty re-joins with zero deficit: no
        banking capacity while idle."""
        queue = FairDispatchQueue(policy="drr", quantum=1.0)
        queue.set_weight("a", 4.0)
        queue.push("a", "a0", cost=1.0)
        assert queue.pop()[1] == "a0"
        # 'a' went idle; its accumulated credit must be gone
        queue.push("b", "b0", cost=1.0)
        queue.push("a", "a1", cost=3.0)
        # b (head of rotation) earns 1.0 and dispatches; a needs 3 rounds
        # of weight-4 credit *starting from zero*, not from leftover
        assert queue.pop()[0] == "b"
        tenant, item, _ = queue.pop()
        assert (tenant, item) == ("a", "a1")
        assert queue._deficit["a"] < 4.0 + 1e-9


class TestValidation:
    def test_bad_policy_rejected(self):
        with pytest.raises(ValueError):
            FairDispatchQueue(policy="lifo")

    def test_bad_quantum_and_weight_and_cost_rejected(self):
        queue = FairDispatchQueue()
        with pytest.raises(ValueError):
            FairDispatchQueue(quantum=0)
        with pytest.raises(ValueError):
            queue.set_weight("a", 0)
        with pytest.raises(ValueError):
            queue.push("a", "x", cost=0)

    def test_stats_and_introspection(self):
        queue = FairDispatchQueue()
        queue.push("a", 1)
        queue.push("b", 2)
        queue.push("a", 3)
        assert queue.pending("a") == 2
        assert queue.pending("b") == 1
        assert queue.stats() == {"pushed": 3, "popped": 0, "pending": 3}
        queue.pop()
        assert queue.stats()["popped"] == 1
