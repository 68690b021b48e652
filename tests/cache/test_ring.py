"""Key-ownership consistency: the VM cluster's consistent-hash ring.

Every participant — writers placing a key, readers consulting its owner
— must compute the *same* owner for the same key, across processes and
runs.  That is what these tests pin.
"""

from __future__ import annotations

import pytest

from repro.exchange.memory import HashRing


class TestConsistency:
    def test_owner_stable_across_instances(self):
        a = HashRing(8)
        b = HashRing(8)
        keys = [f"pywren.jobs/exec/{i:03d}/result.pickle" for i in range(200)]
        assert [a.owner(k) for k in keys] == [b.owner(k) for k in keys]

    def test_owner_is_deterministic_function_of_key(self):
        ring = HashRing(5)
        for key in ("alpha", "beta", "", "shuffle/part-00003", "日本語"):
            assert ring.owner(key) == ring.owner(key)

    def test_owners_in_range(self):
        ring = HashRing(7)
        for i in range(500):
            assert 0 <= ring.owner(f"key-{i}") < 7

    def test_single_node_owns_everything(self):
        ring = HashRing(1)
        assert {ring.owner(f"k{i}") for i in range(50)} == {0}


class TestDistribution:
    def test_every_node_gets_keys(self):
        ring = HashRing(4)
        owners = {ring.owner(f"key-{i}") for i in range(1000)}
        assert owners == {0, 1, 2, 3}

    def test_shares_sum_to_one(self):
        ring = HashRing(6)
        shares = ring.shares()
        assert set(shares) == set(range(6))
        assert sum(shares.values()) == pytest.approx(1.0)

    def test_vnodes_smooth_the_assignment(self):
        # with 64 vnodes per node, no node's arc strays wildly from 1/n
        shares = HashRing(4, vnodes=64).shares()
        for share in shares.values():
            assert 0.05 < share < 0.60

    def test_invalid_arguments_rejected(self):
        with pytest.raises(ValueError):
            HashRing(0)
        with pytest.raises(ValueError):
            HashRing(4, vnodes=0)
