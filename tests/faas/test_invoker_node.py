"""Unit tests for invoker nodes (container pool + memory accounting)."""

from __future__ import annotations

import itertools

import pytest

from repro.faas.action import Action
from repro.faas.invoker_node import InvokerNode


def make_action(name="fn", memory=256) -> Action:
    return Action(
        namespace="guest",
        name=name,
        handler=lambda p, c: None,
        runtime="python-jessie:3",
        memory_mb=memory,
        timeout_s=600,
    )


@pytest.fixture()
def node() -> InvokerNode:
    return InvokerNode(0, memory_mb=1024, warm_idle_ttl=600.0, container_ids=itertools.count(1))


class TestColdPlacement:
    def test_cold_start_reserves_memory(self, node):
        placement = node.try_place_cold(make_action(), now=0.0)
        assert placement is not None
        assert placement.cold
        assert node.load_fraction() == 0.25

    def test_needs_pull_until_cached(self, node):
        action = make_action()
        assert node.try_place_cold(action, 0.0).needs_pull
        node.cache_image(action.runtime)
        assert not node.try_place_cold(action, 0.0).needs_pull

    def test_capacity_exhaustion_returns_none(self, node):
        action = make_action()
        for _ in range(4):  # 4 x 256 = 1024 MB
            assert node.try_place_cold(action, 0.0) is not None
        assert node.try_place_cold(action, 0.0) is None

    def test_oversized_action_rejected(self, node):
        assert node.try_place_cold(make_action(memory=2048), 0.0) is None


class TestWarmReuse:
    def test_release_then_warm_start(self, node):
        action = make_action()
        placement = node.try_place_cold(action, 0.0)
        node.release(placement.container, 10.0)
        warm = node.try_place_warm(action, 11.0)
        assert warm is not None
        assert not warm.cold
        assert warm.container is placement.container
        assert node.warm_starts == 1

    def test_warm_only_for_same_action(self, node):
        placement = node.try_place_cold(make_action("a"), 0.0)
        node.release(placement.container, 1.0)
        assert node.try_place_warm(make_action("b"), 2.0) is None

    def test_try_place_warm_does_not_cold_start(self, node):
        assert node.try_place_warm(make_action(), 0.0) is None
        assert node.load_fraction() == 0.0

    def test_idle_containers_keep_memory(self, node):
        placement = node.try_place_cold(make_action(), 0.0)
        node.release(placement.container, 1.0)
        assert node.load_fraction() == 0.25


class TestEviction:
    def test_pressure_evicts_stalest_idle(self, node):
        action_a = make_action("a", memory=512)
        action_b = make_action("b", memory=512)
        pa = node.try_place_cold(action_a, 0.0)
        pb = node.try_place_cold(action_b, 1.0)
        node.release(pa.container, 2.0)  # stalest
        node.release(pb.container, 3.0)
        # node is "full" of idle containers; a new 512 MB action fits by
        # evicting the stalest one
        pc = node.try_place_cold(make_action("c", memory=512), 4.0)
        assert pc is not None
        assert node.load_fraction() == 1.0
        # the stale 'a' container was evicted, 'b' kept warm
        assert node.try_place_warm(action_a, 5.0) is None
        assert node.try_place_warm(action_b, 5.0) is not None

    def test_ttl_expiry(self, node):
        action = make_action()
        placement = node.try_place_cold(action, 0.0)
        node.release(placement.container, 0.0)
        # after the TTL the idle container is gone and memory is freed
        assert node.try_place_warm(action, 700.0) is None
        assert node.load_fraction() == 0.0

    def test_eviction_insufficient_returns_none(self, node):
        # fill with busy containers (never released): nothing to evict
        for _ in range(4):
            node.try_place_cold(make_action(), 0.0)
        assert node.try_place_cold(make_action(), 1.0) is None
