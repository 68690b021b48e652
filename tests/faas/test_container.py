"""Unit tests for container objects and their pool lifecycle."""

from __future__ import annotations

import pytest

from repro.faas.action import Action
from repro.faas.container import Container
from repro.faas.invoker_node import InvokerNode


def make_action(name="fn", memory=256):
    return Action(
        namespace="guest",
        name=name,
        handler=lambda p, c: None,
        runtime="python-jessie:3",
        memory_mb=memory,
        timeout_s=600,
    )


class TestContainer:
    def test_new_container_is_busy(self):
        c = Container("guest/fn", "python-jessie:3", 256, created=1.0, invoker_id=0)
        assert c.state == Container.BUSY
        assert c.created == 1.0
        assert c.activations_served == 0

    def test_ids_unique(self):
        a = Container("guest/fn", "r", 256, 0.0, 0)
        b = Container("guest/fn", "r", 256, 0.0, 0)
        assert a.container_id != b.container_id
        assert a.container_id.startswith("wsk-cont-")


class TestLifecycle:
    def test_serve_count_increments_on_release(self):
        node = InvokerNode(0, 1024, warm_idle_ttl=600)
        action = make_action()
        placement = node.try_place_cold(action, 0.0)
        node.release(placement.container, 1.0)
        reused = node.try_place_warm(action, 2.0)
        node.release(reused.container, 3.0)
        assert reused.container.activations_served == 2

    def test_discard_frees_memory_and_stops(self):
        node = InvokerNode(0, 512, warm_idle_ttl=600)
        placement = node.try_place_cold(make_action(memory=512), 0.0)
        assert node.load_fraction() == 1.0
        node.discard(placement.container)
        assert node.load_fraction() == 0.0
        assert placement.container.state == Container.STOPPED

    def test_discarded_container_not_in_warm_pool(self):
        node = InvokerNode(0, 512, warm_idle_ttl=600)
        action = make_action(memory=512)
        placement = node.try_place_cold(action, 0.0)
        node.discard(placement.container)
        assert node.try_place_warm(action, 1.0) is None

    def test_load_fraction(self):
        node = InvokerNode(0, 1024, warm_idle_ttl=600)
        assert node.load_fraction() == 0.0
        node.try_place_cold(make_action(memory=512), 0.0)
        assert node.load_fraction() == pytest.approx(0.5)

    def test_warm_pool_lifo_reuse(self):
        """The most recently used container is reused first (cache warmth)."""
        node = InvokerNode(0, 1024, warm_idle_ttl=600)
        action = make_action()
        a = node.try_place_cold(action, 0.0).container
        b = node.try_place_cold(action, 0.0).container
        node.release(a, 1.0)
        node.release(b, 2.0)
        reused = node.try_place_warm(action, 3.0)
        assert reused.container is b
