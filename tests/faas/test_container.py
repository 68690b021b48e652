"""Unit tests for container objects and their pool lifecycle."""

from __future__ import annotations

import itertools

import pytest

import repro as pw
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
        c = Container(
            "wsk-cont-000001", "guest/fn", "python-jessie:3", 256,
            created=1.0, invoker_id=0,
        )
        assert c.state == Container.BUSY
        assert c.created == 1.0
        assert c.activations_served == 0

    def test_ids_unique(self):
        """Nodes sharing one counter, as a platform's nodes do, number
        their containers uniquely."""
        ids = itertools.count(1)
        nodes = [InvokerNode(i, 1024, 600, ids) for i in range(2)]
        placed = [node.try_place_cold(make_action(), 0.0) for node in nodes * 2]
        assert [p.container.container_id for p in placed] == [
            "wsk-cont-000001", "wsk-cont-000002", "wsk-cont-000003",
            "wsk-cont-000004",
        ]


def _square(x):
    return x * x


class TestContainerIdsPerPlatform:
    """Container ids are numbered per platform, not per process: two
    same-seed environments built one after the other in one process commit
    identical status objects, container ids included."""

    @staticmethod
    def _statuses():
        env = pw.CloudEnvironment.create(seed=42)

        def main():
            executor = pw.ibm_cf_executor()
            futures = executor.map(_square, range(3))
            assert executor.get_result(futures) == [0, 1, 4]
            return [
                executor._storage.get_status(f.executor_id, f.callset_id, f.call_id)
                for f in futures
            ]

        return env.run(main)

    def test_same_seed_environments_commit_identical_statuses(self):
        first = self._statuses()
        second = self._statuses()
        assert first == second
        assert sorted(s["container_id"] for s in first) == [
            "wsk-cont-000001", "wsk-cont-000002", "wsk-cont-000003",
        ]


class TestLifecycle:
    def test_serve_count_increments_on_release(self):
        node = InvokerNode(0, 1024, 600, itertools.count(1))
        action = make_action()
        placement = node.try_place_cold(action, 0.0)
        node.release(placement.container, 1.0)
        reused = node.try_place_warm(action, 2.0)
        node.release(reused.container, 3.0)
        assert reused.container.activations_served == 2

    def test_discard_frees_memory_and_stops(self):
        node = InvokerNode(0, 512, 600, itertools.count(1))
        placement = node.try_place_cold(make_action(memory=512), 0.0)
        assert node.load_fraction() == 1.0
        node.discard(placement.container)
        assert node.load_fraction() == 0.0
        assert placement.container.state == Container.STOPPED

    def test_discarded_container_not_in_warm_pool(self):
        node = InvokerNode(0, 512, 600, itertools.count(1))
        action = make_action(memory=512)
        placement = node.try_place_cold(action, 0.0)
        node.discard(placement.container)
        assert node.try_place_warm(action, 1.0) is None

    def test_load_fraction(self):
        node = InvokerNode(0, 1024, 600, itertools.count(1))
        assert node.load_fraction() == 0.0
        node.try_place_cold(make_action(memory=512), 0.0)
        assert node.load_fraction() == pytest.approx(0.5)

    def test_warm_pool_lifo_reuse(self):
        """The most recently used container is reused first (cache warmth)."""
        node = InvokerNode(0, 1024, 600, itertools.count(1))
        action = make_action()
        a = node.try_place_cold(action, 0.0).container
        b = node.try_place_cold(action, 0.0).container
        node.release(a, 1.0)
        node.release(b, 2.0)
        reused = node.try_place_warm(action, 3.0)
        assert reused.container is b
