"""Unit tests for the per-node byte-budgeted LRU cache.

The two invariants that matter for the determinism contract are pinned
here: recency is virtual time with a key tiebreak (so the victim choice
is a pure function of the simulated history), and the byte budget is a
hard ceiling (used_bytes never exceeds it, oversize objects are simply
not cached).
"""

from __future__ import annotations

import pytest

from repro.exchange.memory import NodeCache


class _Clock:
    """A hand-cranked stand-in for the kernel clock."""

    def __init__(self) -> None:
        self.t = 0.0

    def __call__(self) -> float:
        return self.t


@pytest.fixture()
def clock():
    return _Clock()


class TestEvictionOrder:
    def test_victim_is_least_recently_used(self, clock):
        cache = NodeCache(0, budget_bytes=30, clock=clock)
        for step, key in enumerate("abc"):
            clock.t = float(step)
            cache.put(key, b"x" * 10, "c-1")
        clock.t = 3.0
        assert cache.get("a") == b"x" * 10  # refresh "a"
        clock.t = 4.0
        evicted = cache.put("d", b"x" * 10, "c-1")
        assert evicted == [("b", 10)]
        assert cache.keys() == ["a", "c", "d"]

    def test_equal_recency_breaks_ties_by_key(self, clock):
        cache = NodeCache(0, budget_bytes=20, clock=clock)
        # both entries land at the same virtual instant: the victim must
        # be chosen by key, not by insertion or OS-thread order
        cache.put("zeta", b"x" * 10, None)
        cache.put("alpha", b"x" * 10, None)
        evicted = cache.put("mid", b"x" * 10, None)
        assert evicted == [("alpha", 10)]
        assert "zeta" in cache

    def test_get_refreshes_recency_but_peek_does_not(self, clock):
        cache = NodeCache(0, budget_bytes=20, clock=clock)
        cache.put("old", b"x" * 10, None)
        clock.t = 1.0
        cache.put("new", b"x" * 10, None)
        clock.t = 2.0
        assert cache.peek_size("old") == 10  # no recency touch
        evicted = cache.put("third", b"x" * 10, None)
        assert evicted == [("old", 10)]

    def test_reput_refreshes_existing_entry(self, clock):
        cache = NodeCache(0, budget_bytes=20, clock=clock)
        cache.put("a", b"x" * 10, None)
        clock.t = 1.0
        cache.put("b", b"x" * 10, None)
        clock.t = 2.0
        cache.put("a", b"y" * 10, None)  # refresh + replace blob
        evicted = cache.put("c", b"x" * 10, None)
        assert evicted == [("b", 10)]
        assert cache.get("a") == b"y" * 10

    def test_eviction_cascades_until_room(self, clock):
        cache = NodeCache(0, budget_bytes=30, clock=clock)
        for step, key in enumerate("abc"):
            clock.t = float(step)
            cache.put(key, b"x" * 10, None)
        evicted = cache.put("big", b"x" * 15, None)
        assert evicted == [("a", 10), ("b", 10)]
        assert cache.keys() == ["big", "c"]


class TestByteBudget:
    def test_used_bytes_never_exceeds_budget(self, clock):
        cache = NodeCache(0, budget_bytes=100, clock=clock)
        evicted = []
        for i in range(50):
            clock.t = float(i)
            evicted += cache.put(f"k{i:03d}", b"x" * (7 + i % 13), None)
            assert cache.used_bytes <= 100
        assert cache.used_bytes <= 100
        assert evicted

    def test_oversize_object_is_not_cached(self, clock):
        cache = NodeCache(0, budget_bytes=10, clock=clock)
        cache.put("small", b"x" * 5, None)
        evicted = cache.put("huge", b"x" * 11, None)
        # nothing is evicted to make room for an object that can never fit
        assert evicted == []
        assert "huge" not in cache
        assert "small" in cache

    def test_reput_reclaims_old_bytes_first(self, clock):
        cache = NodeCache(0, budget_bytes=10, clock=clock)
        cache.put("a", b"x" * 8, None)
        evicted = cache.put("a", b"y" * 10, None)  # fits once old "a" goes
        assert evicted == []
        assert cache.used_bytes == 10

    def test_zero_budget_stores_nothing(self, clock):
        cache = NodeCache(0, budget_bytes=0, clock=clock)
        assert cache.put("a", b"x", None) == []
        assert len(cache) == 0
        assert cache.get("a") is None

    def test_negative_budget_rejected(self):
        with pytest.raises(ValueError):
            NodeCache(0, budget_bytes=-1)


class TestContainerTagging:
    def test_drop_container_removes_only_its_entries(self, clock):
        cache = NodeCache(0, budget_bytes=100, clock=clock)
        cache.put("b", b"x" * 10, "c-1")
        cache.put("a", b"x" * 20, "c-1")
        cache.put("c", b"x" * 30, "c-2")
        dropped = cache.drop_container("c-1")
        assert dropped == [("a", 20), ("b", 10)]  # sorted keys
        assert cache.keys() == ["c"]
        assert cache.used_bytes == 30

    def test_drop_absent_key_returns_none(self, clock):
        cache = NodeCache(0, budget_bytes=100, clock=clock)
        assert cache.drop("nope") is None
        cache.put("a", b"x" * 4, None)
        assert cache.drop("a") == 4
        assert cache.used_bytes == 0
