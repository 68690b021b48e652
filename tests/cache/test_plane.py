"""Unit tests for the cached-cos backend's holder directory and node caches."""

from __future__ import annotations

import pytest

from repro.config import ExchangeConfig
from repro.exchange import CachedCosExchange
from repro.exchange.cached import (
    CACHE_HIT_LATENCY_S,
    CACHE_MEMORY_BANDWIDTH_BPS,
    CACHE_PEER_BANDWIDTH_BPS,
)


def make_plane(n_nodes=4, **overrides) -> CachedCosExchange:
    defaults = dict(backend="cached-cos", cache_node_budget_bytes=1024)
    defaults.update(overrides)
    return CachedCosExchange(ExchangeConfig(**defaults), n_nodes)


class TestDirectory:
    def test_publish_registers_exclusively(self):
        plane = make_plane()
        plane.publish("k", b"v1", 0, "c-0")
        plane.admit("k", b"v1", 1, "c-1")
        assert plane.holders("k") == [0, 1]
        # a fresh write supersedes every older copy
        plane.publish("k", b"v2", 2, "c-2")
        assert plane.holders("k") == [2]
        assert plane.nodes[0].get("k") is None
        assert plane.nodes[1].get("k") is None
        assert plane.nodes[2].get("k") == b"v2"
        assert plane.stats()["evictions"].get("invalidate", 0) == 2

    def test_locate_prunes_stale_entries(self):
        plane = make_plane()
        plane.publish("k", b"data", 0, "c-0")
        plane.admit("k", b"data", 1, "c-1")
        # entry vanishes from node 1's memory without telling the directory
        plane.nodes[1].drop("k")
        assert plane.locate("k") == [(0, 4)]
        assert plane.holders("k") == [0]  # the stale record was pruned

    def test_over_budget_publish_not_registered(self):
        plane = make_plane(cache_node_budget_bytes=4)
        plane.publish("k", b"toolarge", 0, "c-0")
        assert plane.holders("k") == []
        assert plane.nodes[0].get("k") is None


class TestPeerGet:
    def test_returns_lowest_live_holder_excluding_reader(self):
        plane = make_plane()
        plane.publish("k", b"v", 1, "c-1")
        plane.admit("k", b"v", 3, "c-3")
        blob, src = plane.peer_get("k", reader_node=3)
        assert (blob, src) == (b"v", 1)
        blob, src = plane.peer_get("k", reader_node=1)
        assert (blob, src) == (b"v", 3)

    def test_no_live_peer_returns_none(self):
        plane = make_plane()
        plane.publish("k", b"v", 2, "c-2")
        assert plane.peer_get("k", reader_node=2) is None
        assert plane.peer_get("absent", reader_node=0) is None


class TestInvalidation:
    def test_invalidate_drops_every_copy(self):
        plane = make_plane()
        plane.publish("k", b"v", 0, "c-0")
        plane.admit("k", b"v", 2, "c-2")
        plane.invalidate("k")
        assert plane.holders("k") == []
        assert plane.nodes[0].get("k") is None
        assert plane.nodes[2].get("k") is None

    def test_invalidate_prefix(self):
        plane = make_plane()
        plane.publish("job/a/part-0", b"v", 0, "c-0")
        plane.publish("job/a/part-1", b"v", 1, "c-1")
        plane.publish("job/b/part-0", b"v", 2, "c-2")
        plane.invalidate_prefix("job/a/")
        assert plane.holders("job/a/part-0") == []
        assert plane.holders("job/a/part-1") == []
        assert plane.holders("job/b/part-0") == [2]


class TestContainerReclaim:
    def test_reclaim_drops_entries_and_counts_reason(self):
        plane = make_plane()
        plane.publish("k1", b"x" * 10, 0, "c-dead")
        plane.publish("k2", b"x" * 20, 0, "c-dead")
        plane.publish("k3", b"x" * 30, 0, "c-alive")
        dropped = plane.reclaim_container(0, "c-dead", "crash")
        assert dropped == 30
        assert plane.holders("k1") == []
        assert plane.holders("k2") == []
        assert plane.holders("k3") == [0]
        assert plane.stats()["evictions"] == {"crash": 2}

    def test_reader_falls_back_after_crash(self):
        plane = make_plane()
        plane.publish("k", b"v", 1, "c-dead")
        plane.reclaim_container(1, "c-dead", "crash")
        # every lookup path comes up empty: the reader goes to COS
        assert plane.nodes[1].get("k") is None
        assert plane.peer_get("k", reader_node=0) is None
        assert plane.locate("k") == []


class TestCostModelAndStats:
    def test_delay_formulas(self):
        plane = make_plane()
        assert plane.hit_delay(2**20) == pytest.approx(200e-6 + 2**-11)
        assert plane.hit_delay(100) == (
            CACHE_HIT_LATENCY_S + 100 / CACHE_MEMORY_BANDWIDTH_BPS
        )
        assert plane.peer_transfer_delay(2**20) == pytest.approx(2**-10)
        assert plane.peer_transfer_delay(100) == 100 / CACHE_PEER_BANDWIDTH_BPS

    def test_note_read_aggregates_by_source(self):
        plane = make_plane()
        plane.note_read("local", 10, 0.1)
        plane.note_read("peer", 20, 0.2)
        plane.note_read("cos", 30, 0.3)
        plane.note_read("cos", 40, 0.4)
        plane.note_peer_failure()
        stats = plane.stats()
        assert stats["local_hits"] == 1
        assert stats["peer_hits"] == 1
        assert stats["cos_misses"] == 2
        assert stats["peer_failures"] == 1
        assert stats["bytes_from_memory"] == 10
        assert stats["bytes_from_peers"] == 20
        assert stats["bytes_from_cos"] == 70
        assert stats["intermediate_reads"] == 4
        assert stats["read_seconds_total"] == pytest.approx(1.0)

    def test_resident_bytes_and_lru_eviction_deregisters(self):
        plane = make_plane(cache_node_budget_bytes=10)
        plane.publish("a", b"x" * 10, 0, "c-0")
        assert plane.stats()["resident_bytes"] == 10
        plane.publish("b", b"y" * 10, 0, "c-0")  # LRU-evicts "a"
        assert plane.holders("a") == []
        assert plane.holders("b") == [0]
        assert plane.stats()["evictions"].get("lru", 0) == 1
        assert plane.stats()["resident_bytes"] == 10
