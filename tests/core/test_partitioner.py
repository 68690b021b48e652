"""Unit + property tests for data discovery and partitioning (§4.3)."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cos import CloudObjectStorage, COSClient
from repro.cos.client import ObjectSummary
from repro.core.partitioner import (
    StoragePartition,
    build_partitions,
    discover_objects,
    partition_objects,
)
from repro.net import LatencyModel, NetworkLink


def make_cos(kernel, objects: dict[str, dict[str, int]]):
    """Build a store: {bucket: {key: size}} of virtual objects."""
    store = CloudObjectStorage(kernel)
    for bucket, keys in objects.items():
        store.create_bucket(bucket)
        for key, size in keys.items():
            store.put_virtual_object(bucket, key, size)
    link = NetworkLink(kernel, LatencyModel(rtt=0.0, jitter=0.0), seed=1)
    return COSClient(store, link)


def summaries(sizes: list[int]) -> list[ObjectSummary]:
    return [
        ObjectSummary("b", f"obj-{i:03d}", size, etag=f"e{i}", last_modified=0.0)
        for i, size in enumerate(sizes)
    ]


class TestDiscovery:
    def test_whole_bucket(self, kernel):
        def main():
            cos = make_cos(kernel, {"data": {"a": 10, "b": 20, "c": 5}})
            return [o.key for o in discover_objects(cos, "data")]

        assert kernel.run(main) == ["a", "b", "c"]

    def test_single_object(self, kernel):
        def main():
            cos = make_cos(kernel, {"data": {"a": 10, "b": 20}})
            return [(o.key, o.size) for o in discover_objects(cos, "data/b")]

        assert kernel.run(main) == [("b", 20)]

    def test_prefix(self, kernel):
        def main():
            cos = make_cos(
                kernel, {"data": {"x/1": 1, "x/2": 2, "y/3": 3}}
            )
            return [o.key for o in discover_objects(cos, "data/x/")]

        assert kernel.run(main) == ["x/1", "x/2"]

    def test_mixed_list_deduplicates(self, kernel):
        def main():
            cos = make_cos(kernel, {"data": {"a": 1, "b": 2}})
            objs = discover_objects(cos, ["data", "data/a"])
            return [o.key for o in objs]

        assert kernel.run(main) == ["a", "b"]

    def test_multiple_buckets(self, kernel):
        def main():
            cos = make_cos(kernel, {"b1": {"k": 5}, "b2": {"j": 6}})
            return [(o.bucket, o.key) for o in discover_objects(cos, ["b1", "b2"])]

        assert kernel.run(main) == [("b1", "k"), ("b2", "j")]

    def test_empty_entry_rejected(self, kernel):
        def main():
            cos = make_cos(kernel, {"b": {}})
            with pytest.raises(ValueError):
                discover_objects(cos, "")
            return True

        assert kernel.run(main)


class TestPartitioning:
    def test_per_object_when_no_chunk_size(self):
        parts = partition_objects(summaries([100, 200]), None)
        assert len(parts) == 2
        assert all((p.range_start, p.range_end) == (0, p.object_size) for p in parts)

    def test_chunking_splits_large_objects(self):
        parts = partition_objects(summaries([250]), 100)
        assert [(p.range_start, p.range_end) for p in parts] == [
            (0, 100),
            (100, 200),
            (200, 250),
        ]

    def test_small_object_single_partition(self):
        parts = partition_objects(summaries([50]), 100)
        assert len(parts) == 1
        assert (parts[0].range_start, parts[0].range_end) == (0, 50)

    def test_exact_multiple_has_no_empty_tail(self):
        parts = partition_objects(summaries([300]), 100)
        assert len(parts) == 3
        assert parts[-1].range_end == 300

    def test_empty_object_yields_one_empty_partition(self):
        parts = partition_objects(summaries([0]), 100)
        assert len(parts) == 1
        assert parts[0].size == 0

    def test_partition_indices(self):
        parts = partition_objects(summaries([250]), 100)
        assert [p.partition_index for p in parts] == [0, 1, 2]
        assert all(p.partitions_of_object == 3 for p in parts)

    def test_invalid_chunk_size(self):
        with pytest.raises(ValueError):
            partition_objects(summaries([10]), 0)
        with pytest.raises(ValueError):
            partition_objects(summaries([10]), -5)

    def test_nonlinear_concurrency_growth(self):
        """Table 3's note: halving the chunk does not double partitions,
        because partitioning happens per object."""
        sizes = [150, 90, 60]  # three 'cities'
        n_100 = len(partition_objects(summaries(sizes), 100))
        n_50 = len(partition_objects(summaries(sizes), 50))
        assert n_100 == 4  # 2 + 1 + 1
        assert n_50 == 7  # 3 + 2 + 2
        assert n_50 < 2 * n_100

    @settings(max_examples=100, deadline=None)
    @given(
        sizes=st.lists(st.integers(min_value=0, max_value=10_000), min_size=1, max_size=20),
        chunk=st.one_of(st.none(), st.integers(min_value=1, max_value=3_000)),
    )
    def test_coverage_invariants(self, sizes, chunk):
        """Partitions tile each object exactly: no gaps, no overlaps."""
        parts = partition_objects(summaries(sizes), chunk)
        by_key: dict[str, list[StoragePartition]] = {}
        for p in parts:
            by_key.setdefault(p.key, []).append(p)
        for i, size in enumerate(sizes):
            key = f"obj-{i:03d}"
            object_parts = sorted(by_key[key], key=lambda p: p.range_start)
            assert object_parts[0].range_start == 0
            assert object_parts[-1].range_end == size
            for a, b in zip(object_parts, object_parts[1:]):
                assert a.range_end == b.range_start  # contiguous
            if chunk is not None:
                assert all(p.size <= chunk for p in object_parts)
            assert sum(p.size for p in object_parts) == size


class TestStoragePartition:
    def test_spec_roundtrip(self):
        part = StoragePartition("b", "k", 10, 20, 100, 1, 5)
        restored = StoragePartition.from_spec(part.spec())
        assert restored == part

    def test_read_requires_cos(self):
        part = StoragePartition("b", "k", 0, 10, 10)
        with pytest.raises(RuntimeError, match="not bound"):
            part.read()

    def test_read_through_cos(self, kernel):
        def main():
            cos = make_cos(kernel, {"b": {}})
            cos.store.put_object("b", "k", b"0123456789")
            part = StoragePartition("b", "k", 2, 6, 10, cos=cos)
            return part.read()

        assert kernel.run(main) == b"2345"

    def test_build_partitions_end_to_end(self, kernel):
        def main():
            cos = make_cos(kernel, {"data": {"big": 250, "small": 30}})
            parts = build_partitions(cos, "data", 100)
            return sorted((p.key, p.range_start, p.range_end) for p in parts)

        assert kernel.run(main) == [
            ("big", 0, 100),
            ("big", 100, 200),
            ("big", 200, 250),
            ("small", 0, 30),
        ]
