"""Property tests for the partitioner (§4.3): chunking is a tiling.

For any generated mix of object sizes and chunk sizes, the byte ranges the
partitioner produces must be non-overlapping and gap-free, covering every
object exactly once — the invariant that makes both the per-partition map
mode and the ``reducer_one_per_object`` grouping exact rather than
approximate.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.partitioner import (
    StoragePartition,
    build_partitions,
    discover_objects,
    partition_objects,
)
from repro.cos.client import ObjectSummary


def _summaries(draw_sizes: list[int], bucket: str = "b") -> list[ObjectSummary]:
    return [
        ObjectSummary(
            bucket=bucket,
            key=f"obj-{i:04d}",
            size=size,
            etag=f"etag-{i}",
            last_modified=0.0,
        )
        for i, size in enumerate(draw_sizes)
    ]


def _group_by_object(
    partitions: list[StoragePartition],
) -> dict[tuple[str, str], list[StoragePartition]]:
    groups: dict[tuple[str, str], list[StoragePartition]] = {}
    for part in partitions:
        groups.setdefault((part.bucket, part.key), []).append(part)
    return groups


sizes = st.lists(st.integers(min_value=0, max_value=50_000), min_size=1, max_size=20)
chunks = st.one_of(st.none(), st.integers(min_value=1, max_value=8_192))


class TestPartitionTiling:
    @settings(max_examples=100, deadline=None)
    @given(object_sizes=sizes, chunk_size=chunks)
    def test_ranges_tile_each_object_exactly_once(self, object_sizes, chunk_size):
        """Partitions of each object are gap-free, non-overlapping, and
        cover [0, size) exactly — no byte mapped twice, none dropped."""
        objects = _summaries(object_sizes)
        groups = _group_by_object(partition_objects(objects, chunk_size))

        assert set(groups) == {(o.bucket, o.key) for o in objects}
        by_key = {(o.bucket, o.key): o for o in objects}
        for ident, parts in groups.items():
            obj = by_key[ident]
            parts = sorted(parts, key=lambda p: p.range_start)
            assert parts[0].range_start == 0
            assert parts[-1].range_end == obj.size
            for prev, nxt in zip(parts, parts[1:]):
                assert prev.range_end == nxt.range_start  # gap-free, disjoint
            for i, part in enumerate(parts):
                assert part.object_size == obj.size
                assert part.partition_index == i
                assert part.partitions_of_object == len(parts)

    @settings(max_examples=100, deadline=None)
    @given(
        object_sizes=sizes,
        chunk_size=st.integers(min_value=1, max_value=8_192),
    )
    def test_chunk_size_bounds_every_partition(self, object_sizes, chunk_size):
        """With an explicit chunk size, every partition is at most that
        large, and only an object's final partition may be smaller."""
        objects = _summaries(object_sizes)
        for parts in _group_by_object(
            partition_objects(objects, chunk_size)
        ).values():
            parts = sorted(parts, key=lambda p: p.range_start)
            for part in parts[:-1]:
                assert part.size == chunk_size
            assert parts[-1].size <= chunk_size

    @settings(max_examples=50, deadline=None)
    @given(object_sizes=sizes)
    def test_no_chunk_size_means_whole_objects(self, object_sizes):
        """chunk_size=None partitions on the data-object granularity."""
        objects = _summaries(object_sizes)
        partitions = partition_objects(objects, None)
        assert len(partitions) == len(objects)
        assert all(
            (p.range_start, p.range_end) == (0, p.object_size) for p in partitions
        )


class _StubCOS:
    """Just enough of the COSClient surface for discovery."""

    def __init__(self, objects: list[ObjectSummary]) -> None:
        self._objects = objects

    def head_bucket(self, bucket: str) -> None:
        pass

    def list_objects(self, bucket: str, prefix: str = ""):
        return [
            o
            for o in self._objects
            if o.bucket == bucket and o.key.startswith(prefix)
        ]

    def head_object(self, bucket: str, key: str) -> ObjectSummary:
        return next(
            o for o in self._objects if o.bucket == bucket and o.key == key
        )


class TestReducerGrouping:
    @settings(max_examples=50, deadline=None)
    @given(object_sizes=sizes, chunk_size=chunks, repeats=st.integers(1, 3))
    def test_one_reducer_group_per_object(self, object_sizes, chunk_size, repeats):
        """The ``reducer_one_per_object`` grouping (partitions keyed by
        object, the way map_reduce groups map futures) yields exactly one
        group per discovered object, whose ranges tile the object — and
        duplicate dataset entries do not double-cover anything."""
        objects = _summaries(object_sizes)
        cos = _StubCOS(objects)
        dataset = ["b"] * repeats + [f"b/{o.key}" for o in objects]

        discovered = discover_objects(cos, dataset)
        assert [(o.bucket, o.key) for o in discovered] == [
            (o.bucket, o.key) for o in objects
        ]

        partitions = build_partitions(cos, dataset, chunk_size)
        groups = _group_by_object(partitions)
        assert len(groups) == len(objects)
        for obj in objects:
            parts = sorted(
                groups[(obj.bucket, obj.key)], key=lambda p: p.range_start
            )
            covered = sum(p.size for p in parts)
            assert covered == obj.size  # exactly once: no overlap, no gap
            assert parts[0].range_start == 0
            assert parts[-1].range_end == obj.size
