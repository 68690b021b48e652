"""Data discovery and partitioning (§4.3).

The user supplies either a list of COS object references or just bucket
names; in the latter case discovery lists each bucket (the paper's "HEAD
request over each bucket") to enumerate the dataset.  The partitioner then
cuts objects into chunks of a configurable size — or one partition per
object when no chunk size is given — and each partition is assigned to one
map function executor.

Dataset specs accepted (mirroring ``pywren-ibm-cloud``):

* ``"bucket"`` — whole bucket, discovery enabled;
* ``"bucket/key"`` or ``"bucket/prefix/"`` — one object / a key prefix;
* an iterable mixing the above.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional, Union

from repro.cos.client import COSClient, ObjectSummary

__all__ = ["StoragePartition", "discover_objects", "partition_objects", "build_partitions"]


@dataclass
class StoragePartition:
    """A byte range of one COS object, assigned to one map executor.

    Inside the cloud function the worker binds ``cos`` so the map function
    can stream its chunk with :meth:`read`.
    """

    bucket: str
    key: str
    range_start: int
    range_end: int
    object_size: int
    partition_index: int = 0
    partitions_of_object: int = 1
    cos: Optional[COSClient] = field(default=None, repr=False, compare=False)

    @property
    def size(self) -> int:
        return self.range_end - self.range_start

    #: how far past a range boundary we search for the next newline
    LINE_SCAN_WINDOW = 65_536

    def read(self, materialize_cap: Optional[int] = None) -> bytes:
        """Stream this partition's bytes (see COSClient.read_range)."""
        if self.cos is None:
            raise RuntimeError(
                "partition is not bound to a COS client (only the worker "
                "binds partitions)"
            )
        return self.cos.read_range(
            self.bucket,
            self.key,
            self.range_start,
            self.range_end,
            materialize_cap=materialize_cap,
        )

    def read_lines(self, materialize_cap: Optional[int] = None) -> bytes:
        """Read this partition with MapReduce input-split line semantics.

        Byte-range chunking cuts records in half at both ends.  Like
        Hadoop's ``TextInputFormat``, each split (a) skips bytes up to and
        including the first ``\\n`` when it does not start at offset 0 —
        that partial record belongs to the previous split — and (b) reads
        *past* its nominal end until the record that straddles the boundary
        is complete.  Every line of the object is therefore processed by
        exactly one partition, which is what makes per-comment counts in
        the §6.4 job exact rather than approximate.
        """
        if self.cos is None:
            raise RuntimeError(
                "partition is not bound to a COS client (only the worker "
                "binds partitions)"
            )
        data = self.read(materialize_cap=materialize_cap)
        start_skip = 0
        if self.range_start > 0:
            # a record belongs to the split containing its first byte: if
            # the byte before us is a newline, the record starting at our
            # first byte is ours; otherwise skip the partial record (it was
            # completed by the previous split's boundary scan)
            preceding = self.cos.read_range(
                self.bucket, self.key, self.range_start - 1, self.range_start
            )
            if preceding != b"\n":
                newline = data.find(b"\n")
                if newline < 0:
                    return b""  # the whole chunk is the middle of one record
                start_skip = newline + 1
        tail = b""
        if (
            self.range_end < self.object_size
            and (materialize_cap is None or len(data) == self.size)
            and not data.endswith(b"\n")
        ):
            # complete the record straddling our end boundary
            scan_from = self.range_end
            while scan_from < self.object_size:
                window = self.cos.read_range(
                    self.bucket,
                    self.key,
                    scan_from,
                    min(self.object_size, scan_from + self.LINE_SCAN_WINDOW),
                )
                newline = window.find(b"\n")
                if newline >= 0:
                    tail += window[: newline + 1]
                    break
                tail += window
                scan_from += len(window)
        return data[start_skip:] + tail

    def spec(self) -> dict:
        """Plain-dict form shipped in invocation params."""
        return {
            "bucket": self.bucket,
            "key": self.key,
            "range_start": self.range_start,
            "range_end": self.range_end,
            "object_size": self.object_size,
            "partition_index": self.partition_index,
            "partitions_of_object": self.partitions_of_object,
        }

    @staticmethod
    def from_spec(spec: dict, cos: Optional[COSClient] = None) -> "StoragePartition":
        return StoragePartition(
            bucket=spec["bucket"],
            key=spec["key"],
            range_start=spec["range_start"],
            range_end=spec["range_end"],
            object_size=spec["object_size"],
            partition_index=spec["partition_index"],
            partitions_of_object=spec["partitions_of_object"],
            cos=cos,
        )


DatasetSpec = Union[str, Iterable[str]]


def discover_objects(cos: COSClient, dataset: DatasetSpec) -> list[ObjectSummary]:
    """Resolve a dataset spec into concrete objects (the discovery step).

    A bare bucket name triggers automatic discovery over the whole bucket;
    ``bucket/key`` picks one object; ``bucket/prefix/`` everything under the
    prefix.  Order is deterministic (listing order; duplicates removed).
    """
    if isinstance(dataset, str):
        dataset = [dataset]
    seen: set[tuple[str, str]] = set()
    objects: list[ObjectSummary] = []

    def _add(summary: ObjectSummary) -> None:
        ident = (summary.bucket, summary.key)
        if ident not in seen:
            seen.add(ident)
            objects.append(summary)

    for entry in dataset:
        entry = entry.strip()
        if not entry:
            raise ValueError("empty dataset entry")
        if "/" not in entry:
            cos.head_bucket(entry)
            for summary in cos.list_objects(entry):
                _add(summary)
        else:
            bucket, _, rest = entry.partition("/")
            if rest.endswith("/") or rest == "":
                for summary in cos.list_objects(bucket, prefix=rest):
                    _add(summary)
            else:
                _add(cos.head_object(bucket, rest))
    return objects


def partition_objects(
    objects: Iterable[ObjectSummary], chunk_size: Optional[int]
) -> list[StoragePartition]:
    """Cut objects into partitions.

    ``chunk_size=None`` partitions "on the data object granularity" — one
    partition per object.  Otherwise every object is cut independently into
    ``ceil(size / chunk_size)`` chunks, which is why (as Table 3 notes) the
    number of executors does not double when the chunk size halves.
    """
    if chunk_size is not None and chunk_size <= 0:
        raise ValueError("chunk_size must be positive or None")
    partitions: list[StoragePartition] = []
    for obj in objects:
        if chunk_size is None or obj.size <= chunk_size:
            n_parts = 1
        else:
            n_parts = -(-obj.size // chunk_size)  # ceil division
        for i in range(n_parts):
            start = i * (chunk_size or obj.size)
            end = obj.size if chunk_size is None else min(obj.size, start + chunk_size)
            if start >= end and obj.size > 0:
                continue
            partitions.append(
                StoragePartition(
                    bucket=obj.bucket,
                    key=obj.key,
                    range_start=start,
                    range_end=end,
                    object_size=obj.size,
                    partition_index=i,
                    partitions_of_object=n_parts,
                )
            )
    return partitions


def build_partitions(
    cos: COSClient, dataset: DatasetSpec, chunk_size: Optional[int]
) -> list[StoragePartition]:
    """Discovery + partitioning in one call (what ``map_reduce`` uses)."""
    return partition_objects(discover_objects(cos, dataset), chunk_size)
