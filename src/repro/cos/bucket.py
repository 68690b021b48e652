"""Buckets: flat namespaces of objects with prefix listing."""

from __future__ import annotations

from bisect import bisect_left
from typing import Optional

from repro.cos.errors import NoSuchKey
from repro.cos.obj import StoredObject


class Bucket:
    """A named collection of :class:`StoredObject`.

    Not thread-safe on its own; :class:`~repro.cos.object_store
    .CloudObjectStorage` serializes access.
    """

    def __init__(self, name: str) -> None:
        self.name = name
        self._objects: dict[str, StoredObject] = {}
        #: LIST index: every key in listing order, minus ``_unsorted`` —
        #: the keys PUT since the last LIST, folded in by the next one so
        #: a PUT stays O(1).  ``None`` after a delete: rebuild from scratch.
        self._sorted: Optional[list[str]] = []
        self._unsorted: list[str] = []

    def __len__(self) -> int:
        return len(self._objects)

    def put(self, obj: StoredObject) -> None:
        if obj.key not in self._objects:
            self._unsorted.append(obj.key)
        self._objects[obj.key] = obj

    def get(self, key: str) -> StoredObject:
        try:
            return self._objects[key]
        except KeyError:
            raise NoSuchKey(f"{self.name}/{key}") from None

    def delete(self, key: str) -> None:
        if key not in self._objects:
            raise NoSuchKey(f"{self.name}/{key}")
        del self._objects[key]
        self._sorted = None

    def contains(self, key: str) -> bool:
        return key in self._objects

    def list_keys(self, prefix: str = "") -> list[str]:
        """All keys under ``prefix``, sorted (S3-style listing order)."""
        keys = self._sorted
        if keys is None:
            keys = self._sorted = sorted(self._objects)
        elif self._unsorted:
            keys.extend(self._unsorted)
            keys.sort()  # a sorted run plus a short tail: near-linear
        self._unsorted.clear()
        # keys under a prefix are contiguous in sorted order
        start = end = bisect_left(keys, prefix)
        while end < len(keys) and keys[end].startswith(prefix):
            end += 1
        return keys[start:end]

    def list_objects(self, prefix: str = "") -> list[StoredObject]:
        return [self._objects[k] for k in self.list_keys(prefix)]

    def total_size(self, prefix: str = "") -> int:
        return sum(o.size for o in self.list_objects(prefix))
