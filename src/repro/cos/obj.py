"""Stored objects: byte-backed or *virtual* (size-only with generated content).

Virtual objects let the reproduction host the paper's 1.9 GB dataset without
materialising it: the partitioner and HEAD requests see the true logical
size, while reads synthesize deterministic content for just the requested
range.
"""

from __future__ import annotations

import hashlib
from functools import cached_property
from typing import Callable, Optional

ContentFn = Callable[[int, int], bytes]


class StoredObject:
    """An immutable object in a bucket.

    Exactly one of ``data`` / (``size`` + ``content_fn``) is provided.
    """

    def __init__(
        self,
        key: str,
        data: Optional[bytes] = None,
        size: Optional[int] = None,
        content_fn: Optional[ContentFn] = None,
        metadata: Optional[dict[str, str]] = None,
        last_modified: float = 0.0,
    ) -> None:
        if data is not None:
            if size is not None or content_fn is not None:
                raise ValueError("pass either data or (size, content_fn), not both")
            self._data: Optional[bytes] = bytes(data)
            self.size = len(self._data)
            self._content_fn: Optional[ContentFn] = None
        else:
            if size is None or size < 0:
                raise ValueError("virtual objects require a non-negative size")
            self._data = None
            self.size = int(size)
            self._content_fn = content_fn
        self.key = key
        self.metadata = dict(metadata or {})
        self.last_modified = last_modified

    @property
    def is_virtual(self) -> bool:
        return self._data is None

    @cached_property
    def etag(self) -> str:
        """Content hash, computed on first read and kept: only HEAD and
        LIST ask for it, so a PUT does not pay to hash every byte."""
        content = (
            self._data
            if self._data is not None
            else f"virtual:{self.key}:{self.size}".encode()
        )
        return hashlib.md5(content).hexdigest()

    def read(self, start: int = 0, end: Optional[int] = None) -> bytes:
        """Read bytes ``[start, end)``; ``end=None`` means end of object."""
        if end is None:
            end = self.size
        if start < 0 or start > self.size or end < start:
            from repro.cos.errors import InvalidRange

            raise InvalidRange(
                f"range [{start}, {end}) invalid for object of size {self.size}"
            )
        end = min(end, self.size)
        if self._data is not None:
            return self._data[start:end]
        if self._content_fn is None:
            return b"\x00" * (end - start)
        chunk = self._content_fn(start, end)
        if len(chunk) != end - start:
            raise ValueError(
                f"content_fn returned {len(chunk)} bytes for range "
                f"[{start}, {end})"
            )
        return chunk
