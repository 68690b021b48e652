"""``CosExchange`` — the paper's direct object-storage exchange.

Every intermediate put/get is exactly one charged COS request on the
caller's link, no tier in front.  This is the default backend and the
regression baseline: with :class:`~repro.config.ExchangeConfig` unset a
same-seed run must export a trace byte-identical to the pre-backend code
(``tests/exchange/test_golden_regression.py``), so this class adds *no*
virtual-time charges, trace events or RNG draws — only pure counters.
"""

from __future__ import annotations

import threading
from typing import Any, Optional

from repro.exchange.base import ExchangeBackend, Site

__all__ = ["CosExchange"]


class CosExchange(ExchangeBackend):
    """Direct COS exchange (§3/Fig. 1): the base class path + counters."""

    name = "cos"

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters = {"puts": 0, "gets": 0, "bytes_put": 0, "bytes_got": 0}

    def put(
        self, cos: Any, bucket: str, key: str, blob: bytes,
        site: Optional[Site] = None,
    ) -> None:
        cos.link.kernel.drive(self.put_steps(cos, bucket, key, blob, site))

    def put_steps(
        self, cos: Any, bucket: str, key: str, blob: bytes,
        site: Optional[Site] = None,
    ):
        yield from cos.put_object_steps(bucket, key, blob)
        self._note("puts", "bytes_put", len(blob))

    def get(
        self, cos: Any, bucket: str, key: str, site: Optional[Site] = None
    ) -> bytes:
        return cos.link.kernel.drive(self.get_steps(cos, bucket, key, site))

    def get_steps(
        self, cos: Any, bucket: str, key: str, site: Optional[Site] = None
    ):
        blob = yield from cos.get_object_steps(bucket, key)
        self._note("gets", "bytes_got", len(blob))
        return blob

    def _note(self, op_counter: str, byte_counter: str, nbytes: int) -> None:
        with self._lock:
            self._counters[op_counter] += 1
            self._counters[byte_counter] += nbytes

    def stats(self) -> dict[str, Any]:
        with self._lock:
            stats: dict[str, Any] = dict(self._counters)
        # every read is a COS "miss" by construction: no tier exists
        stats["hits"] = 0
        stats["misses"] = stats["gets"]
        return stats

    def describe(self) -> dict[str, Any]:
        return {"backend": self.name, "nodes": [], **self.stats()}
