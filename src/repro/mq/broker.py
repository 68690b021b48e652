"""The broker: named FIFO queues with virtual-time blocking consumption."""

from __future__ import annotations

import threading
from typing import Any, Optional

from repro.vtime import Kernel, VQueue


class QueueNotFound(Exception):
    """Publish/consume on a queue that was never declared."""


class MessageBroker:
    """A process-wide message broker (data plane, no latency).

    Latency accounting lives in :class:`repro.mq.client.MQClient`, mirroring
    the COS split: one broker, many endpoints with different network paths.
    """

    def __init__(self, kernel: Kernel) -> None:
        self.kernel = kernel
        self._queues: dict[str, VQueue] = {}
        self._lock = threading.Lock()
        self._published = 0
        self._consumed = 0

    def declare_queue(self, name: str) -> None:
        """Create a queue; idempotent, like AMQP queue.declare."""
        if not name:
            raise ValueError("queue name must be non-empty")
        with self._lock:
            if name not in self._queues:
                self._queues[name] = VQueue(self.kernel)

    def delete_queue(self, name: str) -> None:
        with self._lock:
            self._queues.pop(name, None)

    def _queue(self, name: str) -> VQueue:
        with self._lock:
            try:
                return self._queues[name]
            except KeyError:
                raise QueueNotFound(name) from None

    def publish(self, queue: str, message: Any) -> None:
        self._queue(queue).put(message)
        with self._lock:
            self._published += 1

    def consume(self, queue: str, timeout: Optional[float] = None) -> Any:
        """Blocking (virtual-time) consume; raises QueueEmpty on timeout."""
        return self.kernel.drive(self.consume_steps(queue, timeout))

    def consume_steps(self, queue: str, timeout: Optional[float] = None):
        message = yield from self._queue(queue).get_steps(timeout)
        with self._lock:
            self._consumed += 1
        return message

    def depth(self, queue: str) -> int:
        return len(self._queue(queue))

    @property
    def published(self) -> int:
        with self._lock:
            return self._published

    @property
    def consumed(self) -> int:
        with self._lock:
            return self._consumed
