"""Latency-charging MQ client (one per endpoint, like COSClient)."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional

from repro.mq.broker import MessageBroker
from repro.net.link import NetworkLink
from repro.vtime import vsleep

#: approximate wire size of a status message
STATUS_MESSAGE_BYTES = 512


@dataclass(frozen=True)
class _Envelope:
    """Broker-side wrapper carrying the publish timestamp.

    Deliveries are pipelined: a message published at ``sent_at`` reaches a
    subscriber at ``sent_at + rtt/2`` regardless of how many other messages
    are in flight, like frames on an open AMQP channel.
    """

    sent_at: float
    payload: Any


class MQClient:
    """Publish/consume with the endpoint's network cost applied.

    Consumption models an open AMQP channel: the subscriber pays one RTT to
    set up (`subscribe`), then deliveries arrive with half-RTT transport
    delay, not a full request-response per message — this is precisely the
    latency advantage push monitoring has over COS polling.
    """

    def __init__(self, broker: MessageBroker, link: NetworkLink) -> None:
        self.broker = broker
        self.link = link
        self._subscribed: set[str] = set()

    def declare_queue(self, name: str) -> None:
        self.link.request_with_retries(0)
        self.broker.declare_queue(name)

    def publish(self, queue: str, message: Any) -> None:
        self.link.kernel.drive(self.publish_steps(queue, message))

    def publish_steps(self, queue: str, message: Any):
        yield from self.link.request_with_retries_steps(STATUS_MESSAGE_BYTES)
        self.broker.publish(
            queue, _Envelope(self.link.kernel.now(), message)
        )

    def subscribe(self, queue: str) -> None:
        self.link.kernel.drive(self.subscribe_steps(queue))

    def subscribe_steps(self, queue: str):
        """Open the channel (one round trip, then deliveries are pushed)."""
        if queue not in self._subscribed:
            yield from self.link.request_with_retries_steps(0)
            self._subscribed.add(queue)

    def consume(self, queue: str, timeout: Optional[float] = None) -> Any:
        return self.link.kernel.drive(self.consume_steps(queue, timeout))

    def consume_steps(self, queue: str, timeout: Optional[float] = None):
        """Receive one message; blocks in virtual time until delivery.

        Pays the *remaining* delivery delay of the message (publish time +
        half an RTT), so back-to-back deliveries do not serialize.
        """
        yield from self.subscribe_steps(queue)
        message = yield from self.broker.consume_steps(queue, timeout)
        if isinstance(message, _Envelope):
            arrival = message.sent_at + self.link.latency.rtt / 2.0
            delay = arrival - self.link.kernel.now()
            if delay > 0:
                yield vsleep(delay)
            return message.payload
        # a raw broker-level message: charge a fresh half-RTT delivery
        yield vsleep(self.link.latency.rtt / 2.0)
        return message
