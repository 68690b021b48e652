"""Unit tests for the message broker and MQ client."""

from __future__ import annotations

import pytest

from repro.mq import MessageBroker, MQClient, QueueNotFound
from repro.net import LatencyModel, NetworkLink
from repro.vtime import QueueEmpty, gather


@pytest.fixture()
def broker(kernel) -> MessageBroker:
    return MessageBroker(kernel)


class TestBroker:
    def test_publish_consume_fifo(self, kernel, broker):
        def main():
            broker.declare_queue("q")
            broker.publish("q", {"n": 1})
            broker.publish("q", {"n": 2})
            return broker.consume("q"), broker.consume("q")

        assert kernel.run(main) == ({"n": 1}, {"n": 2})

    def test_declare_idempotent(self, broker):
        broker.declare_queue("q")
        broker.declare_queue("q")
        assert broker.depth("q") == 0

    def test_unknown_queue_raises(self, kernel, broker):
        def main():
            with pytest.raises(QueueNotFound):
                broker.publish("ghost", "x")
            with pytest.raises(QueueNotFound):
                broker.consume("ghost")
            return True

        assert kernel.run(main)

    def test_invalid_name(self, broker):
        with pytest.raises(ValueError):
            broker.declare_queue("")

    def test_consume_blocks_until_publish(self, kernel, broker):
        def main():
            broker.declare_queue("q")

            def producer():
                kernel.sleep(7)
                broker.publish("q", "late")

            kernel.spawn(producer)
            message = broker.consume("q")
            return message, kernel.now()

        assert kernel.run(main) == ("late", 7.0)

    def test_consume_timeout(self, kernel, broker):
        def main():
            broker.declare_queue("q")
            with pytest.raises(QueueEmpty):
                broker.consume("q", timeout=3)
            return kernel.now()

        assert kernel.run(main) == 3.0

    def test_depth_and_counters(self, kernel, broker):
        def main():
            broker.declare_queue("q")
            for i in range(5):
                broker.publish("q", i)
            broker.consume("q")
            return broker.depth("q"), broker.published, broker.consumed

        assert kernel.run(main) == (4, 5, 1)

    def test_delete_queue(self, kernel, broker):
        broker.declare_queue("q")
        broker.delete_queue("q")
        with pytest.raises(QueueNotFound):
            broker.depth("q")

    def test_many_producers_one_consumer(self, kernel, broker):
        def main():
            broker.declare_queue("q")

            def producer(i):
                kernel.sleep(i)
                broker.publish("q", i)

            tasks = [kernel.spawn(producer, i) for i in range(10)]
            received = sorted(broker.consume("q") for _ in range(10))
            gather(tasks)
            return received

        assert kernel.run(main) == list(range(10))


class TestMQClient:
    def test_publish_charges_link(self, kernel, broker):
        def main():
            link = NetworkLink(
                kernel, LatencyModel(rtt=0.5, jitter=0.0), seed=1
            )
            client = MQClient(broker, link)
            client.declare_queue("q")
            t0 = kernel.now()
            client.publish("q", "msg")
            return kernel.now() - t0

        assert kernel.run(main) >= 0.5

    def test_consume_delivery_latency_is_half_rtt(self, kernel, broker):
        def main():
            link = NetworkLink(kernel, LatencyModel(rtt=1.0, jitter=0.0), seed=2)
            client = MQClient(broker, link)
            client.declare_queue("q")
            broker.publish("q", "hello")
            client.subscribe("q")  # channel setup paid up front
            t0 = kernel.now()
            message = client.consume("q")
            return message, kernel.now() - t0

        message, elapsed = kernel.run(main)
        assert message == "hello"
        assert elapsed == pytest.approx(0.5)

    def test_subscribe_only_once(self, kernel, broker):
        def main():
            link = NetworkLink(kernel, LatencyModel(rtt=1.0, jitter=0.0), seed=3)
            client = MQClient(broker, link)
            client.declare_queue("q")
            client.subscribe("q")
            before = link.requests
            client.subscribe("q")
            return link.requests - before

        assert kernel.run(main) == 0
