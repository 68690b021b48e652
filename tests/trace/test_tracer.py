"""Unit tests for the Tracer: disabled guards, binding, ordering, listeners."""

from __future__ import annotations

import gc
import sys
import threading

from repro.trace import Tracer
from repro.trace import events as trace_events
from repro.trace.events import KIND_POINT, KIND_SPAN, TraceEvent, point, span
from repro.vtime.kernel import vsleep


class TestDisabled:
    def test_emission_is_a_no_op(self, kernel):
        tracer = Tracer(kernel, enabled=False)
        tracer.point("client.invoke", "client", t=1.0)
        tracer.span_at("worker.run", "worker", 0.0, 2.0)
        with tracer.span("cos.get", "cos"):
            pass
        assert len(tracer) == 0
        assert tracer.events() == []

    def test_bind_is_a_no_op(self, kernel):
        tracer = Tracer(kernel, enabled=False)
        with tracer.bind(executor_id="exec-1"):
            enabled = Tracer(kernel, enabled=True)
            enabled.point("client.invoke", "client", t=0.0)
        assert enabled.events()[0].ids == ()

    def test_default_is_disabled(self, kernel):
        assert Tracer(kernel).enabled is False


class TestEmission:
    def test_point_records_time_and_payload(self, kernel):
        tracer = Tracer(kernel, enabled=True)
        tracer.point("gateway.throttle", "gateway", t=3.5, attempt=2)
        (event,) = tracer.events()
        assert event.kind == KIND_POINT
        assert (event.t, event.name, event.layer) == (3.5, "gateway.throttle", "gateway")
        assert event.get_attr("attempt") == 2
        assert event.end == 3.5  # points have zero extent

    def test_span_at_records_duration(self, kernel):
        tracer = Tracer(kernel, enabled=True)
        tracer.span_at("worker.run", "worker", 2.0, 5.5, success=True)
        (event,) = tracer.events()
        assert event.kind == KIND_SPAN
        assert event.t == 2.0
        assert event.dur == 3.5
        assert event.end == 5.5

    def test_span_context_measures_kernel_clock(self, kernel):
        tracer = Tracer(kernel, enabled=True)
        with tracer.span("net.request", "net", bytes=128):
            pass  # bare kernel: clock stays at 0.0 outside run()
        (event,) = tracer.events()
        assert event.kind == KIND_SPAN
        assert event.t == kernel.now()
        assert event.dur == 0.0
        assert event.get_attr("bytes") == 128

    def test_point_defaults_to_kernel_now(self, kernel):
        tracer = Tracer(kernel, enabled=True)
        tracer.point("chaos.cos", "chaos")
        assert tracer.events()[0].t == kernel.now()


class TestBinding:
    def test_bound_ids_stamp_events(self, kernel):
        tracer = Tracer(kernel, enabled=True)
        with tracer.bind(executor_id="exec-1", callset_id="M000"):
            tracer.point("cos.put", "cos", t=0.0)
        tracer.point("cos.put", "cos", t=0.0)  # outside: no ambient ids
        stamped, bare = tracer.raw_events()
        assert stamped.id_dict() == {"executor_id": "exec-1", "callset_id": "M000"}
        assert bare.ids == ()

    def test_nested_bind_merges_and_restores(self, kernel):
        tracer = Tracer(kernel, enabled=True)
        with tracer.bind(executor_id="exec-1"):
            with tracer.bind(call_id="00007"):
                tracer.point("worker.run", "worker", t=0.0)
            tracer.point("client.invoke", "client", t=0.0)
        inner, outer = tracer.raw_events()
        assert inner.id_dict() == {"executor_id": "exec-1", "call_id": "00007"}
        assert outer.id_dict() == {"executor_id": "exec-1"}

    def test_explicit_ids_override_ambient(self, kernel):
        tracer = Tracer(kernel, enabled=True)
        with tracer.bind(executor_id="exec-1", attempt=1):
            tracer.point("client.invoke", "client", t=0.0, ids={"attempt": 3})
        (event,) = tracer.events()
        assert event.get_id("attempt") == 3
        assert event.get_id("executor_id") == "exec-1"


    def test_bind_across_a_yield_follows_its_task_only(self, kernel):
        """Ambient ids dicts are shared, never copied: a bind held across a
        yield must stay with its model task, and later binds must not reach
        back into events already stamped."""
        tracer = Tracer(kernel, enabled=True)

        def holder():
            with tracer.bind(call_id="00001"):
                tracer.point("worker.run", "worker", attempt=1)
                yield vsleep(2.0)  # the sibling runs while this is held
                with tracer.bind(attempt=2):
                    tracer.point("worker.run", "worker", attempt=2)
            tracer.point("worker.done", "worker")

        def sibling():
            yield vsleep(1.0)
            tracer.point("cos.get", "cos")

        def late():
            tracer.point("net.request", "net")
            yield vsleep(0.0)

        def main():
            with tracer.bind(executor_id="exec-1"):
                tasks = [kernel.spawn_model(holder), kernel.spawn_model(sibling)]
            for task in tasks:
                task.join()
            # spawned unbound, stepped by the loop thread that ran holder
            kernel.spawn_model(late).join()
            tracer.point("client.done", "client")

        kernel.run(main)
        by_key = {
            (e.name, e.get_attr("attempt")): e.id_dict() for e in tracer.events()
        }
        assert by_key == {
            ("worker.run", 1): {"executor_id": "exec-1", "call_id": "00001"},
            ("cos.get", None): {"executor_id": "exec-1"},
            ("worker.run", 2): {
                "executor_id": "exec-1", "call_id": "00001", "attempt": 2,
            },
            ("worker.done", None): {"executor_id": "exec-1"},
            ("net.request", None): {},
            ("client.done", None): {},
        }

    def test_explicit_ids_mapping_is_copied(self, kernel):
        tracer = Tracer(kernel, enabled=True)
        ids = {"call_id": "00001"}
        tracer.point("client.invoke", "client", t=0.0, ids=ids)
        ids["call_id"] = "mutated"
        assert tracer.events()[0].get_id("call_id") == "00001"


class TestSubscribers:
    def test_listener_sees_live_events_until_unsubscribed(self, kernel):
        tracer = Tracer(kernel, enabled=True)
        seen: list[TraceEvent] = []
        unsubscribe = tracer.subscribe(seen.append)
        tracer.point("client.progress", "client", t=1.0, done=3)
        unsubscribe()
        tracer.point("client.progress", "client", t=2.0, done=4)
        assert [e.get_attr("done") for e in seen] == [3]
        assert len(tracer) == 2  # collection is unaffected by listeners

    def test_names_limit_what_a_listener_sees(self, kernel):
        tracer = Tracer(kernel, enabled=True)
        seen: list[TraceEvent] = []
        tracer.subscribe(seen.append, names=("client.progress",))
        with tracer.bind(executor_id="exec-1"):
            tracer.point("cos.put", "cos", t=1.0, bytes=7)
            tracer.point("client.progress", "client", t=2.0, done=1)
        assert seen == [
            point("client.progress", "client", 2.0,
                  {"executor_id": "exec-1"}, {"done": 1})
        ]
        assert seen == [e for e in tracer.events() if e.layer == "client"]

    def test_unsubscribe_is_idempotent(self, kernel):
        tracer = Tracer(kernel, enabled=True)
        unsubscribe = tracer.subscribe(lambda e: None)
        unsubscribe()
        unsubscribe()


class TestOrdering:
    def test_events_sort_is_interleaving_independent(self, kernel):
        ids0, ids1 = {"call_id": "00000"}, {"call_id": "00001"}
        a = point("client.invoke", "client", 1.0, ids0, None)
        b = span("worker.run", "worker", 1.0, 2.0, ids0, None)
        c = point("client.invoke", "client", 0.5, ids1, None)
        emit = {
            "a": lambda t: t.point("client.invoke", "client", t=1.0, ids=ids0),
            "b": lambda t: t.span_at("worker.run", "worker", 1.0, 2.0, ids=ids0),
            "c": lambda t: t.point("client.invoke", "client", t=0.5, ids=ids1),
        }
        for order in ("abc", "cba", "bac"):
            tracer = Tracer(kernel, enabled=True)
            for which in order:
                emit[which](tracer)
            assert tracer.events() == [c, a, b]

    def test_content_ties_are_broken_by_ids_then_attrs(self, kernel):
        tracer = Tracer(kernel, enabled=True)
        tracer.point("cos.put", "cos", t=1.0, ids={"call_id": "00002"}, bytes=1)
        tracer.point("cos.put", "cos", t=1.0, ids={"call_id": "00001"}, bytes=9)
        tracer.point("cos.put", "cos", t=1.0, ids={"call_id": "00001"}, bytes=10)
        tracer.point("cos.put", "cos", t=0.0)
        ordered = tracer.events()
        assert ordered == sorted(tracer.raw_events(), key=TraceEvent.sort_key)
        # by repr, like the full key: "('bytes', 10)" < "('bytes', 9)"
        assert [e.get_attr("bytes") for e in ordered] == [None, 10, 9, 1]

    def test_sorted_snapshot_is_reused_until_the_next_emission(
        self, kernel, monkeypatch
    ):
        sorts = []
        real = trace_events.sort_events
        monkeypatch.setattr(
            trace_events, "sort_events",
            lambda events: sorts.append(1) or real(events),
        )
        tracer = Tracer(kernel, enabled=True)
        for i in range(50):
            tracer.point("cos.put", "cos", t=float(50 - i), bytes=i)
        first = tracer.events()
        assert tracer.events() == first and len(sorts) == 1
        first.clear()  # the caller's list is a copy of the snapshot
        tracer.point("cos.put", "cos", t=0.5)
        assert tracer.raw_events()[-1].t == 0.5  # folding is not sorting
        assert [e.t for e in tracer.events()][:2] == [0.5, 1.0]
        assert len(sorts) == 2 and len(tracer) == 51

    def test_clear(self, kernel):
        tracer = Tracer(kernel, enabled=True)
        tracer.point("net.request", "net", t=0.0)
        tracer.clear()
        assert len(tracer) == 0


class TestEmissionCost:
    """The design properties that make the spine cheap enough to leave on
    (deterministic: no timing)."""

    def test_emission_leaves_nothing_for_the_collector(self, kernel):
        """Every GC-allocated object kept raises generation 0's count for
        good, tracked or not, and buys extra full collections over the
        heap of in-flight activations: emission keeps none."""
        for ids in (None, {"call_id": "00007"}):
            tracer = Tracer(kernel, enabled=True)
            gc.collect()
            gc.disable()
            try:
                with tracer.bind(executor_id="exec-1", callset_id="M000"):
                    before = gc.get_count()[0], len(gc.get_objects())
                    for i in range(5_000):
                        tracer.point(
                            "client.invoke", "client", ids=ids, attempt=1, size=i
                        )
                        tracer.span_at(
                            "cos.put", "cos", float(i), i + 0.5, ids=ids,
                            key=f"jobs/{i}", bytes=i, ok=True,
                        )
                    counted = gc.get_count()[0] - before[0]
                    grown = len(gc.get_objects()) - before[1]
            finally:
                gc.enable()
            assert len(tracer) == 10_000
            assert grown < 100  # the eager TraceEvent left >= 9 per event
            # kept kwargs dicts (and merged ids dicts) counted >= 1 per event
            assert counted < 100, (ids, counted)

    def test_real_threads_lose_and_tear_nothing(self, kernel):
        threads, per_thread = 8, 5_000

        def emit(tracer: Tracer, worker: int) -> None:
            with tracer.bind(worker=worker):
                for i in range(per_thread):
                    if i % 2:
                        tracer.point("client.invoke", "client", t=float(i), seq=i)
                    else:
                        tracer.span_at(
                            "cos.put", "cos", float(i), i + 1.0, seq=i
                        )

        shared, alone = Tracer(kernel, enabled=True), Tracer(kernel, enabled=True)
        workers = [
            threading.Thread(target=emit, args=(shared, w)) for w in range(threads)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in workers:
                thread.start()
            for thread in workers:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in workers)
        for w in range(threads):
            emit(alone, w)
        assert len(shared) == threads * per_thread
        assert shared.events() == alone.events()
