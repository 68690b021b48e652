"""Windowed micro-batch streaming: assignment, watermarks, late policy,
and partial reuse across overlapping windows."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro as pw
from repro.workloads.streaming import StreamBatch, StreamSource, windows_for


class TestWindowAssignment:
    # quarter-multiples keep every product/sum exactly representable, so
    # the containment check is pure arithmetic, not float-rounding luck
    @settings(max_examples=200, deadline=None)
    @given(
        t=st.integers(min_value=0, max_value=40_000).map(lambda n: n / 4),
        window=st.integers(min_value=1, max_value=2_000).map(lambda n: n / 4),
        slide=st.integers(min_value=1, max_value=2_000).map(lambda n: n / 4),
    )
    def test_event_in_window_iff_index_reported(self, t, window, slide):
        """``windows_for`` is exactly the set of windows containing ``t``."""
        ks = windows_for(t, window, slide)
        assert ks == sorted(set(ks))
        for k in ks:
            assert k * slide <= t < k * slide + window
        if ks:
            # neighbours just outside the reported range do not contain t
            lo, hi = ks[0] - 1, ks[-1] + 1
            if lo >= 0:
                assert not (lo * slide <= t < lo * slide + window)
            assert not (hi * slide <= t < hi * slide + window)
        else:
            # slide > window leaves gaps; t must sit in one of them
            k0 = int(t // slide)
            for k in range(max(0, k0 - 2), k0 + 3):
                assert not (k * slide <= t < k * slide + window)

    def test_tumbling_windows_partition_time(self):
        for t in [0.0, 9.99, 10.0, 25.0, 99.9]:
            assert len(windows_for(t, 10.0, 10.0)) == 1

    def test_overlap_count(self):
        # window 40 sliding 10: interior instants belong to 4 windows
        assert windows_for(100.0, 40.0, 10.0) == [7, 8, 9, 10]
        assert windows_for(5.0, 40.0, 10.0) == [0]

    def test_rejects_negative_time(self):
        with pytest.raises(ValueError):
            windows_for(-1.0, 10.0, 10.0)


class TestStreamSource:
    def test_synthetic_is_deterministic_and_ordered(self):
        a = StreamSource.synthetic(10, 5.0, jitter_s=2.0, seed=3)
        b = StreamSource.synthetic(10, 5.0, jitter_s=2.0, seed=3)
        assert [x.key for x in a.batches] == [x.key for x in b.batches]
        assert [x.arrival_s for x in a.batches] == [x.arrival_s for x in b.batches]
        assert [x.payload for x in a.batches] == [x.payload for x in b.batches]
        arrivals = [x.arrival_s for x in a.batches]
        assert arrivals == sorted(arrivals)

    def test_duplicate_keys_rejected(self):
        with pytest.raises(ValueError):
            StreamSource(
                "s",
                [
                    StreamBatch(0.0, "k", 0.0, 1),
                    StreamBatch(1.0, "k", 1.0, 2),
                ],
            )


def run_stream(source, *, window_s, slide_s=None, late_policy="drop",
               allowed_lateness_s=0.0, reuse=True, exchange=None):
    env = pw.CloudEnvironment.create(
        **({"exchange": exchange} if exchange else {})
    )

    def main():
        executor = pw.ibm_cf_executor()
        return pw.windowed_map_reduce(
            executor,
            source,
            _collect_events,
            _concat,
            window_s=window_s,
            slide_s=slide_s,
            late_policy=late_policy,
            allowed_lateness_s=allowed_lateness_s,
            reuse_partials=reuse,
        )

    return env, env.run(main)


def _collect_events(payload):
    return [payload]


def _concat(parts):
    out = []
    for p in parts:
        out.extend(p)
    return sorted(out, key=lambda e: e["i"])


def make_source(times, bucket="stream", late=()):
    """Events arrive in event-time order except the ``late`` indices,
    whose arrival is pushed far past the end of the stream's sequence."""
    batches = []
    horizon = max(times) + 1.0
    for i, t in enumerate(times):
        arrival = horizon + i if i in late else t
        batches.append(
            StreamBatch(arrival, f"events/{i:04d}", t, {"i": i, "t": t})
        )
    return StreamSource(bucket, batches)


class TestWindowedMapReduce:
    def test_no_event_counted_in_wrong_window(self):
        times = [0.0, 5.0, 12.0, 19.0, 22.0, 30.0, 41.0]
        env, windows = run_stream(
            make_source(times), window_s=20.0, slide_s=10.0
        )
        seen = set()
        for w in windows:
            for event in w.value:
                assert w.start_s <= event["t"] < w.end_s, (
                    f"event at t={event['t']} landed in window "
                    f"[{w.start_s}, {w.end_s})"
                )
                seen.add((w.index, event["i"]))
        # every event appears in *every* window covering it, exactly once
        expected = {
            (k, i)
            for i, t in enumerate(times)
            for k in windows_for(t, 20.0, 10.0)
        }
        assert seen == expected

    def test_tumbling_counts_each_event_once(self):
        times = [float(i) for i in range(17)]
        env, windows = run_stream(make_source(times), window_s=5.0)
        counted = [e["i"] for w in windows for e in w.value]
        assert sorted(counted) == list(range(17))

    def test_late_drop_records_and_excludes(self):
        times = [0.0, 5.0, 12.0, 3.0, 25.0]
        env, windows = run_stream(
            make_source(times, late={3}), window_s=10.0, late_policy="drop"
        )
        w0 = windows[0]
        assert w0.late_dropped == ("events/0003",)
        assert [e["i"] for e in w0.value] == [0, 1]
        assert w0.revision == 0

    def test_late_refire_revises_window(self):
        times = [0.0, 5.0, 12.0, 3.0, 25.0]
        env, windows = run_stream(
            make_source(times, late={3}), window_s=10.0, late_policy="refire"
        )
        w0 = windows[0]
        assert w0.late_dropped == ()
        assert sorted(e["i"] for e in w0.value) == [0, 1, 3]
        assert w0.revision == 1
        # the refired window reused both original partials
        assert w0.reused_partials == 2

    def test_allowed_lateness_holds_windows_open(self):
        # event 3 (t=3) arrives after t=12 was seen; with 10s of allowed
        # lateness the watermark is only at 2, window [0,10) has not fired,
        # so the straggler is not late at all
        batches = [
            StreamBatch(0.0, "events/0000", 0.0, {"i": 0, "t": 0.0}),
            StreamBatch(5.0, "events/0001", 5.0, {"i": 1, "t": 5.0}),
            StreamBatch(12.0, "events/0002", 12.0, {"i": 2, "t": 12.0}),
            StreamBatch(13.0, "events/0003", 3.0, {"i": 3, "t": 3.0}),
            StreamBatch(25.0, "events/0004", 25.0, {"i": 4, "t": 25.0}),
        ]
        env, windows = run_stream(
            StreamSource("stream", batches),
            window_s=10.0,
            allowed_lateness_s=10.0,
            late_policy="drop",
        )
        w0 = windows[0]
        assert w0.late_dropped == ()
        assert sorted(e["i"] for e in w0.value) == [0, 1, 3]

    def test_overlapping_windows_reuse_partials(self):
        times = [float(i * 5) for i in range(10)]
        env, windows = run_stream(
            make_source(times), window_s=20.0, slide_s=10.0,
            exchange="cached-cos",
        )
        assert sum(w.reused_partials for w in windows) > 0
        # interior windows reuse every partial the previous window mapped
        interior = [w for w in windows if 0 < w.index < windows[-1].index]
        assert all(w.reused_partials >= 2 for w in interior)
        stats = env.exchange.stats()
        assert stats["local_hits"] + stats["peer_hits"] > 0

    def test_reuse_disabled_recomputes(self):
        times = [float(i * 5) for i in range(8)]
        env, windows = run_stream(
            make_source(times), window_s=20.0, slide_s=10.0, reuse=False
        )
        assert all(w.reused_partials == 0 for w in windows)
        # answers are unchanged
        for w in windows:
            for event in w.value:
                assert w.start_s <= event["t"] < w.end_s

    def test_rejects_bad_parameters(self):
        env = pw.CloudEnvironment.create()

        def main():
            executor = pw.ibm_cf_executor()
            source = make_source([0.0])
            with pytest.raises(ValueError):
                pw.windowed_map_reduce(
                    executor, source, _collect_events, _concat,
                    window_s=10.0, late_policy="ignore",
                )
            with pytest.raises(ValueError):
                pw.windowed_map_reduce(
                    executor, source, _collect_events, _concat, window_s=0.0
                )
            with pytest.raises(ValueError):
                pw.windowed_map_reduce(
                    executor, source, _collect_events, _concat,
                    window_s=10.0, slide_s=-1.0,
                )
            return True

        assert env.run(main)
