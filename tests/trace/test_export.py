"""Exporter tests: JSONL round trip and Chrome trace_event shape."""

from __future__ import annotations

import json

from repro.trace import export
from repro.trace.events import point, span

SAMPLE = [
    span("worker.run", "worker", 1.0, 3.0, {"call_id": "00000"}, {"success": True}),
    point("client.invoke", "client", 0.25, {"call_id": "00000", "attempt": 1}, None),
    span("cos.put", "cos", 0.5, 0.9, {"call_id": "00000"}, {"bytes": 4096}),
    point("gateway.throttle", "gateway", 0.1, None, {"attempt": 1}),
]


class TestJsonl:
    def test_round_trip_is_exact(self):
        text = export.to_jsonl(SAMPLE)
        assert export.from_jsonl(text) == sorted(SAMPLE, key=lambda e: e.sort_key())

    def test_output_is_input_order_independent(self):
        assert export.to_jsonl(SAMPLE) == export.to_jsonl(list(reversed(SAMPLE)))

    def test_one_compact_object_per_line(self):
        lines = export.to_jsonl(SAMPLE).splitlines()
        assert len(lines) == len(SAMPLE)
        for line in lines:
            parsed = json.loads(line)
            assert ": " not in line  # compact separators
            assert list(parsed) == sorted(parsed)  # key-sorted

    def test_empty_stream(self):
        assert export.to_jsonl([]) == ""
        assert export.from_jsonl("") == []

    def test_blank_lines_ignored(self):
        text = export.to_jsonl(SAMPLE)
        assert export.from_jsonl("\n" + text + "\n\n") == export.from_jsonl(text)

    def test_point_omits_dur(self):
        (line,) = export.to_jsonl([SAMPLE[1]]).splitlines()
        assert "dur" not in json.loads(line)


class TestChromeTrace:
    def test_spans_become_complete_events(self):
        document = export.to_chrome_trace(SAMPLE)
        complete = [e for e in document["traceEvents"] if e.get("ph") == "X"]
        assert len(complete) == 2
        run = next(e for e in complete if e["name"] == "worker.run")
        assert run["ts"] == 1.0 * 1e6
        assert run["dur"] == 2.0 * 1e6
        assert run["args"]["call_id"] == "00000"
        assert run["args"]["success"] is True

    def test_points_become_instants(self):
        document = export.to_chrome_trace(SAMPLE)
        instants = [e for e in document["traceEvents"] if e.get("ph") == "i"]
        assert len(instants) == 2
        assert all(e["s"] == "t" for e in instants)

    def test_one_named_track_per_seen_layer(self):
        document = export.to_chrome_trace(SAMPLE)
        names = {
            e["args"]["name"]: e["tid"]
            for e in document["traceEvents"]
            if e.get("ph") == "M"
        }
        assert set(names) == {"worker", "client", "cos", "gateway"}
        assert len(set(names.values())) == 4  # distinct tids

    def test_write_chrome_trace_is_loadable_json(self, tmp_path):
        path = tmp_path / "trace.json"
        export.write_chrome_trace(SAMPLE, str(path))
        document = json.loads(path.read_text())
        assert document["displayTimeUnit"] == "ms"
        assert len(document["traceEvents"]) == len(SAMPLE) + 4
