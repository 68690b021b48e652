"""EventRecord: canonical JSON form, round-trips, JSONL helpers."""

from __future__ import annotations

import json

from hypothesis import given
from hypothesis import strategies as st

from repro.events import EventRecord, from_jsonl, to_jsonl
from repro.events import records as ev


class TestCanonicalForm:
    def test_round_trip(self):
        record = EventRecord(
            seq=3,
            t=1.25,
            kind=ev.CALLS_INVOKED,
            data={"calls": [["M000", "00001", "act-1", 1]], "recovered": False},
        )
        assert EventRecord.from_json(record.to_json()) == record

    def test_byte_stable_key_order(self):
        a = EventRecord(seq=0, t=0.0, kind="k", data={"b": 1, "a": 2})
        b = EventRecord(seq=0, t=0.0, kind="k", data={"a": 2, "b": 1})
        assert a.to_json() == b.to_json()

    def test_no_whitespace(self):
        record = EventRecord(seq=0, t=0.5, kind="k", data={"x": [1, 2]})
        assert " " not in record.to_json()

    def test_single_line(self):
        record = EventRecord(seq=0, t=0.0, kind="k", data={"s": "a\nb"})
        assert "\n" not in record.to_json()
        assert EventRecord.from_json(record.to_json()).data["s"] == "a\nb"

    def test_float_time_survives(self):
        record = EventRecord(seq=1, t=0.6635328977255031, kind="k")
        assert EventRecord.from_json(record.to_json()).t == record.t


class TestJsonl:
    def test_round_trip(self):
        records = [
            EventRecord(seq=i, t=float(i), kind=ev.CALLS_INVOKED, data={"i": i})
            for i in range(5)
        ]
        assert from_jsonl(to_jsonl(records)) == records

    def test_blank_lines_skipped(self):
        text = to_jsonl([EventRecord(seq=0, t=0.0, kind="k")]) + "\n\n"
        assert len(from_jsonl(text)) == 1

    def test_empty(self):
        assert to_jsonl([]) == ""
        assert from_jsonl("") == []


@given(
    seq=st.integers(min_value=0, max_value=10**9),
    t=st.floats(min_value=0, max_value=1e9, allow_nan=False),
    kind=st.sampled_from([ev.JOB_SUBMITTED, ev.CALLS_INVOKED, ev.RESUME_STARTED]),
    data=st.dictionaries(
        st.text(min_size=1, max_size=8),
        st.one_of(
            st.integers(),
            st.text(max_size=16),
            st.booleans(),
            st.none(),
            st.lists(st.integers(), max_size=4),
        ),
        max_size=5,
    ),
)
def test_any_json_payload_round_trips(seq, t, kind, data):
    record = EventRecord(seq=seq, t=t, kind=kind, data=data)
    text = record.to_json()
    assert EventRecord.from_json(text) == record
    # canonical: re-serializing the parsed form is byte-identical
    assert EventRecord.from_json(text).to_json() == text
    # and it is plain JSON any consumer can parse
    assert json.loads(text)["kind"] == kind
