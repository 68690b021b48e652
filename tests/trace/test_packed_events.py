"""Packed events are the same events.

The tracer keeps an event's attrs (and explicit ids) as ``marshal`` bytes
and a :class:`TraceEvent` decodes them on first use.  Whatever values the
contract admits, the event read back must be indistinguishable from one
built from the plain dicts: equal, hashing alike, sorting alike, ``repr``-ing
alike, and handing back values of the very type that was emitted.
"""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.trace import Tracer
from repro.trace.events import KIND_SPAN, TraceEvent, sort_events
from repro.vtime import Kernel

#: keyword names the emission methods take themselves
_RESERVED = {"self", "name", "layer", "t", "t0", "t1", "ids"}

keys = st.text(min_size=1, max_size=8).filter(lambda k: k not in _RESERVED)
scalars = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(min_value=-(2**100), max_value=2**100)
    | st.sampled_from([-0.0, 0.0, math.inf, -math.inf])
    | st.floats(allow_nan=False)
    | st.text(max_size=8)
    | st.sampled_from(["é", "ü", "日本", "\U0001f600", "\x00"])
)
values = st.recursive(
    scalars,
    lambda inner: st.lists(inner, max_size=3) | st.tuples(inner, inner),
    max_leaves=6,
)
mappings = st.dictionaries(keys, values, max_size=4)


def _same_value(got, want) -> bool:
    """Equal *and* of the same types all the way down (``True`` is not
    ``1``, ``-0.0`` is not ``0.0``, a tuple is not a list)."""
    return type(got) is type(want) and repr(got) == repr(want)


def _hash_or_error(event: TraceEvent):
    try:
        return hash(event)
    except TypeError:  # a list value: no event holding it hashes
        return TypeError


class TestPackedEventsAreTheSameEvents:
    @settings(max_examples=150, deadline=None)
    @given(ambient=mappings, ids=mappings, attrs=mappings, tie=st.booleans())
    def test_emitted_equals_plain(self, ambient, ids, attrs, tie):
        tracer = Tracer(Kernel(), enabled=True)
        with tracer.bind(**ambient):
            tracer.span_at("cos.put", "cos", 1.0, 2.5, ids=ids, **attrs)
            if tie:  # a same-instant twin breaks its tie on ids and attrs
                tracer.span_at("cos.put", "cos", 1.0, 2.5, **attrs)
        packed = tracer.raw_events()
        plain = [
            TraceEvent(1.0, "cos.put", "cos", KIND_SPAN, 1.5,
                       {**ambient, **ids}, dict(attrs)),
        ]
        if tie:
            plain.append(TraceEvent(1.0, "cos.put", "cos", KIND_SPAN, 1.5,
                                    dict(ambient), dict(attrs)))
        for got, want in zip(packed, plain, strict=True):
            assert got == want
            assert _hash_or_error(got) == _hash_or_error(want)
            assert repr(got) == repr(want)
            assert got.sort_key() == want.sort_key()
            assert got.id_dict() == want.id_dict()
            for key, value in attrs.items():
                assert _same_value(got.get_attr(key), value)
            for key, value in want.id_dict().items():
                assert _same_value(got.get_id(key), value)
        assert [repr(e) for e in sort_events(packed)] == [
            repr(e) for e in sort_events(plain)
        ]
        assert tracer.events() == sort_events(plain)

    def test_get_attr_keeps_true_distinct_from_one(self):
        tracer = Tracer(Kernel(), enabled=True)
        tracer.point("client.invoke", "client", t=0.0, ids={"ok": True},
                     flag=True, count=1, zero=0.0, neg=-0.0)
        (event,) = tracer.events()
        assert event.get_attr("flag") is True
        assert type(event.get_attr("count")) is int
        assert event.get_id("ok") is True
        assert math.copysign(1.0, event.get_attr("neg")) == -1.0
        assert math.copysign(1.0, event.get_attr("zero")) == 1.0

    @pytest.mark.parametrize("where", ["attrs", "ids"])
    def test_object_value_raises_naming_the_key(self, where):
        tracer = Tracer(Kernel(), enabled=True)
        fields = {"fine": 1, "culprit": object()}
        with pytest.raises(TypeError, match="culprit"):
            if where == "attrs":
                tracer.point("client.invoke", "client", t=0.0, **fields)
            else:
                tracer.point("client.invoke", "client", t=0.0, ids=fields)
        assert len(tracer) == 0
