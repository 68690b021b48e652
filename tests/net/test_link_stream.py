"""A link's own seeded stream draws exactly what ``random.Random`` draws.

Every sampled RTT in the simulator comes from a link's stream, so the
link must equal ``random.Random(seed)`` draw for draw — compared with
``==`` on floats — inside its kept prefix, across the rebuild and after it.
"""

from __future__ import annotations

import gc
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.net import LatencyModel, NetworkLink, TransientNetworkError
from repro.net.link import _KEPT_DRAWS

finite = st.floats(
    min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False
)
#: one draw: ``None`` for ``random()``, else the ``(a, b)`` of ``uniform``
draws = st.lists(
    st.one_of(st.none(), st.tuples(finite, finite)),
    min_size=0,
    max_size=3 * _KEPT_DRAWS,
)


@settings(max_examples=200, deadline=None)
@given(
    seed=st.one_of(st.integers(min_value=-(2**64), max_value=2**64), st.just(0)),
    calls=draws,
)
@example(seed=0, calls=[None] * (3 * _KEPT_DRAWS))
@example(seed=-7, calls=[(0.0, 1.0)] * (_KEPT_DRAWS + 1))
@example(seed=2**200 + 1, calls=[None, (-5.0, 5.0)] * _KEPT_DRAWS)
def test_stream_equals_random_draw_for_draw(seed, calls):
    stream = NetworkLink(None, LatencyModel.in_cloud(), seed=seed)
    reference = random.Random(seed)
    for call in calls:
        if call is None:
            assert stream.random() == reference.random()
        else:
            assert stream.uniform(*call) == reference.uniform(*call)


def test_kept_draws_are_not_tracked():
    """The 8 kept draws are packed ``bytes``: one object per link that the
    collector never walks, where an ``array('d')`` or a tuple is tracked."""
    link = NetworkLink(None, LatencyModel.in_cloud(), seed=42)
    reference = random.Random(42)
    assert link.random() == reference.random()
    assert type(link._kept) is bytes
    assert not gc.is_tracked(link._kept)


def test_wan_link_samples_random_42s_rtts(kernel):
    """The first 40 requests of a WAN link at seed 42: each RTT and each
    transient failure is what ``random.Random(42)`` decides."""
    wan = LatencyModel.wan()
    link = NetworkLink(kernel, wan, seed=42)
    reference = random.Random(42)
    for _ in range(40):
        expected_rtt = wan.sample_rtt(reference)
        expected_fail = wan.sample_failure(reference)
        request = link.request_steps(0)
        assert next(request).duration == expected_rtt
        if expected_fail:
            with pytest.raises(TransientNetworkError):
                next(request)
        else:
            with pytest.raises(StopIteration):
                next(request)
    assert link.requests == 40
