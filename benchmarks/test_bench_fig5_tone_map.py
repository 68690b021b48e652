"""Bench: Fig. 5 — the New York tone map artifact."""

from __future__ import annotations

import pathlib

from repro.analytics.geoplot import TONE_COLORS
from repro.analytics.tone import NEGATIVE, NEUTRAL, POSITIVE
from repro.bench import fig5_tone_map as fig5


def test_fig5_new_york_tone_map(benchmark, emit, tmp_path):
    result = benchmark.pedantic(fig5.run_fig5, rounds=1, iterations=1)
    emit(fig5.report(result))

    artifact = tmp_path / "fig5_new_york.svg"
    artifact.write_text(result.svg)
    emit(f"(SVG artifact written to {artifact})")

    # the figure is a real SVG scatter map of NYC reviews
    assert result.svg.startswith("<svg")
    assert result.city in result.svg
    assert result.points > 100
    # all three tone colors appear (green/blue/red points, like Fig. 5)
    for tone in (POSITIVE, NEUTRAL, NEGATIVE):
        assert TONE_COLORS[tone] in result.svg

    # New York is the largest city object: ~10 chunks at 16 MB
    assert 8 <= result.map_executors <= 14
    # extrapolated comment volume matches the city's ~9% share of 3.7 M
    assert 250_000 <= result.comments_estimated <= 600_000
    # every comment classified into exactly the three tones
    assert set(result.tone_counts) == {POSITIVE, NEUTRAL, NEGATIVE}
