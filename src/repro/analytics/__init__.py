"""Analytics substrate: tone analysis + map rendering (the §6.4 use case)."""

from repro.analytics.geoplot import TONE_COLORS, render_city_map
from repro.analytics.timeline import (
    intervals_from_records,
    render_execution_timeline,
)
from repro.analytics.tone import (
    NEGATIVE,
    NEUTRAL,
    POSITIVE,
    TONES,
    ToneResult,
    ToneStats,
    analyze,
    analyze_csv_reviews,
)

__all__ = [
    "analyze",
    "analyze_csv_reviews",
    "ToneResult",
    "ToneStats",
    "TONES",
    "POSITIVE",
    "NEUTRAL",
    "NEGATIVE",
    "render_city_map",
    "TONE_COLORS",
    "render_execution_timeline",
    "intervals_from_records",
]
