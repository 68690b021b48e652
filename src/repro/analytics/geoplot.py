"""SVG scatter-map renderer.

Stand-in for the paper's matplotlib city maps (Fig. 5): "Each point in the
map represents the location of the apartment, and the color of the point
signals the tone of the comments" — green good, blue neutral, red bad.
Produces a self-contained SVG document (no external dependencies).
"""

from __future__ import annotations

from typing import Sequence

from repro.analytics.tone import NEGATIVE, NEUTRAL, POSITIVE

#: Fig. 5's color scheme
TONE_COLORS = {
    POSITIVE: "#2e9e4f",  # green: good comments
    NEUTRAL: "#3c6fd6",  # blue: neutral comments
    NEGATIVE: "#d63c3c",  # red: bad comments
}

_WIDTH = 800
_HEIGHT = 600
_MARGIN = 30
_POINT_RADIUS = 2.2


def render_city_map(
    city: str,
    points: Sequence[tuple[float, float, str]],
    max_points: int = 5000,
) -> str:
    """Render ``(lat, lon, tone)`` points as an SVG scatter map.

    Coordinates are scaled to the bounding box of the data (an equirect
    projection is plenty at city scale).  At most ``max_points`` points are
    drawn to keep documents bounded.
    """
    points = list(points)[:max_points]
    header = (
        f'<svg xmlns="http://www.w3.org/2000/svg" '
        f'width="{_WIDTH}" height="{_HEIGHT}" '
        f'viewBox="0 0 {_WIDTH} {_HEIGHT}">'
        f'<rect width="100%" height="100%" fill="#f7f5f0"/>'
        f'<text x="{_MARGIN}" y="22" font-size="16" '
        f'font-family="sans-serif">Tone map: {city} '
        f"({len(points)} reviews)</text>"
    )
    if not points:
        return header + "</svg>"

    lats = [p[0] for p in points]
    lons = [p[1] for p in points]
    lat_min, lat_max = min(lats), max(lats)
    lon_min, lon_max = min(lons), max(lons)
    lat_span = (lat_max - lat_min) or 1.0
    lon_span = (lon_max - lon_min) or 1.0

    def _x(lon: float) -> float:
        return _MARGIN + (lon - lon_min) / lon_span * (_WIDTH - 2 * _MARGIN)

    def _y(lat: float) -> float:
        # SVG y grows downward; latitude grows upward.
        return _HEIGHT - _MARGIN - (lat - lat_min) / lat_span * (_HEIGHT - 2 * _MARGIN)

    circles = [
        f'<circle cx="{_x(lon):.1f}" cy="{_y(lat):.1f}" r="{_POINT_RADIUS}" '
        f'fill="{TONE_COLORS.get(tone, "#888888")}" fill-opacity="0.7"/>'
        for lat, lon, tone in points
    ]
    return header + "".join(circles) + "</svg>"
