"""Tests for the SVG map renderer (the Fig. 5 substitute)."""

from __future__ import annotations

from repro.analytics import geoplot
from repro.analytics.tone import NEGATIVE, NEUTRAL, POSITIVE


def sample_points():
    return [
        (40.70, -74.00, POSITIVE),
        (40.75, -74.05, NEGATIVE),
        (40.72, -73.98, NEUTRAL),
    ]


class TestRenderCityMap:
    def test_valid_svg_document(self):
        svg = geoplot.render_city_map("new-york", sample_points())
        assert svg.startswith("<svg")
        assert svg.endswith("</svg>")
        assert 'xmlns="http://www.w3.org/2000/svg"' in svg

    def test_one_circle_per_point(self):
        svg = geoplot.render_city_map("nyc", sample_points())
        assert svg.count("<circle") == 3

    def test_fig5_color_scheme(self):
        """Green = good, blue = neutral, red = bad."""
        svg = geoplot.render_city_map("nyc", sample_points())
        assert geoplot.TONE_COLORS[POSITIVE] in svg
        assert geoplot.TONE_COLORS[NEGATIVE] in svg
        assert geoplot.TONE_COLORS[NEUTRAL] in svg

    def test_title_includes_city_and_count(self):
        svg = geoplot.render_city_map("paris", sample_points())
        assert "paris" in svg
        assert "3 reviews" in svg

    def test_empty_points(self):
        svg = geoplot.render_city_map("ghost-town", [])
        assert svg.startswith("<svg")
        assert "<circle" not in svg

    def test_max_points_cap(self):
        points = [(40.0 + i * 0.001, -74.0, POSITIVE) for i in range(100)]
        svg = geoplot.render_city_map("nyc", points, max_points=10)
        assert svg.count("<circle") == 10

    def test_single_point_degenerate_extent(self):
        svg = geoplot.render_city_map("solo", [(40.0, -74.0, POSITIVE)])
        assert svg.count("<circle") == 1
        assert "nan" not in svg
