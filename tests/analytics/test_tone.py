"""Tests for the tone analyzer (the Watson substitute)."""

from __future__ import annotations

from itertools import repeat

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analytics import tone
from repro.datasets.airbnb import NEGATIVE_WORDS, NEUTRAL_WORDS, POSITIVE_WORDS


class TestAnalyze:
    def test_positive_comment(self):
        result = tone.analyze("great clean amazing room near the metro")
        assert result.tone == tone.POSITIVE
        assert result.emotion == "joy"
        assert result.polarity > 0

    def test_negative_comment(self):
        result = tone.analyze("terrible dirty noisy awful street")
        assert result.tone == tone.NEGATIVE
        assert result.emotion == "anger"
        assert result.polarity < 0

    def test_neutral_comment(self):
        result = tone.analyze("room bed kitchen window floor")
        assert result.tone == tone.NEUTRAL
        assert result.polarity == 0.0

    def test_tie_is_neutral(self):
        result = tone.analyze("great terrible")
        assert result.tone == tone.NEUTRAL

    def test_empty_text(self):
        result = tone.analyze("")
        assert result.tone == tone.NEUTRAL
        assert result.word_count == 0
        assert result.polarity == 0.0

    def test_case_insensitive(self):
        assert tone.analyze("GREAT AMAZING").tone == tone.POSITIVE

    @settings(max_examples=50, deadline=None)
    @given(
        pos=st.integers(min_value=0, max_value=10),
        neg=st.integers(min_value=0, max_value=10),
        neutral=st.integers(min_value=0, max_value=10),
    )
    def test_counts_drive_classification(self, pos, neg, neutral):
        text = " ".join(
            [POSITIVE_WORDS[0]] * pos
            + [NEGATIVE_WORDS[0]] * neg
            + [NEUTRAL_WORDS[0]] * neutral
        )
        result = tone.analyze(text)
        if pos > neg:
            assert result.tone == tone.POSITIVE
        elif neg > pos:
            assert result.tone == tone.NEGATIVE
        else:
            assert result.tone == tone.NEUTRAL
        assert result.word_count == pos + neg + neutral


class TestToneStats:
    def test_add_and_dominant(self):
        stats = tone.ToneStats()
        stats.add(tone.analyze("great amazing"))
        stats.add(tone.analyze("lovely charming"))
        stats.add(tone.analyze("awful"))
        assert stats.comments == 3
        assert stats.dominant() == tone.POSITIVE

    def test_merge(self):
        a, b = tone.ToneStats(), tone.ToneStats()
        a.add(tone.analyze("great"))
        b.add(tone.analyze("terrible"))
        b.add(tone.analyze("awful"))
        a.merge(b)
        assert a.comments == 3
        assert a.counts[tone.NEGATIVE] == 2

    def test_scaled_extrapolation(self):
        stats = tone.ToneStats()
        for _ in range(10):
            stats.add(tone.analyze("great"))
        scaled = stats.scaled(3.5)
        assert scaled.counts[tone.POSITIVE] == 35
        assert scaled.comments == 35


class TestCsvAnalysis:
    def test_parses_lines_and_points(self):
        data = (
            b"40.7,-74.0,great amazing stay\n"
            b"40.8,-74.1,terrible dirty room\n"
        )
        stats, points = tone.analyze_csv_reviews(data)
        assert stats.comments == 2
        assert points[0] == (40.7, -74.0, tone.POSITIVE)
        assert points[1] == (40.8, -74.1, tone.NEGATIVE)

    def test_truncated_boundary_lines_skipped(self):
        data = b"74.0,great\n40.7,-74.0,lovely stay\n40.8,-74."
        stats, points = tone.analyze_csv_reviews(data)
        assert stats.comments == 1
        assert len(points) == 1

    def test_garbage_coordinates_skipped(self):
        data = b"abc,def,some text\n1.0,2.0,clean cozy\n"
        stats, _points = tone.analyze_csv_reviews(data)
        assert stats.comments == 1

    def test_empty_input(self):
        stats, points = tone.analyze_csv_reviews(b"")
        assert stats.comments == 0
        assert points == []

    def test_real_generated_content_classifies(self):
        from repro.datasets.airbnb import make_review_content_fn

        data = make_review_content_fn("paris")(0, 16384)
        stats, points = tone.analyze_csv_reviews(data)
        assert stats.comments > 5
        assert len(points) == stats.comments
        # the lexicon actually fires on the generated vocabulary
        assert stats.counts[tone.POSITIVE] + stats.counts[tone.NEGATIVE] > 0


# ---------------------------------------------------------------------------
# analyze_csv_reviews against the per-line analyze() fold
# ---------------------------------------------------------------------------

_LEXICON = POSITIVE_WORDS + NEGATIVE_WORDS + NEUTRAL_WORDS
_POSITIVE_SET, _NEGATIVE_SET = set(POSITIVE_WORDS), set(NEGATIVE_WORDS)


def _reference_analyze(text: str) -> tuple[str, int, int, int]:
    """``(tone, positive hits, negative hits, words)`` by set membership."""
    words = text.lower().split()
    positive_hits = sum(1 for w in words if w in _POSITIVE_SET)
    negative_hits = sum(1 for w in words if w in _NEGATIVE_SET)
    if positive_hits > negative_hits:
        verdict = tone.POSITIVE
    elif negative_hits > positive_hits:
        verdict = tone.NEGATIVE
    else:
        verdict = tone.NEUTRAL
    return verdict, positive_hits, negative_hits, len(words)


def _reference_csv(data: bytes):
    """The per-line fold: one classification per parsable line."""
    stats = tone.ToneStats()
    points = []
    for raw_line in data.split(b"\n"):
        parts = raw_line.split(b",", 2)
        if len(parts) != 3:
            continue
        try:
            lat = float(parts[0])
            lon = float(parts[1])
        except ValueError:
            continue
        verdict = _reference_analyze(parts[2].decode("ascii", errors="replace"))[0]
        stats.counts[verdict] += 1
        stats.comments += 1
        points.append((lat, lon, verdict))
    return stats, points


_tokens = st.one_of(
    st.sampled_from(_LEXICON).map(str.encode),
    st.sampled_from(_LEXICON).map(lambda w: w.upper().encode()),
    st.sampled_from([b"", b",", b"Great!", b"\xff", b"gr\xc3\xa9at", b"\x80great"]),
)
_separators = st.sampled_from([b" ", b"  ", b"\t", b"\x1c", b"\xa0", b"\r", b"\n"])
_coordinates = st.one_of(
    st.floats(allow_nan=False).map(lambda f: repr(f).encode()),
    st.sampled_from([b"", b"abc", b"1.2.3", b" 4.5 ", b"\xff", b"inf"]),
)
_text = st.lists(st.tuples(_tokens, _separators), max_size=30).map(
    lambda pairs: b"".join(token + sep for token, sep in pairs)
)
_line = st.builds(lambda lat, lon, text: lat + b"," + lon + b"," + text,
                  _coordinates, _coordinates, _text)


class TestCsvEquivalence:
    def test_lexicons_are_disjoint(self):
        """``_POLARITY`` gives each word one sign."""
        assert not set(POSITIVE_WORDS) & set(NEGATIVE_WORDS)

    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), lines=st.lists(_line, max_size=12))
    def test_equals_per_line_fold(self, data, lines):
        blob = b"\n".join(lines)
        cut = data.draw(st.integers(0, len(blob)), label="cut")
        tail = data.draw(st.integers(0, len(blob)), label="tail")
        blob = blob[min(cut, tail):max(cut, tail)]  # truncated first/last lines
        stats, points = tone.analyze_csv_reviews(blob)
        want_stats, want_points = _reference_csv(blob)
        assert (stats.counts, stats.comments) == (want_stats.counts, want_stats.comments)
        assert points == want_points

    @settings(max_examples=200, deadline=None)
    @given(text=_text)
    def test_analyze_follows_the_sign_rule(self, text):
        decoded = text.decode("ascii", errors="replace")
        result = tone.analyze(decoded)
        verdict, positive_hits, negative_hits, words = _reference_analyze(decoded)
        assert (result.tone, result.positive_hits, result.negative_hits,
                result.word_count) == (verdict, positive_hits, negative_hits, words)
        score = sum(map(tone._POLARITY.get, decoded.lower().split(), repeat(0)))
        assert result.tone == tone._TONE_BY_SIGN[(score > 0) - (score < 0)]
