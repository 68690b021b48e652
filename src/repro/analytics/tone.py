"""Lexicon-based tone analyzer.

Stand-in for the IBM Watson Tone Analyzer the paper uses ("linguistic
analysis to detect emotional and language tones in written text").  It
classifies a comment into positive / neutral / negative overall tone plus
coarse emotion scores, from word counts against a fixed lexicon aligned
with the synthetic dataset's vocabulary — which is all the experiment
needs: a deterministic per-comment classification with a fixed per-byte
compute cost.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import repeat

from repro.datasets.airbnb import NEGATIVE_WORDS, POSITIVE_WORDS

POSITIVE = "positive"
NEUTRAL = "neutral"
NEGATIVE = "negative"

TONES = (POSITIVE, NEUTRAL, NEGATIVE)

#: +1 per positive word, -1 per negative word (the two lists are disjoint);
#: a comment's polarity is the sum over its lower-cased words
_POLARITY = {**dict.fromkeys(POSITIVE_WORDS, 1), **dict.fromkeys(NEGATIVE_WORDS, -1)}

#: the one classification rule: a comment's tone indexed by the sign of
#: its polarity (0, +1, -1 — a negative index wraps to the last entry)
_TONE_BY_SIGN = (NEUTRAL, POSITIVE, NEGATIVE)

#: emotion tones keyed from the dominant sentiment, mimicking Watson's
#: emotional-tone dimension
_EMOTIONS = {POSITIVE: "joy", NEUTRAL: "analytical", NEGATIVE: "anger"}


@dataclass
class ToneResult:
    """Analysis of a single comment."""

    tone: str
    emotion: str
    positive_hits: int
    negative_hits: int
    word_count: int

    @property
    def polarity(self) -> float:
        """Signed score in [-1, 1]."""
        if self.word_count == 0:
            return 0.0
        return (self.positive_hits - self.negative_hits) / self.word_count


def analyze(text: str) -> ToneResult:
    """Classify one comment."""
    polarities = list(map(_POLARITY.get, text.lower().split(), repeat(0)))
    positive_hits, negative_hits = polarities.count(1), polarities.count(-1)
    score = positive_hits - negative_hits
    tone = _TONE_BY_SIGN[(score > 0) - (score < 0)]
    return ToneResult(
        tone=tone,
        emotion=_EMOTIONS[tone],
        positive_hits=positive_hits,
        negative_hits=negative_hits,
        word_count=len(polarities),
    )


@dataclass
class ToneStats:
    """Aggregated tone counts over many comments (mergeable)."""

    counts: dict[str, int] = field(
        default_factory=lambda: {POSITIVE: 0, NEUTRAL: 0, NEGATIVE: 0}
    )
    comments: int = 0

    def add(self, result: ToneResult) -> None:
        self.counts[result.tone] += 1
        self.comments += 1

    def merge(self, other: "ToneStats") -> "ToneStats":
        for tone in TONES:
            self.counts[tone] += other.counts[tone]
        self.comments += other.comments
        return self

    def scaled(self, factor: float) -> "ToneStats":
        """Extrapolate sampled counts to a full partition."""
        scaled_counts = {t: int(round(c * factor)) for t, c in self.counts.items()}
        out = ToneStats(counts=scaled_counts)
        out.comments = sum(scaled_counts.values())
        return out

    def dominant(self) -> str:
        return max(TONES, key=lambda t: self.counts[t])


def analyze_csv_reviews(data: bytes) -> tuple[ToneStats, list[tuple[float, float, str]]]:
    """Analyze ``lat,lon,text`` CSV review lines.

    Returns aggregate stats plus per-review points ``(lat, lon, tone)`` for
    map rendering.  Malformed/truncated lines (range boundaries cut
    mid-line) are skipped, like a robust CSV chunk reader would.
    """
    stats = ToneStats()
    points: list[tuple[float, float, str]] = []
    for raw_line in data.split(b"\n"):
        parts = raw_line.split(b",", 2)
        if len(parts) != 3:
            continue
        try:
            lat = float(parts[0])
            lon = float(parts[1])
        except ValueError:
            continue
        words = parts[2].decode("ascii", errors="replace").lower().split()
        score = sum(map(_POLARITY.get, words, repeat(0)))
        tone = _TONE_BY_SIGN[(score > 0) - (score < 0)]
        stats.counts[tone] += 1
        points.append((lat, lon, tone))
    stats.comments = len(points)
    return stats, points
