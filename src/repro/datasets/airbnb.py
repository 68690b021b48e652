"""Synthetic Airbnb reviews dataset (§6.4's real use case).

The paper processes airbnb.com review datasets for 33 cities obtained from
the IBM Watson Studio Community: total 1.9 GB, 3,695,107 comments, one COS
object per city with "variable size".  We reproduce the dataset's *shape*:
33 city objects whose sizes sum to exactly 1.9 GB, hosted as virtual COS
objects whose content — CSV lines ``lat,lon,review text`` — is generated
deterministically per byte range.

Table 3's executor counts are ``sum(ceil(size/chunk))`` over these sizes,
so the per-city size distribution below (large NYC/Paris/London heads, long
tail) is what reproduces the paper's 47/72/129/242/471/923 concurrency
column.

Byte contract: every 4 KiB block of a city object is a fixed function of
``(city, block index)`` — the draws ``uniform`` / ``randint`` / ``choice``
make on ``random.Random(sha256("airbnb:{city}:{index}"))``, written out
inline through ``random()`` and ``getrandbits()`` exactly as CPython's
documented methods consume them.  ``tests/datasets/test_airbnb.py`` pins
the bytes and checks them against the per-call ``random.Random`` form.
"""

from __future__ import annotations

import hashlib
import random
from typing import Callable

from repro.cos.object_store import CloudObjectStorage

#: total dataset size (bytes) — "The total dataset size is of 1.9GB"
TOTAL_SIZE = 1_900_000_000

#: total comments — "a total of 3,695,107 comments"
TOTAL_COMMENTS = 3_695_107

#: default bucket holding one object per city
DEFAULT_BUCKET = "airbnb"

#: (city, relative weight, latitude, longitude) — weights give the heavy
#: head + long tail of the real per-city review volumes
_CITY_TABLE: list[tuple[str, float, float, float]] = [
    ("new-york", 10.0, 40.7128, -74.0060),
    ("paris", 9.0, 48.8566, 2.3522),
    ("london", 8.5, 51.5074, -0.1278),
    ("los-angeles", 6.5, 34.0522, -118.2437),
    ("rome", 5.5, 41.9028, 12.4964),
    ("barcelona", 5.0, 41.3874, 2.1686),
    ("amsterdam", 4.5, 52.3676, 4.9041),
    ("berlin", 4.2, 52.5200, 13.4050),
    ("sydney", 4.0, -33.8688, 151.2093),
    ("toronto", 3.8, 43.6532, -79.3832),
    ("san-francisco", 3.6, 37.7749, -122.4194),
    ("madrid", 3.4, 40.4168, -3.7038),
    ("melbourne", 3.2, -37.8136, 144.9631),
    ("chicago", 3.0, 41.8781, -87.6298),
    ("austin", 2.8, 30.2672, -97.7431),
    ("vancouver", 2.6, 49.2827, -123.1207),
    ("lisbon", 2.5, 38.7223, -9.1393),
    ("copenhagen", 2.4, 55.6761, 12.5683),
    ("dublin", 2.3, 53.3498, -6.2603),
    ("vienna", 2.2, 48.2082, 16.3738),
    ("seattle", 2.1, 47.6062, -122.3321),
    ("boston", 2.0, 42.3601, -71.0589),
    ("washington", 1.9, 38.9072, -77.0369),
    ("montreal", 1.8, 45.5017, -73.5673),
    ("new-orleans", 1.7, 29.9511, -90.0715),
    ("venice", 1.6, 45.4408, 12.3155),
    ("edinburgh", 1.5, 55.9533, -3.1883),
    ("athens", 1.4, 37.9838, 23.7275),
    ("brussels", 1.3, 50.8503, 4.3517),
    ("geneva", 1.2, 46.2044, 6.1432),
    ("portland", 1.1, 45.5152, -122.6784),
    ("san-diego", 1.0, 32.7157, -117.1611),
    ("hong-kong", 0.9, 22.3193, 114.1694),
]

CITIES: list[str] = [row[0] for row in _CITY_TABLE]

CITY_COORDS: dict[str, tuple[float, float]] = {
    row[0]: (row[2], row[3]) for row in _CITY_TABLE
}

assert len(CITIES) == 33, "the paper's dataset has 33 cities"


def city_sizes(total_size: int = TOTAL_SIZE) -> dict[str, int]:
    """Per-city object sizes (bytes), summing exactly to ``total_size``."""
    total_weight = sum(row[1] for row in _CITY_TABLE)
    sizes: dict[str, int] = {}
    allocated = 0
    for city, weight, _lat, _lon in _CITY_TABLE[:-1]:
        size = int(total_size * weight / total_weight)
        sizes[city] = size
        allocated += size
    sizes[_CITY_TABLE[-1][0]] = total_size - allocated
    return sizes


# ---------------------------------------------------------------------------
# Review content generation
# ---------------------------------------------------------------------------

_BLOCK_SIZE = 4096

#: vocabulary with a known tone so the lexicon analyzer produces meaningful
#: classifications (see repro.analytics.tone)
POSITIVE_WORDS = (
    "great clean cozy amazing lovely perfect wonderful charming helpful "
    "spacious bright friendly comfortable fantastic excellent"
).split()
NEGATIVE_WORDS = (
    "terrible loud dirty noisy awful broken rude cramped smelly "
    "disappointing horrible cold damp overpriced"
).split()
NEUTRAL_WORDS = (
    "host location stay room view bed walk metro beach downtown kitchen "
    "shower apartment street night morning city door floor window"
).split()

#: ``(words, len(words), len(words).bit_length())``: what ``rng.choice``
#: needs of a pool, unpacked once instead of once per word
_POSITIVE_POOL, _NEGATIVE_POOL, _NEUTRAL_POOL = (
    (words, len(words), len(words).bit_length())
    for words in (POSITIVE_WORDS, NEGATIVE_WORDS, NEUTRAL_WORDS)
)


def city_positivity(city: str) -> float:
    """Deterministic per-city happy-reviewer fraction in [0.30, 0.80]."""
    digest = hashlib.sha256(f"mood:{city}".encode()).digest()
    return 0.30 + (digest[0] % 51) / 100.0


def make_review_content_fn(city: str) -> Callable[[int, int], bytes]:
    """Deterministic byte-range generator of review CSV for ``city``."""
    lat, lon = CITY_COORDS[city]
    positivity = city_positivity(city)

    def _block(index: int) -> bytes:
        digest = hashlib.sha256(f"airbnb:{city}:{index}".encode()).digest()
        rng = random.Random(digest)
        uniform01, getrandbits = rng.random, rng.getrandbits
        out = bytearray()
        while len(out) < _BLOCK_SIZE:
            # one line ``lat,lon,words...``; the city's ``positivity`` share of
            # happy reviewers gives each map its green/red mix (like Fig. 5)
            point_lat = lat + (-0.12 + 0.24 * uniform01())  # uniform(-0.12, 0.12)
            point_lon = lon + (-0.12 + 0.24 * uniform01())
            if uniform01() < positivity:
                favoured, opposed = _POSITIVE_POOL, _NEGATIVE_POOL
            else:
                favoured, opposed = _NEGATIVE_POOL, _POSITIVE_POOL
            # randint(35, 90) = 35 + below(56): 35-90 words ≈ 500 bytes per
            # line, the dataset's 1.9 GB / 3,695,107 comments ≈ 514 bytes
            extra = getrandbits(6)
            while extra >= 56:
                extra = getrandbits(6)
            words = []
            for _ in range(35 + extra):
                roll = uniform01()
                if roll < 0.25:
                    pool, n, k = favoured
                elif roll < 0.35:
                    pool, n, k = opposed
                else:
                    pool, n, k = _NEUTRAL_POOL
                pick = getrandbits(k)  # choice(pool) = pool[below(n)]
                while pick >= n:
                    pick = getrandbits(k)
                words.append(pool[pick])
            text = " ".join(words)
            out += f"{point_lat:.5f},{point_lon:.5f},{text}\n".encode("ascii")
        return bytes(out[:_BLOCK_SIZE])

    def content_fn(start: int, end: int) -> bytes:
        if end <= start:
            return b""
        first = start // _BLOCK_SIZE
        last = (end - 1) // _BLOCK_SIZE
        blob = b"".join(_block(i) for i in range(first, last + 1))
        offset = start - first * _BLOCK_SIZE
        return blob[offset : offset + (end - start)]

    return content_fn


def load_dataset(
    storage: CloudObjectStorage,
    bucket: str = DEFAULT_BUCKET,
    total_size: int = TOTAL_SIZE,
) -> dict[str, int]:
    """Create the 33-city dataset as virtual objects; returns {key: size}.

    Objects are named ``reviews/{city}.csv`` to mirror per-city files.  Use
    ``total_size`` to load a scaled-down copy (examples use a few MB).
    """
    storage.create_bucket(bucket, exist_ok=True)
    sizes = city_sizes(total_size)
    loaded: dict[str, int] = {}
    for city, size in sizes.items():
        key = f"reviews/{city}.csv"
        storage.put_virtual_object(
            bucket,
            key,
            size,
            content_fn=make_review_content_fn(city),
            metadata={"city": city},
        )
        loaded[key] = size
    return loaded
