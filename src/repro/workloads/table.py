"""Partitioned tabular dataset with zone maps — the scan substrate.

A "listings" table is hosted as one fixed-width-row CSV virtual object per
city (content generated deterministically from a per-group seed, drawn
and encoded once when the table is loaded, and sliced per byte range)
plus a *zone-map manifest*: a JSON sidecar recording, for every row group,
its byte range and the min/max of every column.  Fixed-width rows make the
byte layout algebraic
— row group ``g`` of an object occupies exactly
``[g * rows_per_group * ROW_BYTES, ...)`` — so a scan planner can turn
"which row groups might match" directly into COS byte ranges without ever
touching the data, and range boundaries never cut a row in half.

The ``day`` column is monotonically non-decreasing within each object
(rows are date-ordered, like real review/booking exports), which is what
makes zone-map pruning on day-range predicates effective; ``price`` /
``stars`` / ``nights`` are per-row randoms, so predicates on them
exercise the worker-side filter rather than the planner.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from typing import Optional

from repro.cos.object_store import CloudObjectStorage
from repro.datasets.airbnb import CITIES

#: column order of every row (and of the fixed-width CSV layout)
COLUMNS = ("id", "day", "city", "price", "stars", "nights")

#: columns whose zone-map min/max are numeric
NUMERIC_COLUMNS = ("id", "day", "price", "stars", "nights")

#: bytes per row, newline included — fixed width so group ``g`` starts at
#: byte ``g * rows_per_group * ROW_BYTES`` and rows never straddle ranges
ROW_BYTES = 36

#: days spanned by each object's date ordering
DAYS = 365

#: zone-map granularity (rows per group) unless ``load_table`` overrides
DEFAULT_ROWS_PER_GROUP = 64

DEFAULT_BUCKET = "listings"

#: the zone-map manifest sidecar, one per table bucket
MANIFEST_KEY = "_meta/zonemap.json"

_PRICE_RANGE = (20, 500)
_STARS_RANGE = (1, 5)
_NIGHTS_RANGE = (1, 30)

#: one row's fixed-width CSV line: id, day, city, price, stars, nights;
#: the widest city name must fit the 13-byte city field
_ROW_TEMPLATE = b"%08d,%03d,%-13s,%03d,%d,%02d\n"


@dataclass(frozen=True)
class TableInfo:
    """Handle returned by :func:`load_table` (the manifest is the truth)."""

    bucket: str
    keys: tuple[str, ...]
    total_rows: int
    rows_per_group: int

    @property
    def total_bytes(self) -> int:
        return self.total_rows * ROW_BYTES


def format_row(values: dict) -> bytes:
    """Fixed-width CSV encoding of one row (exactly ``ROW_BYTES`` bytes)."""
    encoded = _ROW_TEMPLATE % (
        values["id"], values["day"], values["city"].encode("ascii"),
        values["price"], values["stars"], values["nights"],
    )
    if len(encoded) != ROW_BYTES:
        raise ValueError(f"row {values!r} encodes to {len(encoded)} bytes")
    return encoded


def parse_row(line: bytes) -> Optional[dict]:
    """Decode one fixed-width row; ``None`` for blank/malformed lines."""
    parts = line.split(b",")
    if len(parts) != len(COLUMNS):
        return None
    try:
        return {
            "id": int(parts[0]),
            "day": int(parts[1]),
            "city": parts[2].decode("ascii").rstrip(),
            "price": int(parts[3]),
            "stars": int(parts[4]),
            "nights": int(parts[5]),
        }
    except ValueError:
        return None


def parse_rows(data: bytes) -> list[dict]:
    """Decode a group-aligned byte range into row dicts."""
    rows = []
    for offset in range(0, len(data) - ROW_BYTES + 1, ROW_BYTES):
        row = parse_row(data[offset : offset + ROW_BYTES - 1])
        if row is not None:
            rows.append(row)
    return rows


def group_rows(
    city: str, group: int, object_rows: int, rows_per_group: int
) -> list[dict]:
    """The rows of one zone-map group, generated deterministically.

    Shared by the content generator and the zone-map computation, so the
    manifest's statistics are exact for the bytes a scan will read.
    """
    first = group * rows_per_group
    last = min(object_rows, first + rows_per_group)
    digest = hashlib.sha256(f"listings:{city}:{group}".encode()).digest()
    getrandbits = random.Random(digest).getrandbits
    price_low, price_n, price_k = _below_args(_PRICE_RANGE)
    stars_low, stars_n, stars_k = _below_args(_STARS_RANGE)
    nights_low, nights_n, nights_k = _below_args(_NIGHTS_RANGE)
    rows = []
    for rid in range(first, last):
        # rng.randint(low, high) for each column, written out: CPython's
        # randint(low, high) = low + below(n) for n = high - low + 1, and
        # below(n) redraws getrandbits(n.bit_length()) until it is < n
        price = getrandbits(price_k)
        while price >= price_n:
            price = getrandbits(price_k)
        stars = getrandbits(stars_k)
        while stars >= stars_n:
            stars = getrandbits(stars_k)
        nights = getrandbits(nights_k)
        while nights >= nights_n:
            nights = getrandbits(nights_k)
        rows.append(
            {
                "id": rid,
                # date-ordered: monotone non-decreasing over the object
                "day": rid * DAYS // max(1, object_rows),
                "city": city,
                "price": price_low + price,
                "stars": stars_low + stars,
                "nights": nights_low + nights,
            }
        )
    return rows


def _below_args(bounds: tuple[int, int]) -> tuple[int, int, int]:
    """``(low, n, bits)`` for drawing ``randint(*bounds)`` by hand."""
    low, high = bounds
    n = high - low + 1
    return low, n, n.bit_length()


def _group_stats(rows: list[dict]) -> dict:
    stats: dict[str, dict] = {"min": {}, "max": {}}
    for col in NUMERIC_COLUMNS + ("city",):
        values = [row[col] for row in rows]
        stats["min"][col] = min(values)
        stats["max"][col] = max(values)
    return stats


def load_table(
    storage: CloudObjectStorage,
    bucket: str = DEFAULT_BUCKET,
    total_rows: int = 50_000,
    n_cities: int = 8,
    rows_per_group: int = DEFAULT_ROWS_PER_GROUP,
) -> TableInfo:
    """Create the table as virtual objects plus its zone-map manifest.

    One object per city (``rows/{city}.csv``), rows split evenly; the
    manifest at :data:`MANIFEST_KEY` records per-group byte ranges and
    min/max statistics that :func:`repro.workloads.scan.scan` prunes with.
    """
    if n_cities < 1 or n_cities > len(CITIES):
        raise ValueError(f"n_cities must be in [1, {len(CITIES)}]")
    if rows_per_group < 1:
        raise ValueError("rows_per_group must be positive")
    storage.create_bucket(bucket, exist_ok=True)
    cities = CITIES[:n_cities]
    base = total_rows // n_cities
    manifest: dict = {
        "row_bytes": ROW_BYTES,
        "rows_per_group": rows_per_group,
        "columns": list(COLUMNS),
        "objects": {},
    }
    keys = []
    for i, city in enumerate(cities):
        object_rows = base + (1 if i < total_rows % n_cities else 0)
        if object_rows == 0:
            continue
        key = f"rows/{city}.csv"
        keys.append(key)
        groups = []
        encoded = []
        for g in range(-(-object_rows // rows_per_group)):
            rows = group_rows(city, g, object_rows, rows_per_group)
            start = g * rows_per_group * ROW_BYTES
            groups.append(
                {
                    "start": start,
                    "end": start + len(rows) * ROW_BYTES,
                    "rows": len(rows),
                    **_group_stats(rows),
                }
            )
            encoded += map(format_row, rows)
        # drawn and encoded once, here; a read slices the object's bytes
        data = b"".join(encoded)
        storage.put_virtual_object(
            bucket,
            key,
            object_rows * ROW_BYTES,
            content_fn=lambda start, end, data=data: data[start:end],
            metadata={"city": city, "rows": str(object_rows)},
        )
        manifest["objects"][key] = {
            "rows": object_rows,
            "size": object_rows * ROW_BYTES,
            "groups": groups,
        }
    storage.put_object(
        bucket,
        MANIFEST_KEY,
        json.dumps(manifest, sort_keys=True).encode("ascii"),
        metadata={"kind": "zonemap"},
    )
    return TableInfo(
        bucket=bucket,
        keys=tuple(keys),
        total_rows=total_rows,
        rows_per_group=rows_per_group,
    )
