"""The zone-mapped table substrate: layout algebra and manifest truth."""

from __future__ import annotations

import hashlib
import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cos.object_store import CloudObjectStorage
from repro.vtime import Kernel
from repro.workloads import table as tbl


@pytest.fixture()
def storage(kernel) -> CloudObjectStorage:
    return CloudObjectStorage(kernel)


class TestRowLayout:
    def test_row_roundtrip_is_exact(self):
        row = {"id": 7, "day": 123, "city": "san-francisco",
               "price": 499, "stars": 5, "nights": 30}
        encoded = tbl.format_row(row)
        assert len(encoded) == tbl.ROW_BYTES
        assert tbl.parse_row(encoded[:-1]) == row

    def test_every_city_name_fits(self):
        from repro.datasets.airbnb import CITIES

        for city in CITIES:
            row = {"id": 0, "day": 0, "city": city,
                   "price": 20, "stars": 1, "nights": 1}
            assert tbl.parse_row(tbl.format_row(row)[:-1])["city"] == city

    def test_parse_rows_skips_garbage(self):
        good = tbl.format_row(
            {"id": 1, "day": 2, "city": "rome", "price": 30,
             "stars": 3, "nights": 4}
        )
        assert tbl.parse_rows(b"x" * tbl.ROW_BYTES + good) == [
            tbl.parse_row(good[:-1])
        ]

    @settings(max_examples=50, deadline=None)
    @given(
        object_rows=st.integers(min_value=1, max_value=300),
        rows_per_group=st.integers(min_value=1, max_value=64),
        window=st.tuples(
            st.integers(min_value=0, max_value=10_000),
            st.integers(min_value=0, max_value=10_000),
        ),
    )
    def test_content_fn_slices_consistently(
        self, object_rows, rows_per_group, window
    ):
        """Any byte range equals the same slice of the full object."""
        storage = CloudObjectStorage(Kernel())
        info = tbl.load_table(
            storage, total_rows=object_rows, n_cities=1,
            rows_per_group=rows_per_group,
        )
        obj = storage.get_object(info.bucket, info.keys[0])
        size = object_rows * tbl.ROW_BYTES
        full = obj.read()
        assert len(full) == size
        start, end = sorted(w % (size + 1) for w in window)
        assert obj.read(start, end) == full[start:end]


class TestLoadTable:
    def test_manifest_matches_object_bytes(self, storage):
        info = tbl.load_table(
            storage, total_rows=500, n_cities=3, rows_per_group=32
        )
        manifest = json.loads(
            storage.get_object(info.bucket, tbl.MANIFEST_KEY).read()
        )
        assert set(manifest["objects"]) == set(info.keys)
        total_rows = 0
        for key, obj in manifest["objects"].items():
            data = storage.get_object(info.bucket, key).read()
            assert len(data) == obj["size"]
            rows = tbl.parse_rows(data)
            assert len(rows) == obj["rows"]
            total_rows += obj["rows"]
            for group in obj["groups"]:
                group_rows = tbl.parse_rows(data[group["start"]:group["end"]])
                assert len(group_rows) == group["rows"]
                for col in tbl.NUMERIC_COLUMNS + ("city",):
                    values = [r[col] for r in group_rows]
                    assert group["min"][col] == min(values)
                    assert group["max"][col] == max(values)
        assert total_rows == info.total_rows == 500

    def test_day_column_is_date_ordered(self, storage):
        info = tbl.load_table(
            storage, total_rows=300, n_cities=2, rows_per_group=16
        )
        for key in info.keys:
            rows = tbl.parse_rows(storage.get_object(info.bucket, key).read())
            days = [r["day"] for r in rows]
            assert days == sorted(days)
            assert [r["id"] for r in rows] == list(range(len(rows)))

    def test_rejects_bad_parameters(self, storage):
        with pytest.raises(ValueError):
            tbl.load_table(storage, n_cities=0)
        with pytest.raises(ValueError):
            tbl.load_table(storage, n_cities=99)
        with pytest.raises(ValueError):
            tbl.load_table(storage, rows_per_group=0)


class TestTableBytesPinned:
    """The bytes a scan reads and the manifest it prunes with, pinned by
    sha256: drawing and encoding each row once, at load, moves no byte."""

    def test_loaded_table_bytes_pinned(self, storage):
        info = tbl.load_table(
            storage, total_rows=500, n_cities=3, rows_per_group=32
        )
        digests = {
            key: hashlib.sha256(storage.get_object(info.bucket, key).read()).hexdigest()
            for key in (tbl.MANIFEST_KEY,) + info.keys
        }
        assert digests == {
            tbl.MANIFEST_KEY:
                "a8dfb918b9cfe38c2eb5bc76a7f4cc2e734da359704d5b163f5632ac13215a19",
            "rows/new-york.csv":
                "7057bc5e3e61fe77e90216d709acbe3b3ed5f34ffe213a96ea0a6486352f3f04",
            "rows/paris.csv":
                "6520610ec5c45a7beb39a2ed1b32afae7a1c103d88274db6e983f6ae782aa9b9",
            "rows/london.csv":
                "7f1c6e7ce16fbe3836fbc220a56119ecb0d25415833d8fde9ead5b49c2fbe8d1",
        }


def _reference_group_rows(
    city: str, group: int, object_rows: int, rows_per_group: int
) -> list[dict]:
    """``group_rows`` with one ``random.Random.randint`` call per value,
    the form its inline ``getrandbits`` draws must reproduce."""
    first = group * rows_per_group
    last = min(object_rows, first + rows_per_group)
    digest = hashlib.sha256(f"listings:{city}:{group}".encode()).digest()
    rng = random.Random(digest)
    return [
        {
            "id": rid,
            "day": rid * tbl.DAYS // max(1, object_rows),
            "city": city,
            "price": rng.randint(*tbl._PRICE_RANGE),
            "stars": rng.randint(*tbl._STARS_RANGE),
            "nights": rng.randint(*tbl._NIGHTS_RANGE),
        }
        for rid in range(first, last)
    ]


class TestGroupRowsDraws:
    # 2,048-row groups: every column's rejected draws (price 481-511, stars
    # 5-7, nights 30-31) come up, so an off-by-one in a redraw shows
    @pytest.mark.parametrize("city", ["new-york", "paris", "tokyo"])
    @pytest.mark.parametrize("group", [0, 1, 7, 311])
    def test_rows_equal_the_per_call_randint_form(self, city, group):
        object_rows = 1_000_000
        assert tbl.group_rows(city, group, object_rows, 2048) == (
            _reference_group_rows(city, group, object_rows, 2048)
        )

    def test_partial_last_group_equals_the_per_call_form(self):
        # 100 rows in groups of 64: the last group holds 36
        assert tbl.group_rows("london", 1, 100, 64) == (
            _reference_group_rows("london", 1, 100, 64)
        )
