"""Unit tests for the COS data plane."""

from __future__ import annotations

import hashlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cos import (
    BucketAlreadyExists,
    CloudObjectStorage,
    InvalidRange,
    NoSuchBucket,
    NoSuchKey,
)
from repro.cos.obj import StoredObject


@pytest.fixture()
def store(kernel) -> CloudObjectStorage:
    return CloudObjectStorage(kernel)


class TestBuckets:
    def test_create_and_exists(self, store):
        store.create_bucket("data")
        assert store.bucket_exists("data")
        assert not store.bucket_exists("other")

    def test_create_duplicate_raises(self, store):
        store.create_bucket("data")
        with pytest.raises(BucketAlreadyExists):
            store.create_bucket("data")

    def test_create_duplicate_exist_ok(self, store):
        store.create_bucket("data")
        store.create_bucket("data", exist_ok=True)

    def test_invalid_names_rejected(self, store):
        with pytest.raises(ValueError):
            store.create_bucket("")
        with pytest.raises(ValueError):
            store.create_bucket("a/b")

    def test_access_missing_bucket(self, store):
        with pytest.raises(NoSuchBucket):
            store.put_object("ghost", "k", b"v")


class TestObjects:
    def test_put_get_roundtrip(self, store):
        store.create_bucket("b")
        store.put_object("b", "key", b"hello world")
        assert store.get_object("b", "key").read() == b"hello world"

    def test_get_missing_key(self, store):
        store.create_bucket("b")
        with pytest.raises(NoSuchKey):
            store.get_object("b", "ghost")

    def test_overwrite_replaces(self, store):
        store.create_bucket("b")
        store.put_object("b", "k", b"v1")
        store.put_object("b", "k", b"v2")
        assert store.get_object("b", "k").read() == b"v2"

    def test_delete_object(self, store):
        store.create_bucket("b")
        store.put_object("b", "k", b"v")
        store.delete_object("b", "k")
        assert not store.object_exists("b", "k")

    def test_delete_missing_object(self, store):
        store.create_bucket("b")
        with pytest.raises(NoSuchKey):
            store.delete_object("b", "ghost")

    def test_etag_is_content_hash(self, store):
        store.create_bucket("b")
        a = store.put_object("b", "k1", b"same")
        b = store.put_object("b", "k2", b"same")
        c = store.put_object("b", "k3", b"different")
        assert a.etag == b.etag != c.etag

    def test_etag_values_and_cost(self, store, monkeypatch):
        # pinned values; a PUT hashes nothing, the first reader pays once
        hashed = []
        real_md5 = hashlib.md5
        monkeypatch.setattr(
            hashlib, "md5", lambda data: hashed.append(len(data)) or real_md5(data)
        )
        store.create_bucket("b")
        stored = store.put_object("b", "k", b"same")
        virtual = store.put_virtual_object("b", "v", 1024)
        assert hashed == []
        assert stored.etag == "51037a4a37730f52c8732586d3aaa316"
        assert virtual.etag == real_md5(b"virtual:v:1024").hexdigest()
        assert stored.etag and virtual.etag  # second reads
        assert hashed == [4, len(b"virtual:v:1024")]  # once each, then kept

    def test_last_modified_uses_virtual_time(self, kernel, store):
        def main():
            store.create_bucket("b")
            kernel.sleep(42)
            return store.put_object("b", "k", b"v").last_modified

        assert kernel.run(main) == 42.0

    def test_metadata_preserved(self, store):
        store.create_bucket("b")
        store.put_object("b", "k", b"v", metadata={"city": "paris"})
        assert store.get_object("b", "k").metadata == {"city": "paris"}



class TestListing:
    def test_list_keys_prefix(self, store):
        store.create_bucket("b")
        for key in ["data/a.txt", "data/b.txt", "logs/x.log"]:
            store.put_object("b", key, b"")
        assert store.list_keys("b", "data/") == ["data/a.txt", "data/b.txt"]
        assert store.list_keys("b") == ["data/a.txt", "data/b.txt", "logs/x.log"]

    def test_list_empty_bucket(self, store):
        store.create_bucket("b")
        assert store.list_keys("b") == []


class TestRanges:
    def test_range_read(self, store):
        store.create_bucket("b")
        store.put_object("b", "k", b"0123456789")
        obj = store.get_object("b", "k")
        assert obj.read(2, 5) == b"234"
        assert obj.read(5) == b"56789"

    def test_range_end_clamped(self, store):
        store.create_bucket("b")
        store.put_object("b", "k", b"abc")
        assert store.get_object("b", "k").read(1, 100) == b"bc"

    def test_invalid_range_raises(self, store):
        store.create_bucket("b")
        store.put_object("b", "k", b"abc")
        obj = store.get_object("b", "k")
        with pytest.raises(InvalidRange):
            obj.read(5, 6)
        with pytest.raises(InvalidRange):
            obj.read(2, 1)
        with pytest.raises(InvalidRange):
            obj.read(-1, 2)

    @settings(max_examples=50, deadline=None)
    @given(
        data=st.binary(min_size=0, max_size=200),
        start=st.integers(min_value=0, max_value=200),
        span=st.integers(min_value=0, max_value=200),
    )
    def test_range_matches_slice_property(self, data, start, span):
        obj = StoredObject("k", data=data)
        if start > len(data):
            with pytest.raises(InvalidRange):
                obj.read(start, start + span)
        else:
            assert obj.read(start, start + span) == data[start : start + span]


class TestVirtualObjects:
    def test_virtual_size_without_content(self, store):
        store.create_bucket("b")
        obj = store.put_virtual_object("b", "big", size=10**9)
        assert obj.size == 10**9
        assert obj.is_virtual

    def test_virtual_default_content_is_zeros(self, store):
        store.create_bucket("b")
        store.put_virtual_object("b", "z", size=100)
        assert store.get_object("b", "z").read(0, 5) == b"\x00" * 5

    def test_virtual_content_fn_range(self, store):
        store.create_bucket("b")
        store.put_virtual_object(
            "b", "gen", size=1000, content_fn=lambda s, e: bytes(range(s % 256, s % 256 + 1)) * (e - s)
        )
        assert len(store.get_object("b", "gen").read(10, 20)) == 10

    def test_virtual_content_fn_length_checked(self, store):
        store.create_bucket("b")
        store.put_virtual_object("b", "bad", size=100, content_fn=lambda s, e: b"x")
        with pytest.raises(ValueError):
            store.get_object("b", "bad").read(0, 10)

    def test_object_requires_size_or_data(self):
        with pytest.raises(ValueError):
            StoredObject("k")
        with pytest.raises(ValueError):
            StoredObject("k", data=b"x", size=5)
        with pytest.raises(ValueError):
            StoredObject("k", size=-1)
