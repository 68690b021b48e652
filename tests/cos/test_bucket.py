"""Direct unit tests for Bucket (mostly covered indirectly elsewhere)."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cos.bucket import Bucket
from repro.cos.errors import NoSuchKey
from repro.cos.obj import StoredObject


@pytest.fixture()
def bucket() -> Bucket:
    b = Bucket("test")
    for key, data in [("a/1", b"xx"), ("a/2", b"yyy"), ("b/3", b"z")]:
        b.put(StoredObject(key, data=data))
    return b


class TestBucket:
    def test_len(self, bucket):
        assert len(bucket) == 3

    def test_get_and_contains(self, bucket):
        assert bucket.get("a/1").read() == b"xx"
        assert bucket.contains("a/1")
        assert not bucket.contains("ghost")

    def test_get_missing(self, bucket):
        with pytest.raises(NoSuchKey, match="test/ghost"):
            bucket.get("ghost")

    def test_delete(self, bucket):
        bucket.delete("a/1")
        assert not bucket.contains("a/1")
        with pytest.raises(NoSuchKey):
            bucket.delete("a/1")

    def test_list_keys_sorted_and_filtered(self, bucket):
        assert bucket.list_keys() == ["a/1", "a/2", "b/3"]
        assert bucket.list_keys("a/") == ["a/1", "a/2"]
        assert bucket.list_keys("zzz") == []

    def test_list_objects(self, bucket):
        objs = bucket.list_objects("a/")
        assert [o.key for o in objs] == ["a/1", "a/2"]

    def test_total_size(self, bucket):
        assert bucket.total_size() == 6
        assert bucket.total_size("a/") == 5

    def test_put_overwrites(self, bucket):
        bucket.put(StoredObject("a/1", data=b"new"))
        assert bucket.get("a/1").read() == b"new"
        assert len(bucket) == 3


def _scan(bucket: Bucket, prefix: str) -> list[str]:
    """LIST as a full scan and sort — the definition the index must match."""
    return sorted(k for k in bucket._objects if k.startswith(prefix))


class TestListIndex:
    """LIST answers from a sorted index that PUT only appends to and a
    delete invalidates; whatever the history, it equals the full scan."""

    #: nothing, everything, a directory, a key that is a prefix of others
    PREFIXES = ["zzz", "", "a/", "a", "a/1", "a/10", "b", "b/", "c"]

    def _check(self, bucket: Bucket) -> None:
        for prefix in self.PREFIXES:
            assert bucket.list_keys(prefix) == _scan(bucket, prefix), prefix

    def test_interleaved_put_overwrite_delete(self):
        bucket = Bucket("test")
        self._check(bucket)  # empty
        for key in ["b/2", "a/10", "a/1", "a", "a/1/x"]:
            bucket.put(StoredObject(key, data=b"v1"))
        self._check(bucket)
        bucket.put(StoredObject("a/1", data=b"v2"))  # overwrite: no duplicate
        bucket.put(StoredObject("a/0", data=b"v1"))  # lands before listed keys
        assert bucket.list_keys("a/") == ["a/0", "a/1", "a/1/x", "a/10"]
        self._check(bucket)
        bucket.delete("a/1")
        bucket.put(StoredObject("c", data=b"v1"))  # PUT after an unlisted delete
        self._check(bucket)
        bucket.delete("c")
        bucket.put(StoredObject("c", data=b"v2"))  # delete then re-PUT, unlisted
        bucket.put(StoredObject("d", data=b"v1"))
        bucket.delete("d")  # PUT then delete, never listed
        bucket.put(StoredObject("a/1", data=b"v3"))
        self._check(bucket)
        assert bucket.list_keys() == ["a", "a/0", "a/1", "a/1/x", "a/10", "b/2", "c"]
        for key in bucket.list_keys():
            bucket.delete(key)
        self._check(bucket)
        assert bucket.list_keys() == []

    def test_caller_may_mutate_the_listing(self, bucket):
        bucket.list_keys().clear()
        bucket.list_keys("a/").append("a/ghost")
        assert bucket.list_keys() == ["a/1", "a/2", "b/3"]

    @settings(max_examples=100)
    @given(
        ops=st.lists(
            st.tuples(
                st.sampled_from(["put", "delete", "list"]),
                st.text(alphabet="ab/", min_size=0, max_size=4),
            ),
            max_size=40,
        )
    )
    def test_any_history_lists_like_the_scan(self, ops):
        bucket = Bucket("test")
        for op, name in ops:
            if op == "put":
                bucket.put(StoredObject(name, data=b""))
            elif op == "delete" and bucket.contains(name):
                bucket.delete(name)
            else:
                assert bucket.list_keys(name) == _scan(bucket, name)
        assert bucket.list_keys() == _scan(bucket, "")
