"""Tests for the COS-based shuffle (keyed MapReduce)."""

from __future__ import annotations

import contextlib
import threading
import weakref
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro as pw
from repro.core import context as ambient
from repro.core import serializer
from repro.core.shuffle import (
    make_shuffle_map,
    make_shuffle_reduce_fetch,
    merge_shuffle_results,
    partition_pairs,
    stable_key_hash,
)
from repro.core.storage_client import InternalStorage
from repro.cos.errors import NoSuchKey


class TestPartitioning:
    def test_stable_hash_deterministic(self):
        assert stable_key_hash("word") == stable_key_hash("word")
        assert stable_key_hash(("a", 1)) == stable_key_hash(("a", 1))

    def test_different_keys_spread(self):
        buckets = {stable_key_hash(f"key-{i}") % 8 for i in range(100)}
        assert len(buckets) == 8  # all reducers get some keys

    def test_partition_pairs_groups_same_key_together(self):
        pairs = [("a", 1), ("b", 2), ("a", 3), ("c", 4), ("b", 5)]
        buckets = partition_pairs(pairs, 4)
        assert sum(len(values) for b in buckets for values in b.values()) == 5
        location = {}
        for index, bucket in enumerate(buckets):
            for key in bucket:
                location.setdefault(key, set()).add(index)
        assert all(len(spots) == 1 for spots in location.values())
        assert {key: values for b in buckets for key, values in b.items()} == {
            "a": [1, 3], "b": [2, 5], "c": [4]
        }

    @settings(max_examples=50, deadline=None)
    @given(
        keys=st.lists(st.text(max_size=6), max_size=50),
        n_reducers=st.integers(min_value=1, max_value=16),
    )
    def test_partitioning_is_total_and_consistent(self, keys, n_reducers):
        pairs = [(k, i) for i, k in enumerate(keys)]
        buckets = partition_pairs(pairs, n_reducers)
        assert len(buckets) == n_reducers
        flat = [(k, v) for b in buckets for k, vs in b.items() for v in vs]
        assert sorted(flat) == sorted(pairs)


class TestMergeResults:
    def test_merge_disjoint(self):
        assert merge_shuffle_results([{"a": 1}, {"b": 2}]) == {"a": 1, "b": 2}

    def test_overlap_rejected(self):
        with pytest.raises(ValueError, match="invariant"):
            merge_shuffle_results([{"a": 1}, {"a": 2}])

    def test_overlap_of_mixed_type_keys_still_names_the_invariant(self):
        # 1 and "a" do not order: the report sorts by repr, or a
        # TypeError would hide the error that matters
        with pytest.raises(ValueError, match=r"invariant violated: keys \['a', 1"):
            merge_shuffle_results([{1: 1, "a": 2}, {1.0: 3, "a": 4}])

    def test_empty(self):
        assert merge_shuffle_results([]) == {}


class TestEndToEnd:
    def test_wordcount_by_key(self, env):
        documents = [
            "cloud functions run python",
            "python functions scale",
            "cloud scale cloud",
        ]

        def emit_words(doc):
            return [(word, 1) for word in doc.split()]

        def count(key, values):
            return sum(values)

        def main():
            executor = pw.ibm_cf_executor()
            reducers = executor.map_reduce_shuffle(
                emit_words, documents, count, n_reducers=3
            )
            return merge_shuffle_results(executor.get_result(reducers))

        counts = env.run(main)
        assert counts == {
            "cloud": 3,
            "functions": 2,
            "run": 1,
            "python": 2,
            "scale": 2,
        }

    def test_reducer_count_respected(self, env):
        def main():
            executor = pw.ibm_cf_executor()
            reducers = executor.map_reduce_shuffle(
                lambda x: [(x % 5, x)], list(range(20)), lambda k, vs: sum(vs),
                n_reducers=7,
            )
            assert len(reducers) == 7
            assert [r.metadata["reducer_index"] for r in reducers] == list(range(7))
            return merge_shuffle_results(executor.get_result(reducers))

        result = env.run(main)
        assert result == {m: sum(x for x in range(20) if x % 5 == m) for m in range(5)}

    def test_over_storage_partitions(self, env):
        env.storage.create_bucket("docs")
        env.storage.put_object("docs", "d1", b"alpha beta\nalpha\n")
        env.storage.put_object("docs", "d2", b"beta beta\ngamma\n")

        def emit(partition):
            text = partition.read_lines().decode()
            return [(w, 1) for w in text.split()]

        def main():
            executor = pw.ibm_cf_executor()
            reducers = executor.map_reduce_shuffle(
                emit, "cos://docs", lambda k, vs: sum(vs), n_reducers=2
            )
            return merge_shuffle_results(executor.get_result(reducers))

        assert env.run(main) == {"alpha": 2, "beta": 3, "gamma": 1}

    def test_map_failure_propagates_to_reducers(self, env):
        from repro.core.errors import FunctionError

        def bad_map(x):
            if x == 1:
                raise RuntimeError("map died")
            return [(x, 1)]

        def main():
            executor = pw.ibm_cf_executor()
            reducers = executor.map_reduce_shuffle(
                bad_map, [0, 1, 2], lambda k, vs: sum(vs), n_reducers=2
            )
            failures = 0
            for reducer in reducers:
                try:
                    reducer.result()
                except FunctionError:
                    failures += 1
            return failures

        assert env.run(main) == 2  # every reducer surfaces the map failure

    def test_unhashable_key_fails_its_map_and_buries_the_reducers(self, env):
        """Grouping is a dict on the map side: the map that emits a list
        key fails with a TypeError cause, and no reducer runs."""

        def emit(x):
            return [([x], 1)] if x == 1 else [(x, 1)]

        def reduce_must_not_run(key, values):
            raise AssertionError("reduce_function ran")

        def main():
            executor = pw.ibm_cf_executor()
            reducers = executor.map_reduce_shuffle(
                emit, [0, 1, 2], reduce_must_not_run, n_reducers=2
            )
            values, report = executor.get_result(throw_except=False)
            return reducers, values, report

        reducers, values, report = env.run(main)
        assert values == [{"emitted": 1, "buckets_written": 1}, None,
                          {"emitted": 1, "buckets_written": 1}, None, None]
        failed_map, *buried = report.failures
        assert (failed_map.callset_id, failed_map.call_id) == ("M000", "00001")
        assert "TypeError" in failed_map.error
        assert "unhashable type: 'list'" in failed_map.error
        assert [(f.callset_id, f.call_id) for f in buried] == [
            (r.callset_id, r.call_id) for r in reducers
        ]
        for failure in buried:
            assert "upstream DAG node 'map:00001' failed: TypeError" in failure.error
            assert "reduce_function ran" not in failure.error

    def test_empty_dataset_rejected(self, env):
        from repro.core.errors import PyWrenError

        def main():
            executor = pw.ibm_cf_executor()
            with pytest.raises(PyWrenError):
                executor.map_reduce_shuffle(
                    lambda x: [], [], lambda k, vs: vs, n_reducers=2
                )
            return True

        assert env.run(main)

    def test_invalid_reducer_count(self, env):
        def main():
            executor = pw.ibm_cf_executor()
            with pytest.raises(ValueError):
                executor.map_reduce_shuffle(
                    lambda x: [], [1], lambda k, vs: vs, n_reducers=0
                )
            return True

        assert env.run(main)

    def test_values_preserve_order_within_map(self, env):
        """Values from one map task arrive in emission order."""

        def emit(x):
            return [("k", (x, i)) for i in range(3)]

        def main():
            executor = pw.ibm_cf_executor()
            reducers = executor.map_reduce_shuffle(
                emit, [7], lambda k, vs: vs, n_reducers=1
            )
            return merge_shuffle_results(executor.get_result(reducers))

        assert env.run(main) == {"k": [(7, 0), (7, 1), (7, 2)]}


class _Sentinel:
    """A weakref-able emitted value."""


_UNPICKLED = [0]


def _rebuild_counted():
    _UNPICKLED[0] += 1
    return _Counted()


class _Counted:
    """A value that counts its own unpickling."""

    def __reduce__(self):
        return (_rebuild_counted, ())


class _ProbeExchange:
    """An in-memory exchange that runs a probe before every request."""

    def __init__(self, on_put=lambda key: None, on_get=lambda key: None):
        self.objects = {}
        self.on_put, self.on_get = on_put, on_get

    def put(self, cos, bucket, key, blob, site=None):
        self.on_put(key)
        self.objects[key] = blob

    def get(self, cos, bucket, key, site=None):
        self.on_get(key)
        if key not in self.objects:
            raise NoSuchKey(key)
        return self.objects[key]


@contextlib.contextmanager
def _in_cloud(exchange, call_info=None):
    """Run shims against a real ``InternalStorage`` over ``exchange``."""
    storage = InternalStorage(None, "bucket", exchange=exchange)
    environment = SimpleNamespace(internal_storage_in_cloud=lambda: storage)
    ambient.push_context(environment, in_cloud=True, call_info=call_info)
    try:
        yield storage
    finally:
        ambient.pop_context()


MAP_INFO = {"executor_id": "e", "callset_id": "M000", "call_id": "00000"}


class TestHeapBetweenRequests:
    """No timing: a shim blocked on a shuffle request holds bytes, not the
    value lists the cyclic collector would walk at every full pass."""

    def test_a_map_holds_no_emitted_value_across_a_put(self):
        refs, puts = [], []

        def emit(n):
            pairs = []
            for i in range(n):
                value = _Sentinel()
                refs.append(weakref.ref(value))
                pairs.append((f"k{i % 13}", value))
            return pairs

        def on_put(key):
            puts.append(key)
            assert [ref for ref in refs if ref() is not None] == []

        with _in_cloud(_ProbeExchange(on_put=on_put), MAP_INFO):
            out = make_shuffle_map(emit, 4)(60)
        assert out == {"emitted": 60, "buckets_written": 4}
        assert len(puts) == 4 and len(refs) == 60

    def test_a_reducer_unpickles_nothing_before_its_last_get(self):
        gets = []

        def on_get(key):
            gets.append(key)
            assert _UNPICKLED[0] == 0

        futures = [
            SimpleNamespace(executor_id="e", callset_id="M000", call_id=f"{m:05d}")
            for m in range(4)
        ]
        exchange = _ProbeExchange(on_get=on_get)
        with _in_cloud(exchange) as storage:
            for m, future in enumerate(futures[:3]):  # the last map emitted none
                key = storage.shuffle_key("e", "M000", future.call_id, 1)
                exchange.objects[key] = serializer.serialize(
                    {"a": [_Counted() for _ in range(m + 1)], f"only-{m}": [_Counted()]}
                )
            _UNPICKLED[0] = 0
            out = make_shuffle_reduce_fetch(lambda key, values: len(values), 1)(futures)
        assert len(gets) == 4
        assert out == {"a": 6, "only-0": 1, "only-1": 1, "only-2": 1}
        assert list(out) == ["a", "only-0", "only-1", "only-2"]
        assert _UNPICKLED[0] == 9  # one per value, after the last GET

    def test_an_unpicklable_bucket_fails_the_map_before_any_put(self):
        # the last bucket cannot be pickled; the three before it could
        lock_key = next(
            key for key in (f"lock{i}" for i in range(100)) if stable_key_hash(key) % 4 == 3
        )
        puts = []
        with _in_cloud(_ProbeExchange(on_put=puts.append), MAP_INFO):
            with pytest.raises(serializer.SerializationError, match="lock"):
                make_shuffle_map(
                    lambda n: [(f"k{i}", i) for i in range(n)] + [(lock_key, threading.Lock())],
                    4,
                )(40)
        assert puts == []
