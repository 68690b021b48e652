"""Property tests for the shuffle plane's pure core (core/shuffle.py).

The shuffle's correctness rests on three local invariants:

* ``stable_key_hash`` is a pure function of the key's ``repr`` — identical
  across calls, processes, and ``PYTHONHASHSEED`` values (unlike builtin
  ``hash``), so every mapper routes a key to the same reducer;
* ``partition_pairs`` groups every emitted pair into exactly one of the R
  ``{key: [values]}`` buckets (no loss, no duplication), the one its key
  hash selects, keeping emission order within a key's value list — and it
  is indistinguishable, down to the pickled bytes of each bucket, from the
  textbook loop that hashes every pair and the reducer's per-pair grouping
  loop (``_reference_partition_pairs`` / ``_reference_group`` below), while
  hashing each distinct key only once per call; through the map and reduce
  shims, which ship each map's bucket as one pickled blob, every reducer
  calls ``reduce_function`` exactly as the per-pair shuffle does when each
  map's group crosses pickle once;
* ``merge_shuffle_results`` is order-independent over the disjoint
  per-reducer dicts, and loudly rejects overlap (exactly-once violated).
"""

from __future__ import annotations

import itertools
import pathlib
import random
import subprocess
import sys
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import context as ambient
from repro.core import serializer, shuffle
from repro.core.shuffle import (
    merge_shuffle_results,
    partition_pairs,
    stable_key_hash,
)

#: hashable primitives sensible as shuffle keys (repr-stable)
_keys = st.one_of(
    st.text(max_size=8),
    st.integers(min_value=-(2**40), max_value=2**40),
    st.tuples(st.text(max_size=4), st.integers(min_value=0, max_value=99)),
)
_pairs = st.lists(
    st.tuples(_keys, st.integers(min_value=-1000, max_value=1000)), max_size=80
)

#: keys that compare equal yet print differently (and so route
#: differently), keys that are another key's repr, NaN, and nestings
_awkward_atoms = st.one_of(
    st.sampled_from(
        [0, 1, -1, 0.0, -0.0, 1.0, -1.0, True, False, float("nan"),
         "1", "1.0", "True", "a", "'a'", "(1,)", ""]
    ),
    st.integers(min_value=-3, max_value=3),
    st.floats(allow_nan=True, allow_infinity=True, width=16),
    st.text(alphabet="1.0aeT'ru", max_size=4),
)
_awkward_keys = st.one_of(
    _awkward_atoms,
    _awkward_atoms.map(repr),  # a str key spelled like another key's repr
    st.recursive(
        _awkward_atoms,
        lambda inner: st.lists(inner, max_size=3).map(tuple),
        max_leaves=5,
    ),
)
_awkward_pairs = st.lists(
    st.tuples(_awkward_keys, st.integers(min_value=-9, max_value=9)), max_size=60
)


def _reference_partition_pairs(pairs, n_reducers):
    """The textbook partitioner: one hash per pair.  The contract."""
    buckets = [[] for _ in range(n_reducers)]
    for key, value in pairs:
        buckets[stable_key_hash(key) % n_reducers].append((key, value))
    return buckets


def _reference_group(buckets):
    """The per-pair reducer loop over lists of pairs.  The contract."""
    grouped = {}
    for bucket in buckets:
        for key, value in bucket:
            grouped.setdefault(key, []).append(value)
    return grouped


def _reference_shuffle_reduce(per_map_buckets, reduce_function):
    """The per-pair reducer over the wire: each map's pairs grouped as the
    map groups them, round-tripped through the serializer as the shuffle
    plane ships them, merged in map order, reduced per key."""
    grouped = {}
    for bucket in per_map_buckets:
        shipped = serializer.deserialize(serializer.serialize(_reference_group([bucket])))
        for key, values in shipped.items():
            grouped.setdefault(key, []).extend(values)
    return {
        key: reduce_function(key, values) for key, values in grouped.items()
    }


def _assert_same_groups(got, want):
    assert got == want
    # == cannot tell 1 from 1.0 from True, or 0.0 from -0.0, and finds a
    # NaN key by identity; the key objects themselves and bytes can
    assert [list(map(id, bucket)) for bucket in got] == [
        list(map(id, bucket)) for bucket in want
    ]
    assert [serializer.serialize(bucket) for bucket in got] == [
        serializer.serialize(bucket) for bucket in want
    ]


def _assert_same_buckets(pairs, n_reducers):
    got = partition_pairs(pairs, n_reducers)
    want = [
        _reference_group([bucket])
        for bucket in _reference_partition_pairs(pairs, n_reducers)
    ]
    _assert_same_groups(got, want)


def _emitted(buckets):
    """Every (key, value) a grouped partition holds, bucket by bucket."""
    return [
        (key, value)
        for bucket in buckets
        for key, values in bucket.items()
        for value in values
    ]


class TestStableKeyHash:
    @given(key=_keys)
    def test_deterministic_across_calls(self, key):
        assert stable_key_hash(key) == stable_key_hash(key)

    @given(key=_keys)
    def test_depends_only_on_repr(self, key):
        assert stable_key_hash(key) == stable_key_hash(eval(repr(key)))

    def test_pinned_values(self):
        # frozen goldens: a drift here silently reshuffles every key
        assert stable_key_hash("the") == 2527348067058907186
        assert stable_key_hash(7) == 10310116547102381690
        assert stable_key_hash(("a", 1)) == 8389944528275121772

    @pytest.mark.parametrize("hashseed", ["0", "12345"])
    def test_stable_across_processes_and_hash_seeds(self, hashseed):
        # builtin hash() of str varies per process; stable_key_hash must not
        script = (
            "from repro.core.shuffle import stable_key_hash;"
            "print(stable_key_hash('the'), stable_key_hash(('a', 1)))"
        )
        out = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            check=True,
            env={
                "PYTHONPATH": str(
                    pathlib.Path(__file__).resolve().parents[2] / "src"
                ),
                "PYTHONHASHSEED": hashseed,
            },
        ).stdout.split()
        assert out == ["2527348067058907186", "8389944528275121772"]


class TestPartitionPairs:
    @settings(max_examples=60)
    @given(pairs=_pairs, n_reducers=st.integers(min_value=1, max_value=9))
    def test_tiling_is_exactly_once_and_gap_free(self, pairs, n_reducers):
        buckets = partition_pairs(pairs, n_reducers)
        assert len(buckets) == n_reducers
        flat = _emitted(buckets)
        assert sorted(map(repr, flat)) == sorted(map(repr, pairs))

    @settings(max_examples=60)
    @given(pairs=_pairs, n_reducers=st.integers(min_value=1, max_value=9))
    def test_assignment_matches_key_hash(self, pairs, n_reducers):
        buckets = partition_pairs(pairs, n_reducers)
        for index, bucket in enumerate(buckets):
            for key in bucket:
                assert stable_key_hash(key) % n_reducers == index

    @given(pairs=_pairs)
    def test_single_reducer_preserves_order(self, pairs):
        (bucket,) = partition_pairs(pairs, 1)
        assert list(bucket.items()) == list(_reference_group([pairs]).items())

    @settings(max_examples=200)
    @given(
        pairs=st.one_of(_pairs, _awkward_pairs),
        n_reducers=st.integers(min_value=1, max_value=9),
    )
    def test_equals_the_per_pair_loop_to_the_byte(self, pairs, n_reducers):
        _assert_same_buckets(pairs, n_reducers)

    def test_equal_keys_that_print_differently_keep_their_own_slots(self):
        # 1 == 1.0 == True and hash alike, so a memo keyed by the key
        # object would send all three wherever the first one went
        keys = [1, 1.0, True, 0, 0.0, -0.0, False, (1,), (1.0,), (True,),
                "1", "1.0", "True", "a", "'a'"]
        pairs = [(key, index) for index, key in enumerate(keys * 3)]
        for n_reducers in (2, 3, 8, 64):
            _assert_same_buckets(pairs, n_reducers)
        # equal keys sharing a slot share its list, so find each pair's
        # slot by its value (the pair's index)
        slots = {
            repr(keys[index % len(keys)]): slot
            for slot, bucket in enumerate(partition_pairs(pairs, 64))
            for values in bucket.values()
            for index in values
        }
        assert slots == {repr(key): stable_key_hash(key) % 64 for key in keys}
        assert len({slots["1"], slots["1.0"], slots["True"]}) > 1

    def test_nan_keys(self):
        nan = float("nan")
        pairs = [(nan, 1), (float("nan"), 2), (nan, 3)]
        _assert_same_buckets(pairs, 4)
        # one NaN object is one key; another NaN is another key
        (bucket,) = [b for b in partition_pairs(pairs, 4) if b]
        assert list(bucket.values()) == [[1, 3], [2]]

    def test_unhashable_keys(self):
        # grouping is a dict on the map side: an unhashable key fails the
        # map, not (as with a list of pairs) every reducer that reads it
        with pytest.raises(TypeError, match="unhashable type: 'list'"):
            partition_pairs([("a", 1), ([1, 2], "a"), ([1, 2], "b")], 4)
        with pytest.raises(TypeError, match="unhashable type: 'dict'"):
            partition_pairs([({"k": 1}, "c")], 4)

    def test_generator_of_pairs_is_consumed_once(self):
        words = "to be or not to be".split()
        buckets = partition_pairs(((word, 1) for word in words), 3)
        assert buckets == [
            _reference_group([bucket])
            for bucket in _reference_partition_pairs([(w, 1) for w in words], 3)
        ]

    def test_list_pairs_unpack_like_tuples(self):
        buckets = partition_pairs([["a", 1], ("b", 2), ["a", 3]], 2)
        assert buckets == partition_pairs([("a", 1), ("b", 2), ("a", 3)], 2)
        _assert_same_buckets([["a", 1], ("b", 2), ["a", 3]], 2)

    def test_a_triple_is_rejected(self):
        with pytest.raises(ValueError, match="too many values to unpack"):
            partition_pairs([("a", 1), ("b", 2, 3)], 2)

    def test_one_tuple_emitted_many_times_is_one_key_and_one_list(self):
        pair = ("the", 1)
        _assert_same_buckets([pair] * 1000, 4)
        (bucket,) = [b for b in partition_pairs([pair] * 1000, 4) if b]
        assert bucket == {"the": [1] * 1000}


class _FakeStorage:
    """Holds each map's pickled buckets as blobs, as the shuffle plane does."""

    def __init__(self):
        self.partitions = {}

    def put_shuffle_partition(self, executor_id, callset_id, call_id, reducer, blob):
        assert type(blob) is bytes and blob
        self.partitions[executor_id, callset_id, call_id, reducer] = blob

    def get_shuffle_partition(self, executor_id, callset_id, call_id, reducer):
        return self.partitions.get((executor_id, callset_id, call_id, reducer), b"")


def _run_shims(streams, n_reducers, reduce_function):
    """Both shims end to end over in-memory storage: one result per
    reducer, and the storage holding every map's blobs."""
    storage = _FakeStorage()
    environment = SimpleNamespace(internal_storage_in_cloud=lambda: storage)
    futures = []
    for call_id, stream in enumerate(streams):
        info = {"executor_id": "e", "callset_id": "M000", "call_id": f"{call_id:05d}"}
        ambient.push_context(environment, in_cloud=True, call_info=info)
        try:
            shuffle.make_shuffle_map(lambda pairs: iter(pairs), n_reducers)(stream)
        finally:
            ambient.pop_context()
        futures.append(SimpleNamespace(**info))
    results = []
    ambient.push_context(environment, in_cloud=True)
    try:
        for reducer_index in range(n_reducers):
            shim = shuffle.make_shuffle_reduce_fetch(reduce_function, reducer_index)
            results.append(shim(futures))
    finally:
        ambient.pop_context()
    return results, storage


class TestGroupedShuffleEquivalence:
    """Grouping on the map side and merging lists on the reduce side hands
    every reducer what the per-pair shuffle handed it: the same keys in
    the same first-seen order, with the same value lists, reduced by the
    same ``reduce_function`` calls in the same order.  Each map's group
    crosses pickle once on both sides, so a NaN key never merges across
    maps (one NaN object emitted by two maps is two keys), as in the real
    plane."""

    @settings(max_examples=150, deadline=None)
    @given(
        streams=st.lists(st.one_of(_pairs, _awkward_pairs), min_size=1, max_size=4),
        n_reducers=st.integers(min_value=1, max_value=9),
    )
    def test_reducers_see_what_the_per_pair_loops_saw(self, streams, n_reducers):
        # tag each value with its map and position, so order is observable
        streams = [
            [(key, (m, i)) for i, (key, _value) in enumerate(stream)]
            for m, stream in enumerate(streams)
        ]
        calls, reference_calls = [], []

        def record(into):
            def reduce_function(key, values):
                into.append((key, list(values)))
                return len(into)
            return reduce_function

        results, storage = _run_shims(streams, n_reducers, record(calls))
        reference_buckets = [
            _reference_partition_pairs(stream, n_reducers) for stream in streams
        ]
        reference_results = [
            _reference_shuffle_reduce(
                [buckets[slot] for buckets in reference_buckets],
                record(reference_calls),
            )
            for slot in range(n_reducers)
        ]
        for slot in range(n_reducers):  # each map's bucket per slot
            groups = [_reference_group([buckets[slot]]) for buckets in reference_buckets]
            _assert_same_groups(
                [partition_pairs(stream, n_reducers)[slot] for stream in streams], groups
            )
            # ... is what the map shipped: its pickle, or no object at all
            assert [
                storage.get_shuffle_partition("e", "M000", f"{call_id:05d}", slot)
                for call_id in range(len(streams))
            ] == [serializer.serialize(group) if group else b"" for group in groups]
        # keys crossed pickle on both sides, so compare bytes: they tell
        # 1 / 1.0 / True and 0.0 / -0.0 apart, and count NaN keys
        assert serializer.serialize(results) == serializer.serialize(reference_results)
        assert serializer.serialize(calls) == serializer.serialize(reference_calls)


class TestPartitionCost:
    """Design property, no timing: a map call pays the stable hash once
    per distinct key, and nothing it learned outlives the call."""

    PAIRS, DISTINCT = 100_000, 500

    @pytest.mark.parametrize(
        "make_key",
        [str, int, float, lambda i: (str(i), i)],
        ids=["str", "int", "float", "tuple"],
    )
    def test_one_hash_per_distinct_key_per_call(self, monkeypatch, make_key):
        calls = []

        def counting_hash(key):
            calls.append(key)
            return stable_key_hash(key)

        monkeypatch.setattr(shuffle, "stable_key_hash", counting_hash)
        pairs = [(make_key(i % self.DISTINCT), i) for i in range(self.PAIRS)]
        for _call in range(2):  # the second call starts from zero
            calls.clear()
            buckets = partition_pairs(pairs, 8)
            assert len(_emitted(buckets)) == self.PAIRS
            assert len(calls) == self.DISTINCT

    def test_pickled_bytes_per_emitted_pair(self):
        """A power-law word count ships each distinct word once per map:
        <= 4 pickled bytes per emitted pair (one (word, 1) tuple each was
        13.0 B)."""
        rng = random.Random("wordcount:42")
        vocabulary = [f"w{rank:05d}" for rank in range(20_000)]
        weights = list(itertools.accumulate(1.0 / (rank + 1) for rank in range(20_000)))
        document = " ".join(rng.choices(vocabulary, cum_weights=weights, k=100_000))
        pairs = [(word, 1) for word in document.split()]
        buckets = partition_pairs(pairs, 8)
        shipped = sum(len(serializer.serialize(bucket)) for bucket in buckets)
        assert shipped / len(pairs) <= 4.0


class TestMergeShuffleResults:
    @settings(max_examples=60)
    @given(
        results=st.lists(
            st.dictionaries(_keys, st.integers(), max_size=6), max_size=5
        ),
        seed=st.randoms(use_true_random=False),
    )
    def test_order_independent_when_disjoint(self, results, seed):
        # rekey to force disjointness: prefix each key with its dict index
        disjoint = [
            {(i, key): value for key, value in result.items()}
            for i, result in enumerate(results)
        ]
        merged = merge_shuffle_results(disjoint)
        shuffled = list(disjoint)
        seed.shuffle(shuffled)
        assert merge_shuffle_results(shuffled) == merged
        assert len(merged) == sum(len(d) for d in disjoint)

    @given(key=_keys, a=st.integers(), b=st.integers())
    def test_overlap_raises(self, key, a, b):
        with pytest.raises(ValueError, match="more than one reducer"):
            merge_shuffle_results([{key: a}, {key: b}])
