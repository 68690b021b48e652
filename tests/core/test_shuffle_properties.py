"""Property tests for the shuffle plane's pure core (core/shuffle.py).

The shuffle's correctness rests on three local invariants:

* ``stable_key_hash`` is a pure function of the key's ``repr`` — identical
  across calls, processes, and ``PYTHONHASHSEED`` values (unlike builtin
  ``hash``), so every mapper routes a key to the same reducer;
* ``partition_pairs`` is a tiling: every emitted pair lands in exactly one
  of the R buckets (no loss, no duplication), in the bucket its key hash
  selects, preserving emission order within a bucket — and it is
  indistinguishable, down to the pickled bytes of each bucket, from the
  textbook loop that hashes every pair (``_reference_partition_pairs``
  below), while hashing each distinct key only once per call;
* ``merge_shuffle_results`` is order-independent over the disjoint
  per-reducer dicts, and loudly rejects overlap (exactly-once violated).
"""

from __future__ import annotations

import pathlib
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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


def _assert_same_buckets(pairs, n_reducers):
    got = partition_pairs(pairs, n_reducers)
    want = _reference_partition_pairs(pairs, n_reducers)
    assert got == want
    # == cannot tell 1 from 1.0 from True, or 0.0 from -0.0; bytes can
    assert [serializer.serialize(bucket) for bucket in got] == [
        serializer.serialize(bucket) for bucket in want
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
        flat = [pair for bucket in buckets for pair in bucket]
        assert sorted(map(repr, flat)) == sorted(map(repr, pairs))

    @settings(max_examples=60)
    @given(pairs=_pairs, n_reducers=st.integers(min_value=1, max_value=9))
    def test_assignment_matches_key_hash(self, pairs, n_reducers):
        buckets = partition_pairs(pairs, n_reducers)
        for index, bucket in enumerate(buckets):
            for key, _value in bucket:
                assert stable_key_hash(key) % n_reducers == index

    @given(pairs=_pairs)
    def test_single_reducer_preserves_order(self, pairs):
        (bucket,) = partition_pairs(pairs, 1)
        assert bucket == list(pairs)

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
        slots = {
            repr(key): index
            for index, bucket in enumerate(partition_pairs(pairs, 64))
            for key, _value in bucket
        }
        assert slots == {repr(key): stable_key_hash(key) % 64 for key in keys}
        assert len({slots["1"], slots["1.0"], slots["True"]}) > 1

    def test_nan_keys(self):
        nan = float("nan")
        _assert_same_buckets([(nan, 1), (float("nan"), 2), (nan, 3)], 4)

    def test_unhashable_keys(self):
        _assert_same_buckets([([1, 2], "a"), ([1, 2], "b"), ({"k": 1}, "c")], 4)

    def test_generator_of_pairs_is_consumed_once(self):
        words = "to be or not to be".split()
        buckets = partition_pairs(((word, 1) for word in words), 3)
        assert buckets == _reference_partition_pairs([(w, 1) for w in words], 3)

    def test_list_pairs_are_normalised_to_tuples(self):
        buckets = partition_pairs([["a", 1], ("b", 2), ["a", 3]], 2)
        assert all(type(pair) is tuple for bucket in buckets for pair in bucket)
        _assert_same_buckets([["a", 1], ("b", 2), ["a", 3]], 2)

    def test_a_triple_is_rejected(self):
        with pytest.raises(ValueError, match="too many values to unpack"):
            partition_pairs([("a", 1), ("b", 2, 3)], 2)

    def test_one_tuple_emitted_many_times_pickles_as_fresh_tuples(self):
        # re-using the emitted tuple would let pickle memoise it and
        # change the bucket's bytes (hence modelled transfer time)
        pair = ("the", 1)
        _assert_same_buckets([pair] * 1000, 4)
        (bucket,) = [b for b in partition_pairs([pair] * 1000, 4) if b]
        assert all(item is not pair for item in bucket)


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
            assert sum(map(len, buckets)) == self.PAIRS
            assert len(calls) == self.DISTINCT


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
