"""Tests for map_reduce: data discovery, partitioning, reducers (§4.3)."""

from __future__ import annotations

import collections

import pytest

import repro as pw
from repro.core.environment import CloudEnvironment
from repro.core.errors import PyWrenError
from repro.core.storage_client import InternalStorage
from repro.core.wait import Watcher
from repro.dag import scheduler as scheduler_module
from repro.net import LatencyModel
from repro.vtime import fan_out_steps


def put_text(env, bucket, objects):
    env.storage.create_bucket(bucket, exist_ok=True)
    for key, text in objects.items():
        env.storage.put_object(bucket, key, text.encode())


def count_bytes(partition):
    return len(partition.read())


def total(results):
    return sum(results)


class TestMapReduceValues:
    def test_single_reducer_over_values(self, env):
        def main():
            executor = pw.ibm_cf_executor()
            reducer = executor.map_reduce(lambda x: x * x, [1, 2, 3, 4], total)
            return executor.get_result(reducer)

        assert env.run(main) == 30

    def test_reducer_receives_ordered_results(self, env):
        def main():
            executor = pw.ibm_cf_executor()
            reducer = executor.map_reduce(
                lambda x: x, [3, 1, 2], lambda results: results
            )
            return executor.get_result(reducer)

        assert env.run(main) == [3, 1, 2]

    def test_empty_dataset_raises(self, env):
        def main():
            executor = pw.ibm_cf_executor()
            with pytest.raises(PyWrenError):
                executor.map_reduce(lambda x: x, [], total)
            return True

        assert env.run(main)

    def test_reducer_one_per_object_requires_spec(self, env):
        def main():
            executor = pw.ibm_cf_executor()
            with pytest.raises(ValueError):
                executor.map_reduce(
                    lambda x: x, [1, 2], total, reducer_one_per_object=True
                )
            return True

        assert env.run(main)


class TestMapReduceStorage:
    def test_discovery_over_bucket(self, env):
        put_text(env, "data", {"a.txt": "xx", "b.txt": "yyy", "c.txt": "z"})

        def main():
            executor = pw.ibm_cf_executor()
            reducer = executor.map_reduce(count_bytes, "cos://data", total)
            return executor.get_result(reducer)

        assert env.run(main) == 6

    def test_chunking_produces_expected_executors(self, env):
        put_text(env, "data", {"big.txt": "x" * 1000})

        def main():
            executor = pw.ibm_cf_executor()
            reducer = executor.map_reduce(
                count_bytes, "cos://data", total, chunk_size=300
            )
            result = executor.get_result(reducer)
            maps = [f for f in executor.futures if f.callset_id.startswith("M")]
            return result, len(maps)

        result, n_maps = env.run(main)
        assert result == 1000  # all bytes covered exactly once
        assert n_maps == 4  # ceil(1000/300)

    def test_single_object_spec(self, env):
        put_text(env, "data", {"a.txt": "hello", "b.txt": "ignored"})

        def main():
            executor = pw.ibm_cf_executor()
            reducer = executor.map_reduce(count_bytes, "cos://data/a.txt", total)
            return executor.get_result(reducer)

        assert env.run(main) == 5

    def test_map_function_sees_partition_fields(self, env):
        put_text(env, "data", {"a.txt": "0123456789"})

        def main():
            executor = pw.ibm_cf_executor()

            def describe(partition):
                return (
                    partition.key,
                    partition.range_start,
                    partition.range_end,
                    partition.object_size,
                    partition.read(),
                )

            futures = executor.map(describe, "cos://data", chunk_size=6)
            return executor.get_result(futures)

        rows = env.run(main)
        assert rows == [
            ("a.txt", 0, 6, 10, b"012345"),
            ("a.txt", 6, 10, 10, b"6789"),
        ]

    def test_default_chunk_size_from_config(self, cloud):
        env = cloud()
        env.config = env.config.with_overrides(chunk_size=4)
        put_text(env, "data", {"a.txt": "0123456789"})

        def main():
            executor = pw.ibm_cf_executor()
            futures = executor.map(count_bytes, "cos://data")
            return len(futures), executor.get_result(futures)

        n, sizes = env.run(main)
        assert n == 3  # ceil(10/4)
        assert sizes == [4, 4, 2]


class TestReducerPerObject:
    def test_one_reducer_per_object_key(self, env):
        put_text(
            env,
            "cities",
            {"nyc.txt": "a" * 100, "paris.txt": "b" * 250, "rome.txt": "c" * 30},
        )

        def main():
            executor = pw.ibm_cf_executor()
            reducers = executor.map_reduce(
                count_bytes,
                "cos://cities",
                total,
                chunk_size=100,
                reducer_one_per_object=True,
            )
            keys = [r.metadata["object_key"] for r in reducers]
            values = executor.get_result(reducers)
            return dict(zip(keys, values))

        assert env.run(main) == {
            "nyc.txt": 100,
            "paris.txt": 250,
            "rome.txt": 30,
        }

    def test_reducer_waits_for_all_its_partials(self, env):
        """The §4.3 contract: a reducer processes all partial results."""
        put_text(env, "cities", {"x.txt": "d" * 500})

        def main():
            executor = pw.ibm_cf_executor()

            def staggered(partition):
                pw.sleep(partition.partition_index * 10.0)
                return partition.size

            reducers = executor.map_reduce(
                staggered,
                "cos://cities",
                lambda results: (len(results), sum(results)),
                chunk_size=100,
                reducer_one_per_object=True,
            )
            return executor.get_result(reducers)

        assert env.run(main) == [(5, 500)]

    def test_returns_list_even_for_single_object(self, env):
        put_text(env, "solo", {"only.txt": "e" * 10})

        def main():
            executor = pw.ibm_cf_executor()
            reducers = executor.map_reduce(
                count_bytes,
                "cos://solo",
                total,
                reducer_one_per_object=True,
            )
            assert isinstance(reducers, list)
            return executor.get_result(reducers)

        assert env.run(main) == [10]


CITIES = ("nyc.txt", "paris.txt", "rome.txt")


def slow_count(partition):
    pw.sleep(3.0 + partition.partition_index)
    return partition.size


def fail_in_paris(partition):
    if partition.key == "paris.txt":
        raise RuntimeError("unreadable partition")
    return partition.size


def per_object(executor, map_function):
    return executor.map_reduce(
        map_function, "cos://cities", total,
        chunk_size=100, reducer_one_per_object=True,
    )


class TestOneDagPerMapReduce:
    """Every reducer of one ``map_reduce`` is a node of one DAG: one
    watcher, one LIST of the map callset per round, one reducer callset."""

    def test_one_dag_submit_and_one_reducer_callset(self):
        env = CloudEnvironment.create(
            client_latency=LatencyModel.wan(), seed=5, trace=True
        )
        put_text(
            env, "cities",
            {"rome.txt": "c" * 130, "nyc.txt": "a" * 400, "paris.txt": "b" * 250},
        )

        def main():
            executor = pw.ibm_cf_executor()
            reducers = per_object(executor, count_bytes)
            values = executor.get_result(reducers)
            events = executor.trace_events()
            return reducers, values, [e for e in events if e.name == "dag.submit"]

        reducers, values, submits = env.run(main)
        assert len(submits) == 1
        assert [(r.callset_id, r.call_id) for r in reducers] == [
            (reducers[0].callset_id, f"{i:05d}") for i in range(3)
        ]
        assert [
            (r.metadata["bucket"], r.metadata["object_key"]) for r in reducers
        ] == [("cities", key) for key in CITIES]
        assert values == [400, 250, 130]

    def test_failed_map_buries_only_its_objects_reducer(self, env):
        put_text(env, "cities", {key: "x" * 200 for key in CITIES})

        def main():
            executor = pw.ibm_cf_executor()
            reducers = per_object(executor, fail_in_paris)
            return executor.get_result(reducers, throw_except=False)

        values, report = env.run(main)
        assert values == [200, None, 200]
        [failure] = report.failures
        assert failure.call_id == "00001"
        assert "upstream DAG node" in str(failure.error)

    def test_one_list_of_the_maps_per_watcher_round(self, env, monkeypatch):
        """3 objects x 4 chunks: the map callset is LISTed at most once per
        round of the executor's one watcher (a DAG per object, or a wait
        beside the DAG, would LIST it again)."""
        put_text(env, "cities", {key: "x" * 400 for key in CITIES})
        lists = collections.Counter()
        rounds = []
        list_done = InternalStorage.list_done_call_ids_steps
        round_steps = Watcher._round_steps

        def counting_list(storage, executor_id, callset_id):
            lists[callset_id] += 1
            return (yield from list_done(storage, executor_id, callset_id))

        def counting_round(watcher, executor):
            rounds.append(watcher)
            return (yield from round_steps(watcher, executor))

        monkeypatch.setattr(InternalStorage, "list_done_call_ids_steps", counting_list)
        monkeypatch.setattr(Watcher, "_round_steps", counting_round)

        def main():
            executor = pw.ibm_cf_executor()
            return executor.get_result(per_object(executor, slow_count))

        assert env.run(main) == [400, 400, 400]
        assert lists["M000"] > 3  # the maps span several rounds
        assert len(set(rounds)) == 1
        assert lists["M000"] <= len(rounds)

    @staticmethod
    def _traced_run():
        env = CloudEnvironment.create(
            client_latency=LatencyModel.wan(), seed=11, trace=True
        )
        put_text(env, "cities", {key: "x" * 400 for key in CITIES})

        def main():
            executor = pw.ibm_cf_executor()
            values = executor.get_result(per_object(executor, count_bytes))
            return values, executor.executor_id, executor.trace_jsonl()

        values, executor_id, jsonl = env.run(main)
        return values, jsonl.replace(executor_id, "EXEC")

    def test_same_seed_concurrent_status_reads_trace_identically(
        self, monkeypatch
    ):
        batches = []

        def recording(kernel, steps_fn, items, width, name="fan-out"):
            if name == "dag-status":
                batches.append(len(items))
            return fan_out_steps(kernel, steps_fn, items, width, name)

        monkeypatch.setattr(scheduler_module, "fan_out_steps", recording)
        first = self._traced_run()
        second = self._traced_run()
        assert first[0] == [400, 400, 400]
        assert max(batches) >= 2  # a round read several statuses at once
        assert first == second
