"""End-to-end cache-tier tests against the emulated cloud.

Covers the acceptance points ISSUE 5 names: intermediates are actually
served from memory when the tier is on, answers never change, crash-loss
under the ``crashy-workers`` chaos profile falls back to COS
transparently, and same-seed cached runs stay byte-deterministic.
"""

from __future__ import annotations

import repro as pw
from repro.chaos import ChaosProfile
from repro.core.environment import CloudEnvironment
from repro.core.shuffle import merge_shuffle_results

SEED = 123

DOCS = [
    "cloud functions run python",
    "python functions scale",
    "cloud scale cloud",
    "serverless data analytics",
    "data shuffle data",
    "analytics in the cloud",
]

EXPECTED = {}
for _doc in DOCS:
    for _word in _doc.split():
        EXPECTED[_word] = EXPECTED.get(_word, 0) + 1


def _word_pairs(text):
    return [(word, 1) for word in text.split()]


def _count(key, values):
    del key
    return sum(values)


def _wordcount(env):
    def main():
        executor = pw.ibm_cf_executor()
        reducers = executor.map_reduce_shuffle(
            _word_pairs, DOCS, _count, n_reducers=3
        )
        return merge_shuffle_results(executor.get_result(reducers))

    return env.run(main)


class TestCachedExchange:
    def test_shuffle_reads_served_from_memory(self):
        env = CloudEnvironment.create(
            seed=SEED, exchange="cached-cos"
        )
        assert _wordcount(env) == EXPECTED
        stats = env.exchange.stats()
        assert stats["local_hits"] + stats["peer_hits"] > 0
        # nothing in this run exceeds a node budget, so no read missed
        assert stats["cos_misses"] == 0
        assert stats["read_seconds_total"] > 0.0

    def test_answers_identical_with_and_without_cache(self):
        plain = CloudEnvironment.create(seed=SEED)
        cached = CloudEnvironment.create(
            seed=SEED, exchange="cached-cos"
        )
        assert plain.exchange.name == "cos"  # off by default
        assert _wordcount(plain) == _wordcount(cached) == EXPECTED

    def test_zero_budget_plane_matches_disabled_timing(self):
        """The zero-budget tier is timing-neutral (the bench's cos-only mode)."""
        plain = CloudEnvironment.create(seed=SEED)
        neutered = CloudEnvironment.create(
            seed=SEED,
            exchange=pw.ExchangeConfig(
                backend="cached-cos", cache_node_budget_bytes=0
            ),
        )
        assert _wordcount(plain) == _wordcount(neutered) == EXPECTED
        assert plain.now() == neutered.now()
        stats = neutered.exchange.stats()
        assert stats["local_hits"] == stats["peer_hits"] == 0
        assert stats["cos_misses"] == stats["intermediate_reads"] > 0


class TestCrashLossFallback:
    def test_crashy_workers_fall_back_to_cos(self):
        """Containers die mid-job; readers must never depend on residency."""
        env = CloudEnvironment.create(
            seed=SEED,
            exchange="cached-cos",
            chaos=ChaosProfile("crashy-workers", seed=3, crash_prob=0.3),
        )
        assert _wordcount(env) == EXPECTED
        # crashes actually happened ...
        assert env.chaos.fault_counts().get("container:crash", 0) >= 1
        stats = env.exchange.stats()
        # ... crash reclaim dropped cached entries with the dying containers
        assert stats["evictions"].get("crash", 0) >= 1
        # ... and readers whose copies died transparently went to COS
        assert stats["cos_misses"] >= 1
        assert stats["intermediate_reads"] > 0

    def test_chaos_answer_matches_clean_run(self):
        clean = CloudEnvironment.create(
            seed=SEED, exchange="cached-cos"
        )
        chaotic = CloudEnvironment.create(
            seed=SEED,
            exchange="cached-cos",
            chaos=ChaosProfile("crashy-workers", seed=3, crash_prob=0.3),
        )
        assert _wordcount(clean) == _wordcount(chaotic) == EXPECTED


class TestDeterminism:
    def _traced_run(self):
        env = CloudEnvironment.create(
            seed=SEED, trace=True, exchange="cached-cos"
        )

        def main():
            executor = pw.ibm_cf_executor()
            reducers = executor.map_reduce_shuffle(
                _word_pairs, DOCS, _count, n_reducers=3
            )
            merged = merge_shuffle_results(executor.get_result(reducers))
            return merged, executor.executor_id, executor.trace_jsonl()

        merged, executor_id, jsonl = env.run(main)
        assert merged == EXPECTED
        return jsonl.replace(executor_id, "EXEC")

    def test_same_seed_cached_traces_byte_identical(self):
        first = self._traced_run()
        second = self._traced_run()
        assert first != ""
        assert first == second
        # the cache layer itself showed up in the trace
        assert '"layer": "cache"' in first or '"cache"' in first
