"""The seeded Fig. 4-shaped workloads the DAG and exchange criteria run.

One module for every shape, so the DAG-pipeline, DAG-swarm and
cache-exchange tests sweep the same graphs: the merge tree (uneven sort
leaves feeding a binary merge tree), the chain of non-fusable 2 s stages,
the wide-then-deep graph and the 12-document shuffle wordcount.  The
functions live at a stable module path, so they ship by reference and
their bytes do not depend on the checkout path.
"""

from __future__ import annotations

import contextlib
import random

import repro as pw
from repro.core.environment import CloudEnvironment
from repro.core.shuffle import merge_shuffle_results
from repro.cos.client import COSClient
from repro.dag import DagBuilder

SEED = 123
N_LEAVES = 8
CHUNK = 512
N_REDUCERS = 4


def chunk_sort(spec):
    """Sort one chunk; per-leaf skew models uneven input splits (Fig. 4)."""
    pw.sleep(5 + spec["skew"] * 15)
    return sorted(spec["chunk"])


def merge_pair(parts):
    left, right = parts
    pw.sleep(10)
    merged, i, j = [], 0, 0
    while i < len(left) and j < len(right):
        if left[i] <= right[j]:
            merged.append(left[i])
            i += 1
        else:
            merged.append(right[j])
            j += 1
    return merged + left[i:] + right[j:]


def sort_input(n_leaves=N_LEAVES, chunk=CHUNK):
    rng = random.Random(7)
    return [rng.randrange(1_000_000) for _ in range(n_leaves * chunk)]


def leaf_specs(array, chunk=CHUNK):
    return [
        {"chunk": array[i:i + chunk], "skew": (i // chunk) % 4}
        for i in range(0, len(array), chunk)
    ]


def build_merge_tree(builder, array, chunk=CHUNK):
    level = [
        builder.call(chunk_sort, spec, name=f"sort[{i}]", stage="sort")
        for i, spec in enumerate(leaf_specs(array, chunk))
    ]
    height = 1
    while len(level) > 1:
        level = [
            builder.reduce(
                merge_pair, [level[i], level[i + 1]],
                name=f"merge{height}[{i // 2}]", stage=f"merge{height}",
            )
            for i in range(0, len(level), 2)
        ]
        height += 1
    return level[0]


def chain_step(x):
    """One cheap 2 s stage, so per-level scheduling overhead dominates."""
    pw.sleep(2)
    return x + 1


def build_chain(builder, depth):
    """``depth`` non-fusable stages: each is its own activation."""
    node = builder.call(chain_step, 0, name="step[0]", stage="chain", fusable=False)
    for index in range(1, depth):
        node = node.then(chain_step, name=f"step[{index}]", stage="chain", fusable=False)
    return node


def extract_features(spec):
    pw.sleep(4 + (spec["shard"] % 3) * 3)
    return spec["shard"] + 1


def aggregate_features(counts):
    pw.sleep(3)
    return sum(counts)


def train_epoch(value):
    pw.sleep(2)
    return value + 1


def build_wide_deep(builder, width, depth):
    """``width`` skewed feature shards -> one aggregate -> ``depth`` epochs."""
    shards = [
        builder.call(extract_features, {"shard": index},
                     name=f"extract[{index}]", stage="extract")
        for index in range(width)
    ]
    node = builder.reduce(aggregate_features, shards, name="aggregate",
                          stage="aggregate", fusable=False)
    for index in range(depth):
        node = node.then(train_epoch, name=f"epoch[{index}]", stage="train", fusable=False)
    return node


@contextlib.contextmanager
def schedule_reads():
    """Byte counts of every read of a swarm schedule object, counted at the
    COS client by key, so a whole-object GET and a slice read count alike."""
    reads: list[int] = []
    originals = {
        name: getattr(COSClient, name) for name in ("get_object_steps", "read_range_steps")
    }

    def counting(method):
        def steps(self, bucket, key, *args, **kwargs):
            blob = yield from method(self, bucket, key, *args, **kwargs)
            if key.endswith("/swarm/schedule.pickle"):
                reads.append(len(blob))
            return blob

        return steps

    for name, method in originals.items():
        setattr(COSClient, name, counting(method))
    try:
        yield reads
    finally:
        for name, method in originals.items():
            setattr(COSClient, name, method)


def run_dag(build, expected, scheduler="centralized", trace=False, exchange=None):
    """One seeded run of ``build``'s graph; returns ``(env, row, jsonl)``.

    ``client_invocations`` counts what the executor's WAN gateway issued:
    worker hand-offs go through the in-cloud gateway and show only in the
    activation total.  ``jsonl`` is the trace, executor id normalized.
    """
    env = CloudEnvironment.create(seed=SEED, trace=trace, exchange=exchange)

    def main():
        executor = pw.ibm_cf_executor()
        builder = DagBuilder()
        root = build(builder)
        value = builder.submit(executor, scheduler=scheduler).expose(root).result()
        jsonl = executor.trace_jsonl().replace(executor.executor_id, "EXEC")
        return value, executor._functions.invocations, jsonl

    with schedule_reads() as reads:
        value, client_invocations, jsonl = env.run(main)
    assert value == expected, f"{scheduler} run returned a wrong answer"
    activations = len(env.platform.activations())
    row = {
        "makespan_s": round(env.now(), 1),
        "activations": activations,
        "client_invocations": client_invocations,
        "worker_invocations": activations - client_invocations,
        "schedule_bytes_read": sum(reads),
    }
    return env, row, jsonl


def run_merge_tree(scheduler="centralized", trace=False, exchange=None,
                   n_leaves=N_LEAVES, chunk=CHUNK):
    array = sort_input(n_leaves, chunk)
    return run_dag(lambda builder: build_merge_tree(builder, array, chunk),
                   sorted(array), scheduler, trace, exchange)


def word_pairs(text):
    return [(word, 1) for word in text.split()]


def count_values(key, values):
    del key
    return sum(values)


def documents():
    words = ["cloud", "serverless", "data", "shuffle", "cos", "pywren"]
    return [" ".join(words[(i + j) % len(words)] for j in range(20 + i)) for i in range(12)]


def expected_counts():
    counts: dict[str, int] = {}
    for word in " ".join(documents()).split():
        counts[word] = counts.get(word, 0) + 1
    return counts


def run_wordcount(exchange=None):
    """The shuffle wordcount as one DAG (``map_reduce_shuffle``)."""
    env = CloudEnvironment.create(seed=SEED, exchange=exchange)

    def main():
        executor = pw.ibm_cf_executor()
        reducers = executor.map_reduce_shuffle(
            word_pairs, documents(), count_values, n_reducers=N_REDUCERS
        )
        return merge_shuffle_results(executor.get_result(reducers))

    assert env.run(main) == expected_counts()
    return env
