"""repro.events: kill the driver mid-DAG, reattach, finish the job.

Runs the Fig. 4-shaped DAG mergesort with the event journal enabled and a
``client-crash`` chaos profile that kills the client at a fixed virtual
time — after the leaf sorts are submitted, before the merge tree is done.
A fresh executor then ``reattach``es the job: it replays the journal from
COS, folds the journaled calls and DAG edges back into a graph,
reconciles it against committed call statuses (nothing committed is ever
re-invoked), and fires the pending merges to completion.  The resumed
result is identical to what the dead driver would have produced.

Run:  python examples/resume_mergesort.py
"""

import random

import repro as pw
from repro.chaos import ChaosProfile
from repro.dag import DagBuilder, DagScheduler

CRASH_AT_S = 8.0  # mid-wait: sorts in flight, merges still pending


def chunk_sort(spec):
    pw.sleep(5 + spec["skew"] * 10)
    return sorted(spec["chunk"])


def merge_pair(parts):
    left, right = parts
    merged, i, j = [], 0, 0
    while i < len(left) and j < len(right):
        if left[i] <= right[j]:
            merged.append(left[i])
            i += 1
        else:
            merged.append(right[j])
            j += 1
    return merged + left[i:] + right[j:]


def build_dag(array, n_leaves=4):
    size = len(array) // n_leaves
    builder = DagBuilder()
    level = [
        builder.call(
            chunk_sort,
            {"chunk": array[i * size:(i + 1) * size], "skew": i % 3},
            name=f"sort[{i}]",
            stage="sort",
        )
        for i in range(n_leaves)
    ]
    height = 1
    while len(level) > 1:
        level = [
            builder.reduce(
                merge_pair,
                [level[i], level[i + 1]],
                name=f"merge{height}[{i // 2}]",
                stage=f"merge{height}",
            )
            for i in range(0, len(level), 2)
        ]
        height += 1
    return builder, level[0]


def main(env):
    rng = random.Random(11)
    array = [rng.randrange(1_000_000) for _ in range(256)]
    builder, root = build_dag(array)

    executor = pw.ibm_cf_executor()
    job_id = executor.executor_id
    try:
        run = DagScheduler(executor).submit(builder.build())
        run.expose(root)
        executor.get_result()
        raise AssertionError("driver was supposed to die mid-DAG")
    except pw.ClientCrashError:
        print(f"driver killed at t={CRASH_AT_S:.1f}s virtual, mid-merge-tree")

    # a brand-new executor adopts the dead driver's job from its journal
    adopter = env.executor()
    job = adopter.reattach(job_id)
    result = job.get_result()
    assert result == sorted(array), "resumed mergesort mismatch!"

    stats = job.stats
    print(
        f"reattached {job_id}: {stats['events_replayed']} events replayed, "
        f"{stats['refired']} merges refired, "
        f"{stats['reinvoked']} calls re-invoked"
    )
    assert stats["reinvoked"] == 0, "a committed call was re-executed"
    print(
        f"resumed after the crash: {len(array)} integers sorted "
        f"in {pw.now():.1f}s virtual, zero lost work"
    )


if __name__ == "__main__":
    env = pw.CloudEnvironment.create(
        events=True,
        chaos=ChaosProfile("client-crash", seed=7, client_crash_at_s=CRASH_AT_S),
    )
    env.run(lambda: main(env))
