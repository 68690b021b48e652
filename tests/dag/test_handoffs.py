"""Count guards, no timing: which tasks get an OS thread, and how often the
running task changes OS thread.

One kernel thread at a time runs task code (see :mod:`repro.vtime.kernel`);
``Kernel.thread_stats()["handoffs"]`` counts the times that role passes to
another OS thread.  Under a seed the count is exact, so it guards host cost
where a timing could not: reduced versions of the benchmark's chain,
merge-tree and wide-then-deep DAGs run under both schedulers within a
pinned budget, and a node's dependency fetches — loaded on the activation's
model task — add no hand-off however many inputs the node has.  The control
plane itself runs on model tasks: thread tasks are spawned only for the
client, user functions and raw (non-generator) action handlers.

The user functions live at module level so they ship by reference.
"""

from __future__ import annotations

import re

import pytest

import repro as pw
from repro.config import DagConfig, PyWrenConfig

SEED = 42
SCHEDULERS = ("centralized", "swarm")


def chain_step(x):
    pw.sleep(2)
    return x + 1


def sort_leaf(spec):
    pw.sleep(5 + spec["skew"] * 3)
    return sorted(spec["chunk"])


def merge_pair(parts):
    pw.sleep(1)
    left, right = parts
    return sorted(left + right)


def extract(shard):
    pw.sleep(3 + shard % 3)
    return shard


def aggregate(values):
    pw.sleep(2)
    return sum(values)


def train_epoch(x):
    pw.sleep(1)
    return x + 1


def leaf(index):
    pw.sleep(5)
    return index


def count(values):
    pw.sleep(1)
    return len(values)


def ticker(_):
    """Busy from t=4 s to t=12 s: its sleeps interleave with the reduce's
    dependency fetches, so a fetch that blocked an OS thread would cost
    hand-offs here."""
    pw.sleep(4)
    for _ in range(800):
        pw.sleep(0.01)
    return 0


def build_chain(builder, depth=10):
    node = builder.call(chain_step, 0, fusable=False)
    for _ in range(depth - 1):
        node = node.then(chain_step, fusable=False)
    return node


def build_tree(builder, leaves=8):
    level = [
        builder.call(sort_leaf, {"chunk": [leaves - i, i], "skew": i % 4})
        for i in range(leaves)
    ]
    while len(level) > 1:
        level = [
            builder.reduce(merge_pair, [level[i], level[i + 1]])
            for i in range(0, len(level), 2)
        ]
    return level[0]


def build_wide(builder, width=8, epochs=4):
    shards = [builder.call(extract, index) for index in range(width)]
    node = builder.reduce(aggregate, shards, fusable=False)
    for _ in range(epochs):
        node = node.then(train_epoch, fusable=False)
    return node


def build_fan_in(inputs, leaves=8):
    """``leaves`` equal leaves and a ticker; one reduce over the first
    ``inputs`` leaves.  Every variant has the same nodes, the same
    activations and the same makespan: only the reduce's number of inputs
    differs."""

    def build(builder):
        nodes = [builder.call(leaf, index) for index in range(leaves)]
        builder.call(ticker, 0)
        return builder.reduce(count, nodes[:inputs], fusable=False)

    return build


SHAPES = {
    # name: (builder, value at the root)
    "chain": (build_chain, 10),
    "tree": (build_tree, sorted(v for i in range(8) for v in (8 - i, i))),
    "wide": (build_wide, sum(range(8)) + 4),
}

# measured since one watcher judges every call and result() parks until
# it has (a thread task per round cost 67 / 62 / 71 / 64 / 59 / 47; a
# result() that polled its own status every interval, 39 / 25 / 45 / 33 /
# 39 / 31); a change that needs more hand-offs than these has to say why
HANDOFF_BUDGET = {
    ("chain", "centralized"): 3,
    ("chain", "swarm"): 3,
    ("tree", "centralized"): 25,
    ("tree", "swarm"): 24,
    ("wide", "centralized"): 18,
    ("wide", "swarm"): 18,
}


def _run(build, scheduler):
    env = pw.CloudEnvironment.create(seed=SEED)

    def main():
        builder = pw.DagBuilder()
        root = build(builder)
        run = builder.submit(pw.ibm_cf_executor(), scheduler=scheduler)
        return run.expose(root).result()

    value = env.run(main)
    return value, env.kernel.thread_stats()["handoffs"]


class TestHandoffBudget:
    @pytest.mark.parametrize("scheduler", SCHEDULERS)
    @pytest.mark.parametrize("shape", sorted(SHAPES))
    def test_reduced_dag_stays_within_its_budget(self, shape, scheduler):
        build, expected = SHAPES[shape]
        value, handoffs = _run(build, scheduler)
        assert value == expected
        assert handoffs <= HANDOFF_BUDGET[(shape, scheduler)]

    def test_the_count_is_exact_under_a_seed(self):
        assert _run(build_tree, "swarm") == _run(build_tree, "swarm")


class TestFetchesAddNoHandoff:
    @pytest.mark.parametrize("scheduler", SCHEDULERS)
    def test_handoffs_do_not_grow_with_a_nodes_inputs(self, scheduler):
        runs = {inputs: _run(build_fan_in(inputs), scheduler) for inputs in (1, 2, 8)}
        assert {inputs: value for inputs, (value, _) in runs.items()} == {1: 1, 2: 2, 8: 8}
        assert len({handoffs for _, handoffs in runs.values()}) == 1, runs


# -- thread-task spawn sites ----------------------------------------------------
CITIES = {"rome.txt": "c" * 130, "nyc.txt": "a" * 400, "paris.txt": "b" * 250}
DOCUMENTS = ["cloud functions run python", "python functions scale", "cloud scale cloud"]


def square(x):
    return x * x


def count_bytes(partition):
    return len(partition.read())


def total(values):
    return sum(values)


def emit_words(document):
    return [(word, 1) for word in document.split()]


def count_words(_key, values):
    return sum(values)


def map_job(executor):
    return executor.get_result(executor.map(square, range(8)))


def per_object_map_reduce_job(executor):
    reducers = executor.map_reduce(
        count_bytes, "cos://cities", total, chunk_size=100, reducer_one_per_object=True
    )
    return executor.get_result(reducers)


def wordcount_job(executor):
    reducers = executor.map_reduce_shuffle(emit_words, DOCUMENTS, count_words, n_reducers=3)
    return executor.get_result(reducers)


def dag_job(shape):
    def job(executor):
        builder = pw.DagBuilder()
        root = SHAPES[shape][0](builder)
        return builder.submit(executor).expose(root).result()

    return job


JOBS = {
    "map": map_job,
    "map_reduce": per_object_map_reduce_job,
    "wordcount": wordcount_job,
    **{shape: dag_job(shape) for shape in SHAPES},
}

#: the client root, a user function's call, a raw action's handler
THREAD_TASKS = re.compile(r"client$|usr-|hnd-")


def _spawned_thread_tasks(job, scheduler):
    """The names of every thread task ``job`` spawns, in spawn order."""
    env = pw.CloudEnvironment.create(
        seed=SEED, config=PyWrenConfig(dag=DagConfig(scheduler=scheduler))
    )
    env.storage.create_bucket("cities", exist_ok=True)
    for key, text in CITIES.items():
        env.storage.put_object("cities", key, text.encode())
    names = []
    spawn = env.kernel.spawn

    def recording(fn, *args, name=None, **kwargs):
        names.append(name or fn.__name__)
        return spawn(fn, *args, name=name, **kwargs)

    env.kernel.spawn = recording
    env.run(lambda: job(pw.ibm_cf_executor()))
    return names


class TestThreadTaskSpawnSites:
    @pytest.mark.parametrize("scheduler", SCHEDULERS)
    @pytest.mark.parametrize("job", sorted(JOBS))
    def test_only_the_client_and_user_code_get_a_thread(self, job, scheduler):
        names = _spawned_thread_tasks(JOBS[job], scheduler)
        assert names[0] == "client"
        assert any(name.startswith("usr-") for name in names)
        assert [name for name in names if not THREAD_TASKS.match(name)] == []
