"""Count guard, no timing: how often the running task changes OS thread.

One kernel thread at a time runs task code (see :mod:`repro.vtime.kernel`);
``Kernel.thread_stats()["handoffs"]`` counts the times that role passes to
another OS thread.  Under a seed the count is exact, so it guards host cost
where a timing could not: reduced versions of the benchmark's chain,
merge-tree and wide-then-deep DAGs run under both schedulers within a
pinned budget, and a node's dependency fetches — loaded on the activation's
model task — add no hand-off however many inputs the node has.

The user functions live at module level so they ship by reference.
"""

from __future__ import annotations

import pytest

import repro as pw

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

# measured when the counter was added; a change that needs more hand-offs
# than these has to say why
HANDOFF_BUDGET = {
    ("chain", "centralized"): 67,
    ("chain", "swarm"): 62,
    ("tree", "centralized"): 71,
    ("tree", "swarm"): 64,
    ("wide", "centralized"): 59,
    ("wide", "swarm"): 47,
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
