"""Swarm scheduling end-to-end: worker-driven handoffs, supervisor tail.

Centralized-mode behaviour (including its byte-identical traces) is
covered by ``test_scheduler.py`` and the pipeline bench; this file pins
the ``scheduler="swarm"`` opt-in — in-cloud fan-out, exactly-once
invocation, token-aware orphan grace, config plumbing, and the swarm
trace layer, plus the byte-pinned golden trace.
"""

from __future__ import annotations

import pathlib

import pytest

import repro as pw
from repro.config import DagConfig
from repro.core import serializer
from repro.core.environment import CloudEnvironment
from repro.core.storage_client import InternalStorage
from repro.dag import DagBuilder, DagScheduler
from repro.dag.swarm import is_drivable, node_key

from tests.dag.swarm_golden_workload import GOLDEN_PATH, run_traced
from tests.dag.test_scheduler import flaky_once

GOLDEN = pathlib.Path(GOLDEN_PATH)


def inc(x):
    return x + 1


def double(x):
    return x * 2


def total(values):
    return sum(values)


def slow_merge(values):
    pw.sleep(12)  # longer than the default 8 s orphan grace
    return sum(values)


def _runner_activations(env):
    return [
        r
        for r in env.platform.activations()
        if r.action_name.startswith("pywren_runner")
    ]


def _build_diamond(builder):
    src = builder.call(inc, 1)                      # 2
    left = builder.call(double, src, fusable=False)  # 4
    right = builder.call(inc, src, fusable=False)    # 3
    return builder.reduce(total, [left, right])      # 7


def _build_chain(builder, depth):
    node = builder.call(inc, 0, fusable=False)
    for _ in range(depth - 1):
        node = node.then(inc, fusable=False)
    return node


class TestExecution:
    def test_diamond_matches_centralized(self, cloud):
        results = {}
        for mode in ("centralized", "swarm"):
            env = cloud()

            def main():
                executor = pw.ibm_cf_executor()
                builder = DagBuilder()
                top = _build_diamond(builder)
                run = builder.submit(executor, fuse=False, scheduler=mode)
                return run.expose(top).result()

            results[mode] = env.run(main)
        assert results["centralized"] == results["swarm"] == 7

    def test_chain_needs_one_client_invocation(self, env):
        """Every hop past the root is fired in-cloud by the finishing
        worker: the client's WAN gateway sees exactly one invocation."""

        def main():
            executor = pw.ibm_cf_executor()
            builder = DagBuilder()
            tail = _build_chain(builder, depth=5)
            run = builder.submit(executor, fuse=False, scheduler="swarm")
            value = run.expose(tail).result()
            return value, executor._functions.invocations

        value, client_invocations = env.run(main)
        assert value == 5
        assert client_invocations == 1
        assert len(_runner_activations(env)) == 5  # no duplicates either

    def test_fan_in_fires_every_node_exactly_once(self, env):
        """Two reduce levels: racing dependency completions decrement via
        done markers and exactly one worker wins each fire token."""

        def main():
            executor = pw.ibm_cf_executor()
            builder = DagBuilder()
            leaves = builder.map(inc, [1, 2, 3, 4])
            mid = [
                builder.reduce(total, leaves[:2]),
                builder.reduce(total, leaves[2:]),
            ]
            top = builder.reduce(total, mid)
            run = builder.submit(executor, scheduler="swarm")
            return run.expose(top).result()

        assert env.run(main) == 2 + 3 + 4 + 5
        assert len(_runner_activations(env)) == 7

    def test_long_running_node_is_not_redriven(self, env):
        """A claimed fire token stretches the orphan fuse: a node merely
        running longer than the grace must not be duplicated."""

        def main():
            executor = pw.ibm_cf_executor()
            builder = DagBuilder()
            leaves = builder.map(inc, [1, 2])
            top = builder.reduce(slow_merge, leaves)
            run = builder.submit(executor, scheduler="swarm")
            return run.expose(top).result()

        assert env.run(main) == 2 + 3
        assert len(_runner_activations(env)) == 3  # slow merge ran once

    def test_chain_lands_on_parent_invoker(self, env):
        """The handoff's placement hint points at the firing worker's own
        invoker, so chain hops reuse the warm container by the data."""

        def main():
            executor = pw.ibm_cf_executor()
            builder = DagBuilder()
            head = builder.call(inc, 1, fusable=False)
            tail = head.then(inc, fusable=False)
            run = builder.submit(executor, fuse=False, scheduler="swarm")
            run.expose(tail).result()
            return run.future(head).status(), run.future(tail).status()

        head_status, tail_status = env.run(main)
        assert tail_status["invoker_id"] == head_status["invoker_id"]
        assert tail_status["cold_start"] is False

    def test_external_dependency_stays_supervisor_fired(self, env):
        """Nodes consuming external futures are invisible to workers
        (no schedule entry can decrement them) — the supervisor drives
        them, and the run still completes under swarm."""

        def main():
            executor = pw.ibm_cf_executor()
            adopted = executor.call_async(inc, 10)  # plain executor call
            builder = DagBuilder()
            ext = builder.external(adopted)
            internal = builder.call(inc, 1, fusable=False)
            top = builder.reduce(total, [ext, internal])
            run = builder.submit(executor, fuse=False, scheduler="swarm")
            return run.expose(top).result()

        assert env.run(main) == 11 + 2


class TestScheduleSlices:
    def test_each_slice_holds_only_its_own_dependents(self, env):
        """The shipped object is one independently decodable record per
        fan-out node: exactly its drivable dependents (stamped params
        included), O(out-degree) bytes — nothing for sinks, and a fan-in
        node's dependency ids once, not once per parent."""

        def main():
            executor = pw.ibm_cf_executor()
            builder = DagBuilder()
            src = builder.call(inc, 1)
            fan = [builder.call(inc, src, fusable=False) for _ in range(6)]
            top = builder.reduce(total, fan)
            tail = top.then(double, fusable=False)
            run = builder.submit(executor, fuse=False, scheduler="swarm")
            value = run.expose(tail).result()
            storage = executor._storage
            blob = storage.cos.get_object(
                storage.bucket,
                storage.swarm_schedule_key(executor.executor_id, run.dag_id),
            )
            return value, run.dag, blob

        value, dag, blob = env.run(main)
        assert value == 6 * 3 * 2

        def key_of(node):
            return node_key(node.future.callset_id, node.future.call_id)

        def decode(span):
            return serializer.deserialize(blob[span[0]:span[0] + span[1]])

        spans = set()
        for node in dag.internal_nodes:
            drivable = [d for d in node.dependents if is_drivable(d)]
            span = node.call_params["swarm"]["slice"]
            if not drivable:
                assert span is None
                continue
            assert span[1] <= 1024 * (1 + len(drivable))
            record = decode(span)
            spans.add(tuple(span))
            assert record["name"] == node.display_name
            assert set(record["dependents"]) == {key_of(d) for d in drivable}
            for dep in drivable:
                child = record["dependents"][key_of(dep)]
                assert child["params"] == dep.call_params
                assert child["dep_count"] == len(dep.deps)
                if len(dep.deps) == 1:
                    assert child["deps"] is None  # the finishing node itself
                else:
                    spans.add(tuple(child["deps"]))
                    assert decode(child["deps"]) == [
                        [d.future.callset_id, d.future.call_id]
                        for d in dep.deps
                    ]
        # blocks tile the object exactly: nothing is stored twice
        assert sum(length for _, length in spans) == len(blob)

    @pytest.mark.parametrize("cached, block_reads", [(False, 4), (True, 5)])
    def test_fan_in_dependency_ids_are_read_on_demand(
        self, monkeypatch, cached, block_reads
    ):
        """Every leaf reads its own slice; only under a locality-providing
        exchange does the one worker that fires the fan-in node also read
        its dependency-id block — and placement still leads with that
        worker's own invoker."""
        env = CloudEnvironment.create(
            seed=123, exchange="cached-cos" if cached else "cos"
        )
        read_slice = InternalStorage.get_swarm_slice_steps
        reads = []

        def recording(self, executor_id, dag_id, offset, length):
            reads.append((offset, length))
            block = yield from read_slice(
                self, executor_id, dag_id, offset, length
            )
            return block

        monkeypatch.setattr(
            InternalStorage, "get_swarm_slice_steps", recording
        )

        def main():
            executor = pw.ibm_cf_executor()
            builder = DagBuilder()
            leaves = [builder.call(inc, i, fusable=False) for i in range(4)]
            top = builder.reduce(total, leaves)
            run = builder.submit(executor, fuse=False, scheduler="swarm")
            value = run.expose(top).result()
            statuses = [run.future(leaf).status() for leaf in leaves]
            return value, statuses, run.future(top).status()

        value, leaf_statuses, top_status = env.run(main)
        assert value == 1 + 2 + 3 + 4
        assert len(reads) == len(set(reads)) == block_reads
        last = max(leaf_statuses, key=lambda s: s["end_time"])
        assert top_status["invoker_id"] == last["invoker_id"]


class TestSupervisor:
    """Client-issued re-invocations carry the node's slice range, so the
    re-driven worker still fires its own dependents in-cloud."""

    def test_killed_handoff_is_redriven_with_its_slice(self, monkeypatch):
        env = CloudEnvironment.create(seed=123, trace=True)
        env.config = env.config.with_overrides(
            dag=DagConfig(scheduler="swarm", orphan_grace_s=2.0)
        )
        claim = InternalStorage.claim_swarm_token_steps
        killed = []

        def dying_claim(self, executor_id, dag_id, key, payload):
            if key == "D002-00000" and not killed:
                killed.append(key)  # status committed, dependent never fired
                raise RuntimeError("worker died mid-handoff")
            won = yield from claim(self, executor_id, dag_id, key, payload)
            return won

        monkeypatch.setattr(
            InternalStorage, "claim_swarm_token_steps", dying_claim
        )

        def main():
            executor = pw.ibm_cf_executor()
            builder = DagBuilder()
            tail = _build_chain(builder, depth=5)
            run = builder.submit(executor, fuse=False)
            value = run.expose(tail).result()
            return value, executor._functions.invocations, executor.trace_jsonl()

        value, client_invocations, jsonl = env.run(main)
        assert value == 5
        assert killed == ["D002-00000"]
        assert len(_runner_activations(env)) == 5  # every node exactly once
        assert jsonl.count('"swarm.redrive"') == 1
        assert client_invocations == 1 + 1  # the root + the one redrive
        # D001 before the kill, D003 and D004 by the re-driven node's line
        assert jsonl.count('"swarm.invoke"') == 3

    def test_node_retry_keeps_firing_dependents(self, env):
        def main():
            executor = pw.ibm_cf_executor()
            builder = DagBuilder()
            head = builder.call(inc, 0, fusable=False)
            tail = head.then(flaky_once, fusable=False).then(inc, fusable=False)
            scheduler = DagScheduler(executor, scheduler="swarm", node_retries=1)
            run = scheduler.submit(builder.build(fuse=False))
            run.join()
            return run.future(tail).result(), executor._functions.invocations

        value, client_invocations = env.run(main)
        assert value == 1 + 100 + 1
        assert client_invocations == 1 + 1  # the root + the one retry


class TestConfig:
    def test_scheduler_resolves_from_dag_config(self, cloud):
        env = cloud(dag=DagConfig(scheduler="swarm"))

        def main():
            executor = pw.ibm_cf_executor()
            scheduler = DagScheduler(executor)
            builder = DagBuilder()
            tail = _build_chain(builder, depth=3)
            run = scheduler.submit(builder.build(fuse=False))
            value = run.expose(tail).result()
            return scheduler.scheduler, value, executor._functions.invocations

        mode, value, client_invocations = env.run(main)
        assert mode == "swarm"
        assert value == 3
        assert client_invocations == 1

    def test_explicit_argument_overrides_config(self, cloud):
        env = cloud(dag=DagConfig(scheduler="swarm"))

        def main():
            executor = pw.ibm_cf_executor()
            return DagScheduler(executor, scheduler="centralized").scheduler

        assert env.run(main) == "centralized"

    def test_invalid_scheduler_rejected(self, env):
        def main():
            executor = pw.ibm_cf_executor()
            with pytest.raises(ValueError, match="scheduler"):
                DagScheduler(executor, scheduler="bogus")
            return True

        assert env.run(main) is True

    def test_dag_config_validation(self):
        with pytest.raises(ValueError, match="scheduler"):
            DagConfig(scheduler="bogus").validate()
        with pytest.raises(ValueError, match="orphan_grace_s"):
            DagConfig(orphan_grace_s=0).validate()
        with pytest.raises(ValueError, match="claimed_grace_factor"):
            DagConfig(claimed_grace_factor=0.5).validate()
        DagConfig(scheduler="swarm").validate()  # defaults are valid


class TestTracing:
    def _traced_chain(self, scheduler):
        env = CloudEnvironment.create(seed=123, trace=True)

        def main():
            executor = pw.ibm_cf_executor()
            builder = DagBuilder()
            tail = _build_chain(builder, depth=3)
            run = builder.submit(executor, fuse=False, scheduler=scheduler)
            run.expose(tail).result()
            return executor.executor_id, executor.trace_jsonl()

        executor_id, jsonl = env.run(main)
        return jsonl.replace(executor_id, "EXEC")

    def test_swarm_trace_has_swarm_layer_events(self):
        jsonl = self._traced_chain("swarm")
        assert '"swarm.ready"' in jsonl
        assert '"swarm.invoke"' in jsonl
        assert '"scheduler":"swarm"' in jsonl  # on the dag.submit point

    def test_centralized_trace_has_no_swarm_events(self):
        jsonl = self._traced_chain("centralized")
        assert '"swarm' not in jsonl
        assert '"scheduler"' not in jsonl

    def test_same_seed_swarm_traces_byte_identical(self):
        assert self._traced_chain("swarm") == self._traced_chain("swarm")


class TestGoldenSwarmTrace:
    def test_swarm_trace_matches_committed_golden(self):
        got = run_traced()
        want = GOLDEN.read_text(encoding="utf-8")
        assert want, "golden fixture missing or empty"
        # compare prefixes first for a readable diff on regression
        if got != want:
            for i, (a, b) in enumerate(zip(got.splitlines(), want.splitlines())):
                assert a == b, f"first divergence at trace line {i + 1}"
        assert got == want
