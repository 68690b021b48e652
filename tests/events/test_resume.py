"""Kill the client, replay the journal, finish the job.

The crash instants are *derived from the baseline run's own journal and
trace* (same seed => same timeline): "mid-flight" means after the last
``futures.exposed`` record (the submission is fully durable) and before
a wait round that found a call finished — the window where the driver is
just waiting.  A crash inside that window must resume to results
byte-identical to the uninterrupted run; a crash *during* submission
resumes the durable prefix (whatever was journaled before the instant
of death) — and in both cases committed calls are never re-executed.
"""

from __future__ import annotations

import pickle
import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro as pw
from repro.chaos import ChaosProfile
from repro.config import DagConfig, EventsConfig, PyWrenConfig
from repro.core.environment import CloudEnvironment
from repro.core.errors import FunctionError, PyWrenError
from repro.events import records as ev
from repro.events import EventJournal, to_jsonl
from tests.dag.test_scheduler import flaky_once

NEVER = 1.0e9  # a crash time the run always finishes before


def _square(x):
    return x * x


def _slow_square(x):
    pw.sleep(20)  # still running when the adopter arrives
    return x * x


def _square_unless_three(x):
    pw.sleep(2)  # commits after the driver died, before the adopter looks
    if x == 3:
        raise ValueError("three is right out")
    return x * x


def _one_second_square(x):
    pw.sleep(1)
    return x * x


def _total(values):
    return sum(values)


def _ten_second_identity(x):
    pw.sleep(10)  # still running when the driver dies at 5 s
    return x


def _make_env(
    crash_at: float, seed: int = 123, trace: bool = False, **config
) -> CloudEnvironment:
    """Identical environments except for the crash instant (same chaos
    profile in both, so every latency draw lines up).  ``config`` fields
    (``invoker_mode=``, ``dag=``) apply to the doomed driver and its
    adopter alike.  ``trace`` turns on the spine, which moves no virtual
    instant: baselines trace to read the driver's wait rounds off it."""
    return CloudEnvironment.create(
        seed=seed,
        events=True,
        trace=trace,
        chaos=ChaosProfile("client-crash", seed=7, client_crash_at_s=crash_at),
        config=PyWrenConfig(**config) if config else None,
    )


def _run_map_reduce(env: CloudEnvironment, items: list[int], map_fn=_square):
    """Returns (outcome, result, records, job) for one driver's life;
    ``job`` is the adopter's :class:`ResumedJob` (``None`` if not resumed)."""

    def main():
        executor = pw.ibm_cf_executor()
        job_id = executor.executor_id
        try:
            executor.map_reduce(map_fn, items, _total)
            result = executor.get_result()
            return "done", result, executor.journal.replay(), None
        except pw.ClientCrashError:
            adopter = env.executor()
            job = adopter.reattach(job_id)
            result = job.get_result()
            return "resumed", result, adopter.journal.replay(), job

    return env.run(main)


def _wait_rounds(env: CloudEnvironment, found_one: bool = False) -> list[float]:
    """The instants of a traced driver's wait rounds — its crash
    checkpoints — from their ``client.progress`` points; ``found_one``
    keeps only rounds that had found a finished call."""
    return [
        event.t
        for event in env.tracer.events()
        if event.name == "client.progress"
        and (event.get_attr("done", 0) or not found_one)
    ]


def _submission_window(env: CloudEnvironment, records) -> tuple[float, float]:
    """(after submission fully durable, the first wait round that found a
    call finished) of a traced uninterrupted run.

    The driver only *observes* its own death at a checkpoint (a poll
    round / push iteration).  A crash instant inside this window is
    therefore seen mid-wait, by the round that ends it at the latest.
    """
    exposed = max(r.t for r in records if r.kind == ev.FUTURES_EXPOSED)
    found = [t for t in _wait_rounds(env, found_one=True) if t > exposed]
    assert found, "no wait round found a finished call after the last exposure"
    return exposed, min(found)


def _assert_no_reexecution(records, job) -> None:
    """Nothing committed at reconcile time is ever invoked again."""
    started = [r for r in records if r.kind == ev.RESUME_STARTED]
    assert started, "resumed run must journal resume.started"
    resume_seq = started[-1].seq
    committed = {(cs, call_id) for cs, call_id, _success in job._run.reconciled}
    for record in records:
        if record.seq > resume_seq and record.kind == ev.CALLS_INVOKED:
            for row in record.data.get("calls", []):
                assert (row[0], row[1]) not in committed, (
                    f"committed call {row[0]}/{row[1]} was re-invoked "
                    "after reattach"
                )


class TestKillMidMapReduce:
    ITEMS = [1, 2, 3, 4]

    def _baseline(self):
        """(result, records, traced env) of the uninterrupted run."""
        env = _make_env(NEVER, trace=True)
        outcome, result, records, _ = _run_map_reduce(env, self.ITEMS)
        assert outcome == "done"
        return result, records, env

    def test_resume_matches_uninterrupted(self):
        baseline, records, env = self._baseline()
        exposed, end = _submission_window(env, records)
        crash_at = (exposed + end) / 2.0

        outcome, resumed, crash_records, job = _run_map_reduce(
            _make_env(crash_at), self.ITEMS
        )
        assert outcome == "resumed"
        # byte-identical to the run nobody interrupted
        assert pickle.dumps(resumed) == pickle.dumps(baseline)
        # everything was already invoked before the crash: the adopter
        # only watched, it never issued an activation
        assert job.stats["reinvoked"] == 0
        assert job.stats["buried"] == 0
        _assert_no_reexecution(crash_records, job)

    @pytest.mark.parametrize("map_fn", [_square, _slow_square], ids=["done", "in_flight"])
    def test_resume_under_push_matches_uninterrupted(self, map_fn):
        """Under ``mq_push`` the dead driver's watcher consumed part of the
        queue: the adopter reconciles by LIST, then learns the rest from
        the queue it took over, and finishes with the uninterrupted answer."""
        env = _make_env(NEVER, trace=True, monitoring="mq_push")
        outcome, baseline, records, _ = _run_map_reduce(env, self.ITEMS, map_fn)
        assert outcome == "done"
        exposed, end = _submission_window(env, records)

        outcome, resumed, crash_records, job = _run_map_reduce(
            _make_env((exposed + end) / 2.0, monitoring="mq_push"), self.ITEMS, map_fn
        )
        assert outcome == "resumed"
        assert pickle.dumps(resumed) == pickle.dumps(baseline)
        _assert_no_reexecution(crash_records, job)

    @pytest.mark.parametrize("invoker_mode", ["local", "remote", "massive"])
    def test_resume_with_maps_in_flight(self, invoker_mode):
        """Same, with the maps still running when the adopter arrives.
        A journaled activation id is probed, never re-issued; a call the
        dead driver handed to a fire-and-forget invoker has none and is
        re-invoked blind, exactly once."""

        def run(env):
            return _run_map_reduce(env, self.ITEMS, map_fn=_slow_square)

        env = _make_env(NEVER, trace=True, invoker_mode=invoker_mode)
        outcome, baseline, records, _ = run(env)
        assert outcome == "done"
        exposed, end = _submission_window(env, records)
        outcome, resumed, crash_records, job = run(
            _make_env((exposed + end) / 2.0, invoker_mode=invoker_mode)
        )
        assert outcome == "resumed"
        assert pickle.dumps(resumed) == pickle.dumps(baseline)
        stats = job.stats
        assert stats["already_committed"] == 0
        assert stats["reinvoked"] == (
            0 if invoker_mode == "local" else len(self.ITEMS)
        )
        assert stats["refired"] == 1  # the reducer, once its maps commit
        assert stats["buried"] == 0
        _assert_no_reexecution(crash_records, job)

    def test_failed_map_found_on_adoption_buries_the_reducer(self):
        """A failure that committed while nobody watched is judged by the
        adopter: the reducer it blocks is buried, never invoked."""

        def run(crash_at):
            env = _make_env(crash_at)

            def main():
                executor = pw.ibm_cf_executor()
                job_id = executor.executor_id
                try:
                    executor.map_reduce(_square_unless_three, self.ITEMS, _total)
                    collected = executor.get_result(throw_except=False)
                    return collected, None, executor.journal.replay()
                except pw.ClientCrashError:
                    adopter = env.executor()
                    job = adopter.reattach(job_id)
                    collected = job.get_result(throw_except=False)
                    return collected, job, adopter.journal.replay()

            return env.run(main)

        (baseline, _), _, records = run(NEVER)
        assert baseline == [1, 4, None, 16, None]
        # die right after promising the reducer, before any map committed
        exposed = max(r.t for r in records if r.kind == ev.FUTURES_EXPOSED)
        (values, report), job, crash_records = run(exposed + 0.05)
        assert values == baseline
        assert [f.call_id for f in report.failures] == ["00002", "00000"]
        assert "upstream DAG node" in report.failures[1].error
        assert job.stats["already_committed"] == len(self.ITEMS)
        assert (job.stats["refired"], job.stats["buried"]) == (0, 1)
        _assert_no_reexecution(crash_records, job)

    def test_failing_round_surfaces_as_function_error(self, monkeypatch):
        """A resume round that raises must fail the job's calls the way a
        DAG abort does — one synthetic ``buried`` status — so ``get_result``
        raises a ``FunctionError`` naming the abort, not a ``NoSuchKey``
        for a result that was never written."""
        _, records, env = self._baseline()
        exposed, end = _submission_window(env, records)
        env = _make_env((exposed + end) / 2.0)

        def boom(*_args):
            raise RuntimeError("boom")

        def main():
            executor = pw.ibm_cf_executor()
            job_id = executor.executor_id
            with pytest.raises(pw.ClientCrashError):
                executor.map_reduce(_slow_square, self.ITEMS, _total)
                executor.get_result()
            adopter = env.executor()
            job = adopter.reattach(job_id)
            # reattach ran the first round; the second one breaks
            with monkeypatch.context() as patch:
                patch.setattr(adopter._storage, "list_done_call_ids_steps", boom)
                assert job.join(timeout=30)
            assert isinstance(job.error, RuntimeError)
            with pytest.raises(FunctionError, match="aborted.*boom"):
                job.get_result()

        env.run(main)

    def test_crash_during_submission_resumes_durable_prefix(self):
        baseline, records, _ = self._baseline()
        # die between the maps' exposure and the reducer DAG's journal
        # append: the reducer was never durably promised, so the adopter
        # owes exactly the durable prefix — the map results
        maps_exposed = min(r.t for r in records if r.kind == ev.FUTURES_EXPOSED)
        dag_submitted = min(r.t for r in records if r.kind == ev.DAG_SUBMITTED)
        assert dag_submitted > maps_exposed
        outcome, resumed, crash_records, job = _run_map_reduce(
            _make_env((maps_exposed + dag_submitted) / 2.0), self.ITEMS
        )
        assert outcome == "resumed"
        # the maps (and only the maps) were promised before the crash
        assert resumed == baseline[: len(self.ITEMS)]
        assert all(value is not None for value in resumed)
        _assert_no_reexecution(crash_records, job)

    def test_resumes_counter_survives_in_journal(self):
        _, records, env = self._baseline()
        exposed, end = _submission_window(env, records)
        outcome, _, crash_records, job = _run_map_reduce(
            _make_env((exposed + end) / 2.0), self.ITEMS
        )
        assert outcome == "resumed"
        (started,) = [r for r in crash_records if r.kind == ev.RESUME_STARTED]
        assert started.data["resumes"] == 1
        # the log is still contiguous after adoption
        seqs = [r.seq for r in crash_records]
        assert seqs == list(range(len(seqs)))

    @pytest.mark.parametrize(
        "crash_point", ["just_after_it_began", "midway_through_it"]
    )
    def test_adopter_outlasts_dead_drivers_inflight_append(
        self, crash_point, monkeypatch
    ):
        """The dead driver's DAG round began the reducer's ``calls.invoked``
        append while still alive, and that PUT lands after the adopter's
        replay read the log: the adopter's first append loses the slot, so
        it must replay again and take the next one, not fail the reattach.

        The crash falls inside that append's PUT, located on the
        uninterrupted run's trace; the driver idles through it (no wait
        rounds) and dies at its next submission, 1 ms later.  At seed 33
        the PUT meets a transient WAN failure and is retried, so it lands
        long after the adopter's LIST."""
        items = list(range(20))

        def run(crash_at, wake_at, trace=False):
            env = _make_env(crash_at, seed=33, trace=trace)

            def main():
                executor = pw.ibm_cf_executor()
                job_id = executor.executor_id
                try:
                    executor.map_reduce(_one_second_square, items, _total)
                    pw.sleep(wake_at - pw.now())
                    executor.call_async(_square, 0)  # a crash checkpoint
                    return None, executor.journal.replay(), None
                except pw.ClientCrashError:
                    adopter = env.executor()
                    job = adopter.reattach(job_id)
                    return job.get_result(), adopter.journal.replay(), job

            return env, env.run(main)

        def dag_firings(records):
            return [r for r in records if r.kind == ev.CALLS_INVOKED and "dag_id" in r.data]

        env, (_, records, _) = run(NEVER, wake_at=60.0, trace=True)
        firing = dag_firings(records)[-1]
        began = firing.t
        (landed,) = [
            e.t for e in env.tracer.events()
            if e.name == "events.append" and e.get_attr("seq") == firing.seq
        ]
        crash_at = {
            "just_after_it_began": began + 1e-6,
            "midway_through_it": (began + landed) / 2.0,
        }[crash_point]
        assert crash_at + 1e-3 < landed

        replays = []
        replay_for = EventJournal.replay_for.__func__

        def counting_replay_for(cls, executor):
            replays.append(executor.executor_id)
            return replay_for(cls, executor)

        monkeypatch.setattr(EventJournal, "replay_for", classmethod(counting_replay_for))
        _, (resumed, crash_records, job) = run(crash_at, wake_at=crash_at + 1e-3)
        assert resumed == [x * x for x in items] + [sum(x * x for x in items)]
        # the first append lost its slot to the late record: replayed twice
        assert len(replays) == 2
        seqs = [r.seq for r in crash_records]
        assert seqs == list(range(len(seqs)))
        late = dag_firings(crash_records)
        started = [r for r in crash_records if r.kind == ev.RESUME_STARTED]
        # the late record is in the log, and the adopter wrote after it
        assert late and late[0].t < crash_at < started[0].t
        assert started[0].seq > late[0].seq
        _assert_no_reexecution(crash_records, job)


class TestKillMidDag:
    """Crash a mergesort DAG between stage commits; merges fire from
    replayed trigger rules, not from any surviving watcher state."""

    N_LEAVES = 4

    def _run(self, env: CloudEnvironment, scheduler=None, after_reattach=None):
        from repro.dag import DagBuilder, DagScheduler

        def chunk_sort(spec):
            pw.sleep(5 + spec["skew"] * 10)
            return sorted(spec["chunk"])

        def merge_pair(parts):
            left, right = parts
            out, i, j = [], 0, 0
            while i < len(left) and j < len(right):
                if left[i] <= right[j]:
                    out.append(left[i])
                    i += 1
                else:
                    out.append(right[j])
                    j += 1
            return out + left[i:] + right[j:]

        rng = random.Random(11)
        array = [rng.randrange(1_000_000) for _ in range(64)]
        size = len(array) // self.N_LEAVES

        def main():
            builder = DagBuilder()
            level = [
                builder.call(
                    chunk_sort,
                    {"chunk": array[i * size:(i + 1) * size], "skew": i % 3},
                    name=f"sort[{i}]",
                    stage="sort",
                )
                for i in range(self.N_LEAVES)
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
            (root,) = level

            executor = pw.ibm_cf_executor()
            job_id = executor.executor_id
            try:
                run = DagScheduler(executor, scheduler=scheduler).submit(
                    builder.build()
                )
                run.expose(root)
                result = executor.get_result()
                return "done", result, executor.journal.replay(), None
            except pw.ClientCrashError:
                adopter = env.executor()
                job = adopter.reattach(job_id)
                if after_reattach is not None:
                    after_reattach(adopter)
                result = job.get_result()
                return "resumed", result, adopter.journal.replay(), job

        return env.run(main), sorted(array)

    def _one_third_into_the_wait(self, scheduler=None) -> float:
        """A crash instant a third of the way from the root's exposure to
        the uninterrupted run's last wait round (the one that found the
        root finished): some sorts committed, merges pending."""
        env = _make_env(NEVER, trace=True)
        (_, _, records, _), _ = self._run(env, scheduler)
        exposed = max(r.t for r in records if r.kind == ev.FUTURES_EXPOSED)
        last_round = max(_wait_rounds(env))
        return exposed + (last_round - exposed) / 3.0

    def test_resume_fires_pending_merges(self):
        (outcome, baseline, _, _), expected = self._run(_make_env(NEVER))
        assert outcome == "done"
        assert baseline == expected

        (outcome, resumed, crash_records, job), _ = self._run(
            _make_env(self._one_third_into_the_wait())
        )
        assert outcome == "resumed"
        assert pickle.dumps(resumed) == pickle.dumps(baseline)
        # the merges were fired by the adopter, from log-derived rules
        assert job.stats["refired"] >= 1
        assert job.stats["reinvoked"] == 0
        _assert_no_reexecution(crash_records, job)

    def test_dag_submitted_after_reattach_gets_an_unused_id(self):
        """The adopter continues the dead driver's DAG numbering: a reused
        ``dag_id`` would overwrite the swarm schedule object its workers
        may still be range-reading their slices from."""
        from repro.dag import DagBuilder

        crash_at = self._one_third_into_the_wait(scheduler="swarm")
        seen = {}

        def submit_another(adopter):
            storage = adopter._storage
            key = storage.swarm_schedule_key(adopter.executor_id, "dag000")
            before = storage.cos.get_object(storage.bucket, key)
            builder = DagBuilder()
            node = builder.call(_square, 7).then(_square, fusable=False)
            run = builder.submit(adopter, scheduler="swarm")
            seen["dag_id"] = run.dag_id
            seen["value"] = run.future(node).result()
            seen["untouched"] = storage.cos.get_object(storage.bucket, key) == before

        (outcome, _, crash_records, _), _ = self._run(
            _make_env(crash_at),
            scheduler="swarm",
            after_reattach=submit_another,
        )
        assert outcome == "resumed"
        assert seen["value"] == 7 ** 4
        assert seen["untouched"]
        (submitted,) = [
            r.seq
            for r in crash_records
            if r.kind == ev.DAG_SUBMITTED and r.data["dag_id"] == seen["dag_id"]
        ]
        used_before = {
            r.data["dag_id"]
            for r in crash_records
            if r.seq < submitted and "dag_id" in r.data
        }
        assert "dag000" in used_before
        assert seen["dag_id"] not in used_before


class TestResumedDagKeepsNodeRetries:
    """``dag.submitted`` journals the DAG's ``node_retries``; the adopter
    grants each node that budget, so a dependent that fails once after
    the crash is re-run, as it would have been uninterrupted."""

    def _run(self, crash_at):
        from repro.dag import DagBuilder, DagScheduler

        env = _make_env(crash_at)

        def main():
            builder = DagBuilder()
            root = builder.call(_ten_second_identity, 1)
            flaky = root.then(flaky_once, fusable=False)
            executor = pw.ibm_cf_executor()
            job_id = executor.executor_id
            try:
                run = DagScheduler(executor, node_retries=2).submit(builder.build())
                run.expose(flaky)
                run.join()
                return "done", executor.get_result()
            except pw.ClientCrashError:
                job = env.executor().reattach(job_id)
                # join() first: a result() racing the watcher can ingest
                # the first attempt's error before the retry resets it
                job.join()
                return "resumed", job.get_result()

        return env.run(main)

    def test_failed_dependent_is_retried_after_reattach(self):
        assert self._run(NEVER) == ("done", 101)
        assert self._run(5.0) == ("resumed", 101)


class TestJoinOnCrashedDriver:
    """The DAG watcher dies with its driver and wakes the joiners: a
    ``join()`` in flight when client-crash chaos strikes raises the crash
    instead of leaving the kernel with nothing to wake it."""

    def test_join_raises_client_crash(self):
        from repro.dag import DagBuilder, DagScheduler

        env = _make_env(5.0)

        def main():
            builder = DagBuilder()
            builder.call(_ten_second_identity, 1)
            run = DagScheduler(pw.ibm_cf_executor()).submit(builder.build())
            with pytest.raises(pw.ClientCrashError):
                run.join()
            return env.kernel.now()

        assert 5.0 <= env.run(main) < 10.0


class TestKillAtEveryRecordBoundary:
    """Crash the driver just after, and midway to the next of, every
    record of the uninterrupted run's journal and every one of its wait
    rounds.  Whatever the instant, the adopter returns the durable prefix
    of the uninterrupted result, every exposed value is real, and nothing
    committed runs twice."""

    ITEMS = [1, 2, 3, 4]

    @staticmethod
    def _crash_times(instants) -> list[float]:
        times = sorted(set(instants))
        out = []
        for t, nxt in zip(times, times[1:] + [times[-1] + 1.0]):
            out += [t + 1e-6, (t + nxt) / 2.0]
        return out

    def _sweep(self, drive, owed, **config) -> None:
        """``drive(env)`` -> (outcome, result, records, job) in an env of
        ``config``; ``owed(result, baseline)``: is this what the adopter
        owed?"""
        env = _make_env(NEVER, trace=True, **config)
        outcome, baseline, records, _ = drive(env)
        assert outcome == "done"
        rounds = _wait_rounds(env)
        crash_times = self._crash_times([r.t for r in records] + rounds)
        resumed_runs = 0
        for crash_at in crash_times:
            outcome, result, crash_records, job = drive(_make_env(crash_at, **config))
            if outcome == "done":  # died after its last checkpoint
                assert result == baseline
                continue
            resumed_runs += 1
            assert owed(result, baseline), f"crash@{crash_at}"
            _assert_no_reexecution(crash_records, job)
        # a crash before the last wait round (the driver's last checkpoint)
        # is always noticed, and always resumed
        assert resumed_runs == sum(t < max(rounds) for t in crash_times)
        assert resumed_runs >= len(records) + len(rounds)

    @pytest.mark.parametrize("scheduler", DagConfig.SCHEDULERS)
    def test_map_reduce(self, scheduler):
        def owed(result, baseline):
            result = result or []  # nothing exposed before the crash
            return result == baseline[: len(result)] and None not in result

        self._sweep(
            lambda env: _run_map_reduce(env, self.ITEMS),
            owed,
            dag=DagConfig(scheduler=scheduler),
        )

    @pytest.mark.parametrize("scheduler", DagConfig.SCHEDULERS)
    def test_mergesort_dag(self, scheduler):
        # only the root is ever exposed: all of it or nothing
        self._sweep(
            lambda env: TestKillMidDag()._run(env, scheduler)[0],
            lambda result, baseline: result in (None, baseline),
        )


class TestReattachApi:
    def test_requires_events_enabled(self, env):
        def main():
            executor = pw.ibm_cf_executor()
            with pytest.raises(PyWrenError, match="events.enabled"):
                executor.reattach("exec-deadbeef")

        env.run(main)

    def test_unknown_job_raises(self, cloud):
        env = cloud()
        env.config = env.config.with_overrides(
            events=EventsConfig(enabled=True)
        )

        def main():
            executor = pw.ibm_cf_executor()
            own_id = executor.executor_id
            with pytest.raises(PyWrenError, match="no event journal"):
                executor.reattach("exec-no-such-job")
            # a failed reattach must not hijack the executor's identity
            assert executor.executor_id == own_id

        env.run(main)


@settings(
    max_examples=4,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    n=st.integers(min_value=2, max_value=5),
    seed=st.integers(min_value=1, max_value=10_000),
)
def test_same_seed_produces_byte_identical_journal(n, seed):
    """The journal is deterministic: same seed, same workload => the
    exported JSONL is byte-for-byte identical across two fresh clouds."""
    items = list(range(1, n + 1))

    def one_run() -> tuple[bytes, list]:
        env = CloudEnvironment.create(seed=seed, events=True)

        def main():
            executor = pw.ibm_cf_executor()
            executor.map_reduce(_square, items, _total)
            result = executor.get_result()
            return to_jsonl(executor.journal.replay()).encode(), result

        return env.run(main)

    log_a, result_a = one_run()
    log_b, result_b = one_run()
    assert log_a == log_b
    assert result_a == result_b


@pytest.mark.slow
class TestKillAtRandomVtimeSweep:
    """Nightly: crash the driver at random virtual times across a job's
    whole life.  Whatever the instant, the adopter must finish with the
    durable prefix of the baseline's results and never double-execute a
    committed call."""

    ITEMS = [1, 2, 3, 4, 5, 6]

    def test_sweep(self):
        env = _make_env(NEVER, trace=True)
        outcome, baseline, records, _ = _run_map_reduce(env, self.ITEMS)
        assert outcome == "done"
        # the last wait round is the driver's last checkpoint
        horizon = max([r.t for r in records] + _wait_rounds(env))
        exposed = max(r.t for r in records if r.kind == ev.FUTURES_EXPOSED)

        rng = random.Random(0xC0FFEE)
        crash_times = sorted(rng.uniform(0.5, horizon) for _ in range(8))
        for crash_at in crash_times:
            outcome, resumed, crash_records, job = _run_map_reduce(
                _make_env(crash_at), self.ITEMS
            )
            if outcome == "done":
                # the crash window landed after the final checkpoint
                assert resumed == baseline
                continue
            if resumed is None:
                resumed = []  # nothing exposed before the crash instant
            # resumed results are the durable prefix of the baseline —
            # and the whole baseline when the submission was durable
            assert resumed == baseline[: len(resumed)], f"crash@{crash_at}"
            if crash_at > exposed:
                assert pickle.dumps(resumed) == pickle.dumps(baseline)
            _assert_no_reexecution(crash_records, job)
            # zero lost work: every exposed call produced a real value
            assert all(value is not None for value in resumed)
