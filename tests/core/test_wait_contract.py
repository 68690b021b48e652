"""The §4.2 wait contract, once, under both completion transports.

An executor's one ``repro.core.wait.Watcher`` answers every wait;
``cos_polling`` and ``mq_push`` differ only in the completion source it
discovers through.  Every case here runs under both through one fixture,
so the transports cannot drift apart again: same policies, same deadline,
one ``on_progress`` per round, the same journal records, the same lost-call
recovery, and the same answer whoever submitted the futures and however
many threads wait.
"""

from __future__ import annotations

import pytest

import repro as pw
from repro.chaos import ChaosProfile
from repro.core.errors import FunctionError, ResultTimeoutError
from repro.core.futures import ALL_COMPLETED, ALWAYS, ANY_COMPLETED, ResponseFuture
from repro.core.wait import Watcher, wait

TRANSPORTS = ["cos_polling", "mq_push"]


@pytest.fixture(params=TRANSPORTS)
def transport(request) -> str:
    return request.param


def sleeper(seconds):
    pw.sleep(float(seconds))
    return seconds


@pytest.fixture()
def rounds(monkeypatch) -> list[int]:
    """One entry per watcher round (the number of waits parked in it)."""
    seen: list[int] = []
    round_steps = Watcher._round_steps

    def counted(watcher, executor):
        seen.append(len(watcher.waits))
        return (yield from round_steps(watcher, executor))

    monkeypatch.setattr(Watcher, "_round_steps", counted)
    return seen


class TestWaitContract:
    def test_always_returns_immediately(self, env, transport):
        def main():
            executor = pw.ibm_cf_executor(monitoring=transport)
            futures = executor.map(sleeper, [100, 100])
            t0 = pw.now()
            done, not_done = executor.wait(futures, return_when=ALWAYS)
            return len(done), len(not_done), pw.now() - t0

        done, not_done, elapsed = env.run(main)
        assert (done, not_done) == (0, 2)
        assert elapsed < 5.0

    def test_always_sees_what_already_finished(self, env, transport):
        def main():
            executor = pw.ibm_cf_executor(monitoring=transport)
            futures = executor.map(sleeper, [0, 0, 200])
            pw.sleep(30)
            done, not_done = executor.wait(futures, return_when=ALWAYS)
            return [f.call_id for f in done], [f.call_id for f in not_done]

        assert env.run(main) == (["00000", "00001"], ["00002"])

    def test_any_completed(self, env, transport):
        def main():
            executor = pw.ibm_cf_executor(monitoring=transport)
            futures = executor.map(sleeper, [0, 60, 120])
            t0 = pw.now()
            done, not_done = executor.wait(futures, return_when=ANY_COMPLETED)
            return [f.call_id for f in done], len(not_done), pw.now() - t0

        done, not_done, elapsed = env.run(main)
        assert done == ["00000"]
        assert not_done == 2
        assert elapsed < 30.0

    def test_all_completed(self, env, transport):
        def main():
            executor = pw.ibm_cf_executor(monitoring=transport)
            futures = executor.map(sleeper, [1, 2, 3, 4])
            done, not_done = executor.wait(futures, return_when=ALL_COMPLETED)
            return done == futures, not_done, executor.get_result(futures)

        assert env.run(main) == (True, [], [1, 2, 3, 4])

    def test_a_future_listed_twice(self, env, transport):
        """Each listing is a position of its own, and both settle at once."""

        def main():
            executor = pw.ibm_cf_executor(monitoring=transport)
            fast, slow = executor.map(sleeper, [0, 60])
            listed = [slow, fast, slow, fast]
            done, not_done = executor.wait(listed, return_when=ANY_COMPLETED)
            first = [f.call_id for f in done], [f.call_id for f in not_done]
            done, not_done = executor.wait(listed)
            return first, [f.call_id for f in done], not_done, executor.get_result(listed)

        first, done, not_done, results = env.run(main)
        assert first == (["00000", "00000"], ["00001", "00001"])
        assert done == ["00001", "00000", "00001", "00000"]
        assert not_done == []
        assert results == [60, 0, 60, 0]

    def test_timeout_fires_at_the_deadline(self, env, transport):
        """Not up to one ``poll_interval`` past it: the last idle is clipped."""

        def main():
            executor = pw.ibm_cf_executor(monitoring=transport, poll_interval=4.0)
            executor.map(sleeper, [10_000])
            t0 = pw.now()
            with pytest.raises(ResultTimeoutError):
                executor.wait(timeout=15)
            return pw.now() - t0

        assert 15.0 <= env.run(main) < 15.5

    def test_on_progress_once_per_round(self, env, transport, rounds):
        def main():
            executor = pw.ibm_cf_executor(monitoring=transport)
            futures = executor.map(sleeper, [1] * 10 + [6] * 10)
            progress = []
            wait(futures, on_progress=lambda done, total: progress.append((done, total)))
            return progress

        progress = env.run(main)
        assert len(progress) == len(rounds) < 20  # per round, not per call
        assert progress[-1] == (20, 20)
        assert progress == sorted(progress)

    def test_other_callsets_completions_are_kept(self, env, transport):
        def main():
            executor = pw.ibm_cf_executor(monitoring=transport)
            first = executor.map(lambda x: x, [1])
            second = executor.map(lambda x: x * 10, [2])
            # waiting on the second job first must not lose the first's
            r2 = executor.get_result(second)
            r1 = executor.get_result(first)
            return r1, r2

        assert env.run(main) == ([1], [20])

    def test_failures_reported(self, env, transport):
        def main():
            executor = pw.ibm_cf_executor(monitoring=transport)

            def bad(_):
                raise ValueError("nope")

            futures = executor.map(bad, [0])
            done, not_done = executor.wait(futures)
            with pytest.raises(FunctionError, match="nope"):
                futures[0].result()
            return len(done), len(not_done), futures[0].state

        assert env.run(main) == (1, 0, "error")

    def test_lost_calls_recovered_under_crashy_workers(self, cloud, transport):
        env = cloud(chaos=ChaosProfile("crashy-workers", seed=3, crash_prob=0.3))

        def main():
            executor = pw.ibm_cf_executor(monitoring=transport)
            futures = executor.map(lambda x: x * x, list(range(40)), retries=5)
            return executor.get_result(futures), executor.resilience_stats()

        results, stats = env.run(main)
        assert results == [x * x for x in range(40)]
        assert stats["invocation_retries"] >= 1

    def test_exhausted_calls_unblock_the_wait(self, cloud, transport):
        env = cloud(
            chaos=ChaosProfile(
                "crashy-workers", seed=2, crash_prob=1.0, hang_prob=0.0
            )
        )

        def main():
            executor = pw.ibm_cf_executor(monitoring=transport)
            futures = executor.map(lambda x: x, [1, 2, 3], retries=1)
            values, report = executor.get_result(futures, throw_except=False)
            return values, len(report), all(f.lost for f in report.failures)

        assert env.run(main) == ([None, None, None], 3, True)


class TestTransportsAgree:
    """Where push had drifted from polling (each failed before the seam)."""

    @staticmethod
    def _journaled_map(transport):
        env = pw.CloudEnvironment.create(seed=7, events=True)

        def main():
            executor = pw.ibm_cf_executor(monitoring=transport)
            t0 = pw.now()
            values = executor.get_result(executor.map(lambda x: x + 1, range(200)))
            kinds = [r.kind for r in executor.journal.appended]
            return values, kinds, pw.now() - t0

        return env.run(main)

    def test_journal_records_do_not_grow_with_rounds_under_both(self):
        """The watcher appends nothing, however it learns of completions
        — push once appended one record per call (200 WAN PUTs), making
        the faster transport 4x slower — so both journal the same four
        submission records and push stays no slower than polling."""
        polled, polled_kinds, polled_s = self._journaled_map("cos_polling")
        pushed, pushed_kinds, pushed_s = self._journaled_map("mq_push")
        assert pushed == polled == list(range(1, 201))
        assert pushed_kinds == polled_kinds == [
            "executor.created", "job.submitted", "calls.invoked", "futures.exposed",
        ]
        assert pushed_s <= polled_s

    def test_foreign_futures_are_waitable(self, env, transport):
        """``b.wait(a.map(...))``: b's queue never hears of a's calls, so
        its source falls back to the LIST for them."""

        def main():
            a = pw.ibm_cf_executor(monitoring=transport)
            b = pw.ibm_cf_executor(monitoring=transport)
            futures = a.map(lambda x: x + 1, range(5))
            t0 = pw.now()
            done, not_done = b.wait(futures, timeout=120)
            return len(done), len(not_done), pw.now() - t0, b.get_result(futures)

        done, not_done, elapsed, values = env.run(main)
        assert (done, not_done) == (5, 0)
        assert elapsed < 10.0
        assert values == [1, 2, 3, 4, 5]

    def test_concurrent_waiters_on_one_executor(self, env, transport):
        """Two client threads, two callsets, one queue: a message consumed
        by the wrong waiter is kept for the right one."""

        def main():
            executor = pw.ibm_cf_executor(monitoring=transport)
            # both waiters are blocked before the first completion arrives
            jobs = {
                "a": executor.map(sleeper, [5] * 5),
                "b": executor.map(sleeper, [10] * 5),
            }
            t0 = pw.now()
            out = {}

            def waiter(name):
                try:
                    done, _ = executor.wait(jobs[name], timeout=300)
                    out[name] = (len(done), pw.now() - t0)
                except ResultTimeoutError:
                    out[name] = ("timeout", pw.now() - t0)

            tasks = [env.kernel.spawn(waiter, name) for name in jobs]
            for task in tasks:
                task.join()
            return out

        out = env.run(main)
        assert {name: n for name, (n, _) in out.items()} == {"a": 5, "b": 5}
        assert all(elapsed < 20.0 for _, elapsed in out.values())


class TestPollRoundCost:
    """A round costs O(callsets + completions): the pending futures stay
    indexed per callset across rounds, so nothing re-reads all of them."""

    def test_a_round_does_not_scan_the_pending_futures(self, env, monkeypatch, rounds):
        n = 400
        reads = []
        status_known = ResponseFuture.status_known

        def counted(future):
            reads.append(future)
            return status_known.fget(future)

        def main():
            executor = pw.ibm_cf_executor()
            futures = executor.map(sleeper, [i % 40 for i in range(n)])
            monkeypatch.setattr(ResponseFuture, "status_known", property(counted))
            executor.wait(futures)

        env.run(main)
        assert len(rounds) >= 10
        # one read per future to index them, one to report them done
        assert len(reads) <= 2 * n

    def test_callsets_are_listed_by_their_first_pending_future(self, env):
        listed = []

        def main():
            executor = pw.ibm_cf_executor()
            a = executor.map(sleeper, [0, 100])
            b = executor.map(sleeper, [50, 50])
            storage = executor._storage
            list_done = storage.list_done_call_ids_steps

            def recording(executor_id, callset_id):
                listed[-1].append(callset_id)
                return (yield from list_done(executor_id, callset_id))

            storage.list_done_call_ids_steps = recording
            listed.append([])
            done, _ = wait(
                [a[0], b[0], a[1], b[1]],
                on_progress=lambda done, total: listed.append([]),
            )
            return [f.call_id for f in done], a[0].callset_id, b[0].callset_id

        done, a, b = env.run(main)
        assert done == ["00000", "00000", "00001", "00001"]
        rounds = [r for r in listed if r]
        assert rounds[0] == [a, b]
        # once a[0] is done, b's first pending future (position 1) comes
        # before a's (position 2); once b is done, only a is listed
        assert [b, a] in rounds
        assert rounds.index([b, a]) < rounds.index([a])
        assert rounds[-1] == [a] and [a, b] not in rounds[1:]

    def test_statuses_judged_by_a_dag_run_are_swept(self, env):
        """A waited map future that is also an external node of a live DAG
        is judged by the run (which reads its status), not by the wait's
        discovery; the wait still sees it."""

        def main():
            executor = pw.ibm_cf_executor()
            executor.map_reduce(sleeper, [i % 4 for i in range(40)], lambda values: sum(values))
            maps = [f for f in executor.futures if f.callset_id == "M000"]
            done, not_done = executor.wait(maps)
            return len(maps), done == maps, not_done, all(f._status for f in maps)

        assert env.run(main) == (40, True, [], True)
